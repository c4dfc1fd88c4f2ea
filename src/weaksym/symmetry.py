"""Finite symmetry groups, their on-site actions, and virtual representations.

A symmetry element g acts on one purified site through a physical unitary
u_g and an ancilla unitary ua_g. For a weakly symmetric locally purified
tensor A the combined action pushes through to the virtual legs,

    sum_{i',a'} (u_g)_{i i'} (ua_g)_{a a'} A[i', a'] = e^{i theta_g} V_g A[i, a] V_g^dag,

with V_g unitary and defined up to a phase. V_g is generically a projective
representation; its cocycle data is what the quantized responses measure.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    IndefiniteChargeError,
    NearDefectiveError,
    NonCommutingError,
    NotSymmetricError,
    ValidationError,
)
from .numerics import _as_square, spectral_decompose
from .transfer import build_transfer


def unitarity_defect(m):
    """Frobenius norm of m m^dag - 1."""
    m = _as_square(m)
    return float(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])))


@dataclass(frozen=True)
class GroupTable:
    """Finite group given by element labels and a multiplication table.

    ``table[i][j]`` is the label of ``labels[i] * labels[j]``. Validation
    (closure, unique identity, inverses, associativity) runs on
    construction via :meth:`from_table`.
    """

    labels: tuple
    table: tuple  # tuple of tuples of labels

    @classmethod
    def from_table(cls, labels, table):
        g = cls(tuple(labels), tuple(tuple(row) for row in table))
        g.validate()
        return g

    def validate(self, path="group"):
        labels = self.labels
        n = len(labels)
        if len(set(labels)) != n or n == 0:
            raise ValidationError(f"{path}.elements: labels must be nonempty and unique")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValidationError(f"{path}.table: expected a {n}x{n} table")
        for i, row in enumerate(self.table):
            for j, lab in enumerate(row):
                if lab not in labels:
                    raise ValidationError(f"{path}.table[{i}][{j}]: unknown label {lab!r}")
        # unique two-sided identity
        ids = [g for g in labels if all(self.multiply(g, h) == h and self.multiply(h, g) == h for h in labels)]
        if len(ids) != 1:
            raise ValidationError(f"{path}.table: expected exactly one identity, found {ids}")
        e = ids[0]
        for g in labels:
            if sum(1 for h in labels if self.multiply(g, h) == e) != 1:
                raise ValidationError(f"{path}.table: element {g!r} lacks a unique inverse")
        for a in labels:
            for b in labels:
                for c in labels:
                    if self.multiply(self.multiply(a, b), c) != self.multiply(a, self.multiply(b, c)):
                        raise ValidationError(f"{path}.table: not associative at ({a!r}, {b!r}, {c!r})")

    def index(self, g):
        try:
            return self.labels.index(g)
        except ValueError:
            raise KeyError(f"unknown group element {g!r}") from None

    def multiply(self, g1, g2):
        return self.table[self.index(g1)][self.index(g2)]

    @property
    def identity(self):
        for g in self.labels:
            if all(self.multiply(g, h) == h for h in self.labels):
                return g
        raise ValidationError("group.table: no identity element")

    def inverse(self, g):
        e = self.identity
        for h in self.labels:
            if self.multiply(g, h) == e:
                return h
        raise ValidationError(f"group.table: no inverse for {g!r}")

    def order(self, g):
        e = self.identity
        h = g
        for n in range(1, len(self.labels) + 1):
            if h == e:
                return n
            h = self.multiply(h, g)
        raise ValidationError(f"group.table: power sequence of {g!r} never reaches identity")

    def commutes(self, g1, g2):
        return self.multiply(g1, g2) == self.multiply(g2, g1)


@dataclass(frozen=True)
class SymmetryAction:
    """On-site action of one group element: physical u, ancilla ua, phase theta."""

    element: str
    u: np.ndarray
    ua: np.ndarray
    theta: float = 0.0

    def validate(self, tol=1e-10, path="action"):
        for name, m in (("u", self.u), ("ua", self.ua)):
            defect = unitarity_defect(m)
            if defect > tol:
                raise ValidationError(f"{path}.{name}: not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class VirtualRep:
    """Unitary acting on the virtual leg, gauge-fixed so its largest-modulus
    entry (first in row-major order on ties) is real positive.

    ``residual`` is the push-through residual measured when the
    representation was extracted (None for one built by hand).
    """

    element: str
    v: np.ndarray
    residual: float | None = None


def verify_transformation_law(lpdo, act, rep, theta=None):
    """Residual of the virtual-leg push-through relation.

    Returns the Frobenius norm, over all physical/ancilla indices, of

        sum_{i',a'} u[i,i'] ua[a,a'] A[i',a'] - e^{i theta} V A[i,a] V^dag.

    ``theta`` defaults to ``act.theta``.
    """
    a4 = lpdo.tensor
    u = _as_square(act.u, "u")
    ua = _as_square(act.ua, "ua")
    v = _as_square(rep.v, "v")
    d, da, dv, _ = a4.shape
    if u.shape[0] != d:
        raise DimensionMismatchError(f"u is {u.shape[0]}x{u.shape[0]}, tensor has d={d}")
    if ua.shape[0] != da:
        raise DimensionMismatchError(f"ua is {ua.shape[0]}x{ua.shape[0]}, tensor has da={da}")
    if v.shape[0] != dv:
        raise DimensionMismatchError(f"v is {v.shape[0]}x{v.shape[0]}, tensor has D={dv}")
    if theta is None:
        theta = act.theta
    # i,a: outer physical/ancilla; x,y: virtual
    lhs = np.einsum("ij,ab,jbxy->iaxy", u, ua, a4)
    rhs = np.exp(1j * theta) * np.einsum("xp,iapq,yq->iaxy", v, a4, v.conj())
    return float(np.linalg.norm(lhs - rhs))


def extract_virtual_rep(lpdo, act, tol=1e-8):
    """Recover the virtual representation V_g and phase theta_g of a symmetry.

    The leading right eigenvector of T(u_g, ua_g), reshaped to a D x D
    matrix and transposed (the map acts on the conjugate layer first), is
    V_g times the fixed point of the untwisted map; a polar decomposition
    strips the fixed point off. The phase theta_g is the leading
    eigenvalue's phase relative to the untwisted map T(1, 1).

    Returns ``(VirtualRep, theta)``; the representation carries the
    push-through residual it was checked against. Raises
    :class:`DegenerateSpectrumError` if the untwisted leading eigenvalue is
    degenerate in modulus (non-injective tensor), and
    :class:`NotSymmetricError` if the twisted leading modulus deviates from
    the untwisted one (tensor not symmetric under this action) or the
    recovered pair fails the transformation law.
    """
    dv = lpdo.bond_dim
    ref = spectral_decompose(build_transfer(lpdo, np.eye(lpdo.d)))
    if ref.near_defective:
        raise NearDefectiveError("untwisted transfer map is near-defective")
    mods = np.abs(ref.eigenvalues)
    if dv * dv > 1 and mods[0] - mods[1] <= tol * max(1.0, mods[0]):
        raise DegenerateSpectrumError(
            f"leading transfer eigenvalue degenerate in modulus (gap {mods[0] - mods[1]:.3e})"
        )
    lam_ref = ref.eigenvalues[0]

    twisted = spectral_decompose(build_transfer(lpdo, act.u, act.ua))
    lam = twisted.eigenvalues[0]
    if abs(abs(lam) - abs(lam_ref)) > tol * max(1.0, abs(lam_ref)):
        raise NotSymmetricError(
            f"tensor not symmetric under {act.element!r}: twisted leading modulus "
            f"{abs(lam):.12f} vs {abs(lam_ref):.12f}"
        )

    x = twisted.right_vectors[:, 0].reshape(dv, dv).T
    w, _, vh = np.linalg.svd(x)
    v = w @ vh  # nearest unitary (polar factor)

    # gauge: largest-modulus entry real positive, first such entry on ties
    flat = v.ravel()
    mods = np.abs(flat)
    pick = int(np.argmax(mods > mods.max() - 1e-12))
    v = v * (flat[pick].conjugate() / mods[pick])

    theta = float(np.angle(lam / lam_ref))
    rep = VirtualRep(element=act.element, v=v)
    residual = verify_transformation_law(lpdo, act, rep, theta=theta)
    if residual > tol:
        raise NotSymmetricError(
            f"extracted representation for {act.element!r} fails the transformation "
            f"law (residual {residual:.3e})"
        )
    return replace(rep, residual=residual), theta


def cocycle_commutator(rep1, rep2, tol=1e-8):
    """Projective phase e^{i Q_t} from the group commutator of two virtual reps.

    Computes M = V1 V2 V1^dag V2^dag and requires M to be a scalar; the
    scalar, normalized to unit modulus, is the gauge-invariant cocycle
    ratio. Raises :class:`NonCommutingError` when M is not proportional to
    the identity.
    """
    v1 = _as_square(rep1.v, "rep1.v")
    v2 = _as_square(rep2.v, "rep2.v")
    if v1.shape != v2.shape:
        raise DimensionMismatchError(f"representation shapes differ: {v1.shape} vs {v2.shape}")
    m = v1 @ v2 @ v1.conj().T @ v2.conj().T
    dim = m.shape[0]
    c = np.trace(m) / dim
    if abs(c) < tol or np.linalg.norm(m - c * np.eye(dim)) > tol * np.sqrt(dim):
        raise NonCommutingError(
            "virtual representations do not commute projectively "
            f"({rep1.element!r}, {rep2.element!r})"
        )
    return complex(c / abs(c))


def endpoint_charge(chi, act, tol=1e-10):
    """Charge e^{i phi} of an endpoint operator under u_g conjugation.

    Requires u_g chi u_g^dag = e^{i phi} chi; anything else raises
    :class:`IndefiniteChargeError`.
    """
    chi = _as_square(chi, "chi")
    u = _as_square(act.u, "u")
    if chi.shape != u.shape:
        raise DimensionMismatchError(f"chi is {chi.shape}, u is {u.shape}")
    norm2 = np.vdot(chi, chi)
    if not norm2 > 0:
        raise IndefiniteChargeError("endpoint operator is zero")
    rotated = u @ chi @ u.conj().T
    c = np.vdot(chi, rotated) / norm2
    residual = np.linalg.norm(rotated - c * chi) / np.sqrt(abs(norm2))
    if residual > tol or abs(c) < tol:
        raise IndefiniteChargeError(
            f"operator has no definite charge under {act.element!r} (residual {residual:.3e})"
        )
    return complex(c / abs(c))
