"""Finite symmetry groups, their on-site actions, and virtual representations.

A symmetry element g acts on one purified site through a physical unitary
u_g and an ancilla unitary ua_g. For a weakly symmetric locally purified
tensor A the combined action pushes through to the virtual legs,

    sum_{i',a'} (u_g)_{i i'} (ua_g)_{a a'} A[i', a'] = e^{i theta_g} V_g A[i, a] V_g^dag,

with V_g unitary and defined up to a phase. V_g is generically a projective
representation; its cocycle data is what the quantized responses measure.

:func:`extract_virtual_reps` extracts V_g of a stack of tensors, under the
stack rule of :mod:`weaksym.transfer`: their spectra and leading pairs come
from its stacked accessors, the polar factors from one stacked SVD, and the
gauges, phases and push-through residuals from stacked products. Each result is bit
for bit the one its tensor gets alone (:func:`extract_virtual_rep`, the
stack of one) and is memoised through :func:`weaksym.transfer._memoised`. A
stack in which an extraction fails raises that tensor's error, as the tensor
does alone, naming the tensor (:func:`weaksym.errors._named`).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    IndefiniteChargeError,
    NearDefectiveError,
    NonCommutingError,
    NotSymmetricError,
    ValidationError,
    _named,
)
from .numerics import _as_square, _identity, _norms, _stacked
from .transfer import _insertions, _memoised, build_transfers, symmetry_gaps, transfer_eigenpairs, transfer_spectra

# Tolerances are scale-free: a tensor times c describes the same state and
# multiplies the leading modulus |lambda_0| of T(1) by |c|^2, so a residual
# that grows as |lambda_0|^k is held to a tolerance times |lambda_0|^k, and a
# rescaled tensor gets the same answer. REP_TOL is that of the modulus tests of
# extract_virtual_rep (k = 1) and of its push-through residual (k = 1/2: the
# residual is linear in the tensor); response.GAP_TOL follows the same rule.
REP_TOL = 1e-8


def unitarity_defect(m, name):
    """Frobenius norm of m m^dag - 1; a matrix that is not square and finite is refused
    under ``name``."""
    m = _as_square(m, name)
    return float(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])))


@dataclass(frozen=True)
class GroupTable:
    """Finite group given by element labels and a multiplication table.

    ``table[i][j]`` is the label of ``labels[i] * labels[j]``. Construction
    checks the group axioms (closure, a unique two-sided identity, unique
    inverses, associativity) and raises :class:`ValidationError` naming the
    one that fails, so every table in use is a group. ``identity`` is found
    on the way.
    """

    labels: tuple
    table: tuple  # tuple of tuples of labels
    identity: object = field(init=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = len(labels)
        if len(set(labels)) != n or n == 0:
            raise ValidationError("group.elements: labels must be nonempty and unique")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValidationError(f"group.table: expected a {n}x{n} table")
        for i, row in enumerate(self.table):
            for j, lab in enumerate(row):
                if lab not in labels:
                    raise ValidationError(f"group.table[{i}][{j}]: unknown label {lab!r}")
        # unique two-sided identity
        ids = [g for g in labels if all(self.multiply(g, h) == h and self.multiply(h, g) == h for h in labels)]
        if len(ids) != 1:
            raise ValidationError(f"group.table: expected exactly one identity, found {ids}")
        e = ids[0]
        for g in labels:
            if sum(1 for h in labels if self.multiply(g, h) == e) != 1:
                raise ValidationError(f"group.table: element {g!r} lacks a unique inverse")
        for a in labels:
            for b in labels:
                for c in labels:
                    if self.multiply(self.multiply(a, b), c) != self.multiply(a, self.multiply(b, c)):
                        raise ValidationError(f"group.table: not associative at ({a!r}, {b!r}, {c!r})")
        object.__setattr__(self, "identity", e)

    def index(self, g):
        try:
            return self.labels.index(g)
        except ValueError:
            raise KeyError(f"unknown group element {g!r}") from None

    def multiply(self, g1, g2):
        return self.table[self.index(g1)][self.index(g2)]

    def order(self, g):
        """Smallest n >= 1 with g^n the identity."""
        n, h = 1, g
        while h != self.identity:
            n, h = n + 1, self.multiply(h, g)
        return n

    def commutes(self, g1, g2):
        return self.multiply(g1, g2) == self.multiply(g2, g1)


@dataclass(frozen=True)
class SymmetryAction:
    """On-site action of one group element: physical u and ancilla ua."""

    element: str
    u: np.ndarray
    ua: np.ndarray

    def validate(self, path="action"):
        for name, m in (("u", self.u), ("ua", self.ua)):
            defect = unitarity_defect(m, f"{path}.{name}")
            if defect > 1e-10:
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


def _push_through_residuals(a4, u, ua, v, thetas):
    """The push-through residual of each tensor of the stack a4 (k, d, da, D, D) with its
    V (v, a stack (k, D, D)) and theta, as an array (k,): the Frobenius norm of the two
    sides of the module's law, as matrix products, O(d da D^3) per tensor. u and ua are
    unchecked; :func:`extract_virtual_reps` checks them against d and da first.

    The products are a few GEMMs, not d da small ones per tensor: u rotates each
    tensor, ua the ancilla legs of the whole stack at once, and A V^dag and V times
    it are one GEMM per tensor each, V against the d da blocks of A V^dag side by
    side. The ua product is bit for bit the one of each block alone; V's can differ
    from it in the last bits, where BLAS takes another kernel for the wider product
    (``verify --model`` at D = 6: a worst residual of 5.616e-15 against 5.600e-15).
    """
    k, d, da, dv, _ = a4.shape
    rotated = (u @ a4.reshape(k, d, -1)).reshape(k * d, da, dv * dv).transpose(1, 0, 2)
    lhs = (ua @ rotated.reshape(da, -1)).reshape(da, k, d, dv, dv).transpose(1, 2, 0, 3, 4)
    blocks = (a4.reshape(k, -1, dv) @ v.conj().transpose(0, 2, 1)).reshape(k, d * da, dv, dv).transpose(0, 2, 1, 3)
    flux = (v @ blocks.reshape(k, dv, -1)).reshape(k, dv, d, da, dv).transpose(0, 2, 3, 1, 4)
    return _norms(lhs - np.exp(1j * np.asarray(thetas))[:, None, None, None, None] * flux)


def extract_virtual_reps(lpdos, act):
    """:func:`extract_virtual_rep` of each of ``lpdos``, a stack under the stack rule of
    :mod:`weaksym.transfer`.

    Raises the error of the first extraction that fails; a stack that fails
    stores no representation, but the spectra and pairs it read stay stored.
    """
    _, _, insertion = _insertions(act.u, act.ua)
    return _memoised(lpdos, ("rep", act.element) + insertion, lambda stack: _extract_virtual_reps(stack, act))


def extract_virtual_rep(lpdo, act):
    """Recover the virtual representation V_g and phase theta_g of a symmetry.

    The leading right eigenvector of T(u_g, ua_g), reshaped to a D x D
    matrix and transposed (the map acts on the conjugate layer first), is
    V_g times the fixed point of the untwisted map; a polar decomposition
    strips the fixed point off. The phase theta_g is the leading
    eigenvalue's phase relative to the untwisted map T(1, 1). Only that pair
    of T(u_g, ua_g) is computed (:func:`~weaksym.transfer.transfer_eigenpair`).

    Returns ``(VirtualRep, theta)``; the representation carries the
    push-through residual it was checked against. Raises
    :class:`DegenerateSpectrumError` if the untwisted leading eigenvalue is
    degenerate in modulus (non-injective tensor), and
    :class:`NotSymmetricError` if the twisted leading modulus deviates from
    the untwisted one (tensor not symmetric under this action) or the
    recovered pair fails the transformation law: the modulus tests at
    ``REP_TOL`` |lambda_0|, the law at ``REP_TOL`` |lambda_0|^(1/2), with
    lambda_0 the untwisted leading eigenvalue.

    The result is memoised on ``lpdo``, keyed by the element label, u_g and
    ua_g; a failed extraction is not stored, but the spectrum and the pair
    it read are, so a retry computes neither again.
    """
    return extract_virtual_reps([lpdo], act)[0]


def _extract_virtual_reps(lpdos, act):
    """The extraction of each of ``lpdos``, a stack; raises the first failure, naming its
    tensor (:func:`~weaksym.errors._named`)."""
    build_transfers(lpdos, act.u, act.ua)  # checks u and ua against d and da first
    u, ua, _ = _insertions(act.u, act.ua)
    dv = lpdos[0].bond_dim
    refs = transfer_spectra(lpdos, _identity(lpdos[0].d), None)
    lam_ref = _stacked([ref.eigenvalues for ref in refs])[:, 0]
    scale = [abs(lam) for lam in lam_ref.tolist()]  # |lambda_0| of T(1), as abs() of one complex
    for lpdo, ref, gap, top in zip(lpdos, refs, symmetry_gaps(refs).tolist(), scale):  # inf for D = 1
        if ref.near_defective:
            raise _named(NearDefectiveError("untwisted transfer map is near-defective"), lpdo)
        if gap <= REP_TOL * top:
            raise _named(DegenerateSpectrumError(f"leading transfer eigenvalue degenerate in modulus (gap {gap:.3e})"), lpdo)

    pairs = transfer_eigenpairs(lpdos, act.u, act.ua)
    lam = np.array([twisted for twisted, _ in pairs])
    for lpdo, twisted, top in zip(lpdos, lam.tolist(), scale):
        modulus = abs(twisted)
        if abs(modulus - top) > REP_TOL * top:
            raise _named(NotSymmetricError(
                f"tensor not symmetric under {act.element!r}: twisted leading modulus {modulus:.12f} vs {top:.12f}"
            ), lpdo)

    w, _, vh = np.linalg.svd(_stacked([right for _, right in pairs]).reshape(-1, dv, dv).transpose(0, 2, 1))
    v = w @ vh  # nearest unitaries (polar factors)
    # gauge: largest-modulus entry real positive, first such entry on ties
    flat = v.reshape(len(v), -1)
    mods = np.abs(flat)
    rows, pick = np.arange(len(v)), (mods > mods.max(1, keepdims=True) - 1e-12).argmax(1)
    v = v * (flat[rows, pick].conj() / mods[rows, pick])[:, None, None]
    v.flags.writeable = False
    quotient = lam / lam_ref
    thetas = np.arctan2(quotient.imag, quotient.real)  # np.angle's, without its checks
    residuals = _push_through_residuals(_stacked([lpdo.tensor for lpdo in lpdos]), u, ua, v, thetas)
    for lpdo, residual, top in zip(lpdos, residuals.tolist(), scale):
        if residual > REP_TOL * top**0.5:
            raise _named(NotSymmetricError(
                f"extracted representation for {act.element!r} fails the transformation "
                f"law (residual {residual:.3e})"
            ), lpdo)
    return [
        (VirtualRep(element=act.element, v=x, residual=residual), theta)
        for x, residual, theta in zip(v, residuals.tolist(), thetas.tolist())
    ]


def cocycle_commutator(rep1, rep2):
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
    if abs(c) < 1e-8 or np.linalg.norm(m - c * np.eye(dim)) > 1e-8 * np.sqrt(dim):
        raise NonCommutingError(
            "virtual representations do not commute projectively "
            f"({rep1.element!r}, {rep2.element!r})"
        )
    return complex(c / abs(c))


def endpoint_charge(chi, act):
    """Charge e^{i phi} of an endpoint operator under u_g conjugation.

    Requires u_g chi u_g^dag = e^{i phi} chi to a relative residual of 1e-10;
    anything else raises :class:`IndefiniteChargeError`.
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
    if residual > 1e-10 or abs(c) < 1e-10:
        raise IndefiniteChargeError(
            f"operator has no definite charge under {act.element!r} (residual {residual:.3e})"
        )
    return complex(c / abs(c))
