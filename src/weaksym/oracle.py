"""Dense brute-force oracle for small rings.

Contracts the purified tensor into the full state vector, reduces to the
physical density matrix, and evaluates observables against explicit
Kronecker-product operators. Exponentially expensive on purpose: every
quantity here is an independent cross-check for the transfer-matrix
formulas, and the oracle still shares no code with the transfer layer.

The ring is contracted as a chain of matrix products. The running block is
one matrix whose rows are (left bond, accumulated site indices) and whose
columns are the right bond; the seam is the first factor, and each site
multiplies the block by the site matrix A[b, (i a c)] = A[i, a, b, c], whose
columns again end in the right bond, so the product reshapes into the next
block without a copy. The open left and right bonds are traced at the end.
Every dense array is bounded by ``MAX_AMPLITUDES`` entries and refused with
:class:`SizeGuardError` before it is allocated.
"""

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError
from .numerics import _as_square

MAX_AMPLITUDES = 2 ** 24


@dataclass
class DenseDensity:
    """Dense density matrix on d^n_sites physical basis states."""

    n_sites: int
    matrix: np.ndarray

    def validate(self, tol=1e-10):
        """Hermiticity and positivity residuals (worst offenders)."""
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        low = float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())
        if herm > tol or low < -tol:
            raise ValueError(f"not a density matrix: hermiticity {herm:.3e}, min eig {low:.3e}")
        return herm, low


def _guard(entries, what):
    """Refuse a dense array of more than MAX_AMPLITUDES entries before allocating it."""
    if entries > MAX_AMPLITUDES:
        raise SizeGuardError(f"{what} = {entries} entries exceeds the guard of {MAX_AMPLITUDES}")


def contract_full(lpdo, seam, n_sites):
    """Full purified state vector of a ring with a seam matrix inserted.

    coefficient(i1 a1 ... iN aN) = tr[seam A[i1, a1] ... A[iN, aN]].
    Returns an array of shape (d, da) * n_sites, site-major. Refuses
    rings whose open-bond block, (d*da)^N * D^2 entries, exceeds
    ``MAX_AMPLITUDES``.
    """
    a4 = lpdo.tensor
    d, da, dv, _ = a4.shape
    n_sites = int(n_sites)
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    _guard((d * da) ** n_sites * dv * dv, "open-bond block (d*da)^N * D^2")
    seam = _as_square(seam, "seam")
    if seam.shape[0] != dv:
        raise DimensionMismatchError(f"seam is {seam.shape[0]}x{seam.shape[0]}, bond is {dv}")

    site = a4.transpose(2, 0, 1, 3).reshape(dv, d * da * dv)
    block = seam
    for _ in range(n_sites):
        block = (block @ site).reshape(-1, dv)
    state = np.einsum("asa->s", block.reshape(dv, -1, dv))
    return state.reshape((d, da) * n_sites)


def density_from_state(state, n_sites):
    """Physical density matrix: trace the ancilla legs out of |psi><psi|.

    ``state`` must come from :func:`contract_full` (shape (d, da) * N).
    """
    n_sites = int(n_sites)
    if state.ndim != 2 * n_sites:
        raise DimensionMismatchError(
            f"state has {state.ndim} legs, expected {2 * n_sites} for {n_sites} sites"
        )
    d, da = state.shape[0], state.shape[1]
    _guard(d ** (2 * n_sites), "density matrix d^N x d^N")
    perm = list(range(0, 2 * n_sites, 2)) + list(range(1, 2 * n_sites, 2))
    psi = state.transpose(perm).reshape(d ** n_sites, da ** n_sites)
    return DenseDensity(n_sites=n_sites, matrix=psi @ psi.conj().T)


def apply_channel_exact(rho, channel):
    """Apply a single-site channel to every site of a dense density matrix."""
    d = channel.d
    dim = rho.matrix.shape[0]
    if d ** rho.n_sites != dim:
        raise DimensionMismatchError(
            f"density matrix dim {dim} is not d^N for d={d}, N={rho.n_sites}"
        )
    out = rho.matrix
    for site in range(rho.n_sites):
        left = np.eye(d ** site)
        right = np.eye(d ** (rho.n_sites - site - 1))
        acc = np.zeros_like(out)
        for ka in channel.kraus:
            op = np.kron(np.kron(left, ka), right)
            acc += op @ out @ op.conj().T
        out = acc
    return DenseDensity(n_sites=rho.n_sites, matrix=out)


def expectation(rho, ops):
    """Tr[rho (op_1 kron ... kron op_N)] for one operator per site."""
    if len(ops) != rho.n_sites:
        raise DimensionMismatchError(f"got {len(ops)} operators for {rho.n_sites} sites")
    ops = [_as_square(op, "op") for op in ops]
    _guard(prod(op.shape[0] for op in ops) ** 2, "operator product")
    full = reduce(np.kron, ops)
    if full.shape != rho.matrix.shape:
        raise DimensionMismatchError(
            f"operator product is {full.shape}, density matrix is {rho.matrix.shape}"
        )
    # tr(rho F) = sum_ij rho_ij F_ji, without forming the product rho F
    return complex(np.sum(rho.matrix * full.T))
