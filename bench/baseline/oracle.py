"""Dense brute-force oracle for small rings.

Contracts the purified tensor into the full state vector, reduces to the
physical density matrix, and evaluates observables by explicit operator
products. Exponentially expensive on purpose: every quantity here is an
independent cross-check for the transfer-matrix formulas, computed without
any of their machinery.
"""

from dataclasses import dataclass
from functools import reduce

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


def contract_full(lpdo, seam, n_sites):
    """Full purified state vector of a ring with a seam matrix inserted.

    coefficient(i1 a1 ... iN aN) = tr[seam A[i1, a1] ... A[iN, aN]].
    Returns an array of shape (d, da) * n_sites, site-major. Refuses
    contractions beyond 2^24 amplitudes.
    """
    a4 = lpdo.tensor
    d, da, dv, _ = a4.shape
    n_sites = int(n_sites)
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if (d * da) ** n_sites > MAX_AMPLITUDES:
        raise SizeGuardError(
            f"(d*da)^N = {(d * da) ** n_sites} amplitudes exceeds the 2^24 guard"
        )
    seam = _as_square(seam, "seam")
    if seam.shape[0] != dv:
        raise DimensionMismatchError(f"seam is {seam.shape[0]}x{seam.shape[0]}, bond is {dv}")

    # running open-legs block: (accumulated site indices, left bond, right bond)
    block = np.einsum("ab,pqbc->pqac", seam, a4).reshape(d * da, dv, dv)
    for _ in range(n_sites - 1):
        block = np.einsum("sab,pqbc->spqac", block, a4).reshape(-1, dv, dv)
    state = np.einsum("saa->s", block)
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
    full = reduce(np.kron, [_as_square(op, "op") for op in ops])
    if full.shape != rho.matrix.shape:
        raise DimensionMismatchError(
            f"operator product is {full.shape}, density matrix is {rho.matrix.shape}"
        )
    return complex(np.trace(rho.matrix @ full))
