"""Kronecker-product reference for the oracle tests.

The state vector of a ring, its physical density matrix and a channel
applied to that density, each formed whole: d^N x d^N matrices that the
package's oracle never writes. Tests compare against them on rings of a
few sites.
"""

from functools import reduce

import numpy as np

from weaksym import oracle


def purified_state(lpdo, seam, n_sites):
    """Amplitudes tr[seam A[i1, a1] ... A[iN, aN]] as an array of shape (d, da) * N, site-major."""
    left, right, _ = oracle._ring(lpdo, seam, n_sites)
    return (left @ right).reshape(lpdo.tensor.shape[:2] * n_sites)


def density(state, n_sites):
    """Physical density matrix d^N x d^N: the ancilla legs of |psi><psi| traced out."""
    d, da = state.shape[0], state.shape[1]
    perm = list(range(0, 2 * n_sites, 2)) + list(range(1, 2 * n_sites, 2))
    psi = state.transpose(perm).reshape(d ** n_sites, da ** n_sites)
    return psi @ psi.conj().T


def apply_channel(rho, n_sites, kraus):
    """The single-site channel with Kraus operators ``kraus`` applied to every site of ``rho``."""
    d = kraus[0].shape[0]
    for site in range(n_sites):
        left, right = np.eye(d ** site), np.eye(d ** (n_sites - site - 1))
        rho = sum(op @ rho @ op.conj().T for op in (reduce(np.kron, (left, k, right)) for k in kraus))
    return rho
