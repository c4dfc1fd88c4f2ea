"""References the package's stacked code is tested against.

Kronecker products for the oracle tests: the state vector of a ring, its
physical density matrix and a channel applied to that density, each formed
whole: d^N x d^N matrices that the package's oracle never writes. Tests
compare against them on rings of a few sites.

And the dense spectrum of one matrix at a time (:func:`spectrum`), as the
package computed it before its spectra, pairing measurements and clusters
were computed as stacks: each member of a stacked
``numerics.spectral_decompose`` must equal it bit for bit, the memory layout
of its vectors included.
"""

from functools import reduce

import numpy as np

from weaksym import oracle
from weaksym.numerics import CLUSTER_TOL


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


def spectrum(m):
    """(eigenvalues, right vectors, left vectors, pairing residual, condition estimate,
    clusters) of the square matrix m, one matrix at a time: its eigenvalues sorted by
    (-|w|, -Re w, -Im w), its right vectors eig's columns picked by one fancy index, its
    left vectors their inverse (zeros in its layout where there is none)."""
    w, r = np.linalg.eig(m)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w, right = w[order], r[:, order]
    try:
        left = np.linalg.inv(right[None])[0]
    except np.linalg.LinAlgError:
        left = np.zeros_like(right)
    pairing = left @ right
    with np.errstate(all="ignore"):
        wilkinson = np.sqrt((abs(left) ** 2).sum(1) * (abs(right) ** 2).sum(0)) / abs(pairing.diagonal())
    pairing.flat[:: len(w) + 1] -= 1
    return w, right, left, float(np.abs(pairing).max()), float(wilkinson.max()), clusters(w, right, left)


def clusters(w, right, left):
    """[(eigenvalue, members, condition)] per cluster of one spectrum, one cluster at a time:
    in spectrum order, each takes every eigenvalue not yet taken within ``CLUSTER_TOL``
    |w_0| of its first; ``condition`` is ||R_c L_c||_F."""
    simple = np.sqrt((abs(right) ** 2).sum(0) * (abs(left) ** 2).sum(1))
    close = np.abs(w[:, None] - w) <= CLUSTER_TOL * abs(w[0])
    out, free = [], [True] * len(w)
    for i, (lam, near) in enumerate(zip(w.tolist(), close.tolist())):
        if free[i]:
            members = np.array(near) & free
            free = [f and not m for f, m in zip(free, near)]
            condition = simple[i]
            if np.count_nonzero(members) > 1:
                r, l = right[:, members], left[members]
                condition = np.sqrt(np.vdot(l @ l.conj().T, r.conj().T @ r).real)
            out.append((lam, members, float(condition)))
    return out
