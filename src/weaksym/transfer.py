"""Symmetry-twisted transfer maps of locally purified tensors.

A weak symmetry g acts on one purified site as u_g (x) ua_g, and every
quantity in this package is read off one object: the transfer map with a
physical insertion O and an ancilla insertion O_a,

    T(O, O_a)[(m p), (n q)] = sum_{i,j,a,b} O[j, i] O_a[b, a] conj(A[j, b])[m, n] A[i, a][p, q].

The doubled virtual space is ordered (conjugate-layer index slow, ket-layer
index fast), i.e. a vectorized boundary matrix M[conj, ket] flattens in row
major order, and the operator threading a symmetry flux V through it is
kron(conj(V), V). T(1, 1) is the ordinary mixed-state transfer map; T(u, 1)
carries the flux responses and symmetry gaps; T(1, ua) the ancilla share of
the conservation law. The leading right eigenvector of T(u, ua), reshaped
to M[conj, ket] and transposed, is V_g times the fixed point of T(1, 1),
which is how :func:`weaksym.symmetry.extract_virtual_rep` reads V_g off.
"""

import numpy as np

from .errors import DimensionMismatchError
from .numerics import _as_square, kron, spectral_decompose


def _insertion(m, name, leg, dim):
    m = _as_square(m, name)
    if m.shape[0] != dim:
        raise DimensionMismatchError(f"{name} is {m.shape[0]}x{m.shape[0]}, tensor has {leg}={dim}")
    return m


def build_transfer(lpdo, op, op_a=None):
    """The D^2 x D^2 transfer map T(op, op_a) as a dense array.

    ``op`` is a d x d matrix sandwiched between the bra and ket physical
    legs, ``op_a`` a da x da matrix between the ancilla legs; ``op_a=None``
    traces the ancilla through directly. ``op = 1`` and ``op_a=None`` give
    the ordinary mixed-state transfer map.
    """
    a4 = lpdo.tensor
    d, da, dv, _ = a4.shape
    op = _insertion(op, "op", "d", d)
    # j, b: bra physical and ancilla; i, a: ket physical and ancilla (b = a
    # when the ancilla is traced through)
    if op_a is None:
        t = np.einsum("ji,jamn,iapq->mpnq", op, a4.conj(), a4)
    else:
        t = np.einsum("ji,ba,jbmn,iapq->mpnq", op, _insertion(op_a, "op_a", "da", da), a4.conj(), a4)
    return t.reshape(dv * dv, dv * dv)


def flux_operator(v):
    """kron(conj(V), V): a symmetry flux V threaded through the doubled space."""
    return kron(np.asarray(v).conj(), v)


def twisted_spectrum(model, g, tol=1e-10):
    """Spectrum of the transfer matrix twisted by u_g on the physical leg."""
    return spectral_decompose(build_transfer(model.lpdo, model.action(g).u), tol=tol)


def symmetry_gap(spectrum):
    """Modulus gap |lambda_0| - |lambda_1| of a transfer spectrum.

    Zero (or negative roundoff) at a symmetry-restoration transition;
    single-eigenvalue spectra have an infinite gap by convention.
    """
    mods = np.abs(spectrum.eigenvalues)
    if len(mods) < 2:
        return float("inf")
    return float(mods[0] - mods[1])


def commutant_residual(transfer, rep):
    """Frobenius norm of [kron(conj(V), V), T] for a transfer map T.

    Vanishes whenever the state is weakly symmetric under the element that
    V represents and the inserted operator commutes with that element.
    """
    f = flux_operator(rep.v)
    if f.shape != transfer.shape:
        raise DimensionMismatchError(f"flux is {f.shape}, transfer is {transfer.shape}")
    return float(np.linalg.norm(f @ transfer - transfer @ f))
