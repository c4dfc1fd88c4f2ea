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
the conservation law.

For D > 2 the map is one matrix product, O(d da D^4) work: the ket layer is
rotated by O and O_a, then contracted against conj(A) reshaped to
(d da) x D^2. For D <= 2 it is the einsum of the formula above, which
differs from the product in the last bits and so keeps the built-in AKLT
family's outputs bit-stable.

Spectra and eigenpairs come from :mod:`weaksym.numerics`, dense or by
Krylov iteration on the size of the map; a large map gets only its leading
eigenpairs, which are all any consumer reads.

Every value is memoised on the tensor under its insertions' complex shapes
and bytes; an insertion is checked when its map is built, not on each lookup.
"""

import numpy as np

from .errors import DimensionMismatchError
from .numerics import ScaledPowers, _as_square, _insertion, leading_eigenpair, leading_spectrum, spectral_decompose


def _insertions(op, op_a):
    """Unchecked complex ``(op, op_a)`` and the memo key of T(op, op_a): their shapes and bytes."""
    op = np.asarray(op, dtype=complex)
    key = (op.shape, op.tobytes())
    if op_a is not None:
        op_a = np.asarray(op_a, dtype=complex)
        key += (op_a.shape, op_a.tobytes())
    return op, op_a, key


def _contract(a4, op, op_a):
    d, da, dv, _ = a4.shape
    # j, b: bra physical and ancilla; i, a: ket physical and ancilla (b = a
    # when the ancilla is traced through)
    if dv <= 2:
        if op_a is None:
            t = np.einsum("ji,jamn,iapq->mpnq", op, a4.conj(), a4)
        else:
            t = np.einsum("ji,ba,jbmn,iapq->mpnq", op, op_a, a4.conj(), a4)
    else:
        # rotate the ket layer, ket[j, b, (p q)], then one GEMM against the
        # bra layer gives [(m n), (p q)]
        ket = (op @ a4.reshape(d, -1)).reshape(d, da, dv * dv)
        if op_a is not None:
            ket = op_a @ ket
        t = a4.conj().reshape(d * da, dv * dv).T @ ket.reshape(d * da, dv * dv)
        t = t.reshape(dv, dv, dv, dv).transpose(0, 2, 1, 3)
    t = t.reshape(dv * dv, dv * dv)
    t.flags.writeable = False
    return t


def build_transfer(lpdo, op, op_a=None):
    """The D^2 x D^2 transfer map T(op, op_a) as a dense array.

    ``op`` is a d x d matrix sandwiched between the bra and ket physical
    legs, ``op_a`` a da x da matrix between the ancilla legs; ``op_a=None``
    traces the ancilla through directly. ``op = 1`` and ``op_a=None`` give
    the ordinary mixed-state transfer map. The map is built once per tensor
    and insertion pair and returned read-only.

    The memo key is the insertions' complex shapes and bytes. Their sizes and
    finiteness are checked when the map is built, and every value memoised
    per insertion pair comes from the map, so a hit checks nothing again.
    """
    op, op_a, key = _insertions(op, op_a)

    def build():
        _insertion(op, "op", "d", lpdo.d)
        if op_a is not None:
            _insertion(op_a, "op_a", "da", lpdo.da)
        return _contract(lpdo.tensor, op, op_a)

    return lpdo.memoised(("transfer",) + key, build)


def transfer_spectrum(lpdo, op, op_a=None, complete=False):
    """Spectrum of T(op, op_a), decomposed once per tensor and insertion pair.

    The spectrum is :func:`~weaksym.numerics.leading_spectrum`'s: full up to
    ``DENSE_MAX_ROWS`` rows (bond dimension 10), partial above. ``complete`` asks for a full spectrum
    at any bond dimension; a large map then gets
    :func:`~weaksym.numerics.spectral_decompose` too, memoised next to its
    partial spectrum. With :func:`transfer_eigenpair`, this is the only
    route from a transfer map to an eigensolver.
    """
    op, op_a, key = _insertions(op, op_a)
    spectrum = lpdo.memoised(("spectrum",) + key, lambda: leading_spectrum(build_transfer(lpdo, op, op_a)))
    if complete and not spectrum.complete:
        spectrum = lpdo.memoised(
            ("complete spectrum",) + key, lambda: spectral_decompose(build_transfer(lpdo, op, op_a))
        )
    return spectrum


def transfer_eigenpair(lpdo, op, op_a=None):
    """:func:`~weaksym.numerics.leading_eigenpair` of T(op, op_a), R0 read-only, once per tensor and insertion pair."""
    op, op_a, key = _insertions(op, op_a)

    def compute():
        lam, right = leading_eigenpair(build_transfer(lpdo, op, op_a))
        right.flags.writeable = False
        return lam, right

    return lpdo.memoised(("eigenpair",) + key, compute)


def transfer_powers(lpdo, op, op_a=None):
    """Squaring table of T(op, op_a), built once per tensor and insertion pair.

    The :class:`~weaksym.numerics.ScaledPowers` table is memoised next to the
    map and its spectrum, so every ring trace Tr[X T^N] on one model, at any
    N, squares the map at most once per bit level. This is the only place a
    table is built.
    """
    op, op_a, key = _insertions(op, op_a)
    return lpdo.memoised(("powers",) + key, lambda: ScaledPowers(build_transfer(lpdo, op, op_a)))


def flux_operator(v):
    """kron(conj(V), V), as one broadcast product: a finite square flux V threaded through the doubled space."""
    v = _as_square(v, "flux")
    dv = v.shape[0]
    return (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(dv * dv, dv * dv)


def twisted_spectrum(model, g):
    """Spectrum of the transfer matrix twisted by u_g on the physical leg."""
    return transfer_spectrum(model.lpdo, model.action(g).u)


def symmetry_gap(spectrum):
    """Modulus gap |lambda_0| - |lambda_1| of a transfer spectrum.

    Zero (or negative roundoff) at a symmetry-restoration transition;
    single-eigenvalue spectra have an infinite gap by convention. A partial
    spectrum holds both moduli whole (it never splits a tied cluster).
    """
    mods = np.abs(spectrum.eigenvalues)
    if len(mods) < 2:
        return float("inf")
    return float(mods[0] - mods[1])


def commutant_residual(transfer, rep):
    """Frobenius norm of [kron(conj(V), V), T] for a transfer map T.

    Vanishes whenever the state is weakly symmetric under the element that
    V represents and the inserted operator commutes with that element. The
    flux acts on the (D, D, D, D) view T[m, p, n, q] as a conjugation of each
    leg pair, conj(V) on m and n, V on p and q: O(D^5) work, with no
    D^2 x D^2 flux matrix.
    """
    v = _as_square(rep.v, "flux")
    dv = v.shape[0]
    if transfer.shape != (dv * dv, dv * dv):
        raise DimensionMismatchError(f"flux is {dv}x{dv}, transfer is {transfer.shape}")
    # (F T)[m p, n q] = conj(V)[m, M] V[p, P] T[M P, n q]
    ft = np.matmul(v, (v.conj() @ transfer.reshape(dv, -1)).reshape(dv, dv, -1))
    # (T F)[m p, n q] = T[m p, N Q] conj(V)[N, n] V[Q, q]
    tf = np.matmul(v.conj().T, (transfer.reshape(-1, dv) @ v).reshape(-1, dv, dv))
    return float(np.linalg.norm(ft.reshape(-1) - tf.reshape(-1)))
