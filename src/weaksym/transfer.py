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

The maps, spectra and leading pairs also come in stacks:
:func:`build_transfers`, :func:`transfer_spectra` and
:func:`transfer_eigenpairs` take a sequence of tensors and compute the memo
misses among them, tensors of one shape at a time, as one stack: one einsum
or GEMM per stack, its insertions checked once, and one stacked LAPACK call
on the dense path. Each result is stored in its own tensor's memo, bit for
bit the value that tensor gets alone; the one-tensor accessors are the
stacks of one, and a hit among them is one dict lookup. A stack that
raises is computed again one tensor at a time, and a tensor that fails
alone gets its exception in place of its value; nothing is stored for it,
so reading it alone raises the same error again.
"""

import numpy as np

from .errors import DimensionMismatchError, WeaksymError
from .numerics import ScaledPowers, _as_square, _insertion, _stacked, leading_eigenpair, leading_spectrum, spectral_decompose

# What a stack may raise because of one of its tensors.
_STACK_ERRORS = (WeaksymError, np.linalg.LinAlgError)


def _insertions(op, op_a):
    """Unchecked complex ``(op, op_a)`` and the memo key of T(op, op_a): their shapes and bytes."""
    op = np.asarray(op, dtype=complex)
    key = (op.shape, op.tobytes())
    if op_a is not None:
        op_a = np.asarray(op_a, dtype=complex)
        key += (op_a.shape, op_a.tobytes())
    return op, op_a, key


def _memoised_stack(lpdos, key, compute):
    """The value under ``key`` of each of ``lpdos``, in order, the misses computed as stacks.

    ``compute(stack)`` returns one value per tensor of ``stack``, a list of
    distinct tensors of one shape. A stack that raises one of
    ``_STACK_ERRORS`` is computed one tensor at a time; a tensor that raises
    alone gets the exception in place of its value, and it is not stored.
    """
    misses = [lpdo for lpdo in lpdos if key not in lpdo._memo]
    if not misses:
        return [lpdo._memo[key] for lpdo in lpdos]
    stacks = {}
    for lpdo in misses:
        stacks.setdefault(lpdo.tensor.shape, {})[lpdo] = None
    failed = {}
    for stack in stacks.values():
        for lpdo, value in zip(stack, _outcomes(compute, list(stack))):
            if isinstance(value, Exception):
                failed[lpdo] = value
            else:
                lpdo._memo[key] = value
    return [failed[lpdo] if lpdo in failed else lpdo._memo[key] for lpdo in lpdos]


def _memoised_one(lpdo, key, compute):
    """:func:`_memoised_stack` of one tensor: a hit is one dict lookup, and a
    tensor that fails raises its error."""
    return lpdo.memoised(key, lambda: _raised(_memoised_stack([lpdo], key, compute))[0])


def _outcomes(compute, stack):
    """``compute(stack)``, or, if it raises, the value or exception of each tensor alone."""
    try:
        return compute(stack)
    except _STACK_ERRORS as exc:
        if len(stack) == 1:
            return [exc]
        return [_outcomes(compute, [lpdo])[0] for lpdo in stack]


def _raised(values):
    """``values``, or the first exception among them raised."""
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values


def _contract(a4, op, op_a):
    """T(op, op_a) of each tensor of the stack a4 (k, d, da, D, D), as (k, D^2, D^2), read-only."""
    k, d, da, dv, _ = a4.shape
    # j, b: bra physical and ancilla; i, a: ket physical and ancilla (b = a
    # when the ancilla is traced through)
    if dv <= 2:
        if op_a is None:
            t = np.einsum("ji,kjamn,kiapq->kmpnq", op, a4.conj(), a4)
        else:
            t = np.einsum("ji,ba,kjbmn,kiapq->kmpnq", op, op_a, a4.conj(), a4)
    else:
        # rotate the ket layer, ket[j, b, (p q)], then one GEMM per tensor
        # against the bra layer gives [(m n), (p q)]
        ket = (op @ a4.reshape(k, d, -1)).reshape(k, d, da, dv * dv)
        if op_a is not None:
            ket = op_a @ ket
        bra = a4.conj().reshape(k, d * da, dv * dv).transpose(0, 2, 1)
        t = bra @ ket.reshape(k, d * da, dv * dv)
        t = t.reshape(k, dv, dv, dv, dv).transpose(0, 1, 3, 2, 4)
    t = t.reshape(k, dv * dv, dv * dv)
    t.flags.writeable = False
    return t


def _transfers(op, op_a):
    """The memo key of T(op, op_a) and its builder for a stack of tensors of one
    shape: one contraction, the insertions checked once against the stack's d and da."""
    op, op_a, key = _insertions(op, op_a)

    def build(stack):
        _insertion(op, "op", "d", stack[0].d)
        if op_a is not None:
            _insertion(op_a, "op_a", "da", stack[0].da)
        return list(_contract(_stacked([lpdo.tensor for lpdo in stack]), op, op_a))

    return ("transfer",) + key, build


def build_transfers(lpdos, op, op_a):
    """:func:`build_transfer` of each of ``lpdos``; the misses of one shape as one contraction.

    An entry is the exception a tensor raises alone when its map cannot be
    built (see the module docstring).
    """
    return _memoised_stack(lpdos, *_transfers(op, op_a))


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
    return _memoised_one(lpdo, *_transfers(op, op_a))


def _spectra(op, op_a):
    """The memo key of T(op, op_a)'s spectrum and its decomposition for a stack of tensors."""
    op, op_a, key = _insertions(op, op_a)

    def decompose(stack):
        return leading_spectrum(_stacked(_raised(build_transfers(stack, op, op_a))))

    return ("spectrum",) + key, decompose


def transfer_spectra(lpdos, op, op_a):
    """:func:`transfer_spectrum` of each of ``lpdos``; the misses of one shape as one stacked
    :func:`~weaksym.numerics.leading_spectrum` (one ``eig`` and one ``inv`` on the dense path)."""
    return _memoised_stack(lpdos, *_spectra(op, op_a))


def transfer_spectrum(lpdo, op, op_a=None, complete=False):
    """Spectrum of T(op, op_a), decomposed once per tensor and insertion pair.

    The spectrum is :func:`~weaksym.numerics.leading_spectrum`'s: full up to
    ``DENSE_MAX_ROWS`` rows (bond dimension 10), partial above. ``complete`` asks for a full spectrum
    at any bond dimension; a large map then gets
    :func:`~weaksym.numerics.spectral_decompose` too, memoised next to its
    partial spectrum. With :func:`transfer_eigenpair`, this is the only
    route from a transfer map to an eigensolver.
    """
    spectrum = _memoised_one(lpdo, *_spectra(op, op_a))
    if complete and not spectrum.complete:
        op, op_a, key = _insertions(op, op_a)
        spectrum = lpdo.memoised(
            ("complete spectrum",) + key, lambda: spectral_decompose(build_transfer(lpdo, op, op_a))
        )
    return spectrum


def _eigenpairs(op, op_a):
    """The memo key of T(op, op_a)'s leading pair and its computation for a stack of tensors."""
    op, op_a, key = _insertions(op, op_a)

    def compute(stack):
        pairs = leading_eigenpair(_stacked(_raised(build_transfers(stack, op, op_a))))
        for _, right in pairs:
            right.flags.writeable = False
        return pairs

    return ("eigenpair",) + key, compute


def transfer_eigenpairs(lpdos, op, op_a):
    """:func:`transfer_eigenpair` of each of ``lpdos``; the misses of one shape as one stacked
    :func:`~weaksym.numerics.leading_eigenpair` (one ``eig`` on the dense path)."""
    return _memoised_stack(lpdos, *_eigenpairs(op, op_a))


def transfer_eigenpair(lpdo, op, op_a=None):
    """:func:`~weaksym.numerics.leading_eigenpair` of T(op, op_a), R0 read-only, once per tensor and insertion pair."""
    return _memoised_one(lpdo, *_eigenpairs(op, op_a))


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
