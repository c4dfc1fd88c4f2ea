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
differs from the product in the last bits (deleting it turns the exact zeros
of the built-in family's parts into roundoff).

Spectra and eigenpairs come from :mod:`weaksym.numerics`, dense or by
Krylov iteration on the size of the map; a large map gets only its leading
eigenpairs, which are all any consumer reads.

Every value is memoised on the tensor under its insertions' complex shapes
and bytes, through one function, :func:`_memoised`; an insertion is checked
when its map is built, not on each lookup.

The maps, spectra and leading pairs also come in stacks:
:func:`build_transfers`, :func:`transfer_spectra` and
:func:`transfer_eigenpairs` take a sequence of tensors and compute the memo
misses among them as one stack: one contraction, its insertions checked
once, and one stacked LAPACK call. Each value keeps the stack it was computed
in, so the values of one such stack, all of them in order, are read back as
that stack (:func:`_transfer_stack`, :func:`~weaksym.numerics._restacked`);
any other list of values is gathered.

A family member's maps (``LpdoTensor.pencil``: every built-in model) are a
combination of its family's part maps, (1 - p) T(B_0) + p T(B_1), taken
entry by entry, the parts contracted once per process and insertion. Only an
ancilla insertion that couples two parts (cross terms) contracts the member's
tensor; a bare tensor of the same bytes is contracted, to about 1e-16 the same.

The stack rule: the tensors of a stack are one model family, of one shape,
one group and one set of actions, and a stack holds more than one tensor
only where the maps are decomposed densely (D^2 <= ``numerics.DENSE_MAX_ROWS``).
A model on the Krylov path is a stack of one: its vectors keep the layout
Arnoldi left, and a stacked product's last bits can depend on it. Every
stacked function of the package takes its stacks under this rule and
checks none of it. Each result is stored in its own tensor's memo, bit
for bit the value that tensor gets alone; the one-tensor accessors are the
stacks of one. A stack raises the error of its first tensor that fails and
stores nothing under its key; what it read before stays stored. An error
that one tensor raises names it (:func:`weaksym.errors._named`), so the
caller can tell which rows failed: a sweep gives the error to that tensor's
rows and computes the rest once more (:func:`weaksym.cli._isolated`).
"""

from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatchError
from .numerics import (
    ScaledPowers, _as_square, _insertion, _restacked, _square_stack, _stacked, leading_eigenpair, leading_spectrum,
    spectral_decompose,
)

_VALUE, _ROW = itemgetter(0), itemgetter(2)  # of a memo entry (:func:`_rows`)


def _insertions(op, op_a):
    """Unchecked complex ``(op, op_a)`` and the memo key of T(op, op_a): their shapes and bytes."""
    op = np.asarray(op, dtype=complex)
    key = (op.shape, op.tobytes())
    if op_a is not None:
        op_a = np.asarray(op_a, dtype=complex)
        key += (op_a.shape, op_a.tobytes())
    return op, op_a, key


def _memoised(lpdos, key, compute):
    """The value under ``key`` of each of ``lpdos``, in order; the misses computed as one
    stack, ``compute(misses)`` giving one value per miss. A hit is one dict lookup per
    tensor. A stack that raises stores nothing."""
    try:
        return [lpdo._memo[key] for lpdo in lpdos]
    except KeyError:
        misses = [lpdo for lpdo in lpdos if key not in lpdo._memo]
    for lpdo, value in zip(misses, compute(misses)):
        lpdo._memo[key] = value
    return [lpdo._memo[key] for lpdo in lpdos]


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


def _rows(stacks, values):
    """Memo entries ``(value, stacks, row)`` of ``values``, the rows of ``stacks`` in order, with
    tokens ``row`` listed in ``stacks["rows"]`` as :func:`~weaksym.numerics._split` keeps them."""
    if len(values) == 1:
        return [(values[0], None, None)]
    rows = stacks["rows"] = [object() for _ in range(len(values))]
    return list(zip(values, repeat(stacks), rows))


def _whole(entries):
    """The stacks that ``entries`` (:func:`_rows`) were computed as if they are all of its rows, in
    order, else None: a sub-stack, a prefix or a mix, which the caller gathers."""
    stacks = entries[0][1]
    return stacks if stacks is not None and list(map(_ROW, entries)) == stacks["rows"] else None


def _transfers(lpdos, op, op_a):
    """The memo entries (:func:`_rows`) of T(op, op_a) of ``lpdos``, a stack under the module's
    stack rule: the misses as one contraction, or the family members among them as one
    combination of their parts' maps, the insertions checked once against the stack's d and
    da. Raises the error of the first map that cannot be built."""
    op, op_a, key = _insertions(op, op_a)

    def build(stack):
        _insertion(op, "op", "d", stack[0].d)
        if op_a is not None:
            _insertion(op_a, "op_a", "da", stack[0].da)
        # a member's map combines its family's part maps, unless op_a has an entry
        # between two parts' slots (``family()[1]``), whose cross terms no part map holds
        members = [lpdo for lpdo in stack if lpdo.pencil is not None]
        if not members or (op_a is not None and np.any(op_a[members[0].pencil[1]()[1]])):
            maps = _contract(_restacked(stack, "tensor"), op, op_a)
            return _rows({"map": maps}, maps)
        bare = [lpdo for lpdo in stack if lpdo.pencil is None]
        stacks = _combined(members, op, op_a), _contract(_restacked(bare, "tensor"), op, op_a) if bare else []
        rows = [iter(_rows({"map": maps}, maps) if len(maps) else ()) for maps in stacks]
        return [next(rows[lpdo.pencil is None]) for lpdo in stack]

    return _memoised(lpdos, ("transfer",) + key, build)


def build_transfers(lpdos, op, op_a):
    """:func:`build_transfer` of each of ``lpdos``, a stack under the module's stack rule
    (:func:`_transfers`)."""
    return list(map(_VALUE, _transfers(lpdos, op, op_a)))


def _transfer_stack(lpdos, op, op_a):
    """:func:`build_transfers` as one stack (k, n, n), read back when it can be (:func:`_whole`)."""
    entries = _transfers(lpdos, op, op_a)
    stacks = _whole(entries)
    return _stacked(list(map(_VALUE, entries))) if stacks is None else stacks["map"]


def _combined(members, op, op_a):
    """Family members' maps, sum_k weights[k] T_k of their parts' memoised maps T_k, as one
    read-only stack: real and imaginary parts entry by entry, so no map depends on its stack."""
    weights = np.array([lpdo.pencil[0] for lpdo in members]).T[:, :, None, None]
    parts = _transfer_stack(members[0].pencil[1]()[0], op, op_a).view(float)
    maps = weights[0] * parts[0]
    for weight, part in zip(weights[1:], parts[1:]):
        maps += weight * part
    maps = maps.view(complex)
    maps.flags.writeable = False
    return maps


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
    return build_transfers([lpdo], op, op_a)[0]


def transfer_spectra(lpdos, op, op_a):
    """:func:`transfer_spectrum` of each of ``lpdos``, a stack under the module's stack rule:
    the misses as one stacked :func:`~weaksym.numerics.leading_spectrum` (one ``eig`` and
    one ``inv``). Raises the error of the first map that cannot be built or decomposed."""
    op, op_a, key = _insertions(op, op_a)

    def decompose(stack):
        return leading_spectrum(_transfer_stack(stack, op, op_a))

    return _memoised(lpdos, ("spectrum",) + key, decompose)


def transfer_spectrum(lpdo, op, op_a=None, complete=False):
    """Spectrum of T(op, op_a), decomposed once per tensor and insertion pair.

    The spectrum is :func:`~weaksym.numerics.leading_spectrum`'s: full up to
    ``DENSE_MAX_ROWS`` rows (bond dimension 10), partial above. ``complete`` asks for a full spectrum
    at any bond dimension; a large map then gets
    :func:`~weaksym.numerics.spectral_decompose` too, memoised next to its
    partial spectrum. With :func:`transfer_eigenpair`, this is the only
    route from a transfer map to an eigensolver.
    """
    spectrum = transfer_spectra([lpdo], op, op_a)[0]
    if complete and not spectrum.complete:
        op, op_a, key = _insertions(op, op_a)
        spectrum = _memoised(
            [lpdo], ("complete spectrum",) + key, lambda _: [spectral_decompose(build_transfer(lpdo, op, op_a))]
        )[0]
    return spectrum


def _eigenpairs(lpdos, op, op_a):
    """The memo entries (:func:`_rows`) of the leading pairs of T(op, op_a) of ``lpdos``, a stack
    under the module's stack rule: the misses as one stacked ``leading_eigenpair`` (one
    ``eig``). Raises the error of the first map that cannot be built or decomposed."""
    op, op_a, key = _insertions(op, op_a)

    def compute(stack):
        lams, rights = leading_eigenpair(_transfer_stack(stack, op, op_a))
        rights.flags.writeable = False
        return _rows({"pairs": (lams, rights)}, list(zip(lams, rights)))

    return _memoised(lpdos, ("eigenpair",) + key, compute)


def transfer_eigenpairs(lpdos, op, op_a):
    """:func:`transfer_eigenpair` of each of ``lpdos``, a stack under the module's stack rule
    (:func:`_eigenpairs`)."""
    return list(map(_VALUE, _eigenpairs(lpdos, op, op_a)))


def _eigenpair_stacks(lpdos, op, op_a):
    """:func:`transfer_eigenpairs` as the stacks (k,) of lambda0 and (k, n) of R0, read back
    when they can be (:func:`_whole`)."""
    entries = _eigenpairs(lpdos, op, op_a)
    stacks = _whole(entries)
    if stacks is None:
        lams, rights = zip(*map(_VALUE, entries))
        return np.array(lams), _stacked(rights)
    return stacks["pairs"]


def transfer_eigenpair(lpdo, op, op_a=None):
    """:func:`~weaksym.numerics.leading_eigenpair` of T(op, op_a), R0 read-only, once per tensor and insertion pair."""
    return transfer_eigenpairs([lpdo], op, op_a)[0]


def transfer_powers(lpdo, op, op_a=None):
    """Squaring table of T(op, op_a), built once per tensor and insertion pair.

    The :class:`~weaksym.numerics.ScaledPowers` table is memoised next to the
    map and its spectrum, so the single powers T^N of one model (a finite-N
    response, ``verify``'s ring traces), at any N, square the map at most once
    per bit level. A string series builds tables of its own, not memoised.
    """
    op, op_a, key = _insertions(op, op_a)
    return _memoised([lpdo], ("powers",) + key, lambda _: [ScaledPowers(build_transfer(lpdo, op, op_a))])[0]


def flux_operator(v):
    """kron(conj(V), V), as one broadcast product: a finite square flux V threaded through
    the doubled space; of a stack of them (k, D, D), the stack of their operators."""
    v = _square_stack(v) if np.ndim(v) == 3 else _as_square(v, "flux")
    dv = v.shape[-1]
    return (v.conj()[..., :, None, :, None] * v[..., None, :, None, :]).reshape(*v.shape[:-2], dv * dv, dv * dv)


def twisted_spectrum(model, g):
    """Spectrum of the transfer matrix twisted by u_g on the physical leg."""
    return transfer_spectrum(model.lpdo, model.action(g).u)


def symmetry_gap(spectrum):
    """Modulus gap |lambda_0| - |lambda_1| of a transfer spectrum.

    Zero (or negative roundoff) at a symmetry-restoration transition;
    single-eigenvalue spectra have an infinite gap by convention. A partial
    spectrum holds both moduli whole (it never splits a tied cluster).
    """
    return float(symmetry_gaps([spectrum])[0])


def symmetry_gaps(spectra):
    """:func:`symmetry_gap` of each of ``spectra``, spectra of one size, as one array."""
    mods = np.abs(_restacked(spectra, "eigenvalues"))
    return mods[:, 0] - mods[:, 1] if mods.shape[1] > 1 else np.full(len(mods), np.inf)


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
