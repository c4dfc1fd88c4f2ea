"""Dense brute-force oracle for small rings.

Contracts the purified tensor around a ring, into its state vector |psi> or
its two halves, and evaluates observables on it directly. Exponentially
expensive on purpose: every quantity here is an independent cross-check
for the transfer-matrix formulas, and the oracle shares no code with the
transfer layer.

The ring is cut into two halves, each contracted as a chain of matrix
products. A half's running block is one matrix whose rows are (left bond,
accumulated site indices) and whose columns are the right bond; each site
multiplies the block by the site matrix A[b, (i a c)] = A[i, a, b, c], whose
columns again end in the right bond, so the product reshapes into the next
block without a copy. The first half starts from the seam and holds the first
ceil(N/2) sites, the second holds the rest. Closing the ring sums over the two
bonds at the cuts, one matrix product over their D^2 pairs, so no block with
the ring's bonds left open is ever written.

An expectation of a site-product operator F = O_1 x ... x O_N on the physical
density rho = Tr_anc |psi><psi| is Tr[rho F] = <psi| (F x 1_anc) |psi>. Each
O_k is folded into its site tensor (O_k A on the physical leg), that ring is
cut the same way, and the overlap with |psi> over every physical and
ancilla index traces the ancillas. :func:`expectation` sums that overlap at
the two cuts or through the state, whichever costs less (Pfeifer, Haegeman &
Verstraete, PRE 90, 033315 (2014)): the cuts on every built-in ring, the
state for a wide bond on a short ring. :func:`_expectations` evaluates a
stack of tensors at several seams in one call, each value bit for bit its
tensor's alone. Neither the density matrix nor the Kronecker-product operator
is formed. Every dense array of one ring is bounded by ``MAX_AMPLITUDES``
entries and refused with :class:`SizeGuardError` before it is allocated.
"""

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError, ValidationError
from .numerics import _insertion, _ring_size

MAX_AMPLITUDES = 2 ** 24
# A stack's left halves are contracted a few tensors at a time, within this many complex
# entries: 128 KiB, glibc's default mmap threshold, above which each block is mapped afresh.
# Products over the bond D do too little arithmetic per byte to hide those page faults, where
# the D^2 x D^2 products of stringorder.MAX_STACK_ENTRIES do. One BLAS thread of a 2-core Xeon,
# the four built-in models on 5 sites: 4.6 ms a call one at a time, 8.5 ms (2,716 page faults)
# four at once; on 3 and 4 sites, one chunk: 0.63 and 0.76 ms, 1.44 and 1.61 without the tensor axis.
STACK_ENTRIES = 2 ** 13


def _guard(entries, what):
    """Refuse a dense array of more than MAX_AMPLITUDES entries before allocating it."""
    if entries > MAX_AMPLITUDES:
        raise SizeGuardError(f"{what} = {entries} entries exceeds the guard of {MAX_AMPLITUDES}")


def _site_matrix(a4):
    """A[b, (i a c)] = A[i, a, b, c] of each tensor of a stack (k, d, da, D, D), (k, D, d da D)."""
    return a4.transpose(0, 3, 1, 2, 4).reshape(a4.shape[0], a4.shape[3], -1)


def _half_ring(start, sites):
    """start @ A_1 ... A_j of each tensor of a stack, as (k, left bond, site indices, right bond)."""
    k, dv, _ = start.shape
    block = start
    for site in sites:
        block = (block @ site).reshape(k, -1, dv)
    return block.reshape(k, dv, -1, dv)


def _left_half(seam, sites):
    """L[s_left, (a b)] of each tensor of a stack, from the seam across ``sites``: L @ R, R of
    :func:`_right_half`, is the flat, site-major array of amplitudes tr[seam A_1[s_1] ...
    A_N[s_N]], summed over the bond pair (a, b) at the two cuts."""
    k, dv, _ = seam.shape
    return _half_ring(seam, sites).transpose(0, 2, 1, 3).reshape(k, -1, dv * dv)  # from [a, s_left, b]


def _right_half(eye, sites):
    """R[(a b), s_right] of each tensor of a stack, from ``eye`` across ``sites`` back to the seam."""
    k, dv, _ = eye.shape
    return _half_ring(eye, sites).transpose(0, 3, 1, 2).reshape(k, dv * dv, -1)  # from [b, s_right, a]


def _ring(lpdos, seams, n_sites):
    """(a4, seams, eye): the stack of the tensors, each seam checked as a stack (k, D, D), and the
    identity (k, D, D) every right half starts from. Refuses N < 1, a seam that does not fit the
    bond, and (d*da)^N * D^2, one ring's amplitudes times the cut bond pairs, above ``MAX_AMPLITUDES``."""
    a4 = np.stack([lpdo.tensor for lpdo in lpdos])
    k, d, da, dv, _ = a4.shape
    n_sites = _ring_size(n_sites)
    _guard((d * da) ** n_sites * dv * dv, "ring amplitudes x cut bond pairs (d*da)^N * D^2")
    seams = [np.stack([_insertion(seam, "seam", "D", dv) for seam in stack]) for stack in seams]
    return a4, seams, np.broadcast_to(np.eye(dv), (k, dv, dv))


def expectation(lpdo, seam, op_lists):
    """Tr[rho (O_1 kron ... kron O_N)] for each list of one operator per site.

    rho = Tr_anc |psi><psi| is the physical density of the ring |psi> with
    amplitudes tr[seam A[i_1, a_1] ... A[i_N, a_N]]; N is the length of every
    list, and an empty ``op_lists`` is refused. Returns a complex array of one
    value per list. This is the stack of one of :func:`_expectations`.
    """
    return _expectations([lpdo], [[seam]], [op_lists])[0][0]


def _expectations(lpdos, seams, op_lists):
    """:func:`expectation` of each of ``lpdos`` at each seam, a stack under the stack rule of
    :mod:`weaksym.transfer`: ``seams`` holds per seam one matrix per tensor, ``op_lists`` per
    seam its lists, and the values come as one complex array (k, lists) per seam.

    Each value is <psi|phi>, phi = L @ R the ring with F folded into its site
    tensors and psi = L0 @ R0, cut alike. It is summed at the two cuts, sum
    (L0^H L) o (conj(R0) R^T), for (s_left + s_right) D^4 per list when
    (s_left + s_right) D^2 < s_left s_right, else through psi, formed once per
    seam, for s_left s_right D^2.

    Lists tend to repeat a few operator objects, so each distinct object is
    checked once and, after the size guard, folded into its site matrices once
    per call. Lists tend to share halves too, told by their operator objects: a
    right half does not depend on the seam, so psi's and each distinct one are
    contracted, and at the cuts overlapped with psi's, once per call; a left
    half once per seam.
    """
    d = lpdos[0].d
    # id of each distinct operator object -> (the object, held so that no
    # other object takes its id during the call; the operator as checked)
    checked = {}

    def check(op):
        if id(op) not in checked:
            checked[id(op)] = op, _insertion(op, "op", "d", d)
        return checked[id(op)][1]

    op_lists = [[[check(op) for op in ops] for ops in lists] for lists in op_lists]
    if not all(op_lists):
        raise ValidationError("op_lists is empty: need at least one list of operators")
    n_sites = len(op_lists[0][0])
    for ops in (ops for lists in op_lists for ops in lists):
        if len(ops) != n_sites:
            raise DimensionMismatchError(f"got {len(ops)} operators for {n_sites} sites")
    a4, seams, eye = _ring(lpdos, seams, n_sites)
    k, d, da, dv, _ = a4.shape
    flat = a4.reshape(k, d, -1)
    sites = {id(op): _site_matrix((op @ flat).reshape(a4.shape)) for _, op in checked.values()}
    sites[None] = _site_matrix(a4)
    keys = [[tuple(map(id, ops)) for ops in lists] for lists in op_lists]
    # a few tensors at a time, each chunk's left halves within STACK_ENTRIES entries
    step = max(1, STACK_ENTRIES // ((d * da) ** ((n_sites + 1) // 2) * dv * dv))
    chunks = [
        _overlaps({key: site[at:at + step] for key, site in sites.items()}, [seam[at:at + step] for seam in seams], eye[at:at + step], keys)
        for at in range(0, k, step)
    ]
    return [np.concatenate(values) for values in zip(*chunks)]


def _overlaps(sites, seams, eye, keys):
    """:func:`_expectations` of a stack, from its site matrices (bare under None, folded under
    their operator's id), checked seams and identity, and per seam its lists' operator ids."""
    n_sites = len(keys[0][0])
    half = (n_sites + 1) // 2
    right0 = _right_half(eye, [sites[None]] * (n_sites - half))
    lefts0 = [_left_half(seam, [sites[None]] * half) for seam in seams]
    (s_left, bonds), s_right = lefts0[0].shape[1:], right0.shape[2]
    at_cuts = (s_left + s_right) * bonds < s_left * s_right
    # each distinct half, keyed by its operators' ids (a left half's after its seam's
    # index); at the cuts its overlap with psi's
    rights, lefts = {}, {}
    bra_right = right0.conj()
    out = []
    for j, (seam, left0, lists) in enumerate(zip(seams, lefts0, keys)):
        if at_cuts:
            bra_left = left0.conj().transpose(0, 2, 1)
        else:
            ket = (left0 @ right0).transpose(0, 2, 1)  # psi as [s_right, s_left], the cut of every folded ring
        values = np.empty((len(eye), len(lists)), dtype=complex)
        for i, ops in enumerate(lists):
            left, right = (j, *ops[:half]), ops[half:]
            if left not in lefts:
                lefts[left] = _left_half(seam, [sites[key] for key in left[1:]])
                if at_cuts:
                    lefts[left] = bra_left @ lefts[left]
            if right not in rights:
                rights[right] = _right_half(eye, [sites[key] for key in right])
                if at_cuts:
                    rights[right] = bra_right @ rights[right].transpose(0, 2, 1)
            if at_cuts:
                values[:, i] = (lefts[left] * rights[right]).reshape(len(eye), -1).sum(1)
            else:
                # sum_st conj(psi_st) left_sk right_kt without writing phi, the conjugate on the smaller factor
                values[:, i] = [np.vdot(x, y) for x, y in zip(ket @ lefts[left].conj(), rights[right].transpose(0, 2, 1))]
        out.append(values)
    return out
