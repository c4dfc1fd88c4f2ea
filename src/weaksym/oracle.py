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
state for a wide bond on a short ring. Neither the density matrix nor the
Kronecker-product operator is formed. Every dense array is bounded by
``MAX_AMPLITUDES`` entries and refused with :class:`SizeGuardError` before it
is allocated.
"""

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError, ValidationError
from .numerics import _insertion, _ring_size

MAX_AMPLITUDES = 2 ** 24


def _guard(entries, what):
    """Refuse a dense array of more than MAX_AMPLITUDES entries before allocating it."""
    if entries > MAX_AMPLITUDES:
        raise SizeGuardError(f"{what} = {entries} entries exceeds the guard of {MAX_AMPLITUDES}")


def _site_matrix(a4):
    """A[b, (i a c)] = A[i, a, b, c]: one site as a bond-to-(site, bond) matrix."""
    return a4.transpose(2, 0, 1, 3).reshape(a4.shape[2], -1)


def _half_ring(start, sites):
    """start @ A_1 ... A_k as a (left bond, site indices, right bond) array."""
    dv = start.shape[0]
    block = start
    for site in sites:
        block = (block @ site).reshape(-1, dv)
    return block.reshape(dv, -1, dv)


def _ring_halves(seam, sites):
    """A ring of site matrices cut in two, L[s_left, (a b)] and R[(a b), s_right].

    L @ R is the flat, site-major array of amplitudes
    tr[seam A_1[s_1] ... A_N[s_N]]: the product sums over the bond pair
    (a, b) at the two cuts. L starts from the seam and holds the first
    ceil(N/2) sites.
    """
    dv = seam.shape[0]
    half = (len(sites) + 1) // 2
    left = _half_ring(seam, sites[:half])  # [a, s_left, b]
    right = _half_ring(np.eye(dv), sites[half:])  # [b, s_right, a]
    return left.transpose(1, 0, 2).reshape(-1, dv * dv), right.transpose(2, 0, 1).reshape(dv * dv, -1)


def _ring(lpdo, seam, n_sites):
    """(L0, R0, seam): the ring of ``lpdo`` cut in two by :func:`_ring_halves`,
    and the seam as the square array it was checked as.

    Refuses N < 1, a seam that does not fit the bond, and (d*da)^N * D^2, the
    amplitudes times the cut bond pairs, above ``MAX_AMPLITUDES``.
    """
    a4 = lpdo.tensor
    d, da, dv, _ = a4.shape
    n_sites = _ring_size(n_sites)
    _guard((d * da) ** n_sites * dv * dv, "ring amplitudes x cut bond pairs (d*da)^N * D^2")
    seam = _insertion(seam, "seam", "D", dv)
    return *_ring_halves(seam, [_site_matrix(a4)] * n_sites), seam


def expectation(lpdo, seam, op_lists):
    """Tr[rho (O_1 kron ... kron O_N)] for each list of one operator per site.

    rho = Tr_anc |psi><psi| is the physical density of the ring |psi> with
    amplitudes tr[seam A[i_1, a_1] ... A[i_N, a_N]]; N is the length of every
    list, and an empty ``op_lists`` is refused. Each value is <psi|phi>, phi =
    L @ R the ring with F folded into its site tensors and psi = L0 @ R0, cut
    alike. It is summed at the two cuts, sum (L0^H L) o (conj(R0) R^T), for
    (s_left + s_right) D^4 per list when (s_left + s_right) D^2 < s_left
    s_right, else through psi, formed once, for s_left s_right D^2. Returns a
    complex array of one value per list.

    Lists tend to repeat a few operator objects, so each distinct object is
    checked once and, after the size guard, folded into its site matrix once
    per call.
    """
    a4 = lpdo.tensor
    d = a4.shape[0]
    # id of each distinct operator object -> (the object, held so that no
    # other object takes its id during the call; the operator as checked)
    checked = {}

    def check(op):
        if id(op) not in checked:
            checked[id(op)] = op, _insertion(op, "op", "d", d)
        return checked[id(op)][1]

    op_lists = [[check(op) for op in ops] for ops in op_lists]
    if not op_lists:
        raise ValidationError("op_lists is empty: need at least one list of operators")
    n_sites = len(op_lists[0])
    for ops in op_lists:
        if len(ops) != n_sites:
            raise DimensionMismatchError(f"got {len(ops)} operators for {n_sites} sites")
    left0, right0, seam = _ring(lpdo, seam, n_sites)
    flat = a4.reshape(d, -1)
    (s_left, bonds), s_right = left0.shape, right0.shape[1]
    at_cuts = (s_left + s_right) * bonds < s_left * s_right
    if at_cuts:
        bra_left, bra_right = left0.conj().T, right0.conj()
    else:
        ket = (left0 @ right0).T  # psi as [s_right, s_left], the cut of every folded ring
    sites = {id(op): _site_matrix((op @ flat).reshape(a4.shape)) for _, op in checked.values()}
    values = []
    for ops in op_lists:
        left, right = _ring_halves(seam, [sites[id(op)] for op in ops])
        if at_cuts:
            values.append(np.sum((bra_left @ left) * (bra_right @ right.T)))
        else:
            # sum_st conj(psi_st) left_sk right_kt without writing phi, the conjugate on the smaller factor
            values.append(np.vdot(ket @ left.conj(), right.T))
    return np.array(values)
