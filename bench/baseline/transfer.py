"""Symmetry-twisted transfer matrices of locally purified tensors.

The doubled virtual space is ordered (conjugate-layer index slow, ket-layer
index fast), i.e. a vectorized boundary matrix M[conj, ket] flattens in row
major order. With that convention the operator threading a symmetry flux
V through the doubled space is kron(conj(V), V), and the transfer matrix
with a physical insertion O is

    T(O)[(m p), (n q)] = sum_{a,i,i'} O[i', i] conj(A[i', a])[m, n] A[i, a][p, q].
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .numerics import _as_square, kron, spectral_decompose


@dataclass
class TransferMatrix:
    """Dense D^2 x D^2 transfer matrix with a label for the insertion."""

    matrix: np.ndarray
    insertion: str
    bond_dim: int


def build_transfer(lpdo, op, label="op"):
    """Transfer matrix with a physical-leg operator insertion.

    ``op`` is a d x d matrix sandwiched between the bra and ket physical
    legs; the ancilla legs are traced through directly. ``op = 1`` gives
    the ordinary mixed-state transfer matrix.
    """
    a4 = lpdo.tensor
    op = _as_square(op, "op")
    d, da, dv, _ = a4.shape
    if op.shape[0] != d:
        raise DimensionMismatchError(f"op is {op.shape[0]}x{op.shape[0]}, tensor has d={d}")
    # j: bra physical, i: ket physical, a: shared ancilla
    t = np.einsum("ji,jamn,iapq->mpnq", op, a4.conj(), a4)
    return TransferMatrix(t.reshape(dv * dv, dv * dv), label, dv)


def build_ancilla_transfer(lpdo, op_a, label="op_a"):
    """Transfer matrix with the insertion on the ancilla leg instead.

    The physical legs are traced through directly; ``op_a`` is da x da.
    Used for the ancilla share of the response conservation law.
    """
    a4 = lpdo.tensor
    op_a = _as_square(op_a, "op_a")
    d, da, dv, _ = a4.shape
    if op_a.shape[0] != da:
        raise DimensionMismatchError(f"op_a is {op_a.shape[0]}x{op_a.shape[0]}, tensor has da={da}")
    t = np.einsum("ba,ibmn,iapq->mpnq", op_a, a4.conj(), a4)
    return TransferMatrix(t.reshape(dv * dv, dv * dv), label, dv)


def flux_operator(v):
    """kron(conj(V), V): a symmetry flux V threaded through the doubled space."""
    return kron(np.asarray(v).conj(), v)


def twisted_spectrum(model, g, tol=1e-10):
    """Spectrum of the transfer matrix twisted by u_g on the physical leg."""
    act = model.action(g)
    t = build_transfer(model.lpdo, act.u, label=g)
    return spectral_decompose(t.matrix, tol=tol)


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
    """Frobenius norm of [kron(conj(V), V), T].

    Vanishes whenever the state is weakly symmetric under the element that
    V represents and the inserted operator commutes with that element.
    """
    t = transfer.matrix
    f = flux_operator(rep.v)
    if f.shape != t.shape:
        raise DimensionMismatchError(f"flux is {f.shape}, transfer is {t.shape}")
    return float(np.linalg.norm(f @ t - t @ f))
