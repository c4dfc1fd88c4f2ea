"""Dense complex linear algebra kernel.

Everything downstream works with small dense matrices (transfer matrices
are D^2 x D^2 with D the virtual bond dimension), so plain LAPACK via
numpy is both the simplest and the fastest option here. The one piece of
added value over raw ``np.linalg.eig`` is a deterministic eigenvalue
ordering plus a biorthonormalized left/right eigenvector pairing, which
the thermodynamic-limit formulas rely on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Largest certified pairing residual; 1/PAIRING_TOL bounds the eigenvector condition.
PAIRING_TOL = 1e-10
# A factor of a scaled product is rescaled by a power of two before it is
# multiplied when the sum of its squared moduli leaves [2^-800, 2^800], so
# no product of two factors leaves the normal range of doubles.
_SQUARE_NORM_RANGE = (2.0**-800, 2.0**800)
# ScaledPowers.powers stacks its products from this many powers up. Each
# stacked bit level costs about ten numpy calls, so for fewer powers the
# per-length loop of ScaledPowers.power is faster.
MIN_STACKED_POWERS = 12


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name}: entries must be finite")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with paired left/right eigenvectors.

    Attributes
    ----------
    eigenvalues : (n,) complex array, sorted by descending modulus; exact
        modulus ties broken by descending real part, then descending
        imaginary part.
    right_vectors : (n, n) complex array, right eigenvectors as columns,
        ordered like ``eigenvalues``.
    left_vectors : (n, n) complex array, left eigenvectors as rows. When
        ``biorthonormal`` is set, ``left_vectors @ right_vectors`` is the
        identity to within 1e-10.
    biorthonormal : whether the measured pairing residual is below 1e-10.
    pairing_residual : max |(left_vectors @ right_vectors - 1)_ij|, the
        measured biorthonormality residual.
    condition_estimate : condition number of the right eigenvector matrix.
    near_defective : the eigenvector matrix is too ill-conditioned for the
        left/right pairing to be trusted (Jordan-block-like input).

    The arrays are read-only, so one spectrum can be shared between callers.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    biorthonormal: bool
    pairing_residual: float
    condition_estimate: float
    near_defective: bool

    @property
    def leading(self):
        """(lambda0, left row, right column) for the top eigenvalue."""
        return self.eigenvalues[0], self.left_vectors[0], self.right_vectors[:, 0]


def spectral_decompose(m):
    """Full dense eigendecomposition with deterministic ordering.

    Eigenvalues are sorted by (-|lambda|, -Re lambda, -Im lambda). Left
    eigenvectors are obtained by inverting the right eigenvector matrix,
    which makes the pairing (L_m | R_n) = delta_mn exact up to roundoff
    whenever the matrix is comfortably diagonalizable. If the right
    eigenvector matrix has condition number above 1/``PAIRING_TOL`` (1e10)
    the result is flagged near-defective and the pairing is not certified.
    """
    m = _as_square(m)
    w, r = np.linalg.eig(m)
    # lexsort uses the last key as primary
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    r = r[:, order]

    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(r))
    near_defective = (not np.isfinite(cond)) or cond > 1.0 / PAIRING_TOL

    try:
        left = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        left = np.linalg.pinv(r)
        near_defective = True

    residual = float(np.max(np.abs(left @ r - np.eye(len(w)))))
    biorthonormal = bool(residual < PAIRING_TOL and not near_defective)
    for a in (w, r, left):
        a.flags.writeable = False

    return Spectrum(
        eigenvalues=w,
        right_vectors=r,
        left_vectors=left,
        biorthonormal=biorthonormal,
        pairing_residual=residual,
        condition_estimate=cond,
        near_defective=bool(near_defective),
    )


def ldexp(z, exponent):
    """z * 2**exponent for complex z, elementwise; exact in the normal range."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, exponent)
    out.imag = np.ldexp(z.imag, exponent)
    return out


def rescale(m, exponent):
    """(m, exponent) with m brought into range by an exact power of two.

    m * 2**exponent is unchanged. An m whose squared Frobenius norm lies in
    [2^-800, 2^800] (or that is zero) is returned as it is; any other is
    divided by a power of two that puts its largest modulus in [1/2, 1).
    ``m`` may also be a stack (k, n, n) with an exponent array (k,): one
    range test and one exponent shift per matrix, all in one pass.
    """
    low, high = _SQUARE_NORM_RANGE
    if m.ndim == 2:  # one matrix: a BLAS dot is the cheapest test
        if low <= abs(np.vdot(m, m)) <= high:
            return m, exponent
        out = True
    else:
        k, rows, cols = m.shape
        parts = m.reshape(k, rows * cols).view(float)  # real and imaginary parts
        square_norm = np.einsum("ki,ki->k", parts, parts)
        if low <= square_norm.min(initial=high) and square_norm.max(initial=low) <= high:
            return m, exponent
        out = (square_norm < low) | (square_norm > high)
    # frexp(0) has exponent 0, so a zero matrix keeps its scale.
    shift = np.where(out, np.frexp(np.abs(m).max(axis=(-2, -1)))[1], 0)
    return ldexp(m, -shift[..., None, None]), exponent + shift


class ScaledPowers:
    """Powers m^n = mantissa * 2**exponent of one square matrix.

    One table of repeated squarings m, m^2, m^4, ... serves every n, so
    memory is O(log n) matrices however many powers are asked for. Each
    power multiplies the table entries in the order of
    ``np.linalg.matrix_power`` (bits of n from the lowest up, with its n = 3
    shortcut). Every factor goes through :func:`rescale` before it enters a
    product, and the power is returned as the last product left it. So
    mantissa * 2**exponent is bit-identical to ``np.linalg.matrix_power(m, n)``
    wherever that stays clear of the subnormal range, and it neither under-
    nor overflows where the plain power would.

    :meth:`powers` builds many powers at once: one stacked product per bit
    level for every n with that bit set, so a series of lengths costs about
    log2(max n) numpy calls instead of one Python-level product per factor.
    Fewer than ``MIN_STACKED_POWERS`` powers are cheaper one at a time and
    go through :meth:`power`. Either way each power is bit-identical to
    :meth:`power` of the same n.
    """

    def __init__(self, m):
        m = _as_square(m)
        # m^(2^k) as its squaring left it, and the same rescaled as a factor.
        self._squares = [(m, 0)]
        self._factors = [rescale(m, 0)]

    def _extend(self, k):
        while len(self._squares) <= k:
            z, e = self._factors[-1]
            self._squares.append((z @ z, 2 * e))
            self._factors.append(rescale(*self._squares[-1]))

    def power(self, n):
        """(mantissa, exponent) with m^n = mantissa * 2**exponent, n >= 0."""
        if int(n) != n or n < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {n!r}")
        n = int(n)
        if n == 0:
            return np.eye(len(self._squares[0][0]), dtype=complex), 0
        self._extend(n.bit_length() - 1)
        if n == 3:  # matrix_power's shortcut (m @ m) @ m
            (z2, e2), (z, e) = self._factors[1], self._factors[0]
            return z2 @ z, e2 + e
        result = None
        for k in range(n.bit_length()):
            if n >> k & 1:
                if result is None:
                    result = self._squares[k]
                else:
                    r, er = rescale(*result)
                    z, e = self._factors[k]
                    result = (r @ z, er + e)
        return result

    def powers(self, ns):
        """(mantissas (k, d, d), exponents (k,)): :meth:`power` of each n in ns."""
        ns = np.asarray(ns, dtype=int)
        dim = len(self._squares[0][0])
        mantissa = np.empty((len(ns), dim, dim), dtype=complex)
        exponent = np.zeros(len(ns), dtype=int)
        if len(ns) < MIN_STACKED_POWERS:
            for i, n in enumerate(ns.tolist()):
                mantissa[i], exponent[i] = self.power(n)
            return mantissa, exponent
        if ns.min() < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {ns.min()}")
        mantissa[...] = np.eye(dim)
        top = int(ns.max()).bit_length()
        self._extend(top - 1)
        three = ns == 3
        if three.any():  # matrix_power's shortcut (m @ m) @ m
            (z2, e2), (z, e) = self._factors[1], self._factors[0]
            mantissa[three], exponent[three] = z2 @ z, e2 + e
            ns = np.where(three, 0, ns)
        # The lowest set bit of n takes its table entry as it is; every
        # higher one multiplies in a rescaled factor.
        lowest, higher = ns & -ns, ns & (ns - 1)
        starts = int(np.bitwise_or.reduce(lowest))
        multiplies = int(np.bitwise_or.reduce(higher))
        for k in range(top):
            if starts >> k & 1:
                rows = lowest == 1 << k
                mantissa[rows], exponent[rows] = self._squares[k]
            if multiplies >> k & 1:
                rows = (higher >> k & 1).astype(bool)
                r, er = rescale(mantissa[rows], exponent[rows])
                z, e = self._factors[k]
                mantissa[rows], exponent[rows] = r @ z, er + e
        return mantissa, exponent

