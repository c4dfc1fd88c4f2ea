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

DEFAULT_TOL = 1e-10


def _as_matrix(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name}: entries must be finite")
    return m


def _as_square(m, name="matrix"):
    m = _as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square, got shape {m.shape}")
    return m


def kron(a, b):
    """Kronecker product with shape and finiteness validation.

    (p x q) kron (r x s) -> (p*r x q*s), row of `a` varying slowest.
    """
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


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
    condition_estimate : condition number of the right eigenvector matrix.
    near_defective : the eigenvector matrix is too ill-conditioned for the
        left/right pairing to be trusted (Jordan-block-like input).

    The arrays are read-only, so one spectrum can be shared between callers.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    biorthonormal: bool
    condition_estimate: float
    near_defective: bool

    @property
    def leading(self):
        """(lambda0, left row, right column) for the top eigenvalue."""
        return self.eigenvalues[0], self.left_vectors[0], self.right_vectors[:, 0]


def spectral_decompose(m, tol=DEFAULT_TOL):
    """Full dense eigendecomposition with deterministic ordering.

    Eigenvalues are sorted by (-|lambda|, -Re lambda, -Im lambda). Left
    eigenvectors are obtained by inverting the right eigenvector matrix,
    which makes the pairing (L_m | R_n) = delta_mn exact up to roundoff
    whenever the matrix is comfortably diagonalizable. If the right
    eigenvector matrix has condition number above 1/tol the result is
    flagged near-defective and the pairing is not certified.
    """
    m = _as_square(m)
    w, r = np.linalg.eig(m)
    # lexsort uses the last key as primary
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    r = r[:, order]

    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(r))
    near_defective = (not np.isfinite(cond)) or cond > 1.0 / tol

    try:
        left = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        left = np.linalg.pinv(r)
        near_defective = True

    residual = float(np.max(np.abs(left @ r - np.eye(len(w)))))
    biorthonormal = bool(residual < DEFAULT_TOL and not near_defective)
    for a in (w, r, left):
        a.flags.writeable = False

    return Spectrum(
        eigenvalues=w,
        right_vectors=r,
        left_vectors=left,
        biorthonormal=biorthonormal,
        condition_estimate=cond,
        near_defective=bool(near_defective),
    )


def matrix_power_trace(m, n):
    """tr(m^n) for integer n >= 0 by repeated squaring.

    Exact powering is used instead of spectral sums so the result is
    well-defined for defective matrices too; n = 0 returns the dimension.
    """
    m = _as_square(m)
    if int(n) != n or n < 0:
        raise ValidationError(f"power must be a nonnegative integer, got {n!r}")
    return complex(np.trace(np.linalg.matrix_power(m, int(n))))
