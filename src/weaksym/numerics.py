"""Dense complex linear algebra kernel.

Everything downstream works with dense matrices: transfer maps are
D^2 x D^2 with D the virtual bond dimension. Two routes lead to their
eigenpairs, both with a deterministic eigenvalue ordering and a
biorthonormalized left/right pairing, which the thermodynamic-limit formulas
rely on:

* :func:`spectral_decompose`, a full LAPACK ``eig`` (O(n^3)), the reference;
* a thick-restart Arnoldi iteration (Krylov-Schur style: Stewart, SIAM J.
  Matrix Anal. Appl. 23, 601 (2001)) that returns only the largest-modulus
  eigenpairs, at the cost of a few hundred matrix-vector products.

Both return a :class:`Spectrum`: the eigenpairs and what was measured of
them, the pairing residual and a condition estimate, nothing derived.
:func:`leading_spectrum` picks between them by the size of the map: the
full decomposition up to ``DENSE_MAX_ROWS`` rows, Arnoldi above.
:func:`leading_eigenpair` takes the same two routes to one eigenvalue and
its right vector only: a bare ``eig``, or one Arnoldi run for one pair.

The dense path also takes a stack (k, n, n) of maps and returns a list: one
``eig`` and one ``inv`` for the whole stack. LAPACK still runs once per
matrix, so each result is bit for bit the one its matrix gets alone; only the
Python around each call is shared. A stack in which some eigenvector matrix
has no inverse is inverted again one matrix at a time. An ``eig`` that fails
on a stack raises, and the caller decomposes that stack one map at a time
(:mod:`weaksym.transfer`). Arnoldi always runs one map at a time.

:class:`ScaledPowers` holds powers m^n as mantissa * 2**exponent, so they
neither under- nor overflow; many of them come from one GEMM per bit level.

This module is the only place a non-Hermitian eigenproblem is solved.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Largest certified pairing residual; 1/PAIRING_TOL bounds the eigenvector condition.
PAIRING_TOL = 1e-10
# Eigenvalues within this much of each other, relative to the leading
# modulus, are one cluster: one eigenspace, however eig's basis splits it.
CLUSTER_TOL = 1e-12
# A factor of a scaled product is rescaled by a power of two before it is
# multiplied when the sum of its squared moduli leaves [2^-800, 2^800], so
# no product of two factors leaves the normal range of doubles.
_SQUARE_NORM_RANGE = (2.0**-800, 2.0**800)
# ScaledPowers.powers stacks its products from this many powers up. A
# stacked bit level costs about ten numpy calls (one GEMM) however many
# powers it holds; the per-length loop of ScaledPowers.power costs a few
# small products per power. Timed on one BLAS thread for 1-16 powers below
# 2^12, consecutive or random: at D = 2 the stacked path wins from 6
# (consecutive) or 10 (random) powers on, and 11 powers take 394 us looped
# against 200 us stacked; at D = 6, where arithmetic outweighs the calls,
# the loop is faster at 31 of the 32 points (12 random powers: 0.92 against
# 1.46 ms). No one count suits both; 12 is kept.
MIN_STACKED_POWERS = 12
# A double's binary exponent lies in [-1074, 1024), so past this shift a
# finite nonzero value is 0 or inf whatever its mantissa.
LDEXP_LIMIT = 2**12
# m^n carries a binary exponent below 2^(bit_length(n) + 12) in modulus,
# whatever m: a squaring doubles it and a rescale adds at most 1074. So the
# powers below this keep theirs inside +-2^60, with room for a caller to
# rescale and add two and a shift, and ScaledPowers.powers keeps them in
# int64; from here on it keeps Python ints.
INT64_POWERS = 2**48
# Maps of up to this many rows (bond dimension D <= 10) are decomposed in
# full, larger ones by Arnoldi. Measured per map on one BLAS thread: at 100
# rows Arnoldi is faster on AKLT x random-MPS maps (7 vs 10 ms) but slower
# where subleading moduli crowd together (19 vs 12 ms); at 144 rows (D = 12)
# it is faster on both (7-18 ms against 23-35 ms).
DENSE_MAX_ROWS = 100
# Leading eigenpairs a partial spectrum holds at least (the gap needs two).
LEADING_PAIRS = 3
# Arnoldi basis size (at least three vectors per wanted pair).
KRYLOV_BASIS = 24
# A Ritz pair is converged when its residual is below this share of the
# leading modulus.
KRYLOV_TOL = 1e-14
# Moduli closer than this share of the leading modulus are one cluster, which
# a partial spectrum returns whole or not at all.
TIE_TOL = 1e-9
# An Arnoldi run that has not converged after this many restarts gives way to
# the dense decomposition.
MAX_RESTARTS = 50
# Seed of the start vectors: a fixed seed makes every rerun byte-identical.
KRYLOV_SEED = 0


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name}: entries must be finite")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square, got shape {m.shape}")
    return m


def _insertion(m, name, leg, dim):
    """m as a finite complex dim x dim array, to act on a tensor leg of size ``dim``;
    any other size raises :class:`DimensionMismatchError` "<name> is kxk, tensor has <leg>=<dim>"."""
    m = _as_square(m, name)
    if m.shape[0] != dim:
        raise DimensionMismatchError(f"{name} is {m.shape[0]}x{m.shape[0]}, tensor has {leg}={dim}")
    return m


def _stacked(arrays):
    """``np.stack(arrays)``; a stack of one is a view, without the copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _square_stack(m):
    """m, a matrix or a stack (k, n, n) of matrices, as a complex stack (k, n, n),
    refused as :func:`_as_square` refuses one matrix."""
    if np.ndim(m) != 3:
        return _as_square(m)[None]
    m = np.asarray(m, dtype=complex)
    if m.shape[1] != m.shape[2]:
        raise DimensionMismatchError(f"matrix: expected a 2D array or a stack of square ones, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix: entries must be finite")
    return m


@cache
def _identity(dim):
    """The complex dim x dim identity, read-only and made once per dimension."""
    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def _whole(values, rule):
    """A number (as a Python int of any size) or a sequence as int64: 200.0 passes,
    and 2.5, nan or inf raises :class:`ValidationError` "<rule>, got <value>",
    as does a sequence entry outside [-2^63, 2^63), which int64 would wrap."""
    if isinstance(values, (int, np.integer)) or (np.ndim(values) == 0 and float(values).is_integer()):
        return int(values)
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            bad = np.mod(values, 1) != 0
        if bad.any():
            raise ValidationError(f"{rule}, got {values[bad][0].item()!r}")
    if values.dtype.kind not in "bi":  # uint64, float or Python ints can pass int64
        wide = (values < -(2**63)) | (values >= 2**63)
        if wide.any():
            raise ValidationError(f"{rule} in [-2^63, 2^63), got {values[wide].tolist()[0]!r}")
    return values.astype(int, copy=False)


def _ring_size(n_sites):
    """A ring size N as a Python int; anything but an integer (200.0 is one) of at
    least one site raises :class:`ValidationError`."""
    n_sites = _whole(n_sites, "the ring size N must be an integer")
    if n_sites < 1:
        raise ValidationError(f"a ring needs at least 1 site, got N={n_sites}")
    return n_sites


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of an n x n matrix with paired left/right eigenvectors.

    A spectrum holds k <= n pairs. A full one (k = n, from
    :func:`spectral_decompose`) holds them all; a partial one (from
    :func:`leading_spectrum` above ``DENSE_MAX_ROWS`` rows) holds the k
    largest moduli, every eigenvalue counted with its multiplicity, and never
    splits a cluster of tied moduli: every eigenvalue it leaves out is
    smaller in modulus than all it holds.

    Attributes
    ----------
    eigenvalues : (k,) complex array, sorted by descending modulus; exact
        modulus ties broken by descending real part, then descending
        imaginary part.
    right_vectors : (n, k) complex array, right eigenvectors as columns,
        ordered like ``eigenvalues``.
    left_vectors : (k, n) complex array, left eigenvectors as rows; the
        pairing is certified, ``left_vectors @ right_vectors`` the identity,
        when ``pairing_residual < PAIRING_TOL`` (1e-10) and the spectrum is
        not ``near_defective``.
    pairing_residual : max |(left_vectors @ right_vectors - 1)_ij|, the
        measured biorthonormality residual.
    condition_estimate : the largest Wilkinson condition
        |L_k| |R_k| / |L_k R_k| of the pairs held, on either path (never
        above cond(R), which depends on the basis eig picks inside an
        eigenspace); nan where R has no inverse, so no left vectors pair.

    Only measured values are stored; ``clusters``, ``near_defective``,
    ``leading`` and ``complete`` are derived from them. The arrays are
    read-only, so one spectrum can be shared between callers.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    pairing_residual: float
    condition_estimate: float

    @cached_property
    def clusters(self):
        """[(eigenvalue, members, condition)] per cluster, computed once per spectrum: in
        spectrum order, each takes every eigenvalue not yet taken within ``CLUSTER_TOL``
        |lambda_0| of its first (``members``, a mask). ``condition`` is the norm
        ||R_c L_c||_F of its spectral projector: basis-free, and |R_k| |L_k| if simple."""
        w, out = self.eigenvalues, []
        simple = np.sqrt((abs(self.right_vectors) ** 2).sum(0) * (abs(self.left_vectors) ** 2).sum(1))
        unassigned = np.ones(len(w), dtype=bool)
        for i in range(len(w)):
            if unassigned[i]:
                members = unassigned & (np.abs(w - w[i]) <= CLUSTER_TOL * abs(w[0]))
                unassigned &= ~members
                condition = simple[i]
                if np.count_nonzero(members) > 1:  # ||R_c L_c||_F^2 = <L_c L_c^H, R_c^H R_c>: no n x n product
                    r, l = self.right_vectors[:, members], self.left_vectors[members]
                    condition = np.sqrt(np.vdot(l @ l.conj().T, r.conj().T @ r).real)
                out.append((complex(w[i]), members, float(condition)))
        return out

    @property
    def near_defective(self):
        """Whether the condition estimate is not finite or exceeds 1/``PAIRING_TOL``
        (1e10), so the left/right pairing cannot be trusted (Jordan-block-like input)."""
        condition = self.condition_estimate
        return not np.isfinite(condition) or condition > 1.0 / PAIRING_TOL

    @property
    def leading(self):
        """(lambda0, left row, right column) for the top eigenvalue."""
        return self.eigenvalues[0], self.left_vectors[0], self.right_vectors[:, 0]

    @property
    def complete(self):
        """Whether the spectrum holds every eigenpair of its matrix."""
        return len(self.eigenvalues) == len(self.right_vectors)


def _spectrum(w, right, left):
    """Read-only :class:`Spectrum`, with its pairing residual and condition measured."""
    pairing = left @ right
    with np.errstate(all="ignore"):  # an unpaired vector, L_k R_k = 0, has no finite condition
        wilkinson = np.sqrt((abs(left) ** 2).sum(1) * (abs(right) ** 2).sum(0)) / abs(pairing.diagonal())
    pairing.flat[:: len(w) + 1] -= 1
    residual = float(np.abs(pairing).max())
    for a in (w, right, left):
        a.flags.writeable = False
    return Spectrum(w, right, left, residual, float(wilkinson.max()))


def _by_modulus(w):
    """Order of w by (-|w|, -Re w, -Im w), along the last axis; lexsort uses the last key as primary."""
    return np.lexsort((-w.imag, -w.real, -np.abs(w)))


def spectral_decompose(m):
    """Full dense eigendecomposition with deterministic ordering.

    Eigenvalues are sorted by (-|lambda|, -Re lambda, -Im lambda). Left
    eigenvectors are obtained by inverting the right eigenvector matrix,
    which makes the pairing (L_m | R_n) = delta_mn exact up to roundoff
    whenever the matrix is comfortably diagonalizable. If a pair has
    Wilkinson condition above 1/``PAIRING_TOL`` (1e10), or the right
    eigenvector matrix has no inverse, the result is flagged near-defective
    and the pairing is not certified.

    ``m`` may also be a stack (k, n, n): the result is then a list of k
    spectra, each bit for bit the spectrum of its matrix alone.
    """
    stack = _square_stack(m)
    w, r = np.linalg.eig(stack)
    order = _by_modulus(w)
    w = [x[k] for x, k in zip(w, order)]
    # each matrix's columns picked as one matrix's are, in the same (column-major) layout
    r = [x[:, k] for x, k in zip(r, order)]
    spectra = [_spectrum(*pair) for pair in zip(w, r, _inverses(r))]
    return spectra if np.ndim(m) == 3 else spectra[0]


def _inverses(r):
    """The inverse of each matrix in the list r, as one stacked ``inv``; zeros in
    its layout for one that has none (no left vectors pair with it)."""
    try:
        return list(np.linalg.inv(_stacked(r)))
    except np.linalg.LinAlgError:  # some R is singular: invert one at a time
        if len(r) == 1:
            return [np.zeros_like(r[0])]
        return [_inverses([x])[0] for x in r]


def _orthogonalize(basis, w):
    """(w less its part in span(basis), basis^H w), by Gram-Schmidt twice; basis orthonormal."""
    c = (w.conj() @ basis).conj()
    w = w - basis @ c
    c2 = (w.conj() @ basis).conj()
    return w - basis @ c2, c + c2


def _arnoldi_run(m, rng, locked, boundary=None, scale=None, wanted=LEADING_PAIRS):
    """One thick-restart Arnoldi run on m, deflated against the orthonormal columns ``locked``.

    Without a ``boundary`` the run converges the ``wanted`` largest-modulus
    Ritz values and every one tied in modulus with the last; with one, those
    of modulus at or above ``boundary``, and also the first Ritz value below
    them, to a tenth of its distance from the boundary, so that nothing more
    is left above it. Each restart keeps the Ritz vectors of the values it
    converges and two more.

    Returns ``(basis, boundary, scale)``: an orthonormal basis (n, t) of
    their invariant subspace, orthogonal to ``locked``; the smallest modulus
    returned; and the leading modulus the tolerances are relative to. None
    when the run has not converged after ``MAX_RESTARTS`` restarts or the
    values do not fit ``KRYLOV_BASIS`` basis vectors.
    """
    n = len(m)
    fixed = locked.shape[1]
    size = min(KRYLOV_BASIS, n - fixed)
    v = np.empty((n, fixed + size + 1), dtype=complex)
    v[:, :fixed] = locked
    h = np.zeros((size + 1, size), dtype=complex)

    def start(j):  # random unit vector orthogonal to the first j basis vectors
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w, _ = _orthogonalize(v[:, : fixed + j], w)
        return w / np.linalg.norm(w)

    v[:, fixed] = start(0)
    kept = 0
    for _ in range(MAX_RESTARTS):
        for j in range(kept, size):
            w, c = _orthogonalize(v[:, : fixed + j + 1], m @ v[:, fixed + j])
            h[: j + 1, j] = c[fixed:]
            beta = np.sqrt(np.vdot(w, w).real)
            if beta <= KRYLOV_TOL * np.sqrt(np.vdot(c, c).real):
                # the basis spans an invariant subspace: go on from a new direction
                h[j + 1, j] = 0
                v[:, fixed + j + 1] = start(j + 1)
            else:
                h[j + 1, j] = beta
                v[:, fixed + j + 1] = w / beta
        theta, y = np.linalg.eig(h[:size])
        order = _by_modulus(theta)
        theta, y = theta[order], y[:, order]
        mods = np.abs(theta)
        if boundary is None:
            scale = mods[0]
            t = min(wanted, size)
            while t < size and mods[t - 1] - mods[t] <= TIE_TOL * scale:
                t += 1
            cut = mods[t - 1]
        else:
            t = int(np.count_nonzero(mods >= boundary - TIE_TOL * scale))
            cut = boundary
        if t + 1 >= size:
            return None
        # Ritz pair (theta, V y), y of unit norm, misses by |h[size] . y|
        residual = np.abs(h[size] @ y[:, : t + 1])
        if np.all(residual[:t] <= KRYLOV_TOL * scale) and (
            boundary is None or residual[t] <= 0.1 * (cut - mods[t])
        ):
            q, _ = np.linalg.qr(y[:, :t])
            return v[:, fixed : fixed + size] @ q, cut, scale
        kept = min(t + 3, size - 1)
        q, _ = np.linalg.qr(y[:, :kept])
        v[:, fixed : fixed + kept] = v[:, fixed : fixed + size] @ q
        v[:, fixed + kept] = v[:, fixed + size]
        s, b = q.conj().T @ h[:size] @ q, h[size] @ q
        h[:] = 0
        h[:kept, :kept] = s
        h[kept, :kept] = b
    return None


def _invariant_subspace(m, rng, boundary=None, scale=None, count=None):
    """Orthonormal basis of the invariant subspace of m's largest-modulus eigenvalues.

    Arnoldi from one start vector meets one eigenvector per eigenvalue, so it
    would count a repeated eigenvalue once. Without ``count`` the first run is
    therefore followed by runs from fresh start vectors, deflated against all
    found so far, until one finds nothing more at or above the boundary of
    the first. Given a ``boundary`` and a ``count`` (the adjoint of a map
    whose eigenvalues above the boundary are counted), runs stop once the
    basis holds ``count`` vectors. Returns ``(basis, boundary, scale)`` as
    :func:`_arnoldi_run` does, or None.
    """
    q = np.empty((len(m), 0), dtype=complex)
    while count is None or q.shape[1] < count:
        found = _arnoldi_run(m, rng, q, boundary, scale)
        if found is None:
            return None
        x, boundary, scale = found
        if x.shape[1] == 0:
            break
        q = np.hstack([q, x])
        if q.shape[1] > KRYLOV_BASIS:
            return None
    if count is not None and q.shape[1] != count:
        return None
    return q, boundary, scale


def leading_spectrum(m):
    """Spectrum of m's leading eigenpairs: in full up to ``DENSE_MAX_ROWS`` rows, partial above.

    A map of up to ``DENSE_MAX_ROWS`` rows gets :func:`spectral_decompose`.
    A larger one gets a partial :class:`Spectrum` of its ``LEADING_PAIRS``
    largest-modulus eigenpairs and every eigenvalue tied in modulus with the
    last of them, each with its multiplicity, so it may hold more pairs.
    Right eigenvectors come from thick-restart Arnoldi on m, left ones from a
    second run on its adjoint, biorthonormalized against the right ones
    (L R = 1). Both runs start from vectors of a fixed-seed generator, so the
    result is the same on every call. Each pair's condition is measured as
    on the dense path.

    A large map also gets :func:`spectral_decompose` when an Arnoldi run does
    not converge, or when a returned pair misses its eigen-equation by more
    than 1e-12 of the leading modulus.

    A stack (k, n, n) gives a list of k spectra: one stacked
    :func:`spectral_decompose` up to ``DENSE_MAX_ROWS`` rows, one map at a
    time above.
    """
    if np.ndim(m) in (2, 3) and np.shape(m)[-1] <= DENSE_MAX_ROWS:
        return spectral_decompose(m)  # which validates m
    if np.ndim(m) == 3:
        return [leading_spectrum(x) for x in m]
    m = _as_square(m)
    rng = np.random.default_rng(KRYLOV_SEED)
    found = _invariant_subspace(m, rng)
    if found is None:
        return spectral_decompose(m)
    q, boundary, scale = found
    found = _invariant_subspace(m.conj().T, rng, boundary, scale, count=q.shape[1])
    if found is None:
        return spectral_decompose(m)
    p = found[0].conj().T
    w, y = np.linalg.eig(q.conj().T @ (m @ q))
    order = _by_modulus(w)
    w = w[order]
    right = q @ y[:, order]
    try:
        left = np.linalg.solve(p @ right, p)
    except np.linalg.LinAlgError:
        return spectral_decompose(m)
    miss = max(
        (np.linalg.norm(m @ right - right * w, axis=0) / np.linalg.norm(right, axis=0)).max(),
        (np.linalg.norm(left @ m - w[:, None] * left, axis=1) / np.linalg.norm(left, axis=1)).max(),
    )
    if not miss <= 100 * KRYLOV_TOL * scale:
        return spectral_decompose(m)
    return _spectrum(w, right, left)


def leading_eigenpair(m):
    """(lambda0, R0): m's first eigenvalue in :class:`Spectrum` order and its right vector.

    Up to ``DENSE_MAX_ROWS`` rows a bare ``eig``, bit for bit the pair of
    ``spectral_decompose(m).leading``; above, one Arnoldi run for the leading
    Ritz pair and any tied with it, kept if it meets its eigen-equation to
    100 ``KRYLOV_TOL`` of the leading modulus, else the dense pair. With no
    left vector, a defective top goes unflagged.

    A stack (k, n, n) gives a list of k pairs: one ``eig`` on the whole stack
    up to ``DENSE_MAX_ROWS`` rows, one map at a time above.
    """
    stack = _square_stack(m)
    if stack.shape[-1] > DENSE_MAX_ROWS:
        pairs = [_krylov_eigenpair(x) for x in stack]
    else:
        pairs = _dense_eigenpairs(stack)
    return pairs if np.ndim(m) == 3 else pairs[0]


def _dense_eigenpairs(stack):
    w, r = np.linalg.eig(stack)
    top = _by_modulus(w)[:, 0].tolist()
    return [(w[i, k], r[i, :, k]) for i, k in enumerate(top)]


def _krylov_eigenpair(m):
    found = _arnoldi_run(m, np.random.default_rng(KRYLOV_SEED), locked=m[:, :0], wanted=1)
    if found:
        q, _, scale = found
        w, y = np.linalg.eig(q.conj().T @ (m @ q))
        k = _by_modulus(w)[0]
        right = q @ y[:, k]
        if np.linalg.norm(m @ right - w[k] * right) <= 100 * KRYLOV_TOL * scale * np.linalg.norm(right):
            return w[k], right
    return _dense_eigenpairs(m[None])[0]


def ldexp(z, exponent):
    """z * 2**exponent for complex z, elementwise; exact in the normal range.

    ``exponent`` may hold Python ints of any size (an object array): beyond
    +-``LDEXP_LIMIT`` every finite z * 2**exponent is 0 or +-inf, so they
    are clipped there before they meet int64.
    """
    z = np.asarray(z, dtype=complex)
    exponent = np.asarray(exponent)
    if exponent.dtype == object:
        exponent = np.clip(exponent, -LDEXP_LIMIT, LDEXP_LIMIT).astype(np.int64)
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

    ``np.frexp`` returns int32 shifts; they join the exponent as a Python
    int for one matrix and as the stack's exponent array (int64, or Python
    ints in an object array) for a stack, so exponents that pass 2^31
    (powers of a ring of billions of sites) do not wrap.
    """
    low, high = _SQUARE_NORM_RANGE
    # frexp(0) has exponent 0, so a zero matrix keeps its scale.
    if m.ndim == 2:  # one matrix: a BLAS dot is the cheapest test
        if low <= abs(np.vdot(m, m)) <= high:
            return m, exponent
        shift = int(np.frexp(np.abs(m).max())[1])
        return ldexp(m, -shift), exponent + shift
    k, rows, cols = m.shape
    parts = m.reshape(k, rows * cols).view(float)  # real and imaginary parts
    square_norm = np.einsum("ki,ki->k", parts, parts)
    if low <= square_norm.min(initial=high) and square_norm.max(initial=low) <= high:
        return m, exponent
    out = (square_norm < low) | (square_norm > high)
    shift = np.where(out, np.frexp(np.abs(m).max(axis=(-2, -1)))[1], 0).astype(np.int64)
    return ldexp(m, -shift[:, None, None]), exponent + shift


def _zero_exponents(count, largest):
    """Zero exponents for ``count`` powers up to ``largest``: int64 below
    ``INT64_POWERS``, else Python ints in an object array."""
    return np.zeros(count, dtype=int if largest < INT64_POWERS else object)


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

    :meth:`powers` builds many powers at once. Per bit level, the stack of
    every n with that bit set is multiplied by its table factor as one
    (rows * d, d) GEMM, so a series of lengths costs about log2(max n) BLAS
    calls (a stacked ``matmul`` would make one per matrix) instead of one
    Python-level product per factor. Fewer than ``MIN_STACKED_POWERS``
    powers are cheaper one at a time and go through :meth:`power`. Either
    way each power is bit-identical to :meth:`power` of the same n, and its
    exponent is exact: a Python int for one power, and for many an int64
    array below n = ``INT64_POWERS``, else an object array of Python ints.
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
        n = _whole(n, "power must be a nonnegative integer")
        if n < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {n!r}")
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
        """(mantissas (k, d, d), exponents (k,)): :meth:`power` of each n in ns.

        The exponents are int64 for n below ``INT64_POWERS`` and Python ints
        in an object array from there: they never wrap.
        """
        ns = _whole(ns, "power must be a nonnegative integer")
        dim = len(self._squares[0][0])
        mantissa = np.empty((len(ns), dim, dim), dtype=complex)
        if len(ns) < MIN_STACKED_POWERS:
            values = ns.tolist()
            exponent = _zero_exponents(len(values), max(values, default=0))
            for i, n in enumerate(values):
                mantissa[i], exponent[i] = self.power(n)
            return mantissa, exponent
        if ns.min() < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {ns.min()}")
        mantissa[...] = np.eye(dim)
        largest = int(ns.max())
        top = largest.bit_length()
        self._extend(top - 1)
        exponent = _zero_exponents(len(ns), largest)
        three = ns == 3
        if three.any():  # matrix_power's shortcut (m @ m) @ m
            (z2, e2), (z, e) = self._factors[1], self._factors[0]
            mantissa[three], exponent[three] = z2 @ z, e2 + e
            ns = np.where(three, 0, ns)
        # The lowest set bit of n takes its table entry as it is; every
        # higher one multiplies in a rescaled factor, the whole stack at once
        # as one (rows * d, d) GEMM: each entry keeps the sum of a d x d
        # product, where a stacked matmul would make one BLAS call per matrix.
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
                mantissa[rows], exponent[rows] = (r.reshape(-1, dim) @ z).reshape(r.shape), er + e
        return mantissa, exponent

