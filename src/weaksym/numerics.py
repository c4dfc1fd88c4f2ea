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
``eig`` and one ``inv`` for the whole stack, and the sort, the pick of the
right vectors, the pairing residuals and conditions and, once asked for, the
clusters (:func:`_cluster_table`) as array operations over it. Each result is
bit for bit the one its matrix gets alone, the memory layout of its vectors
included, and keeps the stacks it was split from (:func:`_split`), so a field
of all of them is read back as its stack, not gathered (:func:`_restacked`).
A stack in which some eigenvector matrix has no inverse is
inverted again one matrix at a time. An ``eig`` that fails
on a stack raises for the whole stack; a sweep then halves that stack down
to its failing rows (:func:`weaksym.cli._isolated`). Arnoldi runs one
map at a time; under the stack rule of :mod:`weaksym.transfer` the package
stacks only maps of the dense path, so a Krylov-size map comes alone.

:class:`ScaledPowers` holds powers m^n, of one matrix or of each of a stack,
as mantissa * 2**exponent, so they neither under- nor overflow; many of them
come from one GEMM per bit level.

This module is the only place a non-Hermitian eigenproblem is solved.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from operator import attrgetter

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
_ROW = attrgetter("_row")  # the row token of a member of a _split


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
    """``np.stack(arrays)`` as one ``np.concatenate``, so no array costs a view of its own;
    each matrix in the memory order of the first: a column-major one stays column-major,
    since a product's last bits can depend on the layout. A stack of one is a view,
    without the copy. Arrays of several shapes raise :class:`DimensionMismatchError`,
    checked here: ``concatenate`` takes arrays whose first dimensions differ."""
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    for a in arrays:
        if a.shape != first.shape:
            raise DimensionMismatchError(f"a stack needs arrays of one shape, got {first.shape} and {a.shape}")
    if first.ndim == 2 and not first.flags.c_contiguous and first.flags.f_contiguous:
        return np.concatenate([a.T for a in arrays]).reshape(len(arrays), *first.shape[::-1]).transpose(0, 2, 1)
    if first.ndim == 0:  # which concatenate refuses
        return np.array(arrays)
    return np.concatenate(arrays).reshape(len(arrays), *first.shape)


def _split(stacks, members):
    """``members``, made one from each row of ``stacks`` ({name: stack}): each keeps ``stacks`` and
    a token of its row, listed in ``stacks["rows"]`` (no token refers back to its member, so no
    cycle keeps a stack alive). A member alone keeps none."""
    if len(members) > 1:
        rows = stacks["rows"] = [object() for _ in range(len(members))]
        for member, row in zip(members, rows):
            kept = member.__dict__
            kept["_split"], kept["_row"] = stacks, row
    return members


def _restacked(members, name):
    """``_stacked`` of each member's field ``name``, values and layout, read without a gather
    when the members are all the rows of one :func:`_split`, in order; a sub-stack, such as
    the rows a sweep isolates, a prefix or a mix, is gathered."""
    if len(members) == 1:
        return getattr(members[0], name)[None]
    stacks = members[0].__dict__.get("_split")
    try:
        if stacks is not None and name in stacks and list(map(_ROW, members)) == stacks["rows"]:
            return stacks[name]
    except AttributeError:  # a member that no stack made
        pass
    return _stacked([getattr(member, name) for member in members])


def _norms(stack):
    """``np.linalg.norm`` of each array of the stack, bit for bit: the dot products of
    its real and imaginary parts, as stacked products."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


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
        |lambda_0| of its first (``members``, a mask; not a transitive closure).
        ``condition`` is the norm ||R_c L_c||_F of its spectral projector: basis-free, and
        |R_k| |L_k| if simple. This is the stack of one of :func:`_cluster_table`."""
        _, _, members, _, leaders = _cluster_table([self])
        return [(lam, members[0, i].copy(), condition) for i, lam, _, _, condition in leaders[0]]

    @property
    def near_defective(self):
        """Whether the condition estimate is not finite or exceeds 1/``PAIRING_TOL``
        (1e10), so the left/right pairing cannot be trusted (Jordan-block-like input)."""
        return not self.condition_estimate <= 1.0 / PAIRING_TOL  # nan too

    @property
    def leading(self):
        """(lambda0, left row, right column) for the top eigenvalue."""
        return self.eigenvalues[0], self.left_vectors[0], self.right_vectors[:, 0]

    @property
    def complete(self):
        """Whether the spectrum holds every eigenpair of its matrix."""
        return len(self.eigenvalues) == len(self.right_vectors)


def _measured(w, right, left):
    """Read-only :class:`Spectrum` of each member of the stacks w (k, p), right (k, n, p) and
    left (k, p, n), their pairing residuals and conditions measured as stacks. ``left`` may
    be a list of the members instead, when they have layouts of their own; each spectrum
    gets its own."""
    members, stacks = left, {"eigenvalues": w, "right_vectors": right, "left_vectors": left}
    if isinstance(left, list):
        del stacks["left_vectors"]  # rows of layouts of their own are read as their gather
        left = np.stack(left)
        for x in members:
            x.flags.writeable = False
    for a in (w, right, left):
        a.flags.writeable = False
    pairing = left @ right
    with np.errstate(all="ignore"):  # an unpaired vector, L_k R_k = 0, has no finite condition
        wilkinson = np.sqrt((abs(left) ** 2).sum(-1) * (abs(right) ** 2).sum(-2)) / abs(pairing.diagonal(0, 1, 2))
    residual = abs(pairing - _identity(w.shape[1])).reshape(len(w), -1).max(1)
    return _split(stacks, [Spectrum(*fields) for fields in zip(w, right, members, residual.tolist(), wilkinson.max(1).tolist())])


def _cluster_table(spectra):
    """``(right, left, members, groups, leaders)`` of ``spectra``, spectra of one size: their
    vectors as stacks (k, n, p) and (k, p, n); whether the cluster first at i takes
    eigenvalue j (k, p, p); per cluster size m > 1 the spectra ``s``, first indices ``i``
    and members ``j`` (P, m) of its clusters; per spectrum ``(i, eigenvalue, modulus,
    -ln modulus, condition)`` of each cluster as Python numbers, the modulus as ``abs()``
    takes it of one complex. Computed once per stack of spectra, which each keeps. The
    clusters of one size are measured as one gather and one product, bit for bit."""
    kept = [spectrum.__dict__.get("_cluster_table", (None, 0)) for spectrum in spectra]
    table = kept[0][0]
    if table and len(table[0]) == len(spectra) and all(t is table and at == i for i, (t, at) in enumerate(kept)):
        return table
    w, right, left = (_restacked(spectra, side) for side in ("eigenvalues", "right_vectors", "left_vectors"))
    k, p = w.shape
    moduli = np.hypot(w.real, w.imag)
    close = np.abs(w[:, :, None] - w[:, None]) <= CLUSTER_TOL * moduli[:, :1, None]
    later = np.triu(close, 1)
    owner = np.tile(np.arange(p), (k, 1))
    for i in np.flatnonzero(later.any((0, 2))):  # a first eigenvalue not yet taken takes the free ones near it
        owner[later[:, i] & (owner == np.arange(p)) & (owner[:, i : i + 1] == i)] = i
    members = owner[:, None] == np.arange(p)[:, None]
    condition = np.sqrt((abs(right) ** 2).sum(-2) * (abs(left) ** 2).sum(-1))
    size = members.sum(-1)
    groups = []
    for m in sorted(set(size[size > 1].tolist())):
        s, i = np.nonzero(size == m)
        j = np.nonzero(members[s, i])[1].reshape(-1, m)
        groups.append((s, i, j))
        # ||R_c L_c||_F^2 = <L_c L_c^H, R_c^H R_c>, a vdot as a one-row product: no n x n product
        r = right.transpose(0, 2, 1)[s[:, None], j].transpose(0, 2, 1)  # column-major, as R[:, members]
        l = left[s[:, None], j]
        gram = (l @ l.conj().transpose(0, 2, 1)).reshape(-1, 1, m * m).conj()
        condition[s, i] = np.sqrt((gram @ (r.conj().transpose(0, 2, 1) @ r).reshape(-1, m * m, 1))[:, 0, 0].real)
    with np.errstate(divide="ignore"):
        xi = -np.log(moduli)
    rows = zip((size > 0).tolist(), w.tolist(), moduli.tolist(), xi.tolist(), condition.tolist())
    leaders = [[(i, *entry) for i, (first, *entry) in enumerate(zip(*row)) if first] for row in rows]
    table = right, left, members, groups, leaders
    for at, spectrum in enumerate(spectra):
        spectrum.__dict__["_cluster_table"] = (table, at)  # as a cached_property keeps its value
    return table


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
    rows = np.arange(len(stack))[:, None]
    order = _by_modulus(w)
    # each matrix's columns picked as rows of its transpose: column-major, as a lone r[:, order]
    right = r.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)
    spectra = _measured(w[rows, order], right, _inverses(right))
    return spectra if np.ndim(m) == 3 else spectra[0]


def _inverses(r):
    """The inverse of each matrix of the stack r, as one stacked ``inv``. A stack in which
    some matrix has none is inverted one matrix at a time, as a list; that one gets zeros
    in its own layout (no left vectors pair with it)."""
    try:
        return np.linalg.inv(r)
    except np.linalg.LinAlgError:
        if len(r) == 1:
            return [np.zeros_like(r[0])]
        return [_inverses(x[None])[0] for x in r]


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
    return _measured(w[None], right[None], left[None])[0]


def leading_eigenpair(m):
    """(lambda0, R0): m's first eigenvalue in :class:`Spectrum` order and its right vector.

    Up to ``DENSE_MAX_ROWS`` rows a bare ``eig``, bit for bit the pair of
    ``spectral_decompose(m).leading``; above, one Arnoldi run for the leading
    Ritz pair and any tied with it, kept if it meets its eigen-equation to
    100 ``KRYLOV_TOL`` of the leading modulus, else the dense pair. With no
    left vector, a defective top goes unflagged.

    A stack (k, n, n) gives the stacks (k,) of the eigenvalues and (k, n) of the
    right vectors: one ``eig`` on the whole stack up to ``DENSE_MAX_ROWS`` rows,
    one map at a time above.
    """
    stack = _square_stack(m)
    if stack.shape[-1] > DENSE_MAX_ROWS:
        pairs = [_krylov_eigenpair(x) for x in stack]
        lams, rights = np.array([lam for lam, _ in pairs]), _stacked([right for _, right in pairs])
    else:
        lams, rights = _dense_eigenpairs(stack)
    return (lams, rights) if np.ndim(m) == 3 else (lams[0], rights[0])


def _dense_eigenpairs(stack):
    w, r = np.linalg.eig(stack)
    rows, top = np.arange(len(stack)), _by_modulus(w)[:, 0]
    return w[rows, top], r[rows, :, top]


def _krylov_eigenpair(m):
    found = _arnoldi_run(m, np.random.default_rng(KRYLOV_SEED), locked=m[:, :0], wanted=1)
    if found:
        q, _, scale = found
        w, y = np.linalg.eig(q.conj().T @ (m @ q))
        k = _by_modulus(w)[0]
        right = q @ y[:, k]
        if np.linalg.norm(m @ right - w[k] * right) <= 100 * KRYLOV_TOL * scale * np.linalg.norm(right):
            return w[k], right
    lams, rights = _dense_eigenpairs(m[None])
    return lams[0], rights[0]


def ldexp(z, exponent):
    """z * 2**exponent for complex z, elementwise; exact in the normal range.

    ``exponent`` may hold Python ints of any size (an object array): beyond
    +-``LDEXP_LIMIT`` every finite z * 2**exponent is 0 or +-inf, so they
    are clipped there before they meet int64. A value past the double range
    is +-inf, without numpy's overflow warning.
    """
    z = np.asarray(z, dtype=complex)
    exponent = np.asarray(exponent)
    if exponent.dtype == object:
        exponent = np.clip(exponent, -LDEXP_LIMIT, LDEXP_LIMIT).astype(np.int64)
    out = np.empty_like(z)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(z.real, exponent)
        out.imag = np.ldexp(z.imag, exponent)
    return out


def rescale(m, exponent):
    """(m, exponent) of a stack (..., n, n) of matrices and its exponent array (...),
    each matrix brought into range by an exact power of two.

    m * 2**exponent is unchanged. A matrix whose squared Frobenius norm
    |vdot(m, m)| lies in [2^-800, 2^800] (or that is zero) is kept as it is;
    any other is divided by a power of two that puts its largest modulus in
    [1/2, 1). One range test and one exponent shift per matrix, all in one
    pass, and each matrix gets the shift it gets in a stack of one. A stack's
    norms are summed by one einsum, in another order than ``np.vdot``; only a
    norm within the two orders' rounding bound of an end of the range could
    be decided differently, and it is taken from ``np.vdot``.

    ``np.frexp`` returns int32 shifts; they join the stack's exponent array
    (int64, or Python ints in an object array), so exponents that pass 2^31
    (powers of a ring of billions of sites) do not wrap.
    """
    low, high = _SQUARE_NORM_RANGE
    # frexp(0) has exponent 0, so a zero matrix keeps its scale.
    flat = m.reshape(-1, m.shape[-2] * m.shape[-1])
    if len(flat) == 1:  # one matrix: a BLAS dot is the cheapest test
        if low <= abs(np.vdot(flat, flat)) <= high:
            return m, exponent
        out = True
    else:
        parts = flat.view(float)  # real and imaginary parts
        square_norm = np.einsum("ki,ki->k", parts, parts)
        # two orders of a sum of n nonnegative terms differ by at most 2 n eps of it; twice that
        bound = 4 * parts.shape[1] * np.finfo(float).eps
        for i in np.flatnonzero((abs(square_norm - low) <= bound * low) | (abs(square_norm - high) <= bound * high)):
            square_norm[i] = abs(np.vdot(flat[i], flat[i]))
        out = ((square_norm < low) | (square_norm > high)).reshape(m.shape[:-2])
        if not out.any():
            return m, exponent
    shift = np.where(out, np.frexp(np.abs(m).max(axis=(-2, -1)))[1], 0).astype(np.int64)
    return ldexp(m, -shift[..., None, None]), exponent + shift


def _zero_exponents(shape, largest):
    """Zero exponents of the given shape for powers up to ``largest``: int64 below
    ``INT64_POWERS``, else Python ints in an object array."""
    return np.zeros(shape, dtype=int if largest < INT64_POWERS else object)


class ScaledPowers:
    """Powers m^n = mantissa * 2**exponent of one square matrix, or of each of a stack.

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

    A stack (k, d, d) gets one table of stacks, each product a stacked
    ``matmul`` and each rescale one per matrix: :meth:`power` then returns k
    mantissas and an object array of k exponents, and :meth:`powers`
    (k, len(ns), d, d) and (k, len(ns)), each matrix's bit for bit its own
    table's. One matrix is a stack of one.
    """

    def __init__(self, m):
        stack = _square_stack(m)
        self._one = np.ndim(m) == 2
        exponent = np.zeros(len(stack), dtype=object)
        # m^(2^k) as its squaring left it, and the same rescaled as a factor.
        self._squares = [(stack, exponent)]
        self._factors = [rescale(stack, exponent)]

    def _extend(self, k):
        while len(self._squares) <= k:
            z, e = self._factors[-1]
            self._squares.append((z @ z, 2 * e))
            self._factors.append(rescale(*self._squares[-1]))

    def power(self, n):
        """(mantissa, exponent) with m^n = mantissa * 2**exponent, n >= 0."""
        mantissa, exponent = self._stack_power(n)
        return (mantissa[0], exponent[0]) if self._one else (mantissa, exponent)

    def powers(self, ns):
        """(mantissas (len(ns), d, d), exponents (len(ns),)): :meth:`power` of each n in ns.

        The exponents are int64 for n below ``INT64_POWERS`` and Python ints
        in an object array from there: they never wrap.
        """
        mantissa, exponent = self._stack_powers(ns)
        return (mantissa[0], exponent[0]) if self._one else (mantissa, exponent)

    def _stack_power(self, n):
        """:meth:`power` as a stack, also of one matrix."""
        n = _whole(n, "power must be a nonnegative integer")
        if n < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {n!r}")
        stack = self._squares[0][0]
        if n == 0:
            return np.broadcast_to(_identity(stack.shape[-1]), stack.shape).copy(), np.zeros(len(stack), dtype=object)
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

    def _stack_powers(self, ns):
        """:meth:`powers` as a stack, also of one matrix."""
        ns = _whole(ns, "power must be a nonnegative integer")
        if ns.min(initial=0) < 0:
            raise ValidationError(f"power must be a nonnegative integer, got {ns.min()}")
        count, dim = self._squares[0][0].shape[:2]
        mantissa = np.empty((count, len(ns), dim, dim), dtype=complex)
        largest = int(ns.max(initial=0))
        exponent = _zero_exponents((count, len(ns)), largest)
        if len(ns) < MIN_STACKED_POWERS:
            for i, n in enumerate(ns.tolist()):
                mantissa[:, i], exponent[:, i] = self._stack_power(n)
            return mantissa, exponent
        mantissa[...] = _identity(dim)
        top = largest.bit_length()
        self._extend(top - 1)
        three = ns == 3
        if three.any():  # matrix_power's shortcut (m @ m) @ m
            (z2, e2), (z, e) = self._factors[1], self._factors[0]
            mantissa[:, three], exponent[:, three] = (z2 @ z)[:, None], (e2 + e)[:, None]
            ns = np.where(three, 0, ns)
        # The lowest set bit of n takes its table entry as it is; every
        # higher one multiplies in a rescaled factor, each matrix's stack at
        # once as one (rows * d, d) GEMM: each entry keeps the sum of a d x d
        # product, where a stacked matmul would make one BLAS call per matrix.
        lowest, higher = ns & -ns, ns & (ns - 1)
        starts = int(np.bitwise_or.reduce(lowest))
        multiplies = int(np.bitwise_or.reduce(higher))
        for k in range(top):
            if starts >> k & 1:
                rows = lowest == 1 << k
                z, e = self._squares[k]
                mantissa[:, rows], exponent[:, rows] = z[:, None], e.astype(exponent.dtype)[:, None]
            if multiplies >> k & 1:
                rows = (higher >> k & 1).astype(bool)
                r, er = rescale(mantissa[:, rows], exponent[:, rows])
                z, e = self._factors[k]
                mantissa[:, rows] = (r.reshape(count, -1, dim) @ z).reshape(r.shape)
                exponent[:, rows] = er + e.astype(exponent.dtype)[:, None]
        return mantissa, exponent
