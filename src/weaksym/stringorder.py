"""String order parameters, their normalization, and decay exponents.

A string observable is chi_L on one site, l consecutive u_g2 insertions,
chi_R on the next site, and identities closing the ring:

    S(l) = tr[T_chiL T(g2)^l T_chiR T(1)^{N-l-2}].

In the thermodynamic limit the identity stretch projects onto the leading
eigenvector pair of T(1) and the string reduces to boundary vectors acting
across T(g2)^l. The normalized order divides out the uniform-charge
envelope so that an order-one plateau survives exactly when the endpoint
charges of chi match the flux responses of the state, one group element at
a time. Every series comes normalized.

A series over many lengths carries its scale instead of forming values that
under- or overflow: the thermodynamic series is one running row vector
x_{l+1} = x_l T(g2)/|lambda_0| across the lengths, each row written in place
from the one before, and ring series take every power, the envelope
Tr T(g2)^N included, from one table of repeated squarings per stack of maps,
all lengths at once (:meth:`~weaksym.numerics.ScaledPowers.powers`). Both
take stacks of models (:func:`_string_series`), one model as the stack of
one, and build their tables for the series, not memoised on the model.

The decay exponent is not fitted to a series. Expanding T(g2) in its own
eigenpairs makes the thermodynamic string a finite sum of geometric channels,
S(l) = sum_k c_k lambda_k^l, and :func:`decay_channel` reads the slowest
channel with a nonzero amplitude off the memoised spectra of T(1) and T(g2),
for a stack of models at once (:func:`_decay_channels`). Whether that channel
is lambda_0 itself is the selection rule (Pollmann & Turner, PRB 86, 125441
(2012)): the normalized string is order one exactly when it is.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NearDefectiveError, UndefinedExponentError, ValidationError, _named
from .numerics import (
    CLUSTER_TOL, ScaledPowers, _cluster_table, _identity, _norms, _restacked, _ring_size, _stacked, _whole, _zero_exponents, ldexp, rescale,
)
from .transfer import _transfer_stack, build_transfers, transfer_spectra, transfer_spectrum
from .response import _leading_pairs

# A channel is live when its amplitude exceeds this share of its scale (see
# decay_channel). On the AKLT family live channels sit at 0.29 of their
# scale or above and dead ones at 2.6e-28 or below (1,098 values of p).
LIVE_TOL = 1e-10
# A live channel this much below |lambda_0| is nilpotent: its eigenvalue is
# zero up to roundoff, and -ln of it would be a number made of noise.
NILPOTENT_TOL = 1e-13
# A ring series builds its powers for a chunk of lengths at a time, each
# chunk a few stacks of at most this many complex entries (16 MB apiece).
MAX_STACK_ENTRIES = 2**20


@dataclass
class StringOrderSeries:
    """String order values over a range of string lengths.

    ``n_sites`` is the ring size, or None for the thermodynamic limit.
    ``normalized`` is ``raw`` with the uniform-charge envelope divided out.
    The scale the evaluation carried is kept alongside ``raw``:
    ``raw = mantissa * base**lengths * 2**exponent``, where ``base`` is
    |lambda_0(T(g2))| for a thermodynamic series and 1 on a ring, and
    ``exponent`` is an integer array (in the thermodynamic limit the carried
    row's, zero unless a power of T(g2)/|lambda_0| left the range of doubles;
    Python ints in an object array past ``numerics.INT64_POWERS`` lengths or
    ring sites).
    Where only the envelope is below the range of doubles, ``raw``
    underflows but ``mantissa`` and ``normalized`` do not; above it, ``raw``
    is +-inf and a zero part of the mantissa stays zero.
    """

    lengths: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    n_sites: int | None
    mantissa: np.ndarray
    base: float
    exponent: np.ndarray

    @property
    def mode(self):
        return "ring" if self.n_sites is not None else "thermo"


@dataclass(frozen=True)
class DecayChannel:
    """The slowest live geometric channel of a thermodynamic string.

    ``xi = -ln|eigenvalue|``; ``amplitude`` is its c summed over the
    eigenvalue's cluster. ``floor`` is the largest dead amplitude relative
    to its own channel's scale (0 when every channel is live). ``order_one``
    says whether the channel is the leading eigenvalue of T(g2), i.e. whether
    the normalized string keeps an order-one plateau.
    """

    xi: float
    eigenvalue: complex
    amplitude: complex
    floor: float
    order_one: bool


def string_order_series(model, g2, chi_l, chi_r, lengths, n_sites=None):
    """Evaluate the string order over many lengths; ring when n_sites is set.

    The four transfer maps, and in the thermodynamic limit the leading
    eigenvector pair of T(1), are computed once for the whole series. The
    thermodynamic limit requires T(1) to be gapped (it stays gapped at the
    symmetry transition; only T(g2) goes gapless there). Lengths may come in
    any order and may repeat. A length or ring size that is not an integer
    (3.0 is one), a length out of range, or a ring of N >= 2^63 sites raises
    :class:`ValidationError`.

    The thermodynamic series carries one boundary row vector from the
    shortest length to the longest, one vector-matrix product per length,
    on T(g2)/|lambda_0| (:func:`_carried_rows`), a jump between two lengths
    from that step's squaring table, with its binary exponent. A ring series
    takes T(g2)^l and T(1)^(N-l-2) from one squaring table of each map
    (:func:`_ring_series`), stacked across lengths in chunks of at most
    ``MAX_STACK_ENTRIES`` entries per stack. Each power is
    bit-identical to ``np.linalg.matrix_power`` in the normal range, and each
    value depends only on (l, N). This is the one-pair case of
    :func:`_string_series`, which evaluates several endpoint pairs over one
    set of powers, bit for bit as one call per pair.

    ``normalized`` divides out the uniform-charge envelope: |lambda_0(T(g2))|^l
    in the thermodynamic limit, where the carried row is already the
    normalized value, and |Tr[rho U_g2]|^{l/N} = |Tr T(g2)^N|^{l/N} on a ring,
    taken from the table the series uses. Both work on the carried scale, not
    on ``raw``, so neither the envelope nor the string underflows. Raises
    ZeroDivisionError when the envelope vanishes: an exactly zero leading
    eigenvalue or trace.
    """
    return _string_series([model], g2, [(chi_l, chi_r)], lengths, n_sites)[0][0]


def _string_series(models, g2, endpoints, lengths, n_sites=None):
    """:func:`string_order_series` of each ``(chi_l, chi_r)`` in ``endpoints``, in order, for
    each of ``models``, a stack under the stack rule of :mod:`weaksym.transfer`: per model
    its series, bit for bit those it gets in any stack.

    Everything that does not depend on the endpoints is computed once: the
    argument checks, on a ring the envelope and each chunk's stacks of
    powers, in the thermodynamic limit the leading pairs of T(1), the bases
    |lambda_0(T(g2))|, the steps, their squaring table and the scaling base^l,
    each one stack. Each pair costs its endpoint maps, its traces or carried
    rows, and its scaling. Each model carries its own rows: a stacked product
    per length would cost a stack of one about twice as much. Every endpoint
    is checked before any power or spectrum is computed. Each field of each
    series owns its array. A ring is :func:`_ring_series`.
    """
    if n_sites is not None:
        return _ring_series(models, g2, endpoints, lengths, n_sites)
    lengths, _ = _string_lengths(lengths, None)
    lpdos = [model.lpdo for model in models]
    u2 = models[0].action(g2).u
    maps = [[build_transfers(lpdos, chi, None) for chi in pair] for pair in endpoints]
    left, right, norm, _ = _leading_pairs(lpdos, transfer_spectra(lpdos, _identity(lpdos[0].d), None), "of T(1)")
    bases = np.array([abs(lam) for lam in _restacked(transfer_spectra(lpdos, u2, None), "eigenvalues")[:, 0].tolist()])
    if not bases.all():
        raise _named(ZeroDivisionError("leading twisted eigenvalue vanishes; normalization undefined"), lpdos[bases.tolist().index(0.0)])
    steps = _transfer_stack(lpdos, u2, None) / bases[:, None, None]
    table = ScaledPowers(steps)
    distinct, where = np.unique(lengths, return_inverse=True)
    distinct = distinct.tolist()
    with np.errstate(over="ignore"):
        scale = bases[:, None] ** lengths.astype(float)
    power = [lambda n, i=i: tuple(x[i] for x in table._stack_power(n)) for i in range(len(lpdos))]  # model i's, when a jump needs it
    values = []
    for tl, tr in maps:
        carried = [_carried_rows(left[i] @ tl[i], steps[i], power[i], distinct) for i in range(len(lpdos))]
        mantissa = _stacked([((rows @ (tr[i] @ right[i])) / norm[i])[where] for i, (rows, _) in enumerate(carried)])
        exponent = _stacked([exponent[where] for _, exponent in carried])
        with np.errstate(over="ignore", invalid="ignore"):
            raw = mantissa * scale
        # past the double range base**l is inf, and a zero part of the mantissa
        # times inf is nan: that part stays zero, as the ring's ldexp keeps it
        for part, m in ((raw.real, mantissa.real), (raw.imag, mantissa.imag)):
            np.copyto(part, m, where=np.isnan(part) & (m == 0))
        values.append(list(zip(ldexp(raw, exponent), ldexp(mantissa, exponent), mantissa, exponent)))  # per model
    return [_series(lengths, None, base, [value[i] for value in values]) for i, base in enumerate(bases.tolist())]


def _ring_series(models, g2, endpoints, lengths, n_sites):
    """The ring :func:`_string_series` of each of ``models``, a stack under the stack rule
    of :mod:`weaksym.transfer`: per model its series. A model whose
    envelope vanishes raises ZeroDivisionError for the stack. One squaring table of
    each stack of maps, built for the call, gives every power, a stack of one too.
    Each model's values are bit for bit those it gets in any stack.
    """
    lengths, n_sites = _string_lengths(lengths, n_sites)
    lpdos = [model.lpdo for model in models]
    ops = (_identity(lpdos[0].d), models[0].action(g2).u)
    maps = [[_transfer_stack(lpdos, chi, None) for chi in pair] for pair in endpoints]
    powers1, powers2 = (ScaledPowers(_transfer_stack(lpdos, op, None)) for op in ops)
    envelope, envelope_exp = powers2._stack_power(n_sites)
    charges = [abs(complex(trace)) for trace in np.trace(envelope, axis1=1, axis2=2)]
    if 0.0 in charges:
        raise _named(ZeroDivisionError("Tr[rho U_g2] vanishes; normalization undefined"), lpdos[charges.index(0.0)])
    mantissas = [np.empty((len(lpdos), len(lengths)), dtype=complex) for _ in maps]
    exponent = _zero_exponents(mantissas[0].shape, n_sites)
    step = max(1, MAX_STACK_ENTRIES // maps[0][0].size)
    for at in range(0, len(lengths), step):
        chunk = slice(at, at + step)
        m2, e2 = rescale(*powers2._stack_powers(lengths[chunk]))
        m1, e1 = rescale(*powers1._stack_powers(n_sites - 2 - lengths[chunk]))
        for mantissa, (tl, tr) in zip(mantissas, maps):
            mantissa[:, chunk] = _ring_traces(tl, m2, tr, m1)
        exponent[:, chunk] = e2 + e1
    # |Tr T^N|^{l/N} = charge^{l/N} 2^{envelope_exp l/N}: the integer part
    # of the binary exponent is split off exactly and joins the series'.
    # The product is taken in Python ints: near l = N = 10^10 it passes int64.
    product = lengths.astype(object) * envelope_exp[:, None]
    shift, rest = product // n_sites, product % n_sites
    # |shift| <= |envelope_exp|: like every exponent here, it fits int64
    # below N = INT64_POWERS (so exponent is int64) and is a Python int above.
    shifted = exponent - shift.astype(exponent.dtype)
    # the factors as one power of two whole (k, len(lengths)) arrays, bit for bit a model's
    # charge ** (lengths / N) alone. With the exponents broadcast, one length (a sweep's) is a
    # scalar exponent, which numpy computes another way (x ** 0.5 as a square root): that moved
    # the last bit of 1,080 of 20,000 random charges ** 0.5 (numpy 2.4.6, x86-64 with AVX-512)
    # and of 3 rows of `sweep --steps 65 --sites 2000 --string-length 1000`.
    grid = np.repeat(np.array(charges)[:, None], len(lengths), 1)
    factors = np.power(grid, np.broadcast_to(lengths / n_sites, grid.shape).copy()) * 2.0 ** (rest.astype(float) / n_sites)
    scaled = [(ldexp(m, exponent), ldexp(m / factors, shifted), m) for m in mantissas]
    return [
        _series(lengths, n_sites, 1.0, [(raw[i], normalized[i], m[i], exponent[i].copy()) for raw, normalized, m in scaled])
        for i in range(len(models))
    ]


def _series(lengths, n_sites, base, values):
    """A :class:`StringOrderSeries` of each ``(raw, normalized, mantissa, exponent)`` in ``values``."""
    return [StringOrderSeries(lengths.copy(), raw, normalized, n_sites, mantissa, base, exponent)
            for raw, normalized, mantissa, exponent in values]


def _string_lengths(lengths, n_sites):
    """``(lengths, n_sites)`` as a string series takes them, or :class:`ValidationError`.

    The lengths become int64; each must be an integer >= 0 and, on a ring,
    at most N - 2. N, if not None, must be a ring size
    (:func:`~weaksym.numerics._ring_size`) below 2^63.
    """
    if n_sites is not None:
        n_sites = _ring_size(n_sites)
        if n_sites >= 2**63:
            raise ValidationError(f"a ring string needs N < 2^63, got N={n_sites}")
    lengths = _whole(list(lengths), "string length must be an integer")
    if n_sites is None:
        if np.any(lengths < 0):
            raise ValidationError(f"string length must be >= 0, got {lengths.min()}")
    else:
        bad = (lengths < 0) | (lengths > n_sites - 2)
        if bad.any():
            raise ValidationError(f"need 0 <= l <= N-2, got l={lengths[bad][0]}, N={n_sites}")
    return lengths, n_sites


def _carried_rows(x, step, power, lengths):
    """(rows, exponents): x step^l = row * 2**exponent for increasing lengths l >= 0,
    each row carried from the one before and written in place, bit for bit the
    rows of ``x = x @ step`` while their exponents are 0.

    A jump of n > 1 lengths multiplies by ``power(n)``, the (mantissa, binary
    exponent) of step^n from a :class:`~weaksym.numerics.ScaledPowers` table of
    ``step``, and adds its exponent to the row's: no product overflows, even
    where step^l does. Once one step leaves a row unchanged bit for bit (a row
    that has underflowed to zeros), every further single step would too, so
    when the remaining lengths are consecutive the rest of the rows are that
    row, and no product is formed.
    """
    rows = np.empty((len(lengths), len(x)), dtype=complex)
    exponents = _zero_exponents(len(lengths), max(lengths, default=0))
    at = 0
    last = len(lengths) - 1
    before = x.tobytes()  # the bytes of x, each row's read once
    for i, (l, row) in enumerate(zip(lengths, rows)):
        if l == at + 1:
            x.dot(step, out=row)
        elif l > at:
            mantissa, shift = power(l - at)
            x.dot(mantissa, out=row)
            exponents[i:] += shift
        else:  # l = 0
            row[:] = x
        now = row.tobytes()
        if l == at + 1 and now == before and lengths[last] - l == last - i:
            rows[i + 1:] = row
            break
        x, at, before = row, l, now
    return rows, exponents


def _ring_traces(tl, m2, tr, m1):
    """Tr[tl m2_i tr m1_i] over two stacks, bit for bit ``(tl @ m2 @ tr @ m1).trace``;
    with stacks (k, n, n) of ``tl`` and ``tr``, of each (k, ...) stack's own maps.

    The stack times ``tr`` is one (k * n, n) GEMM, which sums each entry as
    the stacked matmul does in one call per matrix. ``tl @`` a stack and a
    stack times a stack stay stacked: the first rounds differently as one
    GEMM (9 x 9 maps), the second has no one-GEMM form.
    """
    chain = (tl[..., None, :, :] @ m2).reshape(*tr.shape[:-2], -1, tr.shape[-1]) @ tr
    return (chain.reshape(m2.shape) @ m1).trace(axis1=-2, axis2=-1)


def decay_channel(model, g2, chi_l, chi_r):
    """Decay exponent of the thermodynamic string, read off its channels.

    With (L0, R0) the leading pair of T(1) and (L_k, R_k) the biorthonormal
    pairs of T(g2), S(l) = sum_k c_k lambda_k^l with

        c_k = (L0 T_chiL R_k)(L_k T_chiR R0) / (L0 R0).

    Amplitudes are summed over each of ``Spectrum.clusters``, since an
    eigenspace may split one channel across vectors. A cluster c is live
    when |c| exceeds ``LIVE_TOL`` times its scale: the contraction's
    |L0||T_chiL||T_chiR||R0| / |L0 R0| times the cluster's basis-free
    condition ||R_c L_c||_F. The exponent is -ln|lambda| of the live cluster
    of largest modulus. A gapless T(g2) is fine: tied moduli give one
    exponent either way.

    The channels are those of the memoised spectra. A partial spectrum of
    T(g2) (bond dimension above 10) holds every eigenvalue down to some
    modulus, so its slowest live channel is the slowest of all; when none of
    its channels is live, the complete spectrum is read instead. A cluster
    both hold is judged alike on either. ``floor`` covers the channels of
    the spectrum the exponent was read from.

    Raises :class:`UndefinedExponentError` when no channel is live (the
    string vanishes identically) or the live one is nilpotent, and
    :class:`NearDefectiveError` when T(g2)'s eigenvectors cannot be paired.
    """
    return _decay_channels([model], g2, chi_l, chi_r)[0]


def _decay_channels(models, g2, chi_l, chi_r):
    """:func:`decay_channel` of each of ``models``, a stack under the stack rule of
    :mod:`weaksym.transfer`: one channel per model; the first model that fails raises
    its error. Norms, amplitudes and their sums per cluster are stacked products;
    only the choice of the channel runs once per model, on Python numbers.
    """
    lpdos = [model.lpdo for model in models]
    u = models[0].action(g2).u
    left, right, norm, _ = _leading_pairs(lpdos, transfer_spectra(lpdos, _identity(lpdos[0].d), None), "of T(1)")
    tl, tr = (_transfer_stack(lpdos, chi, None) for chi in (chi_l, chi_r))
    envelope = _norms(left) * _norms(tl) * _norms(tr) * _norms(right) / np.hypot(norm.real, norm.imag)
    if not envelope.all():
        raise _named(UndefinedExponentError("string vanishes identically: an endpoint map is zero"), lpdos[envelope.tolist().index(0.0)])
    spectra = [_paired(lpdo, spectrum, g2) for lpdo, spectrum in zip(lpdos, transfer_spectra(lpdos, u, None))]
    return _channels(lpdos, u, g2, spectra, envelope, (left[:, None] @ tl, tr, right, norm))


def _paired(lpdo, spectrum, g2):
    """``spectrum``, a spectrum of ``lpdo``, or :class:`NearDefectiveError` naming ``lpdo``
    if its eigenvectors cannot be paired."""
    if spectrum.near_defective:
        raise _named(NearDefectiveError(f"transfer spectrum of T({g2}) is near-defective"), lpdo)
    return spectrum


def _channels(lpdos, u, g2, spectra, envelope, stacks):
    """The :class:`DecayChannel` of each member on its spectrum, or, when a partial spectrum
    has no live channel, on the complete one; the first member that fails raises. The
    amplitudes c_k = (start R_k)(L_k tr right) / norm, from ``stacks`` (start, tr, right,
    norm), and their sums per cluster are stacks; only the choice runs per member. An error
    names its tensor (:func:`~weaksym.errors._named`): a member retried on its complete
    spectrum is a stack of its own."""
    r, l, _, groups, leaders = _cluster_table(spectra)
    start, tr, right, norm = stacks
    amplitudes = (start @ r)[:, 0] * ((l @ tr) @ right[:, :, None])[:, :, 0] / norm[:, None]
    sums = amplitudes + 0.0  # a cluster of one sums as numpy sums one amplitude: 0 + c
    for s, i, j in groups:  # larger ones as amplitudes[members].sum() sums them
        sums[s, i] = amplitudes[s[:, None], j].sum(-1)
    channels = []
    for at, (clusters, c, envelope_at) in enumerate(zip(leaders, sums.tolist(), envelope.tolist())):
        # (modulus, -ln modulus, eigenvalue, amplitude, |amplitude|, scale) of each cluster
        terms = [(mod, x, lam, c[i], abs(c[i]), envelope_at * condition) for i, lam, mod, x, condition in clusters]
        live = [term for term in terms if term[4] > LIVE_TOL * term[5]]
        if not live and not spectra[at].complete:
            complete = _paired(lpdos[at], transfer_spectrum(lpdos[at], u, complete=True), g2)
            channels += _channels(lpdos[at:at + 1], u, g2, [complete], envelope[at:at + 1], [x[at:at + 1] for x in stacks])
            continue
        if not live:
            raise _named(UndefinedExponentError("string vanishes identically: no decay channel is live"), lpdos[at])
        mod, x, lam, amplitude, _, _ = max(live, key=lambda term: term[0])
        top = terms[0][0]
        if mod <= NILPOTENT_TOL * top:
            raise _named(UndefinedExponentError(
                f"string decays faster than any exponential: its live channel is nilpotent ({mod:.1e})"
            ), lpdos[at])
        floor = max((size / scale for *_, size, scale in terms if size <= LIVE_TOL * scale), default=0.0)
        order_one = abs(mod - top) <= CLUSTER_TOL * top
        channels.append(DecayChannel(xi=x, eigenvalue=lam, amplitude=amplitude, floor=floor, order_one=order_one))
    return channels
