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
Tr T(g2)^N included, from the model's one table of repeated squarings per map
(:func:`~weaksym.transfer.transfer_powers`), all lengths at once
(:meth:`~weaksym.numerics.ScaledPowers.powers`).

The decay exponent is not fitted to a series. Expanding T(g2) in its own
eigenpairs makes the thermodynamic string a finite sum of geometric channels,
S(l) = sum_k c_k lambda_k^l, and :func:`decay_channel` reads the slowest
channel with a nonzero amplitude off the memoised spectra of T(1) and T(g2).
Whether that channel is lambda_0 itself is the selection rule: the
normalized string is order one exactly when it is.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NearDefectiveError, UndefinedExponentError, ValidationError
from .numerics import CLUSTER_TOL, _identity, _ring_size, _whole, _zero_exponents, ldexp, rescale
from .transfer import build_transfer, transfer_powers, transfer_spectrum, twisted_spectrum
from .response import _leading_pair

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
    ``exponent`` is an integer array (zero in the thermodynamic limit; on a
    ring of N >= ``numerics.INT64_POWERS`` sites, Python ints in an object
    array).
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
    on T(g2)/|lambda_0| (:func:`_carried_rows`). A ring series takes T(g2)^l
    and T(1)^(N-l-2) from the memoised squaring tables of the two maps
    (:func:`~weaksym.transfer.transfer_powers`), stacked across lengths in
    chunks of at most ``MAX_STACK_ENTRIES`` entries per stack. Each power is
    bit-identical to ``np.linalg.matrix_power`` in the normal range, and each
    value depends only on (l, N). This is the one-pair case of
    :func:`_string_series`, which evaluates several endpoint pairs over one
    set of powers, bit for bit as one call per pair.

    ``normalized`` divides out the uniform-charge envelope: |lambda_0(T(g2))|^l
    in the thermodynamic limit, where the carried mantissa is already the
    normalized value, and |Tr[rho U_g2]|^{l/N} = |Tr T(g2)^N|^{l/N} on a ring,
    taken from the table the series uses. Both work on the carried scale, not
    on ``raw``, so neither the envelope nor the string underflows. Raises
    ZeroDivisionError when the envelope vanishes: an exactly zero leading
    eigenvalue or trace.
    """
    return _string_series(model, g2, [(chi_l, chi_r)], lengths, n_sites)[0]


def _string_series(model, g2, endpoints, lengths, n_sites=None):
    """:func:`string_order_series` of each ``(chi_l, chi_r)`` in ``endpoints``, in order.

    Everything that does not depend on the endpoints is computed once: the
    argument checks, on a ring the envelope and each chunk's stacks of
    powers, in the thermodynamic limit the leading pair of T(1) and the
    carried step. Each pair costs its endpoint maps, its traces or carried
    rows, and its scaling. Every endpoint is checked before any power or
    spectrum is computed. Each field of each series owns its array.
    """
    lengths, n_sites = _string_lengths(lengths, n_sites)
    lpdo = model.lpdo
    eye = _identity(lpdo.d)
    u2 = model.action(g2).u
    maps = [(build_transfer(lpdo, chi_l), build_transfer(lpdo, chi_r)) for chi_l, chi_r in endpoints]
    if n_sites is None:
        left, right, norm, _ = _leading_pair(lpdo, transfer_spectrum(lpdo, eye), "of T(1)")
        base = float(abs(twisted_spectrum(model, g2).eigenvalues[0]))
        if base == 0.0:
            raise ZeroDivisionError("leading twisted eigenvalue vanishes; normalization undefined")
        step = build_transfer(lpdo, u2) / base
        distinct, where = np.unique(lengths, return_inverse=True)
        distinct = distinct.tolist()
        with np.errstate(over="ignore"):
            scale = base ** lengths.astype(float)
        values = []
        for tl, tr in maps:
            mantissa = ((_carried_rows(left @ tl, step, distinct) @ (tr @ right)) / norm)[where]
            with np.errstate(over="ignore", invalid="ignore"):
                raw = mantissa * scale
            # past the double range base**l is inf, and a zero part of the mantissa
            # times inf is nan: that part stays zero, as the ring's ldexp keeps it
            for part, m in ((raw.real, mantissa.real), (raw.imag, mantissa.imag)):
                np.copyto(part, m, where=np.isnan(part) & (m == 0))
            values.append((raw, mantissa, mantissa.copy(), np.zeros(len(lengths), dtype=int)))
    else:
        powers1, powers2 = transfer_powers(lpdo, eye), transfer_powers(lpdo, u2)
        envelope, envelope_exp = powers2.power(n_sites)
        charge = abs(complex(np.trace(envelope)))
        if charge == 0.0:
            raise ZeroDivisionError("Tr[rho U_g2] vanishes; normalization undefined")
        mantissas = [np.empty(len(lengths), dtype=complex) for _ in maps]
        exponent = _zero_exponents(len(lengths), n_sites)
        step = max(1, MAX_STACK_ENTRIES // maps[0][0].size)
        for at in range(0, len(lengths), step):
            chunk = slice(at, at + step)
            m2, e2 = rescale(*powers2.powers(lengths[chunk]))
            m1, e1 = rescale(*powers1.powers(n_sites - 2 - lengths[chunk]))
            for mantissa, (tl, tr) in zip(mantissas, maps):
                mantissa[chunk] = _ring_traces(tl, m2, tr, m1)
            exponent[chunk] = e2 + e1
        base = 1.0
        # |Tr T^N|^{l/N} = charge^{l/N} 2^{envelope_exp l/N}: the integer part
        # of the binary exponent is split off exactly and joins the series'.
        # The product is taken in Python ints: near l = N = 10^10 it passes int64.
        product = lengths.astype(object) * envelope_exp
        shift, rest = product // n_sites, product % n_sites
        factors = charge ** (lengths / n_sites) * 2.0 ** (rest.astype(float) / n_sites)
        # |shift| <= |envelope_exp|: like every exponent here, it fits int64
        # below N = INT64_POWERS (so exponent is int64) and is a Python int above.
        shifted = exponent - shift.astype(exponent.dtype)
        values = [
            (ldexp(mantissa, exponent), ldexp(mantissa / factors, shifted), mantissa, exponent.copy())
            for mantissa in mantissas
        ]
    return [
        StringOrderSeries(
            lengths=lengths.copy(),
            raw=raw,
            normalized=normalized,
            n_sites=n_sites,
            mantissa=mantissa,
            base=base,
            exponent=exponent,
        )
        for raw, normalized, mantissa, exponent in values
    ]


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


def _carried_rows(x, step, lengths):
    """Rows x step^l for increasing lengths l >= 0, each carried from the one
    before and written in place: bit for bit the rows of ``x = x @ step``.

    A jump of several lengths multiplies by ``matrix_power(step, jump)``.
    Once one step leaves a row unchanged bit for bit (a row that has
    underflowed to zeros), every further single step would too, so
    when the remaining lengths are consecutive the rest of the rows are that
    row, and no product is formed.
    """
    rows = np.empty((len(lengths), len(x)), dtype=complex)
    at = 0
    last = len(lengths) - 1
    for i, (l, row) in enumerate(zip(lengths, rows)):
        if l == at + 1:
            x.dot(step, out=row)
            if row.tobytes() == x.tobytes() and lengths[last] - l == last - i:
                rows[i + 1:] = row
                break
        elif l > at:
            x.dot(np.linalg.matrix_power(step, l - at), out=row)
        else:  # l = 0
            row[:] = x
        x, at = row, l
    return rows


def _ring_traces(tl, m2, tr, m1):
    """Tr[tl m2_i tr m1_i] over two stacks, bit for bit ``(tl @ m2 @ tr @ m1).trace``.

    The stack times ``tr`` is one (k * n, n) GEMM, which sums each entry as
    the stacked matmul does in one call per matrix. ``tl @`` a stack and a
    stack times a stack stay stacked: the first rounds differently as one
    GEMM (9 x 9 maps), the second has no one-GEMM form.
    """
    chain = (tl @ m2).reshape(-1, len(tr)) @ tr
    return (chain.reshape(m2.shape) @ m1).trace(axis1=1, axis2=2)


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
    lpdo = model.lpdo
    left, right, norm, _ = _leading_pair(lpdo, transfer_spectrum(lpdo, _identity(lpdo.d)), "of T(1)")
    tl, tr = build_transfer(lpdo, chi_l), build_transfer(lpdo, chi_r)
    envelope = np.linalg.norm(left) * np.linalg.norm(tl) * np.linalg.norm(tr) * np.linalg.norm(right) / abs(norm)
    if envelope == 0:
        raise UndefinedExponentError("string vanishes identically: an endpoint map is zero")
    start = left @ tl
    u = model.action(g2).u
    spectrum = transfer_spectrum(lpdo, u)
    while True:
        if spectrum.near_defective:
            raise NearDefectiveError(f"transfer spectrum of T({g2}) is near-defective")
        amplitudes = (start @ spectrum.right_vectors) * (spectrum.left_vectors @ tr @ right) / norm
        channels = [(lam, complex(amplitudes[members].sum()), envelope * condition)  # (eigenvalue, amplitude, scale)
                    for lam, members, condition in spectrum.clusters]
        live = [(lam, c) for lam, c, scale in channels if abs(c) > LIVE_TOL * scale]
        if live or spectrum.complete:
            break
        spectrum = transfer_spectrum(lpdo, u, complete=True)
    if not live:
        raise UndefinedExponentError("string vanishes identically: no decay channel is live")
    floor = max((abs(c) / scale for _, c, scale in channels if abs(c) <= LIVE_TOL * scale), default=0.0)
    lam0 = abs(spectrum.eigenvalues[0])
    lam, c = max(live, key=lambda channel: abs(channel[0]))
    if abs(lam) <= NILPOTENT_TOL * lam0:
        raise UndefinedExponentError(
            f"string decays faster than any exponential: its live channel is nilpotent ({abs(lam):.1e})"
        )
    return DecayChannel(
        xi=float(-np.log(abs(lam))),
        eigenvalue=lam,
        amplitude=c,
        floor=float(floor),
        order_one=bool(abs(abs(lam) - lam0) <= CLUSTER_TOL * lam0),
    )
