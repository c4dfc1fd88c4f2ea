"""String order parameters, their normalization, and decay exponents.

A string observable is chi_L on one site, l consecutive u_g2 insertions,
chi_R on the next site, and identities closing the ring:

    S(l) = tr[T_chiL T(g2)^l T_chiR T(1)^{N-l-2}].

In the thermodynamic limit the identity stretch projects onto the leading
eigenvector pair of T(1) and the string reduces to boundary vectors acting
across T(g2)^l. The normalized order divides out the uniform-charge
envelope so that an order-one plateau survives exactly when the endpoint
charges of chi match the flux responses of the state, one group element at
a time.

A series over many lengths carries its scale instead of forming values that
under- or overflow: the thermodynamic series is one running row vector
x_{l+1} = x_l T(g2)/|lambda_0| across the lengths, and ring series take every
power from one table of repeated squarings with binary exponents
(:class:`~weaksym.numerics.ScaledPowers`), all lengths at once: one stacked
product per bit level, so a series of thousands of lengths costs about
log2(N) numpy calls per map rather than a Python-level product per factor.

The decay exponent is not fitted to a series. Expanding T(g2) in its own
eigenpairs makes the thermodynamic string a finite sum of geometric channels,
S(l) = sum_k c_k lambda_k^l, and :func:`decay_channel` reads the slowest
channel with a nonzero amplitude off the memoised spectra of T(1) and T(g2).
Whether that channel is lambda_0 itself is the selection rule: the
normalized string is order one exactly when it is.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NearDefectiveError, UndefinedExponentError
from .numerics import ScaledPowers, ldexp, rescale
from .transfer import build_transfer, transfer_spectrum, twisted_spectrum
from .response import GAP_TOL, _leading_pair

# Eigenvalues of T(g2) within this much of each other, relative to
# |lambda_0|, are one channel: their amplitudes add.
CLUSTER_TOL = 1e-12
# A channel is live when its amplitude exceeds this share of the scale its
# contraction works at. On the AKLT family live channels sit at 0.19 of
# that scale or above and dead ones at 2.3e-28 or below (1,098 values of p).
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
    ``normalized`` stays None until :func:`normalized_string` fills it.
    The scale the evaluation carried is kept alongside ``raw``:
    ``raw = mantissa * base**lengths * 2**exponent``, where ``base`` is
    |lambda_0(T(g2))| for a thermodynamic series (1 if that vanishes) and 1
    on a ring, and ``exponent`` is an integer array (zero in the
    thermodynamic limit). Where only the envelope is below the range of
    doubles, ``raw`` underflows but ``mantissa`` does not.
    """

    g2: str
    chi_l: np.ndarray
    chi_r: np.ndarray
    lengths: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray | None
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
    to the contraction scale (0 when every channel is live). ``order_one``
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
    any order and may repeat.

    The thermodynamic series carries one boundary row vector from the
    shortest length to the longest, one vector-matrix product per length,
    on T(g2)/|lambda_0|. A ring series takes T(g2)^l and T(1)^(N-l-2) from one
    table of repeated squarings per map, stacked across lengths in chunks of
    at most ``MAX_STACK_ENTRIES`` entries per stack. Each power is
    bit-identical to ``np.linalg.matrix_power`` in the normal range, and each
    value depends only on (l, N).
    """
    lengths = np.asarray(list(lengths), dtype=int)
    lpdo = model.lpdo
    eye = np.eye(lpdo.d)
    t1 = build_transfer(lpdo, eye)
    t2 = build_transfer(lpdo, model.action(g2).u)
    tl = build_transfer(lpdo, chi_l)
    tr = build_transfer(lpdo, chi_r)
    if n_sites is None:
        if np.any(lengths < 0):
            raise ValueError(f"string length must be >= 0, got {lengths.min()}")
        left, right, norm, _ = _leading_pair(transfer_spectrum(lpdo, eye), GAP_TOL, "of T(1)")
        lam0 = abs(twisted_spectrum(model, g2).eigenvalues[0])
        base = float(lam0) if lam0 > 0 else 1.0
        step = t2 / base
        x, end = left @ tl, tr @ right
        distinct, where = np.unique(lengths, return_inverse=True)
        rows = np.empty((len(distinct), len(x)), dtype=complex)
        at = 0
        for i, l in enumerate(distinct.tolist()):
            if l == at + 1:
                x = x @ step
            elif l > at:
                x = x @ np.linalg.matrix_power(step, l - at)
            at = l
            rows[i] = x
        mantissa = ((rows @ end) / norm)[where]
        exponent = np.zeros(len(lengths), dtype=int)
        raw = mantissa * base ** lengths.astype(float)
    else:
        n_sites = int(n_sites)
        bad = (lengths < 0) | (lengths > n_sites - 2)
        if bad.any():
            raise ValueError(f"need 0 <= l <= N-2, got l={lengths[bad][0]}, N={n_sites}")
        powers1, powers2 = ScaledPowers(t1), ScaledPowers(t2)
        mantissa = np.empty(len(lengths), dtype=complex)
        exponent = np.empty(len(lengths), dtype=int)
        step = max(1, MAX_STACK_ENTRIES // t1.size)
        for at in range(0, len(lengths), step):
            chunk = slice(at, at + step)
            m2, e2 = rescale(*powers2.powers(lengths[chunk]))
            m1, e1 = rescale(*powers1.powers(n_sites - 2 - lengths[chunk]))
            mantissa[chunk] = (tl @ m2 @ tr @ m1).trace(axis1=1, axis2=2)
            exponent[chunk] = e2 + e1
        base = 1.0
        raw = ldexp(mantissa, exponent)
    return StringOrderSeries(
        g2=g2,
        chi_l=np.asarray(chi_l, dtype=complex),
        chi_r=np.asarray(chi_r, dtype=complex),
        lengths=lengths,
        raw=raw,
        normalized=None,
        n_sites=n_sites,
        mantissa=mantissa,
        base=base,
        exponent=exponent,
    )


def normalized_string(model, series):
    """Divide out the uniform-charge envelope, length by length.

    Ring mode divides S(l) by |Tr[rho U_g2]|^{l/N}; thermodynamic mode by
    |lambda_0(T(g2))|^l. Both work on the scale the series carried, not on
    ``raw``, so neither the envelope nor the string underflows. Raises
    ZeroDivisionError when the envelope vanishes: an exactly zero trace or
    leading eigenvalue.
    """
    lengths = series.lengths
    if series.n_sites is not None:
        n_sites = series.n_sites
        t2 = build_transfer(model.lpdo, model.action(series.g2).u)
        power, charge_exp = ScaledPowers(t2).power(n_sites)
        charge = abs(complex(np.trace(power)))
        if charge == 0.0:
            raise ZeroDivisionError("Tr[rho U_g2] vanishes; normalization undefined")
        # |Tr T^N|^{l/N} = charge^{l/N} 2^{charge_exp l/N}: the integer part
        # of the binary exponent is split off exactly and joins the series'.
        shift, rest = np.divmod(charge_exp * lengths, n_sites)
        factors = charge ** (lengths / n_sites) * 2.0 ** (rest / n_sites)
        scaled = series.mantissa * series.base ** lengths.astype(float) / factors
        normalized = ldexp(scaled, series.exponent - shift)
    else:
        lam0 = abs(twisted_spectrum(model, series.g2).eigenvalues[0])
        if lam0 == 0.0:
            raise ZeroDivisionError("leading twisted eigenvalue vanishes; normalization undefined")
        scaled = series.mantissa * (series.base / lam0) ** lengths.astype(float)
        normalized = ldexp(scaled, series.exponent)
    return replace(series, normalized=normalized)


def decay_channel(model, g2, chi_l, chi_r):
    """Decay exponent of the thermodynamic string, read off its channels.

    With (L0, R0) the leading pair of T(1) and (L_k, R_k) the biorthonormal
    pairs of T(g2), S(l) = sum_k c_k lambda_k^l with

        c_k = (L0 T_chiL R_k)(L_k T_chiR R0) / (L0 R0).

    Amplitudes of equal eigenvalues (within ``CLUSTER_TOL`` |lambda_0|) are
    summed, since an eigenspace may split one channel across vectors. A
    cluster is live when |c| exceeds ``LIVE_TOL`` times the scale
    |L0||T_chiL||T_chiR||R0| / |L0 R0| times the condition estimate of
    T(g2)'s eigenvectors; the exponent is -ln|lambda| of the live cluster of
    largest modulus. Both spectra are the memoised ones, so no new
    eigendecomposition runs. A gapless T(g2) is fine: tied moduli give one
    exponent either way.

    Raises :class:`UndefinedExponentError` when no channel is live (the
    string vanishes identically) or the live one is nilpotent, and
    :class:`NearDefectiveError` when T(g2)'s eigenvectors cannot be paired.
    """
    lpdo = model.lpdo
    left, right, norm, _ = _leading_pair(transfer_spectrum(lpdo, np.eye(lpdo.d)), GAP_TOL, "of T(1)")
    spectrum = twisted_spectrum(model, g2)
    if spectrum.near_defective:
        raise NearDefectiveError(f"transfer spectrum of T({g2}) is near-defective")
    tl = build_transfer(lpdo, chi_l)
    tr = build_transfer(lpdo, chi_r)
    scale = (
        np.linalg.norm(left) * np.linalg.norm(tl) * np.linalg.norm(tr) * np.linalg.norm(right)
        / abs(norm) * spectrum.condition_estimate
    )
    if scale == 0:
        raise UndefinedExponentError("string vanishes identically: an endpoint map is zero")
    amplitudes = (left @ tl @ spectrum.right_vectors) * (spectrum.left_vectors @ tr @ right) / norm
    eigenvalues = spectrum.eigenvalues
    lam0 = abs(eigenvalues[0])
    unassigned = np.ones(len(eigenvalues), dtype=bool)
    channels = []
    for i in range(len(eigenvalues)):
        if unassigned[i]:
            members = unassigned & (np.abs(eigenvalues - eigenvalues[i]) <= CLUSTER_TOL * lam0)
            unassigned &= ~members
            channels.append((complex(eigenvalues[i]), complex(amplitudes[members].sum())))
    threshold = LIVE_TOL * scale
    live = [(lam, c) for lam, c in channels if abs(c) > threshold]
    if not live:
        raise UndefinedExponentError("string vanishes identically: no decay channel is live")
    floor = max((abs(c) for _, c in channels if abs(c) <= threshold), default=0.0) / scale
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
