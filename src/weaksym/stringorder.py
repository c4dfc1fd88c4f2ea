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
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GaplessTransferError, UndefinedExponentError
from .numerics import ScaledPowers, ldexp, rescale
from .symmetry import endpoint_charge
from .transfer import build_transfer, symmetry_gap, transfer_spectrum, twisted_spectrum
from .response import GAP_TOL, _leading_pair, thermo_response

UNDERFLOW_FLOOR = 1e-280
# A geometric series fits -ln|S| to a line at roundoff level; residuals far
# above that mean the string cancelled and only noise is left in the window.
NOISE_RESIDUAL = 1e-3
DEFAULT_WINDOW = (20, 50)
# The series are exactly geometric from l=0, but a late window drowns a
# fast-decaying channel in 1e-16 cross-talk from slower ones: the S_x
# signal decays as 3^-l while roundoff leaks the (4p-1)/3 channel, so for
# p near 1 the default window is noise-dominated. This early window keeps
# the fit clean in double precision at every grid p.
EARLY_WINDOW = (4, 16)
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


@dataclass
class DecayFit:
    """Least-squares decay exponent of -ln|S(l)| over a length window."""

    xi: float
    window: tuple
    residual: float


@dataclass
class SelectionReport:
    """Per-element selection-rule bookkeeping for one string observable.

    ``channels`` lists (element, endpoint charge, flux response, match).
    ``predicted`` is "order-one" when every channel matches, otherwise
    "vanishing"; ``observed`` restates the measured normalized value at
    the probe length; ``consistent`` ties the two together.
    """

    predicted: str
    observed: str
    channels: list
    probe_length: int
    probe_value: float
    consistent: bool


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


def string_order_ring(model, g2, chi_l, chi_r, length, n_sites):
    """String order on a ring of n_sites with string length 0 <= l <= N-2."""
    return complex(string_order_series(model, g2, chi_l, chi_r, [length], n_sites=n_sites).raw[0])


def string_order_thermo(model, g2, chi_l, chi_r, length):
    """String order in the thermodynamic limit at one string length."""
    return complex(string_order_series(model, g2, chi_l, chi_r, [length]).raw[0])


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


def decay_exponent(series, window=DEFAULT_WINDOW):
    """Fit -ln|S(l)| = xi * l + const over lengths inside ``window``.

    Needs at least four points in the window; any |S| at or below the
    underflow floor (1e-280) makes the exponent undefined, as does exact
    cancellation to zero.  Cancellation does not always underflow: when the
    amplitude of the decay channel vanishes the series is pure roundoff,
    which shows up as a fit residual many orders above machine precision,
    so residuals beyond ``NOISE_RESIDUAL`` are rejected too.
    """
    lo, hi = window
    mask = (series.lengths >= lo) & (series.lengths <= hi)
    lengths = series.lengths[mask]
    values = np.abs(series.raw[mask])
    if len(lengths) < 4:
        raise ValueError(
            f"need at least 4 points in window [{lo}, {hi}], have {len(lengths)}"
        )
    if np.any(values <= UNDERFLOW_FLOOR):
        raise UndefinedExponentError(
            "string order underflows (or cancels exactly) inside the fit window"
        )
    y = -np.log(values)
    slope, intercept = np.polyfit(lengths, y, 1)
    residual = float(np.max(np.abs(y - (slope * lengths + intercept))))
    if residual > NOISE_RESIDUAL:
        raise UndefinedExponentError(
            "exponent undefined: exact cancellation leaves only roundoff in "
            f"the fit window (log residual {residual:.2e})"
        )
    return DecayFit(
        xi=float(slope),
        window=(int(lengths.min()), int(lengths.max())),
        residual=residual,
    )


def selection_classify(model, g2, chi_l, chi_r, probe_length=50, threshold=1e-3, gap_tol=GAP_TOL):
    """Predict and measure whether a normalized string order is order one.

    Prediction: for every non-identity group element g, the endpoint
    charge e^{i phi(g)} of chi_R must equal the flux response
    e^{i Q(g, g2)}. Measurement: the normalized thermodynamic string at
    ``probe_length`` is compared against ``threshold``. Both endpoint
    operators must carry definite charge under every element.
    """
    spectrum = twisted_spectrum(model, g2)
    if symmetry_gap(spectrum) <= gap_tol:
        raise GaplessTransferError(f"T({g2}) is gapless; classification undefined")

    chi_l = np.asarray(chi_l, dtype=complex)
    chi_r = np.asarray(chi_r, dtype=complex)
    identity = model.group.identity
    channels = []
    all_match = True
    for g in model.group.labels:
        if g == identity:
            continue
        act = model.action(g)
        endpoint_charge(chi_l, act)  # both endpoints must carry definite charge
        phi = endpoint_charge(chi_r, act)
        q = thermo_response(model, g, g2, gap_tol=gap_tol).value
        match = bool(abs(phi - q) < 1e-6)
        all_match = all_match and match
        channels.append((g, phi, q, match))

    series = string_order_series(model, g2, chi_l, chi_r, [probe_length])
    series = normalized_string(model, series)
    probe_value = float(abs(series.normalized[0]))

    predicted = "order-one" if all_match else "vanishing"
    observed = "order-one" if probe_value > threshold else "vanishing"
    return SelectionReport(
        predicted=predicted,
        observed=observed,
        channels=channels,
        probe_length=int(probe_length),
        probe_value=probe_value,
        consistent=(predicted == observed),
    )
