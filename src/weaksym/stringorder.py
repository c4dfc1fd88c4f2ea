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
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GaplessTransferError, UndefinedExponentError
from .numerics import matrix_power_trace
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


@dataclass
class StringOrderSeries:
    """String order values over a range of string lengths.

    ``n_sites`` is the ring size, or None for the thermodynamic limit.
    ``normalized`` stays None until :func:`normalized_string` fills it.
    """

    g2: str
    chi_l: np.ndarray
    chi_r: np.ndarray
    lengths: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray | None
    n_sites: int | None

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
    symmetry transition; only T(g2) goes gapless there).
    """
    lengths = np.asarray(list(lengths), dtype=int)
    lpdo = model.lpdo
    t1 = build_transfer(lpdo, np.eye(lpdo.d))
    t2 = build_transfer(lpdo, model.action(g2).u)
    tl = build_transfer(lpdo, chi_l)
    tr = build_transfer(lpdo, chi_r)
    if n_sites is None:
        if np.any(lengths < 0):
            raise ValueError(f"string length must be >= 0, got {lengths.min()}")
        inners = (np.linalg.matrix_power(t2, l) for l in lengths)
        t1_spectrum = transfer_spectrum(lpdo, np.eye(lpdo.d))
        raw, _ = _leading_pair(t1_spectrum, inners, GAP_TOL, "of T(1)", ends=(tl, tr))
    else:
        n_sites = int(n_sites)
        for l in lengths:
            if not 0 <= l <= n_sites - 2:
                raise ValueError(f"need 0 <= l <= N-2, got l={l}, N={n_sites}")
        power = np.linalg.matrix_power
        raw = [complex(np.trace(tl @ power(t2, l) @ tr @ power(t1, n_sites - l - 2))) for l in lengths]
    return StringOrderSeries(
        g2=g2,
        chi_l=np.asarray(chi_l, dtype=complex),
        chi_r=np.asarray(chi_r, dtype=complex),
        lengths=lengths,
        raw=np.array(raw, dtype=complex),
        normalized=None,
        n_sites=n_sites,
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
    |lambda_0(T(g2))|^l. Raises ZeroDivisionError when the envelope
    vanishes.
    """
    if series.n_sites is not None:
        t2 = build_transfer(model.lpdo, model.action(series.g2).u)
        charge = abs(matrix_power_trace(t2, series.n_sites))
        if charge == 0.0:
            raise ZeroDivisionError("Tr[rho U_g2] vanishes; normalization undefined")
        factors = charge ** (series.lengths / series.n_sites)
    else:
        lam0 = abs(twisted_spectrum(model, series.g2).eigenvalues[0])
        if lam0 == 0.0:
            raise ZeroDivisionError("leading twisted eigenvalue vanishes; normalization undefined")
        factors = lam0 ** series.lengths.astype(float)
    return replace(series, normalized=series.raw / factors)


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
