"""Built-in verification suite.

Every analytically known property of the decohered AKLT family, plus the
dense-oracle cross-checks, expressed as named pass/fail records. The CLI
``verify`` command and the acceptance test suite both run these, so the
command line and the test report can never drift apart.

Each section takes ``build``, the function that makes the built-in model at a
noise rate p. :func:`run_level` passes one that makes each model once for the
whole run, so the per-model memo serves every section that uses the same p.
A section that loops over a fixed grid of p makes the grid's models once and
reads each quantity of them as one stack, under the stack rule of
:mod:`weaksym.transfer`: the tables, gaps, responses, plateaus and exponent
grids, the dense oracle (one call per ring size for four models at the seams
1, V_x and V_y) and the structural identities of p = 0.2 and 0.8, which
``verify --model`` computes as a stack of one. Only the exponent crossing,
whose next p depends on the last, takes one model at a time: it is the one
sequential part of the suite.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessTransferError, SizeGuardError, UndefinedExponentError, WeaksymError
from .model import build_aklt_model, spin1_operators
from .numerics import ScaledPowers, _identity, _restacked, ldexp
from .oracle import _expectations, expectation
from .response import _conservation_checks, _flux_responses, _thermo_responses, finite_response, thermo_response
from .stringorder import _ring_series, _string_series, string_order_series
from .symmetry import REP_TOL, cocycle_commutator, extract_virtual_rep, extract_virtual_reps
from .transfer import (
    _transfer_stack,
    build_transfers,
    commutant_residual,
    flux_operator,
    symmetry_gap,
    symmetry_gaps,
    transfer_powers,
    transfer_spectra,
    transfer_spectrum,
    twisted_spectrum,
)

P_GRID = tuple(i / 10 for i in range(11))
P_BELOW = (0.1, 0.2, 0.3, 0.4)
P_ABOVE = (0.6, 0.7, 0.8, 0.9)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""


def _check(name, worst, tol):
    return CheckResult(name=name, passed=bool(worst <= tol), worst=float(worst), tol=tol)


# --- analytic references for the decohered AKLT family ---------------------

def aklt_t1_matrix():
    return np.array([[1, 0, 0, 2], [0, -1, 0, 0], [0, 0, -1, 0], [2, 0, 0, 1]]) / 3.0


def aklt_tz_matrix(p):
    return np.array(
        [
            [(1 - 2 * p) / 3, 0, 0, (2 / 3) * (-1 + p)],
            [0, (-1 + 2 * p) / 3, -2 * p / 3, 0],
            [0, -2 * p / 3, (-1 + 2 * p) / 3, 0],
            [-(2 / 3) * (1 - p), 0, 0, (1 - 2 * p) / 3],
        ]
    )


def aklt_tz_eigenvalues(p):
    return [(3 - 4 * p) / 3, (-1 + 4 * p) / 3, -1 / 3, -1 / 3]


def aklt_gap_z(p):
    return (2 - 4 * p) / 3 if p <= 0.5 else (4 * p - 2) / 3


def aklt_string_amplitude(p):
    """Endpoint weight of the S_x / S_y string orders, (2(1-p)/3)^2."""
    return (2 * (1 - p) / 3) ** 2


def _transfer_traces(lpdos, op, n_sites, xs):
    """Tr[X T(op)^N] of each of ``lpdos``, for each stack X (one per tensor; None for 1) of
    ``xs``: per X a list of one value per tensor, from one squaring table of the stack of
    maps, each power bit for bit its tensor's memoised table's, the one finite responses use."""
    mantissa, exponent = ScaledPowers(_transfer_stack(lpdos, op, None))._stack_power(n_sites)
    traces = [np.trace(mantissa if x is None else x @ mantissa, axis1=1, axis2=2) for x in xs]
    return [ldexp(trace, exponent).tolist() for trace in traces]


def _grid(build, p_values):
    """``build``'s model at each of ``p_values``, and their tensors: a criterion reads each
    quantity of its grid as one stack, and its per-model reads from these same models."""
    models = [build(p) for p in p_values]
    return models, [model.lpdo for model in models]


def _multiset_distance(computed, expected):
    """Largest pairing distance between two eigenvalue multisets.

    Ordered comparison would be decided by roundoff whenever two moduli
    tie (as they do for the twisted transfer at p = 1/2), so match each
    expected value to the nearest remaining computed one instead.
    """
    remaining = [complex(v) for v in computed]
    worst = 0.0
    for target in expected:
        idx = min(range(len(remaining)), key=lambda k: abs(remaining[k] - target))
        worst = max(worst, abs(remaining.pop(idx) - target))
    return worst


# --- criterion 1: transfer spectra and explicit matrices --------------------

def transfer_table_checks(build):
    results = []
    worst_s1 = worst_sz = worst_m1 = worst_mz = 0.0
    expected_t1 = [1, -1 / 3, -1 / 3, -1 / 3]
    models, lpdos = _grid(build, P_GRID)
    u1, uz = (models[0].action(g).u for g in ("1", "R_z"))
    spectra = zip(transfer_spectra(lpdos, u1, None), transfer_spectra(lpdos, uz, None))
    maps = zip(build_transfers(lpdos, np.eye(3), None), build_transfers(lpdos, uz, None))
    for p, (spec1, specz), (t1, tz) in zip(P_GRID, spectra, maps):
        worst_s1 = max(worst_s1, _multiset_distance(spec1.eigenvalues, expected_t1))
        worst_sz = max(
            worst_sz, _multiset_distance(specz.eigenvalues, aklt_tz_eigenvalues(p))
        )
        worst_m1 = max(worst_m1, np.abs(t1 - aklt_t1_matrix()).max())
        worst_mz = max(worst_mz, np.abs(tz - aklt_tz_matrix(p)).max())
    results.append(_check("untwisted spectrum {1, -1/3 x3} on the p-grid", worst_s1, 1e-12))
    results.append(_check("R_z-twisted spectrum closed form on the p-grid", worst_sz, 1e-12))
    results.append(_check("untwisted transfer matrix entrywise", worst_m1, 1e-14))
    results.append(_check("R_z-twisted transfer matrix entrywise", worst_mz, 1e-14))
    return results


# --- criterion 3: symmetry gaps ---------------------------------------------

def gap_checks(build):
    worst_z = worst_1 = 0.0
    models, lpdos = _grid(build, P_GRID)
    gaps = [symmetry_gaps(transfer_spectra(lpdos, models[0].action(g).u, None)).tolist() for g in ("R_z", "1")]
    for p, gz, g1 in zip(P_GRID, *gaps):
        worst_z = max(worst_z, abs(gz - aklt_gap_z(p)))
        worst_1 = max(worst_1, abs(g1 - 2 / 3))
    return [
        _check("symmetry gap of T(R_z) piecewise linear in p", worst_z, 1e-12),
        _check("symmetry gap of T(1) equals 2/3 for all p", worst_1, 1e-12),
    ]


# --- criterion 2: quantized responses across the phase diagram --------------

def response_checks(build):
    results = []
    worst_thermo = worst_agree = 0.0
    p_values = P_BELOW + P_ABOVE
    models = [build(p) for p in p_values]
    responses = _thermo_responses(models, ("R_x", "R_y"), "R_z")
    for p, model, (rx, ry) in zip(p_values, models, responses):
        target_y = -1.0 if p in P_BELOW else 1.0
        worst_thermo = max(
            worst_thermo, abs(rx.value - (-1.0)), abs(ry.value - target_y)
        )
        fx = finite_response(model, "R_x", "R_z", 200)
        fy = finite_response(model, "R_y", "R_z", 200)
        worst_agree = max(
            worst_agree, abs(fx.value - rx.value), abs(fy.value - ry.value)
        )
    results.append(
        _check("thermodynamic responses (-1,-1) below and (-1,+1) above p=1/2", worst_thermo, 1e-8)
    )
    results.append(_check("finite-size responses at N=200 match thermodynamic", worst_agree, 1e-8))

    model = build(0.5)
    gap = symmetry_gap(twisted_spectrum(model, "R_z"))
    try:
        thermo_response(model, "R_y", "R_z")
        raised = False
    except GaplessTransferError:
        raised = True
    results.append(
        CheckResult(
            name="p=1/2 is gapless: thermodynamic response refuses, gap below 1e-12",
            passed=bool(raised and abs(gap) < 1e-12),
            worst=abs(gap),
            tol=1e-12,
            detail="" if raised else "no GaplessTransferError raised",
        )
    )
    return results


# --- criterion 4: normalized string order plateaus ---------------------------

def string_order_checks(build):
    """Normalized strings of length 50 on a ring of 200 sites, S_y and S_x as one series per p."""
    ops = spin1_operators()
    ends = [(ops[chi], ops[chi]) for chi in ("S_y", "S_x")]
    worst_plateau = worst_below = worst_x = 0.0
    p_values = P_BELOW + P_ABOVE
    for p, series in zip(p_values, _ring_series([build(p) for p in p_values], "R_z", ends, [50], 200)):
        sn_y, sn_x = (abs(s.normalized[0]) for s in series)
        if p in P_ABOVE:
            worst_plateau = max(worst_plateau, abs(sn_y - aklt_string_amplitude(p)))
        else:
            worst_below = max(worst_below, sn_y)
        worst_x = max(worst_x, sn_x)
    return [
        _check("normalized S_y plateau (2(1-p)/3)^2 above p=1/2", worst_plateau, 1e-6),
        _check("normalized S_y vanishes below p=1/2", worst_below, 1e-6),
        _check("normalized S_x vanishes on both sides", worst_x, 1e-6),
    ]


# --- criterion 5: decay exponents and their crossing -------------------------
#
# The package reads exponents off the transfer spectra
# (stringorder.decay_channel); criterion 5 fits them to string series
# instead, so the check does not share the code it checks.

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
class DecayFit:
    """Least-squares decay exponent of -ln|S(l)| over a length window."""

    xi: float
    window: tuple
    residual: float


def decay_exponent(series, window):
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

def _thermo_fits(models, chis, window):
    """Fits of the thermodynamic strings chi ... chi over ``window``, per model one per chi, from
    one evaluation of the stack ``models``."""
    series = _string_series(models, "R_z", [(chi, chi) for chi in chis], range(window[0], window[1] + 1))
    return [[decay_exponent(s, window=window) for s in row] for row in series]


def _regula_falsi(f, lo, hi, width):
    """A bracket (lo, hi) of a sign change of ``f``, f(lo) > 0 >= f(hi), narrowed to ``width``.

    Each point is Illinois regula falsi's (Dowell & Jarratt, BIT 11, 168
    (1971)): the root of the chord between the bracket's ends, where an end
    kept for a second step in a row has its value halved, so that neither end
    stays put. The point is the midpoint instead where the chord's root is not
    inside the bracket, and once chord steps have failed to halve the bracket
    as many times as bisection needs steps, so the search takes at most twice
    bisection's steps. (A midpoint after each chord step that fails to halve
    would undo the halved values on a convex ``f``, whose chord roots fall just
    past its root and move one end only: 19 steps instead of 7 on the crossing.)
    """
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo > 0 >= f_hi):
        raise ValueError(f"bracket ({lo}, {hi}) does not straddle the crossing")
    slack = math.ceil(math.log2((hi - lo) / width))
    kept = 0  # the end a step kept: -1 lo, 1 hi
    while hi - lo > width:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        chord = slack > 0 and lo < x < hi
        if not chord:
            x = 0.5 * (lo + hi)
        before, f_x = hi - lo, f(x)
        if f_x > 0:
            lo, f_lo = x, f_x
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f_x
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if chord and hi - lo > 0.5 * before:
            slack -= 1
    return lo, hi


def exponent_crossing(build):
    """Noise rate where the S_y decay exponent drops to the S_x one.

    The midpoint of a bracket of the sign change of xi_y(p) - xi_x(p),
    narrowed from (0.4, 0.6) to 1e-7 by :func:`_regula_falsi`; both
    exponents come from thermodynamic-limit fits over ``DEFAULT_WINDOW``,
    so the only structure used is the string order itself.
    """
    ops = spin1_operators()
    sx, sy = ops["S_x"], ops["S_y"]

    def difference(p):
        ((fit_y, fit_x),) = _thermo_fits([build(p)], [sy, sx], DEFAULT_WINDOW)
        return fit_y.xi - fit_x.xi

    lo, hi = _regula_falsi(difference, 0.4, 0.6, 1e-7)
    return 0.5 * (lo + hi)


def exponent_checks(build):
    ops = spin1_operators()
    sx, sy = ops["S_x"], ops["S_y"]
    worst_x = 0.0
    for (fit,) in _thermo_fits([build(i / 10) for i in range(10)], [sx], EARLY_WINDOW):
        worst_x = max(worst_x, abs(fit.xi - np.log(3.0)))
    # At p = 1 the S_x string vanishes identically, so its exponent does
    # not exist; check the vanishing instead of fitting roundoff.
    series_p1 = string_order_series(
        build(1.0), "R_z", sx, sx, range(0, 21)
    )
    worst_p1 = max(abs(v) for v in series_p1.raw)
    worst_y = 0.0
    p_values = (0.6, 0.75, 0.9)
    for p, (fit,) in zip(p_values, _thermo_fits([build(p) for p in p_values], [sy], DEFAULT_WINDOW)):
        worst_y = max(worst_y, abs(fit.xi - (-np.log((4 * p - 1) / 3))))
    crossing = exponent_crossing(build)
    return [
        _check("S_x decay exponent ln(3) for p in [0, 0.9]", worst_x, 1e-6),
        _check("S_x string vanishes identically at p=1", worst_p1, 1e-12),
        _check("S_y decay exponent -ln((4p-1)/3) above p=1/2", worst_y, 1e-6),
        _check("exponent crossing at p=1/2 via Illinois regula falsi", abs(crossing - 0.5), 1e-6),
    ]


# --- criterion 6: dense-oracle equivalence -----------------------------------

def oracle_checks(build):
    """Dense-oracle cross-checks on rings of 3, 4 and 5 sites, one oracle call per ring size
    for the four models, at the seams 1, V_x and V_y."""
    ops = spin1_operators()
    eye2, eye3 = np.eye(2), np.eye(3)
    chis = [ops[alpha] for alpha in ("S_0", "S_x", "S_y")]
    worst_charge = worst_flux = worst_string = 0.0
    models, lpdos = _grid(build, (0.0, 0.3, 0.7, 1.0))
    uz = models[0].action("R_z").u
    reps = [_restacked([rep for rep, _ in extract_virtual_reps(lpdos, models[0].action(g1))], "v") for g1 in ("R_x", "R_y")]
    fluxes = [flux_operator(v) for v in reps]
    for n in (3, 4, 5):
        strings = [[chi] + [uz] * length + [chi] + [eye3] * (n - length - 2) for chi in chis for length in range(n - 1)]
        numerator_lists = [[uz] * n, [eye3] * n]
        dense, *numerators = _expectations(lpdos, [[eye2] * len(lpdos), *reps], [[[uz] * n] + strings, numerator_lists, numerator_lists])
        series = _ring_series(models, "R_z", [(chi, chi) for chi in chis], range(n - 1), n)
        charges, *at_uz = _transfer_traces(lpdos, uz, n, [None, *fluxes])
        at_eye = _transfer_traces(lpdos, eye3, n, fluxes)
        for i, row in enumerate(series):
            charge, *values = dense[i].tolist()
            rings = [ring for s in row for ring in s.raw.tolist()]
            worst_charge = max(worst_charge, abs(charge - charges[i]))
            worst_string = max(worst_string, *(abs(value - ring) for value, ring in zip(values, rings)))
            for numerator, x_uz, x_eye in zip(numerators, at_uz, at_eye):
                worst_flux = max(worst_flux, *(abs(value - x[i]) for value, x in zip(numerator[i].tolist(), (x_uz, x_eye))))
    return [
        _check("uniform charge Tr[rho U] matches the dense oracle", worst_charge, 1e-10),
        _check("flux-inserted numerators match the dense oracle", worst_flux, 1e-10),
        _check("ring string orders match the dense oracle", worst_string, 1e-10),
    ]


# --- criterion 7: structural identities --------------------------------------

def structural_checks(build):
    """Worst of each kind of :func:`_structural_lines` (a failed or skipped line is inf) over the
    stack of p = 0.2 and 0.8, and their group orbits."""
    worst = {"actions": 0.0, "commutants": 0.0, "conservation": 0.0}
    models, lpdos = _grid(build, (0.2, 0.8))
    for lines in _structural_lines(models):
        for section, result in lines:
            value = result.worst if result.passed and not result.detail else np.inf
            worst[section] = max(worst[section], value)
    group = models[0].group
    orbit = [g1 for g1 in group.labels if g1 != group.identity]
    reps = [_restacked([rep for rep, _ in extract_virtual_reps(lpdos, models[0].action(g1))], "v") for g1 in orbit]
    values, _ = _flux_responses(models, [np.linalg.matrix_power(v, group.order(g1)) for g1, v in zip(orbit, reps)], "R_z")
    worst_flux2 = max(0.0, *(abs(value - 1.0) for row in values for value in row.tolist()))
    return [
        _check("flux operators commute with twisted transfers", worst["commutants"], 1e-12),
        _check("extracted representations satisfy the push-through law", worst["actions"], 1e-8),
        _check("response conservation: total = physical x ancilla", worst["conservation"], 1e-8),
        _check("a full group orbit of fluxes responds trivially", worst_flux2, 1e-8),
    ]


# --- criterion 8: pure-state limit -------------------------------------------

def pure_limit_checks(build):
    model = build(0.0)
    lpdo = model.lpdo
    reps = {g: extract_virtual_rep(lpdo, model.action(g))[0] for g in ("R_x", "R_y", "R_z")}
    worst = 0.0
    for g1 in ("R_x", "R_y"):
        res = finite_response(model, g1, "R_z", 200)
        cocycle = cocycle_commutator(reps[g1], reps["R_z"])
        worst = max(worst, abs(res.value - (-1.0)), abs(res.value - cocycle))
    return [
        _check("pure-state responses reduce to the projective cocycle", worst, 1e-10)
    ]


_SECTIONS = {
    "transfer tables": transfer_table_checks,
    "symmetry gaps": gap_checks,
    "responses": response_checks,
    "string order": string_order_checks,
    "decay exponents": exponent_checks,
    "dense oracle": oracle_checks,
    "structural identities": structural_checks,
    "pure-state limit": pure_limit_checks,
}

LEVELS = {
    "tables": ("transfer tables", "symmetry gaps"),
    "oracle": ("dense oracle",),
    "all": tuple(_SECTIONS),
}


def run_level(level):
    """Run the named check level on the built-in family.

    Returns a list of (section, CheckResult) pairs in a fixed order. The
    built-in model at each p is made once for the run.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown verify level {level!r}; choose from {sorted(LEVELS)}")
    build = functools.cache(build_aklt_model)
    out = []
    for section in LEVELS[level]:
        for result in _SECTIONS[section](build):
            out.append((section, result))
    return out


def _structural_lines(models):
    """Push-through, commutant and conservation lines of each of ``models``, a stack under
    the stack rule of :mod:`weaksym.transfer`: per model a list of (section, CheckResult).

    "actions": action unitarity and the push-through law per element. Then per
    commuting pair of extracted elements, "commutants", and "conservation" for g2
    not the identity (skipped with a note where a twisted transfer is gapless).
    Tolerances: push-through ``REP_TOL`` |lambda_0(T(1))|^(1/2) and commutants
    1e-10 |lambda_0(T(1))|; conservation compares phases. Each element is
    extracted once for the stack, and each g2's conservation is read once for
    all its commuting g1; a stack that fails or skips a line, on the error of
    its first model that fails, fails or skips it for every model.
    """
    out = [[] for _ in models]
    lpdos, model, group = [model.lpdo for model in models], models[0], models[0].group
    refs = transfer_spectra(lpdos, _identity(lpdos[0].d), None)
    scales = [abs(lam) for lam in _restacked(refs, "eigenvalues")[:, 0].tolist()]
    push_tols, commutant_tols = [REP_TOL * scale**0.5 for scale in scales], [1e-10 * scale for scale in scales]
    reps = {}
    for g in group.labels:
        act = model.action(g)
        name = f"push-through law for {g}"
        try:
            act.validate()
            reps[g] = [rep for rep, _ in extract_virtual_reps(lpdos, act)]
            lines = [_check(name, rep.residual, tol) for rep, tol in zip(reps[g], push_tols)]
        except WeaksymError as exc:
            lines = [CheckResult(name, False, float("nan"), tol, str(exc)) for tol in push_tols]
        for lines_of, line in zip(out, lines):
            lines_of.append(("actions", line))
    for g2 in group.labels:
        maps = build_transfers(lpdos, model.action(g2).u, None)
        for g1 in group.labels:
            if g1 in reps and group.commutes(g1, g2):
                for lines_of, t, rep, tol in zip(out, maps, reps[g1], commutant_tols):
                    lines_of.append(("commutants", _check(f"flux {g1} commutes with T({g2})", commutant_residual(t, rep), tol)))
    conserved = {}  # (g1, g2) -> one line per model
    for g2 in reps:
        if g2 == group.identity:
            continue
        g1s = [g1 for g1 in reps if group.commutes(g1, g2)]
        try:
            for g1, column in zip(g1s, zip(*_conservation_checks(models, g1s, g2))):
                conserved[g1, g2] = [_check(f"conservation for ({g1}, {g2})", residual, 1e-8) for residual, *_ in column]
        except GaplessTransferError as exc:
            for g1 in g1s:
                conserved[g1, g2] = [CheckResult(f"conservation for ({g1}, {g2})", True, 0.0, 1e-8, f"skipped: {exc}")] * len(models)
    for g1 in reps:
        for g2 in reps:
            for lines_of, line in zip(out, conserved.get((g1, g2), ())):
                lines_of.append(("conservation", line))
    return out


def generic_model_checks(model):
    """Checks that apply to any loaded model.

    The lines of :func:`_structural_lines`, which criterion 7 also runs on the
    built-in family, and a dense oracle cross-check of the uniform charges on 3
    sites (skipped with a note when the ring exceeds the oracle's size guard),
    to 1e-10 |lambda_0(T(1))|^3.
    """
    (out,) = _structural_lines([model])
    lpdo = model.lpdo
    n = 3
    name = f"uniform charges match the dense oracle at N={n}"
    tol = 1e-10 * float(abs(transfer_spectrum(lpdo, _identity(lpdo.d)).eigenvalues[0])) ** n
    charges = [model.action(g).u for g in model.group.labels]
    try:
        dense = expectation(lpdo, np.eye(lpdo.bond_dim), [[u] * n for u in charges])
    except SizeGuardError as exc:
        out.append(("oracle", CheckResult(name, True, 0.0, tol, f"skipped: {exc}")))
        return out
    scaled = [transfer_powers(lpdo, u).power(n) for u in charges]  # the tables finite responses use
    worst = max(abs(value - complex(ldexp(np.trace(m), e))) for (m, e), value in zip(scaled, dense.tolist()))
    out.append(("oracle", _check(name, worst, tol)))
    return out
