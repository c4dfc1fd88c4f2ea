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
:mod:`weaksym.transfer`; its per-model reads use the same models. Only the
exponent crossing, whose next p depends on the last, takes one model at a
time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessTransferError, SizeGuardError, UndefinedExponentError, WeaksymError
from .model import build_aklt_model, spin1_operators
from .numerics import _identity, ldexp
from .oracle import expectation
from .response import _thermo_responses, conservation_check, finite_response, flux_response, thermo_response
from .stringorder import _ring_series, _string_series, string_order_series
from .symmetry import REP_TOL, cocycle_commutator, extract_virtual_rep, extract_virtual_reps
from .transfer import (
    build_transfer,
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


def _ring_trace(lpdo, op, n_sites, x=None):
    """Tr[X T(op)^N] from the model's squaring table, the one finite responses use."""
    mantissa, exponent = transfer_powers(lpdo, op).power(n_sites)
    if x is not None:
        mantissa = x @ mantissa
    return complex(ldexp(np.trace(mantissa), exponent))


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

def _thermo_grid(build, p_values):
    """The models of :func:`_grid`, their T(1) and T(R_z) spectra computed as one stack each:
    the thermodynamic series has no stacked form, so the fits read them model by model."""
    models, lpdos = _grid(build, p_values)
    for u in (_identity(lpdos[0].d), models[0].action("R_z").u):
        transfer_spectra(lpdos, u, None)
    return models


def _thermo_fits(model, chis, window):
    """Fits of the thermodynamic strings chi ... chi over ``window``, one per chi, from one evaluation."""
    series = _string_series(model, "R_z", [(chi, chi) for chi in chis], range(window[0], window[1] + 1))
    return [decay_exponent(s, window=window) for s in series]


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
        fit_y, fit_x = _thermo_fits(build(p), [sy, sx], DEFAULT_WINDOW)
        return fit_y.xi - fit_x.xi

    lo, hi = _regula_falsi(difference, 0.4, 0.6, 1e-7)
    return 0.5 * (lo + hi)


def exponent_checks(build):
    ops = spin1_operators()
    sx, sy = ops["S_x"], ops["S_y"]
    worst_x = 0.0
    p_values = [i / 10 for i in range(10)]
    for p, model in zip(p_values, _thermo_grid(build, p_values)):
        (fit,) = _thermo_fits(model, [sx], EARLY_WINDOW)
        worst_x = max(worst_x, abs(fit.xi - np.log(3.0)))
    # At p = 1 the S_x string vanishes identically, so its exponent does
    # not exist; check the vanishing instead of fitting roundoff.
    series_p1 = string_order_series(
        build(1.0), "R_z", sx, sx, range(0, 21)
    )
    worst_p1 = max(abs(v) for v in series_p1.raw)
    worst_y = 0.0
    p_values = (0.6, 0.75, 0.9)
    for p, model in zip(p_values, _thermo_grid(build, p_values)):
        (fit,) = _thermo_fits(model, [sy], DEFAULT_WINDOW)
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
    """Dense-oracle cross-checks on rings of 3, 4 and 5 sites."""
    ops = spin1_operators()
    eye2, eye3 = np.eye(2), np.eye(3)
    chis = [ops[alpha] for alpha in ("S_0", "S_x", "S_y")]
    worst_charge = worst_flux = worst_string = 0.0
    models, lpdos = _grid(build, (0.0, 0.3, 0.7, 1.0))
    extracted = zip(*(extract_virtual_reps(lpdos, models[0].action(g1)) for g1 in ("R_x", "R_y")))
    ring_series = {n: _ring_series(models, "R_z", [(chi, chi) for chi in chis], range(n - 1), n) for n in (3, 4, 5)}
    for i, (model, pairs) in enumerate(zip(models, extracted)):
        lpdo = model.lpdo
        uz = model.action("R_z").u
        reps = [rep for rep, _ in pairs]
        for n in (3, 4, 5):
            strings, rings = [], []
            for chi, series in zip(chis, ring_series[n][i]):
                for length, ring in zip(series.lengths.tolist(), series.raw):
                    strings.append([chi] + [uz] * length + [chi] + [eye3] * (n - length - 2))
                    rings.append(ring)
            charge, *dense = expectation(lpdo, eye2, [[uz] * n] + strings)
            worst_charge = max(worst_charge, abs(charge - _ring_trace(lpdo, uz, n)))
            worst_string = max(worst_string, *(abs(value - ring) for value, ring in zip(dense, rings)))

            for rep in reps:
                flux = flux_operator(rep.v)
                for u, dense in zip((uz, eye3), expectation(lpdo, rep.v, [[uz] * n, [eye3] * n])):
                    worst_flux = max(worst_flux, abs(dense - _ring_trace(lpdo, u, n, flux)))
    return [
        _check("uniform charge Tr[rho U] matches the dense oracle", worst_charge, 1e-10),
        _check("flux-inserted numerators match the dense oracle", worst_flux, 1e-10),
        _check("ring string orders match the dense oracle", worst_string, 1e-10),
    ]


# --- criterion 7: structural identities --------------------------------------

def structural_checks(build):
    """Worst of each kind of :func:`_structural_lines` (a failed or skipped line is inf), and group orbits."""
    worst = {"actions": 0.0, "commutants": 0.0, "conservation": 0.0}
    worst_flux2 = 0.0
    for p in (0.2, 0.8):
        model = build(p)
        for section, result in _structural_lines(model):
            value = result.worst if result.passed and not result.detail else np.inf
            worst[section] = max(worst[section], value)
        for g1 in model.group.labels:
            if g1 != model.group.identity:
                rep, _ = extract_virtual_rep(model.lpdo, model.action(g1))
                squared = np.linalg.matrix_power(rep.v, model.group.order(g1))
                value, _ = flux_response(model, squared, "R_z")
                worst_flux2 = max(worst_flux2, abs(value - 1.0))
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


def _structural_lines(model):
    """Push-through, commutant and conservation lines of one model, as (section, CheckResult).

    "actions": action unitarity and the push-through law per element. Then per
    commuting pair of extracted elements, "commutants", and "conservation" for g2
    not the identity (skipped with a note where a twisted transfer is gapless).
    Tolerances: push-through ``REP_TOL`` |lambda_0(T(1))|^(1/2) and commutants
    1e-10 |lambda_0(T(1))|; conservation compares phases.
    """
    out = []
    lpdo, group = model.lpdo, model.group
    scale = float(abs(transfer_spectrum(lpdo, _identity(lpdo.d)).eigenvalues[0]))
    push_tol, commutant_tol = REP_TOL * scale**0.5, 1e-10 * scale
    reps = {}
    for g in group.labels:
        act = model.action(g)
        name = f"push-through law for {g}"
        try:
            act.validate()
            reps[g] = extract_virtual_rep(lpdo, act)[0]
            out.append(("actions", _check(name, reps[g].residual, push_tol)))
        except WeaksymError as exc:
            out.append(("actions", CheckResult(name, False, float("nan"), push_tol, str(exc))))
    for g2 in group.labels:
        t = build_transfer(lpdo, model.action(g2).u)
        for g1 in group.labels:
            if g1 in reps and group.commutes(g1, g2):
                residual = commutant_residual(t, reps[g1])
                out.append(("commutants", _check(f"flux {g1} commutes with T({g2})", residual, commutant_tol)))
    for g1 in reps:
        for g2 in reps:
            if g2 == group.identity or not group.commutes(g1, g2):
                continue
            name = f"conservation for ({g1}, {g2})"
            try:
                residual, *_ = conservation_check(model, g1, g2)
                out.append(("conservation", _check(name, residual, 1e-8)))
            except GaplessTransferError as exc:
                out.append(("conservation", CheckResult(name, True, 0.0, 1e-8, f"skipped: {exc}")))
    return out


def generic_model_checks(model):
    """Checks that apply to any loaded model.

    The lines of :func:`_structural_lines`, which criterion 7 also runs on the
    built-in family, and a dense oracle cross-check of the uniform charges on 3
    sites (skipped with a note when the ring exceeds the oracle's size guard),
    to 1e-10 |lambda_0(T(1))|^3.
    """
    out = _structural_lines(model)
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
    worst = max(abs(value - _ring_trace(lpdo, u, n)) for u, value in zip(charges, dense))
    out.append(("oracle", _check(name, worst, tol)))
    return out
