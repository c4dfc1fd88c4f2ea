"""The verify suite's own plumbing: criterion 7 and `verify --model` share one routine."""

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import verify
from weaksym.model import build_aklt_model, spin1_operators
from weaksym.stringorder import _string_series, string_order_series
from weaksym.verify import CheckResult, generic_model_checks, run_level, structural_checks

KINDS = {
    "commutants": "flux operators commute with twisted transfers",
    "actions": "extracted representations satisfy the push-through law",
    "conservation": "response conservation: total = physical x ancilla",
}


def test_criterion_7_is_the_worst_generic_line_of_each_kind():
    lines = [line for p in (0.2, 0.8) for line in generic_model_checks(build_aklt_model(p))]
    results = {result.name: result for result in structural_checks(build_aklt_model)}
    for section, name in KINDS.items():
        worst = max(result.worst for kind, result in lines if kind == section)
        assert results[name].worst == worst and results[name].passed, section


@pytest.mark.parametrize(
    "section, bad",
    [
        ("actions", CheckResult("push-through law for R_w", False, float("nan"), 1e-8, "not symmetric")),
        ("conservation", CheckResult("conservation for (R_x, R_w)", True, 0.0, 1e-8, "skipped: gapless")),
    ],
    ids=["failed", "skipped"],
)
def test_criterion_7_counts_a_failed_or_skipped_line_as_inf(monkeypatch, section, bad):
    """max(0.0, nan) is 0.0: without the inf a failed extraction would pass criterion 7."""
    lines = verify._structural_lines
    monkeypatch.setattr(verify, "_structural_lines", lambda models: [model_lines + [(section, bad)] for model_lines in lines(models)])
    results = {result.name: result for result in structural_checks(build_aklt_model)}
    for kind, name in KINDS.items():
        if kind == section:
            assert results[name].worst == np.inf and not results[name].passed
        else:
            assert results[name].passed


def test_run_level_refuses_an_unknown_level():
    with pytest.raises(ValueError, match="unknown verify level 'everything'"):
        run_level("everything")


def test_criterion_4_worst_values_equal_one_series_per_endpoint():
    """Criterion 4 takes S_y and S_x of each p from one ring; each value is that of its own series."""
    ops = spin1_operators()

    def sn(p, chi):
        series = string_order_series(build_aklt_model(p), "R_z", ops[chi], ops[chi], [50], n_sites=200)
        return abs(series.normalized[0])

    expected = [
        max(abs(sn(p, "S_y") - verify.aklt_string_amplitude(p)) for p in verify.P_ABOVE),
        max(sn(p, "S_y") for p in verify.P_BELOW),
        max(sn(p, "S_x") for p in verify.P_BELOW + verify.P_ABOVE),
    ]
    assert [result.worst for result in verify.string_order_checks(build_aklt_model)] == expected


def test_the_crossing_takes_at_most_twelve_models(monkeypatch):
    """Bisection took 23 models to narrow (0.4, 0.6) to 1e-7; the search ends on a
    bracket at most 1e-7 wide that straddles 1/2 after at most 12, and the crossing
    is its midpoint."""
    built, brackets = [], []
    regula_falsi = verify._regula_falsi

    def build(p):
        built.append(p)
        return build_aklt_model(p)

    def recording(f, lo, hi, width):
        brackets.append(regula_falsi(f, lo, hi, width))
        return brackets[-1]

    monkeypatch.setattr(verify, "_regula_falsi", recording)
    crossing = verify.exponent_crossing(build)
    ((lo, hi),) = brackets
    assert len(built) <= 12
    assert hi - lo <= 1e-7 and lo <= 0.5 <= hi
    assert crossing == 0.5 * (lo + hi)


ROOT = 0.47231
# Functions on which plain regula falsi keeps one end of (0.4, 0.6) in place.
STALLING = {
    "flat-below": lambda x: 1e-9 * (ROOT - x) if x < ROOT else ROOT - x,
    "flat-above": lambda x: ROOT - x if x < ROOT else 1e-9 * (ROOT - x),
    "triple-root": lambda x: (ROOT - x) ** 3,
    "kink": lambda x: ROOT - x if x < ROOT else 1e3 * (ROOT - x),
}


def _plain_regula_falsi_width(f, lo, hi, steps):
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(steps):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f_x = f(x)
        if f_x > 0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return hi - lo


@pytest.mark.parametrize("f", STALLING.values(), ids=STALLING)
def test_a_stalling_function_is_narrowed_within_twice_bisections_steps(f):
    """Bisection narrows (0.4, 0.6) to 1e-7 in 21 steps; the search takes at most
    42 where plain regula falsi is still wider than 1e-3, and keeps the sign change."""
    assert _plain_regula_falsi_width(f, 0.4, 0.6, 42) > 1e-3
    points = []

    def counting(x):
        points.append(x)
        return f(x)

    lo, hi = verify._regula_falsi(counting, 0.4, 0.6, 1e-7)
    assert len(points) <= 2 + 2 * 21
    assert hi - lo <= 1e-7 and f(lo) > 0 >= f(hi) and lo <= ROOT <= hi


def test_a_bracket_without_a_sign_change_is_refused():
    with pytest.raises(ValueError, match=r"^bracket \(0.4, 0.6\) does not straddle the crossing$"):
        verify._regula_falsi(lambda x: 1.0, 0.4, 0.6, 1e-7)


def _line_bits(line):
    section, result = line
    return section, result.name, result.passed, np.float64(result.worst).tobytes(), result.tol, result.detail


@pytest.mark.parametrize(
    "fresh", [build_aklt_model, lambda p: generic_model(p)[0]], ids=["family", "generic-D6"]
)
def test_structural_lines_of_a_stack_equal_each_model_alone(fresh):
    """Criterion 7's stack of p = 0.2 and 0.8, line for line and bit for bit the lines of
    each model as ``verify --model`` computes them, a stack of one on a fresh model."""
    stacked = verify._structural_lines([fresh(0.2), fresh(0.8)])
    alone = [verify._structural_lines([fresh(p)])[0] for p in (0.2, 0.8)]
    assert [list(map(_line_bits, lines)) for lines in stacked] == [list(map(_line_bits, lines)) for lines in alone]
    assert len(stacked[0]) == 4 + 16 + 12


def _series_bits(series):
    return [
        (s.lengths.tobytes(), s.raw.tobytes(), s.normalized.tobytes(), s.mantissa.tobytes(), s.exponent.tolist(), s.base, s.n_sites)
        for s in series
    ]


@pytest.mark.parametrize(
    "p_values, chi, window",
    [([i / 10 for i in range(10)], "S_x", verify.EARLY_WINDOW), ([0.6, 0.75, 0.9], "S_y", verify.DEFAULT_WINDOW)],
    ids=["S_x-grid", "S_y-grid"],
)
def test_criterion_5_grids_equal_their_stacks_of_one(p_values, chi, window):
    """Each grid's thermodynamic series is one stack; each model's series, and so its fit,
    is bit for bit that of a stack of one on a fresh model."""
    ops = spin1_operators()
    lengths = range(window[0], window[1] + 1)
    endpoints = [(ops[chi], ops[chi]), (ops["S_z"], ops["S_0"])]
    stacked = _string_series([build_aklt_model(p) for p in p_values], "R_z", endpoints, lengths)
    for p, series in zip(p_values, stacked):
        (alone,) = _string_series([build_aklt_model(p)], "R_z", endpoints, lengths)
        assert _series_bits(series) == _series_bits(alone)
    fits = verify._thermo_fits([build_aklt_model(p) for p in p_values], [ops[chi]], window)
    assert fits == [verify._thermo_fits([build_aklt_model(p)], [ops[chi]], window)[0] for p in p_values]
