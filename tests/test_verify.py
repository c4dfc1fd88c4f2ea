"""The verify suite's own plumbing: criterion 7 and `verify --model` share one routine."""

import numpy as np
import pytest

from weaksym import verify
from weaksym.model import build_aklt_model, spin1_operators
from weaksym.stringorder import string_order_series
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
    monkeypatch.setattr(verify, "_structural_lines", lambda model: lines(model) + [(section, bad)])
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
