from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from weaksym.errors import GaplessTransferError, NonCommutingError
from weaksym.model import build_aklt_model
from weaksym.response import (
    ancilla_response,
    conservation_check,
    finite_response,
    flux_response,
    snap_root_of_unity,
    thermo_response,
)
from weaksym.symmetry import GroupTable


def test_snap_exact_roots():
    assert snap_root_of_unity(-1.0, 2) == Fraction(1, 2)
    assert snap_root_of_unity(1.0, 2) == Fraction(0, 1)
    assert snap_root_of_unity(np.exp(2j * np.pi / 3), 3) == Fraction(1, 3)


def test_snap_tolerance():
    assert snap_root_of_unity(-1.0 + 1e-9, 2) == Fraction(1, 2)
    assert snap_root_of_unity(-0.99, 2) is None
    assert snap_root_of_unity(np.exp(2j * np.pi / 3), 4) is None


def test_finite_response_low_noise():
    model = build_aklt_model(0.2)
    for g1 in ("R_x", "R_y"):
        res = finite_response(model, g1, "R_z", 200)
        assert res.mode == "finite" and res.n_sites == 200
        assert abs(res.value - (-1)) < 1e-8
        assert res.snapped == Fraction(1, 2)


def test_finite_response_high_noise_flips_y():
    model = build_aklt_model(0.8)
    res = finite_response(model, "R_y", "R_z", 200)
    assert abs(res.value - 1) < 1e-8
    assert res.snapped == Fraction(0, 1)
    res = finite_response(model, "R_x", "R_z", 200)
    assert abs(res.value - (-1)) < 1e-8


def test_finite_response_identity_flux_is_one():
    model = build_aklt_model(0.35)
    res = finite_response(model, "1", "R_z", 40)
    assert abs(res.value - 1) < 1e-13


def test_finite_response_vanishing_denominator_flagged():
    """At p = 1/2 and odd N the ring normalization cancels exactly."""
    model = build_aklt_model(0.5)
    res = finite_response(model, "R_y", "R_z", 9)
    assert not res.valid
    assert np.isnan(res.value.real)


def test_thermo_response_low_noise():
    model = build_aklt_model(0.2)
    res = thermo_response(model, "R_x", "R_z")
    assert abs(res.value - (-1)) < 1e-10
    assert res.snapped == Fraction(1, 2)
    assert abs(res.gap - 0.4) < 1e-12
    assert res.mode == "thermo"


def test_thermo_response_high_noise():
    model = build_aklt_model(0.8)
    assert abs(thermo_response(model, "R_y", "R_z").value - 1) < 1e-10
    assert abs(thermo_response(model, "R_x", "R_z").value - (-1)) < 1e-10


def test_thermo_response_gapless_refuses():
    model = build_aklt_model(0.5)
    with pytest.raises(GaplessTransferError):
        thermo_response(model, "R_y", "R_z")


def test_flux_response_matches_element_route():
    from weaksym.symmetry import extract_virtual_rep

    model = build_aklt_model(0.3)
    rep, _ = extract_virtual_rep(model.lpdo, model.action("R_x"))
    value, gap = flux_response(model, rep.v, "R_z")
    assert abs(value - thermo_response(model, "R_x", "R_z").value) < 1e-14
    assert abs(gap - (2 - 4 * 0.3) / 3) < 1e-12


def test_ancilla_response_signs():
    assert abs(ancilla_response(build_aklt_model(0.2), "R_y", "R_z").value - 1) < 1e-10
    assert abs(ancilla_response(build_aklt_model(0.8), "R_y", "R_z").value - (-1)) < 1e-10


def test_ancilla_response_trivial_for_strong_symmetry():
    """At p=0 the ancilla is inert (u^a = 1), so its response is always +1."""
    model = build_aklt_model(0.0)
    for g1 in model.group.labels:
        for g2 in ("R_x", "R_y", "R_z"):
            assert abs(ancilla_response(model, g1, g2).value - 1) < 1e-10


def test_conservation_all_pairs():
    for p in (0.2, 0.8):
        model = build_aklt_model(p)
        for g1 in model.group.labels:
            for g2 in ("R_x", "R_y", "R_z"):
                residual, total, physical, anc = conservation_check(model, g1, g2)
                assert residual < 1e-8
                assert abs(total - physical.value * anc.value) < 1e-8


def test_conservation_split_high_noise():
    """(R_y, R_z) at p=0.8: total -1 factorizes as physical +1 times ancilla -1."""
    _, total, physical, anc = conservation_check(build_aklt_model(0.8), "R_y", "R_z")
    assert abs(total - (-1)) < 1e-10
    assert abs(physical.value - 1) < 1e-10
    assert abs(anc.value - (-1)) < 1e-10


def test_conservation_identity_exact():
    _, total, physical, anc = conservation_check(build_aklt_model(0.3), "1", "R_z")
    assert abs(total - 1) < 1e-13
    assert abs(physical.value * anc.value - 1) < 1e-13


def _s3_table():
    """Cayley table of S_3 from explicit permutation composition."""
    perms = {
        "e": (0, 1, 2),
        "r": (1, 2, 0),
        "rr": (2, 0, 1),
        "s": (0, 2, 1),
        "sr": (2, 1, 0),
        "srr": (1, 0, 2),
    }
    inverse = {v: k for k, v in perms.items()}
    labels = list(perms)
    table = [
        [inverse[tuple(perms[g][perms[h][i]] for i in range(3))] for h in labels]
        for g in labels
    ]
    return GroupTable.from_table(labels, table)


def test_non_commuting_pair_rejected():
    group = _s3_table()
    group.validate()
    fake_model = SimpleNamespace(group=group)
    with pytest.raises(NonCommutingError):
        from weaksym.response import _require_commuting

        _require_commuting(fake_model, "r", "s")


@pytest.mark.parametrize("p", [0.3, 0.75])
def test_finite_response_on_thousands_of_sites(p):
    """tr T(R_z)^N is far below 1e-308 at N = 3000; the carried exponent cancels in the ratio."""
    model = build_aklt_model(p)
    for g1, expected in (("R_x", -1.0), ("R_y", -1.0 if p < 0.5 else 1.0)):
        for n in (2000, 3000):
            res = finite_response(model, g1, "R_z", n)
            assert res.valid and res.n_sites == n
            assert abs(res.value - expected) < 1e-12
            assert res.snapped == (Fraction(1, 2) if expected < 0 else Fraction(0, 1))


def test_finite_response_refuses_exactly_zero_trace():
    """tr T(R_z) = 0 exactly for the AKLT family, so N = 1 has no response."""
    res = finite_response(build_aklt_model(0.3), "R_x", "R_z", 1)
    assert not res.valid and res.snapped is None
    assert np.isnan(res.value.real) and np.isnan(res.value.imag)
