from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from weaksym.errors import DimensionMismatchError, GaplessTransferError, NonCommutingError, ValidationError
from weaksym.model import LpdoTensor, Model, build_aklt_model
from weaksym.response import (
    SNAP_TOL,
    _flux_responses,
    _snapped,
    conservation_check,
    finite_response,
    flux_response,
    thermo_response,
)
from weaksym.symmetry import GroupTable, SymmetryAction, extract_virtual_rep


def snap(value, order):
    """``_snapped`` of ``value`` with its angle as ``np.angle`` takes it, as ``_results`` calls it."""
    return _snapped(complex(value), float(np.angle(value)), order)


def test_snap_exact_roots():
    assert snap(-1.0, 2) == Fraction(1, 2)
    assert snap(1.0, 2) == Fraction(0, 1)
    assert snap(np.exp(2j * np.pi / 3), 3) == Fraction(1, 3)


def test_snap_tolerance():
    assert snap(-1.0 + 1e-9, 2) == Fraction(1, 2)
    assert snap(-0.99, 2) is None
    assert snap(np.exp(2j * np.pi / 3), 4) is None


def snap_by_loop(value, order):
    """The nearest of all ``order`` roots within ``SNAP_TOL``, by trying each in turn."""
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        return None
    best, best_dist = None, SNAP_TOL
    for k in range(order):
        dist = abs(value - np.exp(2j * np.pi * k / order))
        if dist < best_dist:
            best, best_dist = Fraction(k, order), dist
    return best


def test_snap_matches_the_loop_over_all_roots():
    """Around every root of orders 1-12 (offsets from 0 to 0.5, both sides of
    ``SNAP_TOL``), at random values, and at -1 with a +0 or -0 imaginary part."""
    rng = np.random.default_rng(20)
    radii = [0.0, 1e-15, 1e-9, 5e-7, 0.999e-6, 1e-6, 1.001e-6, 2e-6, 1e-3, 0.1, 0.5]
    for order in range(1, 13):
        roots = np.exp(2j * np.pi * np.arange(order) / order)
        offsets = np.outer(radii, np.exp(2j * np.pi * rng.random(6))).ravel()
        values = np.concatenate([(roots[:, None] + offsets).ravel(), rng.normal(size=200) + 1j * rng.normal(size=200)])
        values = [*values.tolist(), complex(-1.0, 0.0), complex(-1.0, -0.0), -1.0]
        for value in values:
            assert snap(value, order) == snap_by_loop(value, order), (value, order)


def product_state_model():
    """D = 1: (|0> + |1>)/sqrt(2) on every site, da = 1, and Z2 acting as sigma_x."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    actions = {"e": SymmetryAction("e", np.eye(2), np.eye(1)), "g": SymmetryAction("g", x, np.eye(1))}
    tensor = np.full((2, 1, 1, 1), 2**-0.5, dtype=complex)
    return Model(LpdoTensor(tensor), GroupTable(("e", "g"), (("e", "g"), ("g", "e"))), actions)


def test_product_state_has_an_infinite_gap_and_unit_response():
    """T(1) has one eigenvalue, so its symmetry gap is inf and extraction finds no degeneracy."""
    model = product_state_model()
    rep, theta = extract_virtual_rep(model.lpdo, model.action("g"))
    assert rep.v.tolist() == [[1]] and abs(theta) < 1e-15
    res = thermo_response(model, "g", "g")
    assert abs(res.value - 1) < 1e-15 and res.gap == np.inf and res.valid and res.snapped == 0
    res = finite_response(model, "g", "g", 7)
    assert abs(res.value - 1) < 1e-15 and res.valid and res.snapped == 0


def test_mode_follows_from_each_construction():
    model = build_aklt_model(0.3)
    thermo = thermo_response(model, "R_x", "R_z")
    finite = finite_response(model, "R_x", "R_z", 20)
    cancelled = finite_response(build_aklt_model(0.5), "R_y", "R_z", 9)
    ancilla = conservation_check(model, "R_x", "R_z")[3]
    assert (thermo.mode, thermo.n_sites, ancilla.mode, ancilla.n_sites) == ("thermo", None, "thermo", None)
    assert (finite.mode, finite.n_sites, cancelled.mode, cancelled.n_sites) == ("finite", 20, "finite", 9)
    assert not cancelled.valid and cancelled.snapped is None


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
    """1 to within roundoff, not exactly: at p = 0.2 and N = 301 the imaginary part is about -2e-145."""
    model = build_aklt_model(0.35)
    res = finite_response(model, "1", "R_z", 40)
    assert abs(res.value - 1) < 1e-13
    for p in (0.0, 0.2, 0.8):
        model = build_aklt_model(p)
        for n_sites in (3, 200, 301):
            res = finite_response(model, "1", "R_z", n_sites)
            assert res.valid and abs(res.value - 1) <= 1e-12, (p, n_sites)


def test_snap_refuses_non_finite_values():
    for value in (complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0)):
        assert snap(value, 2) is None


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


def test_flux_responses_of_a_stack_equal_each_model_alone():
    """One seam matrix for every model and a stack of one per model, each value and gap
    bit for bit :func:`flux_response` on a fresh model; a 2 x 3 flux is refused."""
    rng = np.random.default_rng(36)
    p_values = (0.2, 0.3, 0.8)
    models = [build_aklt_model(p) for p in p_values]
    stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    values, gaps = _flux_responses(models, [np.eye(2), stack], "R_z")
    for i, p in enumerate(p_values):
        for flux, value in ((np.eye(2), values[0][i]), (stack[i], values[1][i])):
            alone, gap = flux_response(build_aklt_model(p), flux, "R_z")
            assert (value.item(), gaps[i].item()) == (alone, gap)
    with pytest.raises(DimensionMismatchError, match="flux"):
        _flux_responses(models, [np.ones((2, 3))], "R_z")


def test_ancilla_response_signs():
    assert abs(conservation_check(build_aklt_model(0.2), "R_y", "R_z")[3].value - 1) < 1e-10
    assert abs(conservation_check(build_aklt_model(0.8), "R_y", "R_z")[3].value - (-1)) < 1e-10


def test_ancilla_response_trivial_for_strong_symmetry():
    """At p=0 the ancilla is inert (u^a = 1), so its response is always +1."""
    model = build_aklt_model(0.0)
    for g1 in model.group.labels:
        for g2 in ("R_x", "R_y", "R_z"):
            assert abs(conservation_check(model, g1, g2)[3].value - 1) < 1e-10


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
    return GroupTable(labels, table)


def test_non_commuting_pair_rejected():
    group = _s3_table()
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


@pytest.mark.parametrize("n_sites", [3, 5, 9])
def test_finite_response_refuses_a_trace_cancelled_to_roundoff(n_sites):
    """At p = 1/2, Tr T(R_x)^N cancels to roundoff at odd N, not to exactly 0."""
    model = build_aklt_model(0.5)
    for g1 in ("R_x", "R_y", "R_z"):
        res = finite_response(model, g1, "R_x", n_sites)
        assert not res.valid and res.snapped is None and np.isnan(res.value.real)


def test_finite_response_refuses_exactly_zero_trace():
    """tr T(R_z) = 0 exactly for the AKLT family, so N = 1 has no response."""
    res = finite_response(build_aklt_model(0.3), "R_x", "R_z", 1)
    assert not res.valid and res.snapped is None
    assert np.isnan(res.value.real) and np.isnan(res.value.imag)


def test_finite_response_refuses_a_non_integer_ring_size():
    """N = 200.7 is refused, not evaluated as N = 200; 200.0 is N = 200."""
    model = build_aklt_model(0.3)
    with pytest.raises(ValidationError, match="ring size N must be an integer, got 200.7"):
        finite_response(model, "R_x", "R_z", 200.7)
    whole, ints = finite_response(model, "R_x", "R_z", 200.0), finite_response(model, "R_x", "R_z", 200)
    assert whole == ints and type(whole.n_sites) is int
