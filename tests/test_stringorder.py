import warnings

import numpy as np
import pytest

from weaksym.errors import UndefinedExponentError
from weaksym.model import build_aklt_model, spin1_operators
from weaksym.response import thermo_response
from weaksym.stringorder import decay_channel, normalized_string, string_order_series
from weaksym.symmetry import endpoint_charge
from weaksym.transfer import build_transfer, transfer_spectrum, twisted_spectrum
from weaksym.verify import decay_exponent

OPS = spin1_operators()


def amplitude(p):
    return (2 * (1 - p) / 3) ** 2


# Reference values from the dense contraction (oracle module) at N=4, l=1,
# p=0.3; the transfer route must reproduce them to near machine precision.
ORACLE_N4_L1_P03 = {
    "S_x": 0.04839506172839506,
    "S_y": -0.03871604938271605,
    "S_0": -0.345679012345679,
}


def test_ring_matches_frozen_oracle_values():
    model = build_aklt_model(0.3)
    for alpha, expected in ORACLE_N4_L1_P03.items():
        value = string_order_series(model, "R_z", OPS[alpha], OPS[alpha], [1], n_sites=4).raw[0]
        assert abs(value - expected) < 1e-11, alpha


def test_ring_asymptotic_closed_form_magnitude():
    """|S_x| on a long ring follows [2(1-p)/3]^2 [3^-l + 3^-(N-l)].

    The published closed form fixes an overall sign convention that
    differs from the raw contraction (the dense oracle certifies the
    contraction), so the comparison is between magnitudes.
    """
    p, n, l = 0.3, 60, 20
    model = build_aklt_model(p)
    value = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], [l], n_sites=n).raw[0]
    closed = amplitude(p) * ((-1 / 3) ** l + (-1 / 3) ** (n - l))
    assert abs(abs(value) - abs(closed)) / abs(closed) < 1e-6


def test_ring_rejects_string_longer_than_ring():
    model = build_aklt_model(0.3)
    with pytest.raises(ValueError):
        string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [9], n_sites=10)


def test_thermo_sy_closed_form_magnitude():
    p = 0.75
    model = build_aklt_model(p)
    for l in (5, 10, 30):
        value = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [l]).raw[0]
        closed = amplitude(p) * ((-1 + 4 * p) / 3) ** l
        assert abs(abs(value) - abs(closed)) < 1e-10


def test_thermo_trivial_string_is_one():
    """chi = identity and g2 = identity reduce to the normalization itself."""
    model = build_aklt_model(0.3)
    for l in (0, 1, 7):
        value = string_order_series(model, "1", OPS["S_0"], OPS["S_0"], [l]).raw[0]
        assert abs(value - 1) < 1e-12


def test_ring_converges_to_thermo():
    model = build_aklt_model(0.3)
    ring = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [30], n_sites=200).raw[0]
    thermo = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [30]).raw[0]
    assert abs(ring - thermo) < 1e-8


def test_series_modes_and_shapes():
    model = build_aklt_model(0.3)
    s = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(3), n_sites=10)
    assert s.mode == "ring" and len(s.raw) == 3
    for l, v in zip(s.lengths, s.raw):
        one = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [l], n_sites=10)
        assert v == one.raw[0]
    s = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [0, 2])
    assert s.mode == "thermo" and s.n_sites is None


def test_normalized_plateau_above_transition():
    for p in (0.6, 0.8, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [50], n_sites=200)
        value = abs(normalized_string(model, series).normalized[0])
        assert abs(value - amplitude(p)) < 1e-6


def test_normalized_vanishes_below_transition_and_for_sx():
    for p in (0.2, 0.4):
        model = build_aklt_model(p)
        for alpha in ("S_x", "S_y"):
            series = string_order_series(model, "R_z", OPS[alpha], OPS[alpha], [50], n_sites=200)
            assert abs(normalized_string(model, series).normalized[0]) < 1e-6
    for p in (0.6, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], [50], n_sites=200)
        assert abs(normalized_string(model, series).normalized[0]) < 1e-6


def test_normalized_thermo_uses_leading_eigenvalue():
    p = 0.8
    model = build_aklt_model(p)
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [10, 20])
    norm = normalized_string(model, series)
    lam0 = (4 * p - 1) / 3
    for l, raw, scaled in zip(norm.lengths, norm.raw, norm.normalized):
        assert abs(scaled - raw / lam0 ** l) < 1e-12


def test_decay_exponent_sx():
    model = build_aklt_model(0.3)
    series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], range(20, 51))
    fit = decay_exponent(series)
    assert abs(fit.xi - np.log(3)) < 1e-6
    assert fit.residual < 1e-10
    assert fit.window == (20, 50)


def test_decay_exponent_sy_above_transition():
    for p in (0.6, 0.75, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(20, 51))
        fit = decay_exponent(series)
        assert abs(fit.xi - (-np.log((4 * p - 1) / 3))) < 1e-6


def test_decay_exponent_s0():
    model = build_aklt_model(0.3)
    series = string_order_series(model, "R_z", OPS["S_0"], OPS["S_0"], range(20, 51))
    fit = decay_exponent(series)
    assert abs(fit.xi - np.log(3)) < 1e-6


def test_decay_exponent_undefined_when_string_vanishes():
    """At p = 1/4 the S_y channel eigenvalue is exactly zero."""
    model = build_aklt_model(0.25)
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(20, 51))
    with pytest.raises(UndefinedExponentError):
        decay_exponent(series)


def test_decay_exponent_needs_window_points():
    model = build_aklt_model(0.3)
    series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], range(3))
    with pytest.raises(ValueError):
        decay_exponent(series, window=(0, 2))


# --- decay channels read off the spectrum -------------------------------------

def _closed_form_xi(p, alpha):
    return -np.log(abs(-1 / 3 if alpha == "S_x" else (4 * p - 1) / 3))


@pytest.mark.parametrize("p", [0.0, 0.1, 0.2485, 0.2515, 0.3, 0.5, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("alpha", ["S_x", "S_y"])
def test_decay_channel_closed_form(p, alpha):
    """xi = -ln|r| with amplitude -(2(1-p)/3)^2, including the tied moduli at p = 1/2."""
    channel = decay_channel(build_aklt_model(p), "R_z", OPS[alpha], OPS[alpha])
    assert channel.xi == pytest.approx(_closed_form_xi(p, alpha), rel=1e-12)
    assert channel.amplitude == pytest.approx(-amplitude(p), abs=1e-12)
    assert channel.floor < 1e-20


def test_decay_channel_sums_a_degenerate_eigenspace():
    """At p = 0 the S_x amplitude (2/3)^2 is split across the triple -1/3 eigenvalue."""
    channel = decay_channel(build_aklt_model(0.0), "R_z", OPS["S_x"], OPS["S_x"])
    assert channel.eigenvalue == pytest.approx(-1 / 3, abs=1e-14)
    assert channel.amplitude == pytest.approx(-4 / 9, abs=1e-14)


@pytest.mark.parametrize(
    "p, alpha, reason",
    [(0.25, "S_y", "nilpotent"), (1.0, "S_x", "no decay channel"), (1.0, "S_y", "endpoint map is zero")],
)
def test_decay_channel_refuses_undefined_exponents(p, alpha, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedExponentError, match=reason):
            decay_channel(build_aklt_model(p), "R_z", OPS[alpha], OPS[alpha])


@pytest.mark.parametrize("p", [0.2, 0.8])
@pytest.mark.parametrize("alpha", ["S_0", "S_x", "S_y"])
def test_order_one_is_the_selection_rule(p, alpha):
    """The channel is lambda_0 exactly when every endpoint charge equals its flux response."""
    model = build_aklt_model(p)
    chi = OPS[alpha]
    matches = [
        abs(endpoint_charge(chi, model.action(g)) - thermo_response(model, g, "R_z").value) < 1e-6
        for g in model.group.labels
        if g != model.group.identity
    ]
    assert decay_channel(model, "R_z", chi, chi).order_one == all(matches)


# --- long series: running products, carried scale -------------------------------

def _thermo_closed_form(p, alpha, lengths):
    """Normalized thermodynamic S(l) = -A (r / lambda_0)^l, evaluated in logs."""
    r = -1 / 3 if alpha == "S_x" else (4 * p - 1) / 3
    lam0 = max(abs((3 - 4 * p) / 3), abs((4 * p - 1) / 3), 1 / 3)
    ratio = r / lam0
    signs = np.where(np.asarray(lengths) % 2 == 1, np.sign(ratio), 1.0)
    with np.errstate(under="ignore"):
        return -amplitude(p) * signs * np.exp(np.asarray(lengths) * np.log(abs(ratio)))


@pytest.mark.parametrize("p", [0.3, 0.75])
@pytest.mark.parametrize("alpha", ["S_x", "S_y"])
def test_thermo_normalized_closed_form_to_l_2000(p, alpha):
    """Every normalized value up to l = 2000 is finite and on the closed form.

    Values far below the plateau scale carry 1e-16 cross-talk from the other
    channels, hence the absolute tolerance. The envelope |lambda_0|^l drops below the smallest double near l = 1390
    (p = 0.3) and l = 1750 (p = 0.75); the series runs on T(g2)/|lambda_0|, so
    the normalized values never see it.
    """
    model = build_aklt_model(p)
    lengths = np.arange(2001)
    series = normalized_string(
        model, string_order_series(model, "R_z", OPS[alpha], OPS[alpha], lengths)
    )
    expected = _thermo_closed_form(p, alpha, lengths)
    assert np.all(np.isfinite(series.normalized)) and np.all(np.isfinite(series.raw))
    np.testing.assert_allclose(series.normalized.real, expected, rtol=1e-10, atol=1e-15)
    assert np.abs(series.normalized.imag).max() < 1e-15
    if alpha == "S_y" and p > 0.5:
        assert abs(series.normalized[-1] - (-amplitude(p))) < 1e-12  # the plateau at l = 2000


def test_ring_plateau_on_3000_sites():
    """S_y plateau (2(1-p)/3)^2 on N = 3000, where Tr T(R_z)^N is about 1e-528."""
    p = 0.75
    model = build_aklt_model(p)
    series = normalized_string(
        model, string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(1001), n_sites=3000)
    )
    assert np.all(np.isfinite(series.normalized))
    assert np.abs(np.abs(series.normalized) - amplitude(p)).max() < 1e-12


def test_ring_series_values_equal_one_length_calls():
    """A ring value depends only on (l, N): series order and neighbours do not matter."""
    model = build_aklt_model(0.3)
    lengths = [1198, 0, 517, 3, 1024, 517, 65, 999, 1, 768]
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], lengths, n_sites=1200)
    np.testing.assert_array_equal(series.lengths, lengths)
    for l, value in zip(lengths, series.raw):
        one = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [l], n_sites=1200)
        assert value == one.raw[0]


def test_ring_raw_bit_identical_to_matrix_power():
    model = build_aklt_model(0.3)
    lpdo = model.lpdo
    t1 = build_transfer(lpdo, np.eye(3))
    t2 = build_transfer(lpdo, model.action("R_z").u)
    tl = tr = build_transfer(lpdo, OPS["S_x"])
    n = 300
    series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], range(0, n - 1, 7), n_sites=n)
    power = np.linalg.matrix_power
    for l, value in zip(series.lengths, series.raw):
        assert value == np.trace(tl @ power(t2, l) @ tr @ power(t1, n - l - 2))


def test_thermo_series_matches_matrix_power_reference():
    """The running product agrees with (L0 T_chi T(g2)^l T_chi R0)/(L0 R0) to 1e-13."""
    for p in (0.3, 0.75):
        model = build_aklt_model(p)
        lpdo = model.lpdo
        spectrum = transfer_spectrum(lpdo, np.eye(3))
        _, left, right = spectrum.leading
        t2 = build_transfer(lpdo, model.action("R_z").u)
        lam0 = abs(twisted_spectrum(model, "R_z").eigenvalues[0])
        for alpha in ("S_0", "S_x", "S_y", "S_z"):
            t_chi = build_transfer(lpdo, OPS[alpha])
            series = string_order_series(model, "R_z", OPS[alpha], OPS[alpha], range(201))
            for l, value in zip(series.lengths, series.raw):
                ref = (left @ t_chi @ np.linalg.matrix_power(t2, l) @ t_chi @ right) / (left @ right)
                assert abs(value - ref) <= 1e-13 * lam0**l, (p, alpha, l)


def test_thermo_series_any_order_and_repeats():
    model = build_aklt_model(0.75)
    full = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(41))
    lengths = [40, 3, 17, 3, 0, 40]
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], lengths)
    np.testing.assert_array_equal(series.lengths, lengths)
    np.testing.assert_allclose(series.raw, full.raw[lengths], rtol=1e-14, atol=0)
    assert series.raw[1] == series.raw[3] and series.raw[0] == series.raw[5]


def test_series_carries_its_scale():
    """raw = mantissa * base**l * 2**exponent on both branches."""
    model = build_aklt_model(0.75)
    thermo = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [0, 10, 2000])
    assert thermo.base == pytest.approx(2 / 3) and not thermo.exponent.any()
    assert thermo.raw[-1] == 0 and abs(thermo.mantissa[-1]) > 1e-2
    ring = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [10, 2500], n_sites=3000)
    assert ring.base == 1.0 and ring.exponent[0] == 0 and ring.exponent[1] < -1000
    for series in (thermo, ring):
        rebuilt = [
            m * series.base**l * 2.0**e if e > -1000 else 0.0
            for m, l, e in zip(series.mantissa, series.lengths, series.exponent)
        ]
        np.testing.assert_allclose(series.raw, rebuilt, rtol=1e-15, atol=1e-300)
