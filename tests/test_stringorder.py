import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from test_generic import generic_model
from weaksym.errors import DimensionMismatchError, UndefinedExponentError, ValidationError
from weaksym.model import LpdoTensor, Model, build_aklt_model, spin1_operators
from weaksym.numerics import ScaledPowers
from weaksym.response import thermo_response
from weaksym.stringorder import _carried_rows, _string_series, decay_channel, string_order_series
from weaksym.symmetry import GroupTable, SymmetryAction, endpoint_charge
from weaksym.transfer import build_transfer, transfer_spectrum, twisted_spectrum
from weaksym.verify import DEFAULT_WINDOW, decay_exponent

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


def test_thermo_raw_beyond_double_range_is_inf_not_nan():
    """A tensor times 1e4 has |lambda_0(T(R_z))| about 1e8, so base**l overflows at large l.

    Such a raw value is +-inf with a zero imaginary part, and an exactly
    vanishing string (S_y at p = 1) stays 0, not 0 * inf = nan; no warning
    is raised. Every finite raw value is mantissa * base**l as it stands.
    """
    for p, chi in ((0.2, "S_x"), (1.0, "S_x"), (1.0, "S_y")):
        model = build_aklt_model(p)
        model = replace(model, lpdo=LpdoTensor(model.lpdo.tensor * 1e4))
        s = string_order_series(model, "R_z", OPS[chi], OPS[chi], range(61))
        assert not np.isnan(s.raw).any()
        assert np.all(s.raw.imag == 0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = s.mantissa * s.base ** s.lengths.astype(float)
        finite = np.isfinite(expected)
        assert not finite[40:].any()
        assert np.array_equal(s.raw[finite], expected[finite])
        if chi == "S_y":
            assert np.all(s.mantissa == 0) and np.all(s.raw == 0)
        else:
            assert np.array_equal(s.raw.real[~finite], np.sign(s.mantissa.real[~finite]) * np.inf)


def flip_model():
    """A D = 1 product state |0> on d = 2 with da = 1, and a Z2 "x" acting as sigma_x.

    The state is not symmetric under x: T(sigma_x) = <0|sigma_x|0> = 0, while
    T(1) = 1 is a one-eigenvalue map.
    """
    group = GroupTable(("1", "x"), (("1", "x"), ("x", "1")))
    actions = {
        "1": SymmetryAction("1", np.eye(2), np.eye(1)),
        "x": SymmetryAction("x", np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(1)),
    }
    return Model(lpdo=LpdoTensor(np.array([1.0, 0.0]).reshape(2, 1, 1, 1)), group=group, actions=actions)


def test_thermo_series_refusals():
    """A vanishing leading eigenvalue of T(g2) leaves nothing to normalize by; a negative length is refused first."""
    model = flip_model()
    z = np.diag([1.0, -1.0])
    with pytest.raises(ZeroDivisionError, match="leading twisted eigenvalue vanishes"):
        string_order_series(model, "x", z, z, [0, 1])
    with pytest.raises(ValidationError, match="string length must be >= 0, got -1"):
        string_order_series(model, "x", z, z, [2, -1])


def test_non_integer_lengths_and_ring_sizes_are_refused_not_truncated():
    """l = 3.7 is not evaluated as l = 3, nor N = 10.9 as N = 10, in either
    mode; 3.0 and 10.0 are the integers they equal."""
    model = build_aklt_model(0.3)
    sy = OPS["S_y"]
    for n_sites in (None, 10):
        with pytest.raises(ValidationError, match="string length must be an integer, got 3.7"):
            string_order_series(model, "R_z", sy, sy, [2, 3.7], n_sites=n_sites)
        whole = string_order_series(model, "R_z", sy, sy, [2.0, 3.0], n_sites=n_sites and float(n_sites))
        ints = string_order_series(model, "R_z", sy, sy, [2, 3], n_sites=n_sites)
        np.testing.assert_array_equal(whole.lengths, ints.lengths)
        np.testing.assert_array_equal(whole.raw, ints.raw)
        assert whole.n_sites == ints.n_sites
    with pytest.raises(ValidationError, match="ring size N must be an integer, got 10.9"):
        string_order_series(model, "R_z", sy, sy, [2, 3], n_sites=10.9)


def test_normalized_plateau_above_transition():
    for p in (0.6, 0.8, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [50], n_sites=200)
        value = abs(series.normalized[0])
        assert abs(value - amplitude(p)) < 1e-6


def test_normalized_vanishes_below_transition_and_for_sx():
    for p in (0.2, 0.4):
        model = build_aklt_model(p)
        for alpha in ("S_x", "S_y"):
            series = string_order_series(model, "R_z", OPS[alpha], OPS[alpha], [50], n_sites=200)
            assert abs(series.normalized[0]) < 1e-6
    for p in (0.6, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], [50], n_sites=200)
        assert abs(series.normalized[0]) < 1e-6


def test_normalized_thermo_uses_leading_eigenvalue():
    p = 0.8
    model = build_aklt_model(p)
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [10, 20])
    lam0 = (4 * p - 1) / 3
    for l, raw, scaled in zip(series.lengths, series.raw, series.normalized):
        assert abs(scaled - raw / lam0 ** l) < 1e-12


def test_decay_exponent_sx():
    model = build_aklt_model(0.3)
    series = string_order_series(model, "R_z", OPS["S_x"], OPS["S_x"], range(20, 51))
    fit = decay_exponent(series, DEFAULT_WINDOW)
    assert abs(fit.xi - np.log(3)) < 1e-6
    assert fit.residual < 1e-10
    assert fit.window == (20, 50)


def test_decay_exponent_sy_above_transition():
    for p in (0.6, 0.75, 0.9):
        model = build_aklt_model(p)
        series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(20, 51))
        fit = decay_exponent(series, DEFAULT_WINDOW)
        assert abs(fit.xi - (-np.log((4 * p - 1) / 3))) < 1e-6


def test_decay_exponent_s0():
    model = build_aklt_model(0.3)
    series = string_order_series(model, "R_z", OPS["S_0"], OPS["S_0"], range(20, 51))
    fit = decay_exponent(series, DEFAULT_WINDOW)
    assert abs(fit.xi - np.log(3)) < 1e-6


def test_decay_exponent_undefined_when_string_vanishes():
    """At p = 1/4 the S_y channel eigenvalue is exactly zero."""
    model = build_aklt_model(0.25)
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(20, 51))
    with pytest.raises(UndefinedExponentError):
        decay_exponent(series, DEFAULT_WINDOW)


def test_decay_exponent_refuses_a_noise_only_window():
    """Values far above the underflow floor that follow no line: only roundoff is left."""
    lengths = np.arange(20, 51)
    noise = SimpleNamespace(lengths=lengths, raw=1e-17 * (1 + 0.9 * (-1.0) ** lengths))
    with pytest.raises(UndefinedExponentError, match="only roundoff"):
        decay_exponent(noise, DEFAULT_WINDOW)


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
    series = string_order_series(model, "R_z", OPS[alpha], OPS[alpha], lengths)
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
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], range(1001), n_sites=3000)
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


def _bits(series):
    """Everything a series holds, as bytes and Python values: equal bits compare equal."""
    exponent = series.exponent.tolist() if series.exponent.dtype == object else series.exponent.tobytes()
    return (
        series.lengths.tobytes(), series.raw.tobytes(), series.normalized.tobytes(),
        series.mantissa.tobytes(), series.exponent.dtype, exponent, series.base, series.n_sites,
    )


def _arrays(series):
    return [series.lengths, series.raw, series.normalized, series.mantissa, series.exponent]


PAIRS = [("S_x", "S_x"), ("S_y", "S_y"), ("S_0", "S_z"), ("S_z", "S_y")]


@pytest.mark.parametrize(
    "fresh, lengths, n_sites",
    [
        (lambda: build_aklt_model(0.3), [7, 0, 3, 3, 12, 40, 7, 0], None),
        (lambda: build_aklt_model(0.75), [9], 20),
        (lambda: build_aklt_model(0.3), [5, 0, 198, 17, 17, 64, 1, 2, 3, 100, 150], 200),
        (lambda: generic_model(0.3)[0], range(1001), 1200),
        (lambda: build_aklt_model(0.6), [0, 3, 2**49, 2**50 - 2, 2**50 - 3], 2**50),
    ],
    ids=["thermo-gaps-repeats", "ring-1", "ring-11", "ring-1001-D6", "ring-2^50"],
)
def test_shared_series_equal_one_call_per_pair(fresh, lengths, n_sites):
    """Each series of one shared evaluation is bit for bit a separate call on a
    fresh model, and each of its fields owns its array. Eleven lengths take the
    per-length powers, 1,001 lengths at D = 6 cross the 809-length chunk, and
    N = 2^50 keeps its exponents as Python ints."""
    endpoints = [(OPS[a], OPS[b]) for a, b in PAIRS]
    (shared,) = _string_series([fresh()], "R_z", endpoints, lengths, n_sites)
    assert len(shared) == len(endpoints)
    for (chi_l, chi_r), series in zip(endpoints, shared):
        alone = string_order_series(fresh(), "R_z", chi_l, chi_r, lengths, n_sites)
        assert _bits(series) == _bits(alone)
    arrays = [a for series in shared for a in _arrays(series)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b) or not (a.flags.writeable or b.flags.writeable)


def test_a_thermodynamic_stack_across_gaps_equals_stacks_of_one():
    """A stack of three models over lengths with jumps of 2 to 3,000, in any order and
    repeated, on two endpoint pairs: each model's series bit for bit its stack of one's."""
    p_values = (0.2, 0.6, 0.9)
    lengths = [4000, 0, 3, 5, 5, 9, 40, 41, 1000, 3, 4000]
    endpoints = [(OPS["S_x"], OPS["S_x"]), (OPS["S_y"], OPS["S_y"])]
    stacked = _string_series([build_aklt_model(p) for p in p_values], "R_z", endpoints, lengths)
    for p, series in zip(p_values, stacked):
        (alone,) = _string_series([build_aklt_model(p)], "R_z", endpoints, lengths)
        assert [_bits(s) for s in series] == [_bits(s) for s in alone]


def test_a_shared_series_checks_every_endpoint_before_any_power():
    model = build_aklt_model(0.3)
    entries = dict(model.lpdo._memo)
    endpoints = [(OPS["S_x"], OPS["S_x"]), (OPS["S_y"], np.eye(2))]
    for n_sites in (None, 200):
        with pytest.raises(DimensionMismatchError, match="op is 2x2, tensor has d=3"):
            _string_series([model], "R_z", endpoints, [50], n_sites)
    assert {key[0] for key in model.lpdo._memo.keys() - entries.keys()} == {"transfer"}


def _carried_reference(x, step, lengths):
    """x step^l for increasing lengths, each row x @ matrix_power(step, jump) of the row before."""
    rows, at = [], 0
    for l in lengths:
        if l > at:
            x = x @ np.linalg.matrix_power(step, l - at)
        rows.append(x)
        at = l
    return np.array(rows)


@pytest.mark.parametrize("alpha", ["S_x", "S_y"])
def test_carried_rows_fill_the_zero_tail_bit_for_bit(alpha):
    """At p = 0.3 both series underflow to zero rows from l = 1266 (S_x) and
    1199 (S_y); the rows that repeat are filled, bit for bit as the recurrence
    leaves them."""
    model = build_aklt_model(0.3)
    lpdo = model.lpdo
    _, left, _ = transfer_spectrum(lpdo, np.eye(3)).leading
    step = build_transfer(lpdo, model.action("R_z").u) / abs(twisted_spectrum(model, "R_z").eigenvalues[0])
    x = left @ build_transfer(lpdo, OPS[alpha])
    lengths = list(range(2001))
    rows, exponents = _carried_rows(x, step, ScaledPowers(step).power, lengths)
    assert exponents.dtype == np.int64 and not exponents.any()
    expected = _carried_reference(x, step, lengths)
    assert rows.tobytes() == expected.tobytes()
    zero = ~expected.view(float).any(axis=1)
    assert zero[-1] and zero.sum() > 700


def test_carried_rows_do_not_fill_across_a_gap():
    """x = [1, 1] is a fixed row of one step (1 + 1e-17 rounds to 1) but not of
    step^99, whose corner entry is 9.9e-16: a repeat before a gap must not fill."""
    x = np.array([1.0, 1.0], dtype=complex)
    step = np.array([[1.0, 0.0], [1e-17, 1.0]], dtype=complex)
    lengths = [0, 1, 2, 101, 102, 103]
    rows, exponents = _carried_rows(x, step, ScaledPowers(step).power, lengths)
    assert exponents.dtype == np.int64 and not exponents.any()
    expected = _carried_reference(x, step, lengths)
    assert rows.tobytes() == expected.tobytes()
    assert rows[2].tobytes() == rows[1].tobytes() and rows[3].tobytes() != rows[2].tobytes()


def test_carried_rows_without_a_repeat_match_the_recurrence():
    rng = np.random.default_rng(5)
    step = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    step /= abs(np.linalg.eigvals(step)).max()
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    lengths = [0, *range(3, 300)]
    rows, exponents = _carried_rows(x, step, ScaledPowers(step).power, lengths)
    assert exponents.dtype == np.int64 and not exponents.any()
    assert rows.tobytes() == _carried_reference(x, step, lengths).tobytes()
    assert all(a.tobytes() != b.tobytes() for a, b in zip(rows, rows[1:]))
