"""Batched powers and ring series, bit for bit against per-length references.

``ScaledPowers.powers`` builds every power of a series from one stacked
product per bit level (from ``MIN_STACKED_POWERS`` powers up; fewer go
through the per-length loop of ``ScaledPowers.power``). The references here
are ``np.linalg.matrix_power`` and the per-length loop as it was before
batching: one Python-level product per factor, with a range check on one
matrix at a time.
"""

import math

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import numerics, stringorder
from weaksym.errors import ValidationError
from weaksym.model import build_aklt_model, spin1_operators
from weaksym.numerics import ScaledPowers, ldexp, rescale
from weaksym.stringorder import string_order_series
from weaksym.transfer import build_transfer

OPS = spin1_operators()


def _rescale_one(m, exponent):
    """The range check of one matrix as the per-length loop made it."""
    if 2.0**-800 <= abs(np.vdot(m, m)) <= 2.0**800:
        return m, exponent
    amax = float(np.abs(m).max())
    if amax == 0.0:
        return m, exponent
    shift = math.frexp(amax)[1]
    return ldexp(m, -shift), exponent + shift


class PerLengthPowers:
    """One power at a time: the loop that batching replaced."""

    def __init__(self, m):
        self.squares = [(m, 0)]
        self.factors = [_rescale_one(m, 0)]

    def power(self, n):
        while len(self.squares) < n.bit_length():
            z, e = self.factors[-1]
            self.squares.append((z @ z, 2 * e))
            self.factors.append(_rescale_one(*self.squares[-1]))
        if n == 0:
            return np.eye(len(self.squares[0][0]), dtype=complex), 0
        if n == 3:
            (z2, e2), (z, e) = self.factors[1], self.factors[0]
            return z2 @ z, e2 + e
        result = None
        for k in range(n.bit_length()):
            if n >> k & 1:
                if result is None:
                    result = self.squares[k]
                else:
                    r, er = _rescale_one(*result)
                    z, e = self.factors[k]
                    result = (r @ z, er + e)
        return result


def per_length_ring(model, g2, chi, lengths, n_sites):
    """Ring mantissas and exponents one length at a time."""
    lpdo = model.lpdo
    t1 = build_transfer(lpdo, np.eye(lpdo.d))
    t2 = build_transfer(lpdo, model.action(g2).u)
    tl = tr = build_transfer(lpdo, chi)
    powers1, powers2 = PerLengthPowers(t1), PerLengthPowers(t2)
    mantissa, exponent = [], []
    for l in lengths:
        m2, e2 = _rescale_one(*powers2.power(l))
        m1, e1 = _rescale_one(*powers1.power(n_sites - l - 2))
        mantissa.append(complex((tl @ m2 @ tr @ m1).trace()))
        exponent.append(e2 + e1)
    return np.array(mantissa), np.array(exponent)


def assert_same_powers(m, ns):
    """Batched powers, and their final rescale, equal the per-length loop bit for bit.

    Returns the exponents the powers carry after that rescale.
    """
    mantissas, exponents = ScaledPowers(m).powers(ns)
    scaled, scaled_exponents = rescale(mantissas, exponents)
    reference = PerLengthPowers(m)
    assert mantissas.shape == (len(ns),) + m.shape and exponents.shape == (len(ns),)
    for i, n in enumerate(ns):
        expected, expected_exponent = reference.power(int(n))
        np.testing.assert_array_equal(mantissas[i], expected)
        assert exponents[i] == expected_exponent
        expected, expected_exponent = _rescale_one(expected, expected_exponent)
        np.testing.assert_array_equal(scaled[i], expected)
        assert scaled_exponents[i] == expected_exponent
    return scaled_exponents


def _aklt_maps(p):
    model = build_aklt_model(p)
    return [build_transfer(model.lpdo, model.action(g).u) for g in model.group.labels]


def test_small_unsorted_and_repeated_powers_match_both_references():
    rng = np.random.default_rng(5)
    maps = [(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))) / 3.5 for _ in range(3)]
    maps += _aklt_maps(0.3) + _aklt_maps(1.0)
    ns = [0, 1, 2, 3, 7, 3, 0, 64, 2, 1, 513, 3, 40, 7]
    assert len(ns) >= numerics.MIN_STACKED_POWERS  # the stacked path
    for m in maps:
        assert_same_powers(m, ns)
        powers = ScaledPowers(m)
        for n, mantissa, exponent in zip(ns, *powers.powers(ns)):
            single, single_exponent = powers.power(n)
            np.testing.assert_array_equal(single, mantissa)
            assert single_exponent == exponent
            reference = np.linalg.matrix_power(m, n)
            moduli = np.abs(reference[reference != 0])
            if not moduli.size or (moduli.min() > 1e-300 and moduli.max() < 1e300):
                np.testing.assert_array_equal(ldexp(mantissa, exponent), reference)


def test_few_powers_take_the_loop_and_agree():
    m = _aklt_maps(0.75)[3]
    for ns in ([], [5], [0, 3], [1000, 2, 2999]):
        assert_same_powers(m, ns)


def test_no_lengths_and_bad_powers():
    mantissas, exponents = ScaledPowers(np.eye(3)).powers([])
    assert mantissas.shape == (0, 3, 3) and exponents.shape == (0,)
    for ns in ([4, -1], [4] * numerics.MIN_STACKED_POWERS + [-1]):
        with pytest.raises(ValidationError):
            ScaledPowers(np.eye(2)).powers(ns)


def test_stacked_rescale_matches_one_matrix_at_a_time():
    m = np.array([[3.0e-200, 1.0e-210j], [0.0, -5.0e-205]])
    stack = np.stack([m, np.eye(2), np.zeros((2, 2)), 1e250 * np.ones((2, 2))])
    scaled, exponents = rescale(stack, np.array([7, 3, 0, -2]))
    for z, e, one, start in zip(scaled, exponents, stack, (7, 3, 0, -2)):
        expected, expected_exponent = _rescale_one(one, start)
        np.testing.assert_array_equal(z, expected)
        assert e == expected_exponent


@pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 0.75])
@pytest.mark.parametrize("n_sites", [1200, 3000])
def test_aklt_ring_series_match_per_length_loop(p, n_sites):
    """Powers far outside the normal range, on both maps of a ring series."""
    model = build_aklt_model(p)
    lpdo = model.lpdo
    lengths = np.r_[0:1001:3, 998:1001]
    t1 = build_transfer(lpdo, np.eye(lpdo.d))
    tz = build_transfer(lpdo, model.action("R_z").u)
    # |lambda_0(T(R_z))| <= 0.74, so the long powers are far below 2^-400.
    assert assert_same_powers(tz, lengths).min() < -400
    assert assert_same_powers(tz, n_sites - 2 - lengths).min() < -400
    assert_same_powers(t1, n_sites - 2 - lengths)
    probe = np.array([0, 1, 2, 3, 5, 500, 999, 1000, 3, 0, 64, 127, 128, 129, 777, 4])
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], probe, n_sites=n_sites)
    mantissa, exponent = per_length_ring(model, "R_z", OPS["S_y"], probe.tolist(), n_sites)
    np.testing.assert_array_equal(series.mantissa, mantissa)
    np.testing.assert_array_equal(series.exponent, exponent)


def test_generic_ring_series_match_per_length_loop():
    model, _, _ = generic_model(0.3)
    lengths = [0, 1, 2, 3, 17, 300, 3, 1, 0, 998, 511, 512, 513, 255]
    series = string_order_series(model, "R_x", OPS["S_x"], OPS["S_x"], lengths, n_sites=1000)
    mantissa, exponent = per_length_ring(model, "R_x", OPS["S_x"], lengths, 1000)
    np.testing.assert_array_equal(series.mantissa, mantissa)
    np.testing.assert_array_equal(series.exponent, exponent)


def test_ring_series_across_chunk_boundaries(monkeypatch):
    """Chunks of 12 maps (16 entries each at D = 2): 30 lengths in chunks of 12, 12 and 6."""
    model = build_aklt_model(0.75)
    lengths = [19, 0, 3, 3, 1000, 2, 7, 1, 640, 5, 8, 12, 3, 0, 999, 4, 6, 2, 11, 1]
    lengths += [2998, 1500, 3, 1024, 1023, 1025, 0, 2048, 2047, 17]
    whole = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], lengths, n_sites=3000)
    monkeypatch.setattr(stringorder, "MAX_STACK_ENTRIES", 12 * 16)
    chunked = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], lengths, n_sites=3000)
    mantissa, exponent = per_length_ring(model, "R_z", OPS["S_y"], lengths, 3000)
    for series in (whole, chunked):
        np.testing.assert_array_equal(series.mantissa, mantissa)
        np.testing.assert_array_equal(series.exponent, exponent)


def test_ring_length_check_names_the_first_offending_length():
    model = build_aklt_model(0.3)
    with pytest.raises(ValueError, match=r"need 0 <= l <= N-2, got l=9, N=10"):
        string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [3, 9, -1, 12], n_sites=10)
    with pytest.raises(ValueError, match=r"got l=-1, N=10"):
        string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [0, -1, 9], n_sites=10)
