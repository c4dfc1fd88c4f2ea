"""Batched powers and ring series, bit for bit against per-length references.

``ScaledPowers.powers`` builds every power of a series from one stacked
product per bit level (from ``MIN_STACKED_POWERS`` powers up; fewer go
through the per-length loop of ``ScaledPowers.power``). The references here
are ``np.linalg.matrix_power`` and the per-length loop as it was before
batching: one Python-level product per factor, with a range check on one
matrix at a time.
"""

import dataclasses
import math

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import numerics, stringorder
from weaksym.errors import ValidationError
from weaksym.model import LpdoTensor, build_aklt_model, spin1_operators
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
    """A negative or non-integer power is refused on the loop and on the
    stacked path alike, with the text of ``power``, not truncated; an
    integral float is the same power as the integer."""
    mantissas, exponents = ScaledPowers(np.eye(3)).powers([])
    assert mantissas.shape == (0, 3, 3) and exponents.shape == (0,)
    powers = ScaledPowers(_aklt_maps(0.3)[1])
    for bad in (-1, 2.5, np.nan, np.inf):
        message = f"power must be a nonnegative integer, got {bad!r}"
        for ns in ([4, bad], [4] * numerics.MIN_STACKED_POWERS + [bad]):
            with pytest.raises(ValidationError, match=message):
                powers.powers(ns)
        with pytest.raises(ValidationError, match=message):
            powers.power(bad)
    for ns in ([2.0, 3.0], [2.0] * numerics.MIN_STACKED_POWERS + [3.0]):
        whole, ints = powers.powers(ns), powers.powers([int(n) for n in ns])
        np.testing.assert_array_equal(whole[0], ints[0])
        np.testing.assert_array_equal(whole[1], ints[1])


def test_stacked_rescale_matches_one_matrix_at_a_time():
    m = np.array([[3.0e-200, 1.0e-210j], [0.0, -5.0e-205]])
    stack = np.stack([m, np.eye(2), np.zeros((2, 2)), 1e250 * np.ones((2, 2))])
    scaled, exponents = rescale(stack, np.array([7, 3, 0, -2]))
    for z, e, one, start in zip(scaled, exponents, stack, (7, 3, 0, -2)):
        expected, expected_exponent = _rescale_one(one, start)
        np.testing.assert_array_equal(z, expected)
        assert e == expected_exponent


def test_a_stack_at_the_ends_of_the_range_is_rescaled_as_each_matrix_alone():
    """Matrices scaled to a squared norm of 2^800 or 2^-800, where a sum in another
    order than np.vdot's (an einsum over the stack) falls on the other side of the end
    for some of them: each matrix of the stack, and of a stacked table, gets the
    decision it gets alone."""
    rng = np.random.default_rng(0)
    ms = []
    for end in (2.0**800, 2.0**-800):
        for _ in range(100):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            ms.append(m * np.sqrt(end / abs(np.vdot(m, m))))
    stack = np.stack(ms)
    parts = stack.reshape(len(ms), -1).view(float)
    summed = np.einsum("ki,ki->k", parts, parts)
    in_range = (2.0**-800 <= summed) & (summed <= 2.0**800)
    alone = np.array([2.0**-800 <= abs(np.vdot(m, m)) <= 2.0**800 for m in ms])
    assert np.count_nonzero(in_range != alone) > 5  # the orders decide differently
    scaled, exponents = rescale(stack, np.zeros(len(ms), dtype=int))
    table = ScaledPowers(stack)
    cubes, cube_exponents = table.power(3)
    for i, m in enumerate(ms):
        expected, expected_exponent = _rescale_one(m, 0)
        np.testing.assert_array_equal(scaled[i], expected)
        assert exponents[i] == expected_exponent
        cube, cube_exponent = ScaledPowers(m).power(3)
        np.testing.assert_array_equal(cubes[i], cube)
        assert cube_exponents[i] == cube_exponent


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
    with pytest.raises(ValidationError, match=r"need 0 <= l <= N-2, got l=9, N=10"):
        string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [3, 9, -1, 12], n_sites=10)
    with pytest.raises(ValueError, match=r"got l=-1, N=10"):
        string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], [0, -1, 9], n_sites=10)


# --- one GEMM per bit level -------------------------------------------------

# Map sizes n = D^2 for D = 1, 2, 3, 6, 12, and stack sizes around
# MIN_STACKED_POWERS. A stack of more than MAX_STACK_ENTRIES entries, which a
# ring series never builds, is left out (1,001 maps of 36 x 36 or 144 x 144).
MAP_SIZES = (1, 4, 9, 36, 144)
STACKS = (1, 11, 12, 13, 1001)
GEMM_CASES = [
    pytest.param(n, count, id=f"n{n}-k{count}")
    for n in MAP_SIZES
    for count in STACKS
    if n * n * count <= stringorder.MAX_STACK_ENTRIES
]


def random_map(rng, n, radius):
    """Seeded complex Gaussian n x n map scaled to spectral radius ``radius``."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m * (radius / np.abs(np.linalg.eigvals(m)).max())


def stacked_matmul_powers(m, ns):
    """The stacked powers as they were built before the one-GEMM product: at
    each bit level one stacked ``r @ z``, which makes one BLAS call per matrix."""
    table = PerLengthPowers(m)
    ns = np.array(ns, dtype=np.int64)
    table.power(int(ns.max()))  # fills the table up to the top bit
    mantissa = np.broadcast_to(np.eye(len(m), dtype=complex), (len(ns),) + m.shape).copy()
    exponent = np.zeros(len(ns), dtype=np.int64)
    three = ns == 3
    if three.any():
        (z2, e2), (z, e) = table.factors[1], table.factors[0]
        mantissa[three], exponent[three] = z2 @ z, e2 + e
    ns = np.where(three, 0, ns)
    for k in range(int(ns.max()).bit_length()):
        first = (ns & -ns) == 1 << k
        mantissa[first], exponent[first] = table.squares[k]
        later = (ns & (ns - 1)) >> k & 1 == 1
        if later.any():
            r, er = rescale(mantissa[later], exponent[later])
            z, e = table.factors[k]
            mantissa[later], exponent[later] = r @ z, er + e
    return mantissa, exponent


@pytest.mark.parametrize("n, count", GEMM_CASES)
def test_stacked_powers_match_power_and_the_stacked_matmul(n, count, monkeypatch):
    """Powers up to 699 far below and far above the double range (spectral
    radius 0.3 and 3), on the default path and forced onto the stacked one."""
    rng = np.random.default_rng(n * 10_000 + count)
    ns = rng.integers(0, 700, size=count)
    ns[0] = 699
    ns[1:6] = [3, 0, 1, 2, 512][: count - 1]
    for radius in (0.3, 3.0):
        m = random_map(rng, n, radius)
        old_mantissa, old_exponent = stacked_matmul_powers(m, ns)
        for threshold in (numerics.MIN_STACKED_POWERS, 1):
            monkeypatch.setattr(numerics, "MIN_STACKED_POWERS", threshold)
            powers = ScaledPowers(m)
            mantissa, exponent = powers.powers(ns)
            assert exponent.dtype == np.int64
            assert np.array_equal(mantissa, old_mantissa) and np.array_equal(exponent, old_exponent)
            for i, power in enumerate(ns.tolist()):
                single, single_exponent = powers.power(power)
                assert np.array_equal(mantissa[i], single) and exponent[i] == single_exponent


@pytest.mark.parametrize("n, count", GEMM_CASES)
def test_ring_traces_match_the_stacked_chain(n, count):
    rng = np.random.default_rng(n * 10_000 + count + 1)
    tl, tr = random_map(rng, n, 1.0), random_map(rng, n, 1.0)
    m2, m1 = (rng.normal(size=(2, count, n, n)) + 1j * rng.normal(size=(2, count, n, n))) / n
    expected = (tl @ m2 @ tr @ m1).trace(axis1=1, axis2=2)
    assert np.array_equal(stringorder._ring_traces(tl, m2, tr, m1), expected)


@pytest.mark.parametrize("n", MAP_SIZES)
def test_carried_rows_match_the_vector_recurrence(n):
    """Consecutive lengths, gaps, a start above 0 and one length, against
    ``x = x @ step`` (and ``x @ step^gap`` across a gap)."""
    rng = np.random.default_rng(n)
    step = random_map(rng, n, 0.9)
    start = rng.normal(size=n) + 1j * rng.normal(size=n)
    for lengths in (list(range(1001)), [0, 1, 2, 5, 6, 40, 41, 300], [3, 4, 9], [7], []):
        expected, x, at = [], start, 0
        for l in lengths:
            if l > at:
                x = x @ (step if l == at + 1 else np.linalg.matrix_power(step, l - at))
            at = l
            expected.append(x)
        rows, exponents = stringorder._carried_rows(start, step, ScaledPowers(step).power, lengths)
        assert rows.shape == exponents.shape + (n,) == (len(lengths), n)
        assert not exponents.any()
        assert np.array_equal(rows, np.reshape(expected, rows.shape))


@pytest.mark.parametrize("bond", [1, 3, 6], ids=["D2", "D6", "D12"])
def test_generic_ring_series_across_a_chunk_boundary(bond):
    """Generic ring series against the per-length loop, across chunks
    unpatched: a chunk holds 809 lengths at D = 6, so 1,001 lengths cross
    one boundary, and 50 at D = 12, so 80 lengths cross one; at D = 2 all
    1,001 fit in one chunk."""
    model, _, _ = generic_model(0.3, bond=bond)
    lengths = list(range(0, 2002, 2)) if bond < 6 else list(range(0, 160, 2))
    series = string_order_series(model, "R_z", OPS["S_y"], OPS["S_y"], lengths, n_sites=2003)
    mantissa, exponent = per_length_ring(model, "R_z", OPS["S_y"], lengths, 2003)
    assert series.exponent.dtype == np.int64
    assert np.array_equal(series.mantissa, mantissa) and np.array_equal(series.exponent, exponent)


# --- exponents past int64 ---------------------------------------------------

def exact_log2(mantissa, exponent):
    """log2 of a power of two held as mantissa * 2**exponent, as a Python int."""
    fraction, shift = math.frexp(mantissa.real)
    assert fraction == 0.5 and mantissa.imag == 0
    return shift - 1 + exponent


@pytest.mark.parametrize("count", [3, 12], ids=["loop", "stacked"])
def test_exponents_past_int64_are_python_ints(count):
    """(2^-1020)^n = 2^(-1020 n): past n = 9.04e15 that exponent leaves int64.
    The stacked path once wrapped it to about +9.16e18 without an error, and
    the loop ended in an OverflowError."""
    powers = ScaledPowers(np.array([[2.0**-1020]]))
    ns = [9_100_000_000_000_000 + i for i in range(count)]
    mantissa, exponent = powers.powers(ns)
    assert exponent.dtype == object
    for n, m, e in zip(ns, mantissa, exponent):
        single, single_exponent = powers.power(n)
        assert type(e) is int and e == single_exponent and np.array_equal(m, single)
        assert exact_log2(m[0, 0], e) == -1020 * n


@pytest.mark.parametrize("count", [3, 12], ids=["loop", "stacked"])
def test_exponents_keep_int64_below_the_bound(count):
    """The same map on both sides of ``INT64_POWERS``, from which exponents
    are Python ints: exact on both, int64 below it."""
    assert numerics.INT64_POWERS == 2**48
    powers = ScaledPowers(np.array([[2.0**-1020]]))
    for top, dtype in ((2**48 - 1, np.int64), (2**48 + count, object)):
        ns = [top - i for i in range(count)]
        mantissa, exponent = powers.powers(ns)
        assert exponent.dtype == dtype
        for n, m, e in zip(ns, mantissa, exponent):
            assert exact_log2(m[0, 0], int(e)) == -1020 * n


def test_ring_series_past_int64_exponents_match_on_both_paths():
    """A ring of N = 2^63 - 1 sites: T(R_z)^l has a binary exponent near
    -1.0e19 at p = 0.6. One length takes the loop, sixteen the stacked path;
    both give the same value, within two ulps of the same string at N = 10^6.
    On a bare tensor of the member's bytes, whose maps are contracted, all
    three values are one double."""
    member = build_aklt_model(0.6)
    sy = OPS["S_y"]
    n_sites = 2**63 - 1
    for model in (member, dataclasses.replace(member, lpdo=LpdoTensor(member.lpdo.tensor))):
        one = string_order_series(model, "R_z", sy, sy, [n_sites - 2], n_sites=n_sites)
        many = string_order_series(model, "R_z", sy, sy, range(n_sites - 17, n_sites - 1), n_sites=n_sites)
        small = string_order_series(model, "R_z", sy, sy, [10**6 - 2], n_sites=10**6)
        assert one.exponent.dtype == many.exponent.dtype == object
        assert one.exponent[0] < -(2**63)
        assert one.normalized[0] == many.normalized[-1]
        assert abs(one.normalized[0] - small.normalized[0]) <= 2 * np.spacing(abs(small.normalized[0]))
        assert one.raw[0] == 0 and np.all(np.isfinite(many.normalized))
    assert one.normalized[0] == small.normalized[0]
