import numpy as np
import pytest

from weaksym.errors import DimensionMismatchError, ValidationError
from weaksym.model import build_aklt_model
from weaksym.numerics import (
    ScaledPowers,
    kron,
    ldexp,
    matrix_power_trace,
    rescale,
    spectral_decompose,
)
from weaksym.transfer import build_transfer

SZ = np.diag([1.0, -1.0])


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sigma_z_pair():
    assert np.array_equal(kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_shape():
    a = np.ones((2, 3))
    b = np.ones((2, 2))
    assert kron(a, b).shape == (4, 6)


def test_spectral_decompose_diagonal():
    m = np.diag([1.0, -1 / 3, -1 / 3, -1 / 3])
    spec = spectral_decompose(m)
    np.testing.assert_allclose(spec.eigenvalues, [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-14)
    assert not spec.near_defective


def test_spectral_decompose_modulus_ordering():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        spec = spectral_decompose(m)
        mods = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)


def test_spectral_decompose_biorthonormal():
    """Left rows against right columns reproduce the identity and m itself."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        spec = spectral_decompose(m)
        assert spec.biorthonormal
        gram = spec.left_vectors @ spec.right_vectors
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)
        rebuilt = spec.right_vectors @ np.diag(spec.eigenvalues) @ spec.left_vectors
        np.testing.assert_allclose(rebuilt, m, atol=1e-9)


def test_spectral_decompose_left_eigen_rows():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    spec = spectral_decompose(m)
    for lam, row in zip(spec.eigenvalues, spec.left_vectors):
        np.testing.assert_allclose(row @ m, lam * row, atol=1e-10)


def test_jordan_block_flags_near_defective():
    spec = spectral_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert spec.near_defective


def test_leading_triple():
    m = np.diag([3.0, 1.0])
    lam, left, right = spectral_decompose(m).leading
    assert abs(lam - 3.0) < 1e-14
    np.testing.assert_allclose(np.abs(right), [1, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(left), [1, 0], atol=1e-14)


def test_matrix_power_trace_identity():
    assert abs(matrix_power_trace(np.eye(4), 10) - 4.0) < 1e-14


def test_matrix_power_trace_zero_power_is_dimension():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    assert abs(matrix_power_trace(m, 0) - 6.0) < 1e-14


def test_matrix_power_trace_aklt_untwisted():
    """tr T(1)^N = 1 + 3(-1/3)^N, the eigenvalue power sum."""
    t1 = np.array([[1, 0, 0, 2], [0, -1, 0, 0], [0, 0, -1, 0], [2, 0, 0, 1]]) / 3.0
    for n in (1, 2, 5, 20):
        expected = 1 + 3 * (-1 / 3) ** n
        assert abs(matrix_power_trace(t1, n) - expected) < 1e-13


def test_matrix_power_trace_rejects_bad_power():
    with pytest.raises(ValidationError):
        matrix_power_trace(np.eye(2), -1)
    with pytest.raises(ValidationError):
        matrix_power_trace(np.eye(2), 1.5)


def test_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        spectral_decompose(np.ones((2, 3)))


def test_rejects_non_finite():
    m = np.eye(3)
    m = m.astype(complex)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        spectral_decompose(m)


# --- powers with a carried binary exponent ------------------------------------

def _aklt_maps():
    for p in (0.0, 0.3, 0.75, 1.0):
        model = build_aklt_model(p)
        for g in model.group.labels:
            yield build_transfer(model.lpdo, model.action(g).u)


def test_scaled_powers_bit_identical_to_matrix_power():
    """In the normal range mantissa * 2**exponent is np.linalg.matrix_power, bit for bit."""
    rng = np.random.default_rng(11)
    maps = [(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))) / 3.5 for _ in range(4)]
    maps += list(_aklt_maps())
    compared = 0
    for m in maps:
        powers = ScaledPowers(m)
        for n in list(range(40)) + [64, 99, 200, 511, 512, 513, 1000]:
            reference = np.linalg.matrix_power(m, n)
            moduli = np.abs(reference[reference != 0])
            if moduli.size and (moduli.min() < 1e-300 or moduli.max() > 1e300):
                continue  # only the normal range is exact
            mantissa, exponent = powers.power(n)
            np.testing.assert_array_equal(ldexp(mantissa, exponent), reference)
            compared += 1
    assert compared > 400


def test_scaled_powers_carry_the_exponent_past_underflow():
    """tr T(R_z)^N at p = 3/4 is (2/3)^N (1 + 2^-N + ...), far below 1e-308 at N = 3000."""
    model = build_aklt_model(0.75)
    tz = build_transfer(model.lpdo, model.action("R_z").u)
    powers = ScaledPowers(tz)
    for n in (1000, 2000, 3000):
        mantissa, exponent = powers.power(n)
        log2_trace = np.log2(abs(np.trace(mantissa))) + exponent
        assert abs(log2_trace - n * np.log2(2 / 3)) < 1e-10
        assert np.all(np.isfinite(mantissa)) and np.abs(mantissa).max() > 2.0**-800
    assert abs(np.trace(np.linalg.matrix_power(tz, 3000))) == 0.0  # the plain power underflows


def test_scaled_powers_zero_and_rejects_bad_power():
    mantissa, exponent = ScaledPowers(np.zeros((3, 3))).power(5)
    assert exponent == 0 and not mantissa.any()
    mantissa, exponent = ScaledPowers(np.zeros((3, 3))).power(0)
    np.testing.assert_array_equal(mantissa, np.eye(3))
    with pytest.raises(ValidationError):
        ScaledPowers(np.eye(2)).power(-2)


def test_rescale_is_exact():
    m = np.array([[3.0e-200, 1.0e-210j], [0.0, -5.0e-205]])
    scaled, exponent = rescale(m, 7)
    assert 0.5 <= np.abs(scaled).max() < 1.0
    np.testing.assert_array_equal(ldexp(scaled, exponent - 7), m)
    same, exponent = rescale(np.eye(2), 3)
    assert exponent == 3 and np.array_equal(same, np.eye(2))
