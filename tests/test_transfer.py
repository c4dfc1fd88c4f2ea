import numpy as np
import pytest

from weaksym.errors import DimensionMismatchError
from weaksym.model import build_aklt_model
from weaksym.numerics import matrix_power_trace, spectral_decompose
from weaksym.oracle import contract_full, density_from_state, expectation
from weaksym.symmetry import VirtualRep, extract_virtual_rep
from weaksym.transfer import (
    build_transfer,
    commutant_residual,
    flux_operator,
    symmetry_gap,
    twisted_spectrum,
)

P_GRID = [i / 10 for i in range(11)]


def t1_expected():
    return np.array([[1, 0, 0, 2], [0, -1, 0, 0], [0, 0, -1, 0], [2, 0, 0, 1]]) / 3.0


def tz_expected(p):
    return np.array(
        [
            [(1 - 2 * p) / 3, 0, 0, (2 / 3) * (-1 + p)],
            [0, (-1 + 2 * p) / 3, -2 * p / 3, 0],
            [0, -2 * p / 3, (-1 + 2 * p) / 3, 0],
            [-(2 / 3) * (1 - p), 0, 0, (1 - 2 * p) / 3],
        ]
    )


def test_untwisted_matrix_entrywise():
    for p in (0.0, 0.3, 0.7, 1.0):
        model = build_aklt_model(p)
        t = build_transfer(model.lpdo, np.eye(3))
        np.testing.assert_allclose(t, t1_expected(), atol=1e-14)
        assert t.shape == (4, 4)


def test_twisted_matrix_entrywise():
    for p in (0.0, 0.25, 0.5, 0.8, 1.0):
        model = build_aklt_model(p)
        t = build_transfer(model.lpdo, model.action("R_z").u)
        np.testing.assert_allclose(t, tz_expected(p), atol=1e-14)


def test_zero_insertion_gives_zero_matrix():
    model = build_aklt_model(0.3)
    t = build_transfer(model.lpdo, np.zeros((3, 3)))
    assert np.all(t == 0)


def test_transfer_linear_in_insertion():
    rng = np.random.default_rng(17)
    model = build_aklt_model(0.4)
    o1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    o2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a, b = 0.7, -1.3 + 0.2j
    lhs = build_transfer(model.lpdo, a * o1 + b * o2)
    rhs = a * build_transfer(model.lpdo, o1) + b * build_transfer(model.lpdo, o2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_single_site_trace_matches_oracle():
    """tr T(O) equals the one-site expectation Tr[rho O] done densely."""
    rng = np.random.default_rng(23)
    model = build_aklt_model(0.3)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 1), 1)
    for _ in range(5):
        o = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.trace(build_transfer(model.lpdo, o))
        rhs = expectation(rho, [o])
        assert abs(lhs - rhs) < 1e-12


def test_spectrum_untwisted_all_p():
    for p in P_GRID:
        spec = twisted_spectrum(build_aklt_model(p), "1")
        np.testing.assert_allclose(
            sorted(np.abs(spec.eigenvalues))[::-1], [1, 1 / 3, 1 / 3, 1 / 3], atol=1e-12
        )


def test_spectrum_twisted_quarter_noise():
    spec = twisted_spectrum(build_aklt_model(0.25), "R_z")
    expected = sorted([2 / 3, -1 / 3, -1 / 3, 0.0], key=abs, reverse=True)
    got = sorted(spec.eigenvalues.real, key=abs, reverse=True)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert np.abs(spec.eigenvalues.imag).max() < 1e-12


def test_spectrum_keeps_its_pairing_residual():
    """The measured residual of left @ right against 1 is kept, below 1e-10 when certified."""
    rng = np.random.default_rng(3)
    spectra = [twisted_spectrum(build_aklt_model(p), g) for p in P_GRID for g in ("1", "R_x", "R_z")]
    spectra += [spectral_decompose(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) for _ in range(5)]
    spectra.append(spectral_decompose(np.array([[1.0, 1.0], [0.0, 1.0]])))  # a Jordan block
    for spec in spectra:
        gram = spec.left_vectors @ spec.right_vectors
        assert spec.pairing_residual == np.max(np.abs(gram - np.eye(len(gram))))
        if spec.biorthonormal:
            assert spec.pairing_residual < 1e-10
    assert sum(spec.biorthonormal for spec in spectra) == len(spectra) - 1
    assert not spectra[-1].biorthonormal


def test_spectrum_twisted_critical_moduli():
    spec = twisted_spectrum(build_aklt_model(0.5), "R_z")
    np.testing.assert_allclose(np.abs(spec.eigenvalues), [1 / 3] * 4, atol=1e-12)


def test_gap_closed_form():
    for p in P_GRID:
        model = build_aklt_model(p)
        expected = (2 - 4 * p) / 3 if p <= 0.5 else (4 * p - 2) / 3
        assert abs(symmetry_gap(twisted_spectrum(model, "R_z")) - expected) < 1e-12
        assert abs(symmetry_gap(twisted_spectrum(model, "1")) - 2 / 3) < 1e-12


def test_uniform_charge_identity_closed_form():
    """Tr[rho] on a ring of N sites is exactly 1 + 3(-1/3)^N for this family."""
    model = build_aklt_model(0.3)
    t1 = build_transfer(model.lpdo, np.eye(3))
    for n in (1, 2, 3, 10, 51):
        assert abs(matrix_power_trace(t1, n) - (1 + 3 * (-1 / 3) ** n)) < 1e-12
    # leading eigenvalue 1 for the untwisted matrix: the charge does not decay
    assert abs(-np.log(abs(twisted_spectrum(model, "1").eigenvalues[0]))) < 1e-12


def test_uniform_charge_single_site_is_transfer_trace():
    p = 0.45
    model = build_aklt_model(p)
    value = matrix_power_trace(build_transfer(model.lpdo, model.action("R_z").u), 1)
    expected = (3 - 4 * p) / 3 + (-1 + 4 * p) / 3 + 2 * (-1 / 3)
    assert abs(value - expected) < 1e-13


def test_uniform_charge_decay_rate():
    """Tr[rho U_z] decays like e^{-Theta N} with Theta = -ln|lambda_0(T(R_z))|."""
    theta = -np.log(abs(twisted_spectrum(build_aklt_model(0.3), "R_z").eigenvalues[0]))
    assert abs(theta - (-np.log(0.6))) < 1e-12


def test_flux_operator_structure():
    v = np.diag([1.0 + 0j, -1.0])
    np.testing.assert_allclose(flux_operator(v), np.diag([1, -1, -1, 1]), atol=1e-15)
    np.testing.assert_allclose(flux_operator(np.eye(2)), np.eye(4), atol=1e-15)


def test_commutant_residual_symmetry_flux():
    sx = VirtualRep("R_x", np.array([[0.0, 1.0], [1.0, 0.0]]))
    for p in P_GRID:
        model = build_aklt_model(p)
        t = build_transfer(model.lpdo, model.action("R_z").u)
        assert commutant_residual(t, sx) < 1e-12


def test_commutant_residual_identity_flux_exact():
    model = build_aklt_model(0.6)
    t = build_transfer(model.lpdo, model.action("R_z").u)
    assert commutant_residual(t, VirtualRep("1", np.eye(2))) == 0.0


def test_commutant_residual_random_flux_large():
    rng = np.random.default_rng(41)
    model = build_aklt_model(0.3)
    t = build_transfer(model.lpdo, model.action("R_z").u)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert commutant_residual(t, VirtualRep("rand", q)) > 1e-3


def test_ancilla_transfer_identity_matches_untwisted():
    model = build_aklt_model(0.7)
    ta = build_transfer(model.lpdo, np.eye(3), np.eye(4))
    np.testing.assert_allclose(ta, t1_expected(), atol=1e-14)


def test_build_transfer_rejects_wrong_insertion_shape():
    model = build_aklt_model(0.3)
    with pytest.raises(DimensionMismatchError):
        build_transfer(model.lpdo, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        build_transfer(model.lpdo, np.eye(3), np.eye(2))


def test_extracted_flux_commutes_for_all_elements():
    model = build_aklt_model(0.8)
    for g2 in model.group.labels:
        t = build_transfer(model.lpdo, model.action(g2).u)
        for g1 in model.group.labels:
            rep, _ = extract_virtual_rep(model.lpdo, model.action(g1))
            assert commutant_residual(t, rep) < 1e-12
