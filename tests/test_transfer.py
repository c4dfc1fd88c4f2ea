import numpy as np
import pytest

from test_numerics import power_trace
from test_stringorder import flip_model
from weaksym.errors import DimensionMismatchError, ValidationError
from weaksym.model import LpdoTensor, build_aklt_model
from weaksym.numerics import PAIRING_TOL, spectral_decompose
from weaksym.oracle import expectation
from weaksym.response import flux_response
from weaksym.symmetry import VirtualRep, extract_virtual_rep
from weaksym.transfer import (
    build_transfer,
    commutant_residual,
    flux_operator,
    symmetry_gap,
    transfer_spectrum,
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


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.75, 1.0])
def test_bond_two_transfer_is_the_einsum_bit_for_bit(p):
    """At D = 2 every T(u, None), T(u, ua) and T(1, ua) of a bare tensor with the
    bytes of an AKLT member is the einsum's array.

    D <= 2 keeps this contraction, which the family's part tensors and D <= 2
    model files take; a matrix-product build differs in the last bits. (A member
    itself gets its family's combination, tests/test_stacks.py.)
    """
    model = build_aklt_model(p)
    lpdo = LpdoTensor(model.lpdo.tensor)
    a4 = lpdo.tensor
    eye = np.eye(3, dtype=complex)
    for g in model.group.labels:
        act = model.action(g)
        for op, op_a in ((act.u, None), (act.u, act.ua), (eye, act.ua)):
            if op_a is None:
                t = np.einsum("ji,jamn,iapq->mpnq", op, a4.conj(), a4)
            else:
                t = np.einsum("ji,ba,jbmn,iapq->mpnq", op, op_a, a4.conj(), a4)
            assert np.array_equal(build_transfer(lpdo, op, op_a), t.reshape(4, 4))


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
    ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(5)]
    for o, rhs in zip(ops, expectation(model.lpdo, np.eye(2), [[o] for o in ops])):
        lhs = np.trace(build_transfer(model.lpdo, o))
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
    certified = [spec.pairing_residual < PAIRING_TOL and not spec.near_defective for spec in spectra]
    for spec, ok in zip(spectra, certified):
        gram = spec.left_vectors @ spec.right_vectors
        assert spec.pairing_residual == np.max(np.abs(gram - np.eye(len(gram))))
        if ok:
            assert spec.pairing_residual < 1e-10
    assert sum(certified) == len(spectra) - 1
    assert not certified[-1]


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
        assert abs(power_trace(t1, n) - (1 + 3 * (-1 / 3) ** n)) < 1e-12
    # leading eigenvalue 1 for the untwisted matrix: the charge does not decay
    assert abs(-np.log(abs(twisted_spectrum(model, "1").eigenvalues[0]))) < 1e-12


def test_uniform_charge_single_site_is_transfer_trace():
    p = 0.45
    model = build_aklt_model(p)
    value = power_trace(build_transfer(model.lpdo, model.action("R_z").u), 1)
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


@pytest.mark.parametrize("dv", [1, 2, 6, 12])
def test_flux_operator_is_kron_byte_for_byte(dv):
    """Signed zeros in either part of V, and whole -0-0j entries, keep their signs."""
    rng = np.random.default_rng(dv)
    v = rng.normal(size=(dv, dv)) + 1j * rng.normal(size=(dv, dv))
    v.real[rng.random((dv, dv)) < 0.3] = -0.0
    v.imag[rng.random((dv, dv)) < 0.3] = -0.0
    v[rng.random((dv, dv)) < 0.2] = complex(-0.0, -0.0)
    v[0, 0] = complex(-0.0, 0.0)
    f = flux_operator(v)
    assert f.shape == (dv * dv, dv * dv)
    assert f.tobytes() == np.kron(v.conj(), v).tobytes()


def test_flux_operator_rejects_non_square_or_non_finite():
    with pytest.raises(DimensionMismatchError):
        flux_operator(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        flux_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        flux_response(build_aklt_model(0.3), np.ones((2, 3)), "R_z")


def test_commutant_residual_symmetry_flux():
    sx = VirtualRep("R_x", np.array([[0.0, 1.0], [1.0, 0.0]]))
    for p in P_GRID:
        model = build_aklt_model(p)
        t = build_transfer(model.lpdo, model.action("R_z").u)
        assert commutant_residual(t, sx) < 1e-12


@pytest.mark.parametrize("dv", [3, 6])
def test_commutant_residual_matches_kron_definition(dv):
    """A complex map and a non-unitary flux: a swapped leg pair or a missing conjugate fails."""
    rng = np.random.default_rng(dv)
    n = dv * dv
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = rng.normal(size=(dv, dv)) + 1j * rng.normal(size=(dv, dv))
    f = np.kron(v.conj(), v)
    expected = np.linalg.norm(f @ t - t @ f)
    assert abs(commutant_residual(t, VirtualRep("rand", v)) - expected) <= 1e-12 * expected
    with pytest.raises(DimensionMismatchError):
        commutant_residual(t, VirtualRep("rand", v[:-1, :-1]))


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


def test_one_eigenvalue_map_has_an_infinite_gap():
    assert symmetry_gap(transfer_spectrum(flip_model().lpdo, np.eye(2))) == float("inf")


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
