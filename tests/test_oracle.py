import itertools
from functools import reduce

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import oracle
from weaksym.errors import SizeGuardError
from weaksym.model import LpdoTensor, Model, aklt_tensor, build_aklt_model, spin1_operators
from weaksym.oracle import (
    apply_channel_exact,
    contract_full,
    density_from_state,
    expectation,
)
from weaksym.stringorder import string_order_series
from weaksym.symmetry import SymmetryAction, extract_virtual_rep
from weaksym.transfer import build_transfer, flux_operator
from weaksym.verify import generic_model_checks

OPS = spin1_operators()


def random_matrix(rng, n):
    """Complex Gaussian n x n matrix: neither unitary, Hermitian nor symmetric."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def single_ancilla_model():
    """The pure AKLT chain as an LPDO with one ancilla state: d=3, da=1, D=2."""
    aklt = build_aklt_model(0.0)
    actions = {
        g: SymmetryAction(element=g, u=act.u, ua=np.eye(1)) for g, act in aklt.actions.items()
    }
    return Model(lpdo=LpdoTensor(aklt_tensor().tensor[:, None]), group=aklt.group, actions=actions)


def dumb_purified_state(lpdo, seam, n_sites):
    """Index-by-index reimplementation of the ring contraction.

    Loops over every physical/ancilla configuration and takes the matrix
    trace directly; shares no code with contract_full.
    """
    a4 = lpdo.tensor
    d, da = a4.shape[0], a4.shape[1]
    state = np.zeros((d, da) * n_sites, dtype=complex)
    for config in itertools.product(range(d), range(da), repeat=n_sites):
        m = np.asarray(seam, dtype=complex)
        for site in range(n_sites):
            i, a = config[2 * site], config[2 * site + 1]
            m = m @ a4[i, a]
        state[config] = np.trace(m)
    return state


def test_contract_full_against_dumb_loop():
    """AKLT with an identity seam, and the D=6 generic model with a random seam;
    N=1 is the ring closed on a single site."""
    generic = generic_model(0.3)[0].lpdo
    seam = random_matrix(np.random.default_rng(11), generic.bond_dim)
    for lpdo, s in ((build_aklt_model(0.3).lpdo, np.eye(2)), (generic, seam)):
        for n_sites in (1, 2, 3):
            fast = contract_full(lpdo, s, n_sites)
            slow = dumb_purified_state(lpdo, s, n_sites)
            assert fast.shape == (lpdo.d, lpdo.da) * n_sites
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)


def test_pure_limit_density_equals_mps_density():
    """p=0: the purified state reduces to the bare MPS on the a=0 slice."""
    model = build_aklt_model(0.0)
    state = contract_full(model.lpdo, np.eye(2), 3)
    rho = density_from_state(state, 3).matrix

    a3 = aklt_tensor().tensor
    psi = np.zeros((3, 3, 3), dtype=complex)
    for i, j, k in itertools.product(range(3), repeat=3):
        psi[i, j, k] = np.trace(a3[i] @ a3[j] @ a3[k])
    psi = psi.reshape(-1)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_norm_equals_transfer_trace():
    for p in (0.0, 0.3, 0.8):
        model = build_aklt_model(p)
        for n in (2, 3, 4):
            state = contract_full(model.lpdo, np.eye(2), n)
            norm = np.vdot(state, state).real
            t1 = build_transfer(model.lpdo, np.eye(3))
            assert abs(norm - np.trace(np.linalg.matrix_power(t1, n)).real) < 1e-12


def test_density_is_a_density():
    model = build_aklt_model(0.3)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 4), 4)
    herm, low = rho.validate()
    assert herm < 1e-13
    assert low > -1e-12
    assert abs(np.trace(rho.matrix) - (1 + 3 * (-1 / 3) ** 4)) < 1e-12


def test_density_is_weakly_symmetric():
    """The decohered state commutes with every global rotation."""
    model = build_aklt_model(0.3)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 4), 4).matrix
    for g in ("R_x", "R_y", "R_z"):
        u = np.kron(np.kron(np.kron(OPS[g], OPS[g]), OPS[g]), OPS[g])
        assert np.max(np.abs(u @ rho - rho @ u)) < 1e-11


def test_channel_application_matches_purified_contraction():
    """Dilating then contracting equals applying the channel densely."""
    pure = build_aklt_model(0.0)
    noisy = build_aklt_model(0.3)
    rho0 = density_from_state(contract_full(pure.lpdo, np.eye(2), 4), 4)
    rho_channel = apply_channel_exact(rho0, noisy.channel)
    rho_lpdo = density_from_state(contract_full(noisy.lpdo, np.eye(2), 4), 4)
    assert np.max(np.abs(rho_channel.matrix - rho_lpdo.matrix)) < 1e-12


def test_channel_preserves_trace():
    model = build_aklt_model(0.7)
    pure = build_aklt_model(0.0)
    rho0 = density_from_state(contract_full(pure.lpdo, np.eye(2), 4), 4)
    rho1 = apply_channel_exact(rho0, model.channel)
    assert abs(np.trace(rho1.matrix) - np.trace(rho0.matrix)) < 1e-12


def test_expectation_all_identity_is_trace():
    model = build_aklt_model(0.4)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 3), 3)
    assert abs(expectation(rho, [np.eye(3)] * 3) - np.trace(rho.matrix)) < 1e-13


def test_expectation_against_definition():
    """Non-Hermitian site operators on a complex density: a dropped transpose fails."""
    rng = np.random.default_rng(5)
    generic = generic_model(0.3)[0].lpdo
    seam = random_matrix(rng, generic.bond_dim)
    rho = density_from_state(contract_full(generic, seam, 2), 2)
    ops = [random_matrix(rng, 3) for _ in range(2)]
    expected = np.trace(rho.matrix @ reduce(np.kron, ops))
    assert abs(expectation(rho, ops) - expected) <= 1e-12 * abs(expected)


def test_uniform_charge_matches_transfer():
    model = build_aklt_model(0.2)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 5), 5)
    uz = model.action("R_z").u
    tz = build_transfer(model.lpdo, uz)
    dense = expectation(rho, [uz] * 5)
    assert abs(dense - np.trace(np.linalg.matrix_power(tz, 5))) < 1e-10


def test_flux_inserted_numerator_matches_transfer():
    model = build_aklt_model(0.3)
    rep, _ = extract_virtual_rep(model.lpdo, model.action("R_z"))
    state = contract_full(model.lpdo, rep.v, 4)
    rho = density_from_state(state, 4)
    uz = model.action("R_z").u
    tz = build_transfer(model.lpdo, uz)
    dense = expectation(rho, [uz] * 4)
    twisted = np.trace(flux_operator(rep.v) @ np.linalg.matrix_power(tz, 4))
    assert abs(dense - twisted) < 1e-11


def test_string_matches_ring_contraction():
    model = build_aklt_model(0.3)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 4), 4)
    uz = model.action("R_z").u
    sy = OPS["S_y"]
    dense = expectation(rho, [sy, uz, sy, np.eye(3)])
    ring = string_order_series(model, "R_z", sy, sy, [1], n_sites=4).raw[0]
    assert abs(dense - ring) < 1e-10


def test_size_guard(monkeypatch):
    """Every dense array is bounded. At d=3, da=1, D=2 and N=3 the state has
    27 entries, the open-bond block 108, the density and operator matrices
    729; each is refused on its own."""
    model = build_aklt_model(0.3)
    with pytest.raises(SizeGuardError):
        contract_full(model.lpdo, np.eye(2), 7)
    lpdo = single_ancilla_model().lpdo
    state = contract_full(lpdo, np.eye(2), 3)
    rho = density_from_state(state, 3)
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 200)
    contract_full(lpdo, np.eye(2), 3)
    with pytest.raises(SizeGuardError):
        density_from_state(state, 3)
    with pytest.raises(SizeGuardError):
        expectation(rho, [np.eye(3)] * 3)
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 100)
    with pytest.raises(SizeGuardError):
        contract_full(lpdo, np.eye(2), 3)


def test_generic_checks_skip_oracle_beyond_guard(monkeypatch):
    model = single_ancilla_model()
    (row,) = [r for section, r in generic_model_checks(model) if section == "oracle"]
    assert row.passed and row.detail == ""
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 200)
    (row,) = [r for section, r in generic_model_checks(model) if section == "oracle"]
    assert row.passed and row.detail.startswith("skipped: ")
    assert "density matrix" in row.detail


def test_density_validate_rejects_broken_matrix():
    model = build_aklt_model(0.3)
    rho = density_from_state(contract_full(model.lpdo, np.eye(2), 2), 2)
    rho.matrix[0, 1] += 1.0
    with pytest.raises(ValueError):
        rho.validate()
