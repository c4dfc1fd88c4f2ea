import itertools
from functools import reduce

import numpy as np
import pytest

from dense_reference import apply_channel, density, purified_state
from test_generic import generic_model
from weaksym import oracle
from weaksym.errors import DimensionMismatchError, SizeGuardError, ValidationError
from weaksym.model import LpdoTensor, Model, aklt_tensor, build_aklt_model, spin1_operators
from weaksym.oracle import expectation
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
    return Model(lpdo=LpdoTensor(aklt_tensor()[:, None]), group=aklt.group, actions=actions)


def random_lpdo(rng, d=2, da=2, bond=3):
    """Complex Gaussian LPDO tensor with no symmetry: small enough for the dumb loop at N=5."""
    return LpdoTensor(rng.normal(size=(d, da, bond, bond)) + 1j * rng.normal(size=(d, da, bond, bond)))


def kron_expectation(rho, ops):
    """Tr[rho (op_1 kron ... kron op_N)] by its definition, on the dense density."""
    return np.trace(rho @ reduce(np.kron, ops))


def dumb_purified_state(lpdo, seam, n_sites):
    """Index-by-index reimplementation of the ring contraction.

    Loops over every physical/ancilla configuration and takes the matrix
    trace directly; shares no code with the oracle's ring.
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
    """The oracle's ring, read off as the state vector: AKLT with an identity
    seam, and the D=6 generic model with a random seam; N=1 is the ring closed
    on a single site."""
    generic = generic_model(0.3)[0].lpdo
    seam = random_matrix(np.random.default_rng(11), generic.bond_dim)
    for lpdo, s in ((build_aklt_model(0.3).lpdo, np.eye(2)), (generic, seam)):
        for n_sites in (1, 2, 3):
            fast = purified_state(lpdo, s, n_sites)
            slow = dumb_purified_state(lpdo, s, n_sites)
            assert fast.shape == (lpdo.d, lpdo.da) * n_sites
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n_sites", [4, 5])
def test_contract_full_against_dumb_loop_on_two_halves(n_sites):
    """Rings long enough that both halves hold sites: the second half is as
    long as the first at N=4 and one site shorter at N=5."""
    rng = np.random.default_rng(13)
    lpdo = random_lpdo(rng)
    seam = random_matrix(rng, lpdo.bond_dim)
    fast = purified_state(lpdo, seam, n_sites)
    slow = dumb_purified_state(lpdo, seam, n_sites)
    assert fast.shape == (lpdo.d, lpdo.da) * n_sites
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_pure_limit_density_equals_mps_density():
    """p=0: the purified state reduces to the bare MPS on the a=0 slice."""
    model = build_aklt_model(0.0)
    rho = density(purified_state(model.lpdo, np.eye(2), 3), 3)

    a3 = aklt_tensor()
    psi = np.zeros((3, 3, 3), dtype=complex)
    for i, j, k in itertools.product(range(3), repeat=3):
        psi[i, j, k] = np.trace(a3[i] @ a3[j] @ a3[k])
    psi = psi.reshape(-1)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_norm_equals_transfer_trace():
    for p in (0.0, 0.3, 0.8):
        model = build_aklt_model(p)
        for n in (2, 3, 4):
            state = purified_state(model.lpdo, np.eye(2), n)
            norm = np.vdot(state, state).real
            t1 = build_transfer(model.lpdo, np.eye(3))
            assert abs(norm - np.trace(np.linalg.matrix_power(t1, n)).real) < 1e-12


def test_density_is_a_density():
    model = build_aklt_model(0.3)
    rho = density(purified_state(model.lpdo, np.eye(2), 4), 4)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-12
    assert abs(np.trace(rho) - (1 + 3 * (-1 / 3) ** 4)) < 1e-12


def test_density_is_weakly_symmetric():
    """The decohered state commutes with every global rotation."""
    model = build_aklt_model(0.3)
    rho = density(purified_state(model.lpdo, np.eye(2), 4), 4)
    for g in ("R_x", "R_y", "R_z"):
        u = np.kron(np.kron(np.kron(OPS[g], OPS[g]), OPS[g]), OPS[g])
        assert np.max(np.abs(u @ rho - rho @ u)) < 1e-11


def test_channel_application_matches_purified_contraction():
    """Dilating then contracting equals applying the channel densely."""
    pure = build_aklt_model(0.0)
    noisy = build_aklt_model(0.3)
    rho0 = density(purified_state(pure.lpdo, np.eye(2), 4), 4)
    rho_channel = apply_channel(rho0, 4, noisy.channel.kraus)
    rho_lpdo = density(purified_state(noisy.lpdo, np.eye(2), 4), 4)
    assert np.max(np.abs(rho_channel - rho_lpdo)) < 1e-12


def test_channel_preserves_trace():
    model = build_aklt_model(0.7)
    pure = build_aklt_model(0.0)
    rho0 = density(purified_state(pure.lpdo, np.eye(2), 4), 4)
    rho1 = apply_channel(rho0, 4, model.channel.kraus)
    assert abs(np.trace(rho1) - np.trace(rho0)) < 1e-12


def test_expectation_all_identity_is_trace():
    model = build_aklt_model(0.4)
    rho = density(purified_state(model.lpdo, np.eye(2), 3), 3)
    (value,) = expectation(model.lpdo, np.eye(2), [[np.eye(3)] * 3])
    assert abs(value - np.trace(rho)) < 1e-13


def test_expectation_against_definition():
    """Non-Hermitian site operators on the D=6 generic model with a complex
    seam, against Tr[rho F] with the Kronecker product F at N = 1..4: a
    dropped transpose or conjugate fails."""
    rng = np.random.default_rng(5)
    generic = generic_model(0.3)[0].lpdo
    seam = random_matrix(rng, generic.bond_dim)
    for n_sites in (1, 2, 3, 4):
        rho = density(purified_state(generic, seam, n_sites), n_sites)
        op_lists = [[random_matrix(rng, 3) for _ in range(n_sites)] for _ in range(3)]
        values = expectation(generic, seam, op_lists)
        assert values.shape == (3,)
        for ops, value in zip(op_lists, values):
            expected = kron_expectation(rho, ops)
            assert abs(value - expected) <= 1e-12 * abs(expected)


def _folded(lpdo, seam, op_lists):
    """(L0, R0) of the ring and the (L, R) of each operator-folded ring, cut alike."""
    a4 = lpdo.tensor
    flat = a4.reshape(lpdo.d, -1)
    site = oracle._site_matrix(a4)
    folded = [
        oracle._ring_halves(seam, [oracle._site_matrix((op @ flat).reshape(a4.shape)) for op in ops])
        for ops in op_lists
    ]
    return oracle._ring_halves(seam, [site] * len(op_lists[0])), folded


def overlaps_through_the_state(lpdo, seam, op_lists):
    """<psi|phi> with psi = L0 @ R0 formed and phi = L @ R not written: sum_st conj(psi_st) L_sk R_kt."""
    _, folded = _folded(lpdo, seam, op_lists)
    n_sites = len(op_lists[0])
    psi = purified_state(lpdo, seam, n_sites)
    ket = psi.reshape((lpdo.d * lpdo.da) ** ((n_sites + 1) // 2), -1).T
    return np.array([np.vdot(ket @ left.conj(), right.T) for left, right in folded])


def overlaps_at_the_cuts(lpdo, seam, op_lists):
    """<psi|phi> = sum (L0^H L) o (conj(R0) R^T) over the bond pairs at the two cuts."""
    (left0, right0), folded = _folded(lpdo, seam, op_lists)
    return np.array([np.sum((left0.conj().T @ left) * (right0.conj() @ right.T)) for left, right in folded])


@pytest.mark.parametrize(
    "bond, n_sites, formula",
    [
        (2, 3, overlaps_at_the_cuts),
        (2, 4, overlaps_at_the_cuts),
        (2, 5, overlaps_at_the_cuts),
        (6, 3, overlaps_through_the_state),
        (12, 3, overlaps_through_the_state),
    ],
)
def test_expectation_on_each_branch(bond, n_sites, formula):
    """AKLT rings of 3 to 5 sites take the overlap at the cuts, generic D = 6
    and 12 rings of 3 sites through the state: (s_left + s_right) D^2 against
    s_left s_right. Each value matches Tr[rho F] with a complex seam and
    non-Hermitian operators, and equals its branch's formula byte for byte."""
    rng = np.random.default_rng(bond * 10 + n_sites)
    lpdo = build_aklt_model(0.3).lpdo if bond == 2 else generic_model(0.3, bond=bond // 2)[0].lpdo
    seam = random_matrix(rng, bond)
    op_lists = [[random_matrix(rng, lpdo.d) for _ in range(n_sites)] for _ in range(3)]
    values = expectation(lpdo, seam, op_lists)
    rho = density(purified_state(lpdo, seam, n_sites), n_sites)
    for ops, value in zip(op_lists, values):
        expected = kron_expectation(rho, ops)
        assert abs(value - expected) <= 1e-13 * abs(expected)
    assert np.array_equal(values, formula(lpdo, seam, op_lists))


def test_expectation_refuses_mismatched_lists():
    model = build_aklt_model(0.3)
    with pytest.raises(DimensionMismatchError):
        expectation(model.lpdo, np.eye(2), [[np.eye(3)] * 3, [np.eye(3)] * 2])
    with pytest.raises(DimensionMismatchError):
        expectation(model.lpdo, np.eye(2), [[np.eye(2)] * 3])
    with pytest.raises(ValidationError, match="op_lists is empty"):
        expectation(model.lpdo, np.eye(2), [])


def test_state_and_density_refusals():
    """The ring's refusals, met through expectation: no site, and a seam that
    does not fit the bond."""
    model = build_aklt_model(0.3)
    with pytest.raises(ValidationError, match="^a ring needs at least 1 site, got N=0$"):
        expectation(model.lpdo, np.eye(2), [[]])
    with pytest.raises(DimensionMismatchError, match="seam is 3x3, tensor has D=2"):
        expectation(model.lpdo, np.eye(3), [[np.eye(3)] * 2])


def test_uniform_charge_matches_transfer():
    model = build_aklt_model(0.2)
    uz = model.action("R_z").u
    tz = build_transfer(model.lpdo, uz)
    (dense,) = expectation(model.lpdo, np.eye(2), [[uz] * 5])
    assert abs(dense - np.trace(np.linalg.matrix_power(tz, 5))) < 1e-10


def test_flux_inserted_numerator_matches_transfer():
    model = build_aklt_model(0.3)
    rep, _ = extract_virtual_rep(model.lpdo, model.action("R_z"))
    uz = model.action("R_z").u
    tz = build_transfer(model.lpdo, uz)
    (dense,) = expectation(model.lpdo, rep.v, [[uz] * 4])
    twisted = np.trace(flux_operator(rep.v) @ np.linalg.matrix_power(tz, 4))
    assert abs(dense - twisted) < 1e-11


def test_string_matches_ring_contraction():
    model = build_aklt_model(0.3)
    uz = model.action("R_z").u
    sy = OPS["S_y"]
    (dense,) = expectation(model.lpdo, np.eye(2), [[sy, uz, sy, np.eye(3)]])
    ring = string_order_series(model, "R_z", sy, sy, [1], n_sites=4).raw[0]
    assert abs(dense - ring) < 1e-10


def test_size_guard(monkeypatch):
    """Every dense array is bounded. At d=3, da=1, D=2 and N=3 the ring's
    guard (d*da)^N * D^2 is 108 entries: expectations run under a guard of
    200 and are refused under 100. The default guard refuses the 7-site AKLT
    ring, 9^7 * 4 entries."""
    model = build_aklt_model(0.3)
    with pytest.raises(SizeGuardError):
        expectation(model.lpdo, np.eye(2), [[np.eye(3)] * 7])
    lpdo = single_ancilla_model().lpdo
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 200)
    expectation(lpdo, np.eye(2), [[np.eye(3)] * 3])
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 100)
    with pytest.raises(SizeGuardError):
        expectation(lpdo, np.eye(2), [[np.eye(3)] * 3])


def test_generic_checks_skip_oracle_beyond_guard(monkeypatch):
    """The oracle line needs the ring (108 entries here), not the density matrix (729)."""
    model = single_ancilla_model()
    (row,) = [r for section, r in generic_model_checks(model) if section == "oracle"]
    assert row.passed and row.detail == ""
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 200)
    (row,) = [r for section, r in generic_model_checks(model) if section == "oracle"]
    assert row.passed and row.detail == ""
    monkeypatch.setattr(oracle, "MAX_AMPLITUDES", 100)
    (row,) = [r for section, r in generic_model_checks(model) if section == "oracle"]
    assert row.passed and row.detail.startswith("skipped: ")
    assert "(d*da)^N * D^2" in row.detail


@pytest.fixture
def site_matrices(monkeypatch):
    """A list that grows by one entry per ``oracle._site_matrix`` call."""
    calls = []
    site_matrix = oracle._site_matrix

    def counting(a4):
        calls.append(a4.shape)
        return site_matrix(a4)

    monkeypatch.setattr(oracle, "_site_matrix", counting)
    return calls


def test_a_repeated_operator_object_is_folded_once(site_matrices):
    """Lists that repeat one object give the values of lists of equal copies,
    and of one call per list, bit for bit; only the three distinct objects
    (and the bare ring) are folded."""
    model = build_aklt_model(0.3)
    lpdo = model.lpdo
    uz, sy, eye3 = model.action("R_z").u, OPS["S_y"], np.eye(3)
    shared = [[sy, uz, sy, eye3], [uz, uz, uz, uz], [eye3, sy, uz, sy]]
    values = expectation(lpdo, np.eye(2), shared)
    assert len(site_matrices) == 1 + 3
    copies = [[op.copy() for op in ops] for ops in shared]
    assert values.tobytes() == expectation(lpdo, np.eye(2), copies).tobytes()
    alone = np.concatenate([expectation(lpdo, np.eye(2), [ops]) for ops in shared])
    assert values.tobytes() == alone.tobytes()
    # operators made on the fly are freed as soon as they are read, unless
    # the call holds them: a freed one's id may come back for the next
    generated = ((np.array(op) for op in ops) for ops in shared)
    assert values.tobytes() == expectation(lpdo, np.eye(2), generated).tobytes()


def test_operators_are_checked_in_order_before_the_guard(site_matrices):
    """A bad operator in the last list is refused though its objects repeat,
    and a ring over the guard is refused before any operator is folded."""
    lpdo = build_aklt_model(0.3).lpdo
    eye3, bad = np.eye(3), np.eye(3)
    bad[0, 0] = np.inf
    with pytest.raises(DimensionMismatchError, match="op is 2x2, tensor has d=3"):
        expectation(lpdo, np.eye(2), [[eye3] * 3, [eye3] * 3, [eye3, eye3, np.eye(2)]])
    with pytest.raises(ValidationError, match="op: entries must be finite"):
        expectation(lpdo, np.eye(2), [[eye3] * 7, [eye3] * 6 + [bad]])
    with pytest.raises(SizeGuardError):
        expectation(lpdo, np.eye(2), [[eye3] * 7, [OPS["S_y"]] * 7])
    assert site_matrices == []
