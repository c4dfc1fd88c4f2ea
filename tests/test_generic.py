"""Generic-model tests at bond dimension D = 2, 6 and 12 (the transfer-map
definition test runs at D = 4, 6 and 12).

The model is the decohered AKLT LPDO tensored with a seeded random
injective MPS B on an extra ancilla factor,

    A'[i, (a, s), (x, g), (y, h)] = A[i, a, x, y] B[s, g, h],

then put in a random unitary gauge W A' W^dag on the virtual legs. The
actions are u_g and ua_g (x) 1, so no symmetry acts on B. Every twisted
transfer map is similar to T_AKLT (x) E_B, which leaves the AKLT responses
and the conservation law unchanged while exercising D > 2 and the (u, ua)
insertions.

The three bond dimensions take the three routes to a spectrum: D=2 the
einsum-built map and a dense eig, D=6 the matrix-product map and a dense eig,
D=12 the matrix-product map and the Krylov iteration of a partial spectrum.
Test ids without a suffix are D=6.
"""

import numpy as np
import pytest

from weaksym import numerics
from weaksym.errors import NearDefectiveError, UndefinedExponentError
from weaksym.model import LpdoTensor, Model, build_aklt_model, spin1_operators
from weaksym.response import (
    _leading_pair,
    conservation_check,
    finite_response,
    flux_response,
    thermo_response,
)
from weaksym.stringorder import LIVE_TOL, decay_channel
from weaksym.symmetry import GroupTable, SymmetryAction, extract_virtual_rep, verify_transformation_law
from weaksym.transfer import build_transfer, symmetry_gap, transfer_spectrum, twisted_spectrum
from weaksym.verify import aklt_tz_eigenvalues

DR = 2  # physical dimension of the random factor, an extra ancilla leg
BOND = 3  # its bond dimension; the model has D = 2 * BOND = 6
# Bond dimensions of the random factor the invariance tests run at: D = 6, 2, 12.
BONDS = (BOND, 1, 6)


def at_bonds(argnames, cases):
    """Parametrize ``argnames`` over ``cases`` and the random factor's bond over ``BONDS``.

    The D=6 ids are the plain case ids; the others end in ``-D2`` and ``-D12``.
    """
    params = []
    for bond in BONDS:
        for case in cases:
            case = case if isinstance(case, tuple) else (case,)
            suffix = "" if bond == BOND else f"-D{2 * bond}"
            params.append(pytest.param(*case, bond, id="-".join(map(str, case)) + suffix))
    return pytest.mark.parametrize(f"{argnames}, bond", params)


def random_matrix(rng, n):
    """Seeded complex Gaussian n x n matrix: neither Hermitian nor unitary."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_injective_mps(rng, bond=BOND):
    """Complex Gaussian B[s, g, h], scaled so its transfer map has leading eigenvalue 1.

    Redrawn until the map is gapped: second modulus below 0.9 of the first,
    or no second eigenvalue at all (bond 1).
    """
    while True:
        b = rng.normal(size=(DR, bond, bond)) + 1j * rng.normal(size=(DR, bond, bond))
        mods = np.sort(np.abs(np.linalg.eigvals(random_factor_transfer(b))))[::-1]
        if len(mods) < 2 or mods[1] < 0.9 * mods[0]:
            return b / np.sqrt(mods[0])


def random_factor_transfer(b):
    """sum_s B_s (x) conj(B_s): the transfer map of the random factor."""
    return sum(np.kron(x, x.conj()) for x in b)


def generic_model(p, seed=7, bond=BOND):
    """(generic model, AKLT model, gauge W) at noise rate p and D = 2 * bond.

    The gauge makes V_g = W (V_g^AKLT (x) 1) W^dag neither symmetric nor
    antisymmetric, so a transposed representation cannot pass for V_g.
    """
    aklt = build_aklt_model(p)
    rng = np.random.default_rng(seed)
    b = random_injective_mps(rng, bond)
    d, da, dv, _ = aklt.lpdo.tensor.shape
    tensor = np.einsum("iaxy,sgh->iasxgyh", aklt.lpdo.tensor, b).reshape(d, da * DR, dv * bond, dv * bond)
    w, _ = np.linalg.qr(random_matrix(rng, dv * bond))
    tensor = w @ tensor @ w.conj().T
    actions = {
        g: SymmetryAction(element=g, u=act.u, ua=np.kron(act.ua, np.eye(DR)))
        for g, act in aklt.actions.items()
    }
    return Model(lpdo=LpdoTensor(tensor), group=aklt.group, actions=actions), aklt, w


def transfer_by_definition(a4, op, op_a):
    """sum O[j,i] O_a[b,a] kron(conj(A[j,b]), A[i,a]), term by term."""
    d, da, dv, _ = a4.shape
    t = np.zeros((dv * dv, dv * dv), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(da):
                for b in range(da):
                    t += op[j, i] * op_a[b, a] * np.kron(a4[j, b].conj(), a4[i, a])
    return t


@pytest.mark.parametrize("g", ["R_x", "R_z"])
def test_build_transfer_matches_definition(g):
    """T(op, op_a) is its term-by-term sum at D = 4, 6 and 12.

    Next to the unitary actions, seeded random insertions that are neither
    Hermitian nor unitary catch a transposed or conjugated op or op_a and
    swapped bra and ket layers.
    """
    rng = np.random.default_rng(11)
    for bond in (2, 3, 6):
        model, _, _ = generic_model(0.3, bond=bond)
        lpdo = model.lpdo
        act = model.action(g)
        assert lpdo.bond_dim == 2 * bond
        eye, eye_a = np.eye(lpdo.d), np.eye(lpdo.da)
        op, op_a = random_matrix(rng, lpdo.d), random_matrix(rng, lpdo.da)
        pairs = ((eye, eye_a), (act.u, eye_a), (eye, act.ua), (act.u, act.ua),
                 (op, eye_a), (eye, op_a), (op, op_a), (act.u, op_a))
        for o, o_a in pairs:
            expected = transfer_by_definition(lpdo.tensor, o, o_a)
            np.testing.assert_allclose(build_transfer(lpdo, o, o_a), expected, atol=1e-13)
        for o in (act.u, op):
            expected = transfer_by_definition(lpdo.tensor, o, eye_a)
            np.testing.assert_allclose(build_transfer(lpdo, o), expected, atol=1e-13)


@pytest.mark.parametrize("bond", BONDS, ids=lambda bond: f"D{2 * bond}")
def test_bonds_take_the_three_routes_to_a_spectrum(bond):
    """D=2 builds T by einsum, D=6 by one product; both decompose it in full. D=12 is partial."""
    model, _, _ = generic_model(0.3, bond=bond)
    spectrum = twisted_spectrum(model, "R_z")
    assert spectrum.complete == (model.lpdo.bond_dim**2 <= numerics.DENSE_MAX_ROWS)
    assert len(spectrum.eigenvalues) >= 2


@at_bonds("p", [0.2, 0.8])
def test_extracted_reps_satisfy_push_through(p, bond):
    model, aklt, w = generic_model(p, bond=bond)
    for g in model.group.labels:
        act = model.action(g)
        rep, theta = extract_virtual_rep(model.lpdo, act)
        residual = verify_transformation_law(model.lpdo, act, rep, theta=theta)
        assert residual < 1e-8
        assert rep.residual == pytest.approx(residual, abs=1e-14)
        # V_g = W (V_g^AKLT (x) 1) W^dag up to a phase: the symmetry does not touch B
        v_aklt = extract_virtual_rep(aklt.lpdo, aklt.action(g))[0].v
        expected = w @ np.kron(v_aklt, np.eye(bond)) @ w.conj().T
        overlap = np.trace(rep.v.conj().T @ expected) / model.lpdo.bond_dim
        assert abs(abs(overlap) - 1) < 1e-8


@at_bonds("p", [0.2, 0.8])
def test_conservation_law(p, bond):
    """All four values of the conservation check are the AKLT ones."""
    model, aklt, _ = generic_model(p, bond=bond)
    for g1 in model.group.labels:
        for g2 in ("R_x", "R_y", "R_z"):
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            _, total_a, physical_a, ancilla_a = conservation_check(aklt, g1, g2)
            assert residual <= 1e-8
            assert abs(total - total_a) <= 1e-10
            assert abs(physical.value - physical_a.value) <= 1e-10
            assert abs(ancilla.value - ancilla_a.value) <= 1e-10


@at_bonds("p, q_yz", [(0.2, -1.0), (0.8, 1.0)])
def test_thermo_response_reproduces_aklt(p, q_yz, bond):
    model, _, _ = generic_model(p, bond=bond)
    assert abs(thermo_response(model, "R_x", "R_z").value - (-1.0)) < 1e-8
    res = thermo_response(model, "R_y", "R_z")
    assert abs(res.value - q_yz) < 1e-8
    assert res.valid and res.snapped is not None
    # the ancilla carries the rest of the cocycle -1
    assert abs(conservation_check(model, "R_y", "R_z")[3].value - (-q_yz)) < 1e-8


@at_bonds("p", [0.2, 0.3, 0.75, 0.8])
def test_rz_gap_is_the_closed_form(p, bond):
    """T(R_z) is similar to T_AKLT(R_z) (x) E_B: its moduli are |lambda_i| |mu_j|."""
    rng = np.random.default_rng(7)
    mu = np.linalg.eigvals(random_factor_transfer(random_injective_mps(rng, bond)))
    moduli = np.sort(np.outer(np.abs(aklt_tz_eigenvalues(p)), np.abs(mu)).ravel())[::-1]
    model, _, _ = generic_model(p, bond=bond)
    assert abs(symmetry_gap(twisted_spectrum(model, "R_z")) - (moduli[0] - moduli[1])) <= 1e-10


@at_bonds("alpha, p", [(alpha, p) for p in (0.3, 0.75) for alpha in ("S_0", "S_x", "S_y")])
def test_decay_channel_reproduces_aklt(alpha, p, bond):
    """The random factor only adds dead channels: the exponent is the AKLT one."""
    model, aklt, _ = generic_model(p, bond=bond)
    chi = spin1_operators()[alpha]
    generic = decay_channel(model, "R_z", chi, chi)
    reference = decay_channel(aklt, "R_z", chi, chi)
    assert generic.xi == pytest.approx(reference.xi, rel=1e-10)
    assert generic.amplitude == pytest.approx(reference.amplitude, abs=1e-10)
    assert generic.order_one == reference.order_one


@at_bonds("p", [0.3, 0.75])
def test_outputs_invariant_under_an_ancilla_basis_change(p, bond):
    """A[i, a] -> sum_b W[a, b] A[i, b] with ua_g -> W ua_g W^dag changes no output."""
    model, _, _ = generic_model(p, bond=bond)
    rng = np.random.default_rng(13)
    da = model.lpdo.da
    w, _ = np.linalg.qr(rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)))
    rotated = Model(
        lpdo=LpdoTensor(np.einsum("ab,ibxy->iaxy", w, model.lpdo.tensor)),
        group=model.group,
        actions={
            g: SymmetryAction(element=g, u=act.u, ua=w @ act.ua @ w.conj().T)
            for g, act in model.actions.items()
        },
    )
    for g1 in model.group.labels:
        for g2 in model.group.labels:
            before, after = thermo_response(model, g1, g2), thermo_response(rotated, g1, g2)
            assert abs(after.value - before.value) <= 1e-10
            assert after.snapped == before.snapped
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            residual_r, total_r, physical_r, ancilla_r = conservation_check(rotated, g1, g2)
            assert abs(residual_r - residual) <= 1e-10
            assert abs(total_r - total) <= 1e-10
            assert abs(physical_r.value - physical.value) <= 1e-10
            assert abs(ancilla_r.value - ancilla.value) <= 1e-10
    gap = symmetry_gap(twisted_spectrum(model, "R_z"))
    assert abs(symmetry_gap(twisted_spectrum(rotated, "R_z")) - gap) <= 1e-10
    for alpha in ("S_0", "S_x", "S_y"):
        chi = spin1_operators()[alpha]
        before, after = decay_channel(model, "R_z", chi, chi), decay_channel(rotated, "R_z", chi, chi)
        assert abs(after.xi - before.xi) <= 1e-10
        assert abs(after.amplitude - before.amplitude) <= 1e-10
        assert after.order_one == before.order_one


def test_flux_response_ignores_a_phase_on_the_flux():
    for bond in BONDS:
        model, _, _ = generic_model(0.3, bond=bond)
        v = extract_virtual_rep(model.lpdo, model.action("R_y"))[0].v
        phase = np.exp(1j * np.random.default_rng(17).uniform(0, 2 * np.pi))
        value, gap = flux_response(model, v, "R_z")
        value_r, gap_r = flux_response(model, phase * v, "R_z")
        assert abs(value_r - value) <= 1e-10 and gap_r == gap


@pytest.mark.parametrize("bond", BONDS)
def test_finite_response_refuses_a_trace_cancelled_to_roundoff(bond):
    """Tr T(g2) is zero for the AKLT factor, but the gauged generic map leaves
    roundoff: at N=1 every response, and at p=1/2 the odd rings, are refused
    like the exactly cancelled built-in traces, while even rings stay valid."""
    model = generic_model(0.5, bond=bond)[0]
    for g1 in ("R_x", "R_y"):
        for n_sites in (1, 7):
            res = finite_response(model, g1, "R_z", n_sites)
            assert not res.valid and res.snapped is None and np.isnan(res.value.real)
        assert finite_response(model, g1, "R_z", 8).valid
    for p in (0.3, 0.8):
        model = generic_model(p, bond=bond)[0]
        for g1 in model.group.labels:
            assert not finite_response(model, g1, "R_z", 1).valid


def every_output(model):
    """Each response, conservation value, gap and decay channel the tests above compute, by name."""
    out = {}
    for g1 in model.group.labels:
        for g2 in model.group.labels:
            out[f"Q({g1}, {g2})"] = thermo_response(model, g1, g2).value
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            out[f"conservation({g1}, {g2})"] = (residual, total, physical.value, ancilla.value)
        out[f"gap({g1})"] = symmetry_gap(twisted_spectrum(model, g1))
    for alpha in ("S_0", "S_x", "S_y", "S_z"):
        chi = spin1_operators()[alpha]
        try:
            channel = decay_channel(model, "R_z", chi, chi)
            out[f"xi({alpha})"] = (channel.xi, channel.amplitude)
        except UndefinedExponentError:
            out[f"xi({alpha})"] = None
    return out


@pytest.mark.parametrize("p, bond", [(0.3, 6), (0.75, 8)], ids=["0.3-D12", "0.75-D16"])
def test_krylov_and_dense_paths_agree(p, bond, monkeypatch):
    """At D = 12 and 16 every output read off partial spectra is the dense one to 1e-10."""
    model, _, _ = generic_model(p, bond=bond)
    assert not twisted_spectrum(model, "1").complete
    krylov = every_output(model)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "DENSE_MAX_ROWS", (2 * bond) ** 2)
        model, _, _ = generic_model(p, bond=bond)
        assert twisted_spectrum(model, "1").complete
        dense = every_output(model)
    assert krylov.keys() == dense.keys()
    for name, value in dense.items():
        if value is None:
            assert krylov[name] is None, name
        else:
            np.testing.assert_allclose(krylov[name], value, rtol=0, atol=1e-10, err_msg=name)


def test_a_channel_between_the_two_live_thresholds(monkeypatch):
    """A partial spectrum's live threshold is the lower one: a channel between the two is live only there.

    At D=12 the three pairs the partial spectrum of T(1) holds have Wilkinson
    condition about 4, while the complete spectrum's eigenvector matrix has
    condition about 1e3. chi_l is tuned so that the leading channel of
    <chi_l T(1)^l chi_r> has an amplitude halfway between the two thresholds
    (on a log scale): the partial spectrum reports it as the order-one
    channel, the complete one calls it dead and reads the decay of the next
    live one.
    """
    model, _, _ = generic_model(0.3, bond=6)
    lpdo = model.lpdo
    rng = np.random.default_rng(3)
    eye, b, chi_r = np.eye(lpdo.d), random_matrix(rng, lpdo.d), random_matrix(rng, lpdo.d)
    partial = transfer_spectrum(lpdo, eye)
    complete = transfer_spectrum(lpdo, eye, complete=True)
    assert not partial.complete and len(partial.eigenvalues) == 3
    left, right, norm, _ = _leading_pair(lpdo, partial, "of T(1)")
    tr = build_transfer(lpdo, chi_r)

    def leading_amplitude(chi):  # linear in chi
        return (left @ build_transfer(lpdo, chi) @ right) * (left @ tr @ right) / norm / norm

    cancelled = b - leading_amplitude(b) / leading_amplitude(eye) * eye
    envelope = (
        np.linalg.norm(left) * np.linalg.norm(build_transfer(lpdo, cancelled)) * np.linalg.norm(tr)
        * np.linalg.norm(right) / abs(norm)
    )
    low = LIVE_TOL * envelope * partial.condition_estimate
    high = LIVE_TOL * envelope * complete.condition_estimate
    assert 100 * low < high
    target = np.sqrt(low * high)
    chi_l = cancelled + target / leading_amplitude(eye) * eye
    channel = decay_channel(model, "1", chi_l, chi_r)
    assert channel.order_one and abs(channel.xi) < 1e-12
    assert abs(channel.amplitude) == pytest.approx(target, rel=1e-3)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "DENSE_MAX_ROWS", lpdo.bond_dim**2)
        model, _, _ = generic_model(0.3, bond=6)
        channel = decay_channel(model, "1", chi_l, chi_r)
    assert not channel.order_one
    assert channel.xi == pytest.approx(np.log(3), abs=1e-10)  # the AKLT factor's -1/3
    assert 0 < channel.floor <= LIVE_TOL


def jordan_model(bond):
    """A Z2 model whose T(g) has a Jordan block at its top eigenvalue, with D = 2 * bond.

    The tensor is (1, N, N, N^T) on four physical states, N = [[0, 1], [0, 0]],
    times the random factor; g acts as u_g = diag(1, 1, -1, 1). On the first
    factor T(1) = 1 + 2 N(x)N + N^T(x)N^T is diagonalizable (1 +- sqrt(2), 1,
    1), while in T(g) the two N(x)N cancel and 1 + N^T(x)N^T is a Jordan block.
    """
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    a = np.stack([np.eye(2), n, n, n.T])[:, None]
    b = random_injective_mps(np.random.default_rng(5), bond)
    tensor = np.einsum("iaxy,sgh->iasxgyh", a, b).reshape(4, DR, 2 * bond, 2 * bond)
    group = GroupTable(("1", "g"), (("1", "g"), ("g", "1")))
    actions = {
        "1": SymmetryAction(element="1", u=np.eye(4), ua=np.eye(DR)),
        "g": SymmetryAction(element="g", u=np.diag([1.0, 1.0, -1.0, 1.0]), ua=np.eye(DR)),
    }
    return Model(lpdo=LpdoTensor(tensor), group=group, actions=actions)


@pytest.mark.parametrize("bond", [1, 6], ids=["D2", "D12"])
def test_a_jordan_block_is_refused(bond):
    """The leading-pair contraction and the decay channel both refuse to pair T(g)'s vectors.

    At D=12 the Arnoldi runs on T(g) and on its adjoint find different
    counts in the defective cluster, so the map gets the dense
    decomposition, which flags it.
    """
    model = jordan_model(bond)
    with pytest.raises(NearDefectiveError, match="for 'g' is near-defective"):
        flux_response(model, np.eye(model.lpdo.bond_dim), "g")
    with pytest.raises(NearDefectiveError, match=r"of T\(g\) is near-defective"):
        decay_channel(model, "g", np.eye(4), np.eye(4))
