"""Generic-model tests at bond dimension D=6 (the transfer-map definition
test also runs at D=4 and D=12).

The model is the decohered AKLT LPDO tensored with a seeded random
injective MPS B on an extra ancilla factor,

    A'[i, (a, s), (x, g), (y, h)] = A[i, a, x, y] B[s, g, h],

then put in a random unitary gauge W A' W^dag on the virtual legs. The
actions are u_g and ua_g (x) 1, so no symmetry acts on B. Every twisted
transfer map is similar to T_AKLT (x) E_B, which leaves the AKLT responses
and the conservation law unchanged while exercising D > 2 and the (u, ua)
insertions.
"""

import numpy as np
import pytest

from weaksym.model import LpdoTensor, Model, build_aklt_model, spin1_operators
from weaksym.response import conservation_check, flux_response, thermo_response
from weaksym.stringorder import decay_channel
from weaksym.symmetry import SymmetryAction, extract_virtual_rep, verify_transformation_law
from weaksym.transfer import build_transfer, symmetry_gap, twisted_spectrum

DR = 2  # physical dimension of the random factor, an extra ancilla leg
BOND = 3  # its bond dimension; the model has D = 2 * BOND = 6


def random_matrix(rng, n):
    """Seeded complex Gaussian n x n matrix: neither Hermitian nor unitary."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_injective_mps(rng, bond=BOND):
    """Complex Gaussian B[s, g, h], scaled so its transfer map has leading eigenvalue 1."""
    while True:
        b = rng.normal(size=(DR, bond, bond)) + 1j * rng.normal(size=(DR, bond, bond))
        mods = np.sort(np.abs(np.linalg.eigvals(sum(np.kron(x, x.conj()) for x in b))))[::-1]
        if mods[1] < 0.9 * mods[0]:
            return b / np.sqrt(mods[0])


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


@pytest.mark.parametrize("p", [0.2, 0.8])
def test_extracted_reps_satisfy_push_through(p):
    model, aklt, w = generic_model(p)
    for g in model.group.labels:
        act = model.action(g)
        rep, theta = extract_virtual_rep(model.lpdo, act)
        residual = verify_transformation_law(model.lpdo, act, rep, theta=theta)
        assert residual < 1e-8
        assert rep.residual == pytest.approx(residual, abs=1e-14)
        # V_g = W (V_g^AKLT (x) 1) W^dag up to a phase: the symmetry does not touch B
        v_aklt = extract_virtual_rep(aklt.lpdo, aklt.action(g))[0].v
        expected = w @ np.kron(v_aklt, np.eye(BOND)) @ w.conj().T
        overlap = np.trace(rep.v.conj().T @ expected) / model.lpdo.bond_dim
        assert abs(abs(overlap) - 1) < 1e-8


@pytest.mark.parametrize("p", [0.2, 0.8])
def test_conservation_law(p):
    model, _, _ = generic_model(p)
    for g1 in model.group.labels:
        for g2 in ("R_x", "R_y", "R_z"):
            residual, *_ = conservation_check(model, g1, g2)
            assert residual <= 1e-8


@pytest.mark.parametrize("p, q_yz", [(0.2, -1.0), (0.8, 1.0)])
def test_thermo_response_reproduces_aklt(p, q_yz):
    model, _, _ = generic_model(p)
    assert abs(thermo_response(model, "R_x", "R_z").value - (-1.0)) < 1e-8
    res = thermo_response(model, "R_y", "R_z")
    assert abs(res.value - q_yz) < 1e-8
    assert res.valid and res.snapped is not None
    # the ancilla carries the rest of the cocycle -1
    assert abs(conservation_check(model, "R_y", "R_z")[3].value - (-q_yz)) < 1e-8


@pytest.mark.parametrize("p", [0.3, 0.75])
@pytest.mark.parametrize("alpha", ["S_0", "S_x", "S_y"])
def test_decay_channel_reproduces_aklt(p, alpha):
    """The random factor only adds dead channels: the exponent is the AKLT one."""
    model, aklt, _ = generic_model(p)
    chi = spin1_operators()[alpha]
    generic = decay_channel(model, "R_z", chi, chi)
    reference = decay_channel(aklt, "R_z", chi, chi)
    assert generic.xi == pytest.approx(reference.xi, rel=1e-10)
    assert generic.amplitude == pytest.approx(reference.amplitude, abs=1e-10)
    assert generic.order_one == reference.order_one


@pytest.mark.parametrize("p", [0.3, 0.75])
def test_outputs_invariant_under_an_ancilla_basis_change(p):
    """A[i, a] -> sum_b W[a, b] A[i, b] with ua_g -> W ua_g W^dag changes no output."""
    model, _, _ = generic_model(p)
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
    model, _, _ = generic_model(0.3)
    v = extract_virtual_rep(model.lpdo, model.action("R_y"))[0].v
    phase = np.exp(1j * np.random.default_rng(17).uniform(0, 2 * np.pi))
    value, gap = flux_response(model, v, "R_z")
    value_r, gap_r = flux_response(model, phase * v, "R_z")
    assert abs(value_r - value) <= 1e-10 and gap_r == gap
