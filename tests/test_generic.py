"""Generic-model tests at bond dimension D=6.

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
from weaksym.response import ancilla_response, conservation_check, thermo_response
from weaksym.stringorder import decay_channel
from weaksym.symmetry import SymmetryAction, extract_virtual_rep, verify_transformation_law
from weaksym.transfer import build_transfer

DR = 2  # physical dimension of the random factor, an extra ancilla leg
BOND = 3  # its bond dimension; the model has D = 2 * BOND = 6


def random_injective_mps(rng):
    """Complex Gaussian B[s, g, h], scaled so its transfer map has leading eigenvalue 1."""
    while True:
        b = rng.normal(size=(DR, BOND, BOND)) + 1j * rng.normal(size=(DR, BOND, BOND))
        mods = np.sort(np.abs(np.linalg.eigvals(sum(np.kron(x, x.conj()) for x in b))))[::-1]
        if mods[1] < 0.9 * mods[0]:
            return b / np.sqrt(mods[0])


def generic_model(p, seed=7):
    """(generic model, AKLT model, gauge W) at noise rate p.

    The gauge makes V_g = W (V_g^AKLT (x) 1) W^dag neither symmetric nor
    antisymmetric, so a transposed representation cannot pass for V_g.
    """
    aklt = build_aklt_model(p)
    rng = np.random.default_rng(seed)
    b = random_injective_mps(rng)
    d, da, dv, _ = aklt.lpdo.tensor.shape
    tensor = np.einsum("iaxy,sgh->iasxgyh", aklt.lpdo.tensor, b).reshape(d, da * DR, dv * BOND, dv * BOND)
    w, _ = np.linalg.qr(rng.normal(size=(dv * BOND,) * 2) + 1j * rng.normal(size=(dv * BOND,) * 2))
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
    model, _, _ = generic_model(0.3)
    lpdo = model.lpdo
    act = model.action(g)
    eye, eye_a = np.eye(lpdo.d), np.eye(lpdo.da)
    assert lpdo.bond_dim == 6
    for op, op_a in ((eye, eye_a), (act.u, eye_a), (eye, act.ua), (act.u, act.ua)):
        expected = transfer_by_definition(lpdo.tensor, op, op_a)
        np.testing.assert_allclose(build_transfer(lpdo, op, op_a), expected, atol=1e-13)
    np.testing.assert_allclose(
        build_transfer(lpdo, act.u), transfer_by_definition(lpdo.tensor, act.u, eye_a), atol=1e-13
    )


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
    assert abs(ancilla_response(model, "R_y", "R_z").value - (-q_yz)) < 1e-8


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
