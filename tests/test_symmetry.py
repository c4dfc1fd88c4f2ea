import re
from dataclasses import replace

import numpy as np
import pytest

from weaksym.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    IndefiniteChargeError,
    NearDefectiveError,
    NonCommutingError,
    NotSymmetricError,
    ValidationError,
    WeaksymError,
)
from weaksym.model import LpdoTensor, build_aklt_model, spin1_operators
from weaksym.symmetry import (
    GroupTable,
    SymmetryAction,
    VirtualRep,
    _push_through_residuals,
    cocycle_commutator,
    endpoint_charge,
    extract_virtual_rep,
)
from weaksym.transfer import build_transfer, commutant_residual

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0 + 0j, -1.0])


# --- group table -------------------------------------------------------------

def test_klein_four_group_axioms():
    group = build_aklt_model(0.3).group
    assert group.identity == "1"
    assert set(group.labels) == {"1", "R_x", "R_y", "R_z"}
    for g in group.labels:
        assert group.multiply(g, g) == "1"
        assert group.order(g) == (1 if g == "1" else 2)
        for h in group.labels:
            assert group.commutes(g, h)
    assert group.multiply("R_x", "R_y") == "R_z"


def test_group_table_rejects_broken_closure():
    with pytest.raises(ValidationError):
        GroupTable(["e", "a"], [["e", "a"], ["a", "b"]])


def test_group_table_rejects_missing_identity():
    with pytest.raises(ValidationError):
        GroupTable(["e", "a"], [["a", "e"], ["a", "e"]])


def test_group_table_is_checked_on_construction():
    """Every axiom refusal names the field; a valid table finds its identity."""
    cases = [
        ((), (), "group.elements: labels must be nonempty and unique"),
        (("e", "e"), (("e", "e"), ("e", "e")), "group.elements: labels must be nonempty and unique"),
        (("e", "a"), (("e", "a"),), "group.table: expected a 2x2 table"),
        (("e", "a"), (("e", "a"), ("a",)), "group.table: expected a 2x2 table"),
        # a has two inverses, a and b
        (("e", "a", "b"), (("e", "a", "b"), ("a", "e", "e"), ("b", "e", "e")), "group.table: element 'a' lacks a unique inverse"),
    ]
    for labels, table, message in cases:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            GroupTable(labels, table)
    # a Latin square with an identity (a loop of order 5) that is not associative: (1*1)*2 = 2, 1*(1*2) = 4
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(ValidationError, match="^group.table: not associative"):
        GroupTable(tuple(range(5)), loop)
    group = GroupTable(["e", "a"], [["e", "a"], ["a", "e"]])
    assert group.identity == "e" and group.labels == ("e", "a") and group.order("a") == 2


def test_group_table_unknown_label():
    group = build_aklt_model(0.3).group
    with pytest.raises(KeyError, match="unknown group element 'R_w'"):
        group.multiply("R_w", "1")


# --- transformation law --------------------------------------------------------

def law(lpdo, act, rep, theta):
    """The push-through residual of ``rep`` and ``theta`` on ``lpdo``: stacks of one."""
    return float(_push_through_residuals(lpdo.tensor[None], act.u, act.ua, np.asarray(rep.v)[None], [theta])[0])


def test_law_residual_small_for_extracted_rep():
    model = build_aklt_model(0.3)
    act = model.action("R_z")
    rep, theta = extract_virtual_rep(model.lpdo, act)
    assert law(model.lpdo, act, rep, theta=theta) < 1e-10


def test_law_identity_is_exact():
    model = build_aklt_model(0.3)
    act = model.action("1")
    rep = VirtualRep("1", np.eye(2))
    assert law(model.lpdo, act, rep, theta=0.0) < 1e-14


def test_law_rejects_wrong_representative():
    """sigma_x is not the R_z representative; the residual is order one."""
    model = build_aklt_model(0.3)
    act = model.action("R_z")
    rep = VirtualRep("R_z", SX)
    assert law(model.lpdo, act, rep, theta=0.0) > 0.1


# --- extraction ---------------------------------------------------------------

def test_extract_pure_point_rz_gives_sigma_z():
    model = build_aklt_model(0.0)
    rep, theta = extract_virtual_rep(model.lpdo, model.action("R_z"))
    assert abs(abs(np.trace(rep.v @ SZ)) - 2.0) < 1e-8
    assert np.abs(np.exp(1j * theta) - 1.0) < 1e-8


def test_extract_gauge_makes_peak_entry_real_positive():
    model = build_aklt_model(0.3)
    for g in ("R_x", "R_y", "R_z"):
        rep, _ = extract_virtual_rep(model.lpdo, model.action(g))
        flat = rep.v.ravel()
        peak = flat[np.argmax(np.abs(flat))]
        assert peak.real > 0 and abs(peak.imag) < 1e-10
        np.testing.assert_allclose(rep.v.conj().T @ rep.v, np.eye(2), atol=1e-10)


def test_extract_expected_representatives():
    """Gauge-fixed virtual representations of the Klein group on AKLT."""
    model = build_aklt_model(0.3)
    expected = {
        "1": np.eye(2),
        "R_x": SX,
        "R_y": np.array([[0.0, 1.0], [-1.0, 0.0]]),
        "R_z": SZ,
    }
    for g, v in expected.items():
        rep, _ = extract_virtual_rep(model.lpdo, model.action(g))
        np.testing.assert_allclose(rep.v, v, atol=1e-8)


def test_extract_identity_trivial():
    model = build_aklt_model(0.4)
    rep, theta = extract_virtual_rep(model.lpdo, model.action("1"))
    np.testing.assert_allclose(rep.v, np.eye(2), atol=1e-10)
    assert abs(theta) < 1e-10


def test_extract_succeeds_at_critical_point():
    """Extraction runs on T(1), which stays gapped at p = 1/2."""
    model = build_aklt_model(0.5)
    rep, theta = extract_virtual_rep(model.lpdo, model.action("R_x"))
    assert law(model.lpdo, model.action("R_x"), rep, theta=theta) < 1e-8


def test_extract_rejects_non_symmetry():
    model = build_aklt_model(0.3)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    bogus = SymmetryAction(element="R_z", u=q, ua=model.action("R_z").ua)
    with pytest.raises(WeaksymError):
        extract_virtual_rep(model.lpdo, bogus)


def law_by_einsum(a4, u, ua, v, theta):
    """The push-through residual as one six-index contraction per side."""
    lhs = np.einsum("ij,ab,jbxy->iaxy", u, ua, a4)
    rhs = np.exp(1j * theta) * np.einsum("xp,iapq,yq->iaxy", v, a4, v.conj())
    return float(np.linalg.norm(lhs - rhs))


@pytest.mark.parametrize("dv", [2, 6, 12])
def test_law_matches_the_six_index_einsum(dv):
    """Seeded random tensors, non-unitary u, ua and V, and random theta."""
    rng = np.random.default_rng(dv)
    d, da = 3, 4

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(3):
        a4, u, ua, v = gaussian(d, da, dv, dv), gaussian(d, d), gaussian(da, da), gaussian(dv, dv)
        theta = rng.uniform(-np.pi, np.pi)
        got = law(LpdoTensor(a4), SymmetryAction("g", u, ua), VirtualRep("g", v), theta)
        expected = law_by_einsum(a4, u, ua, v, theta)
        assert abs(got - expected) <= 1e-13 * expected


def test_law_refusals_keep_their_text():
    """A malformed action is refused before the law is evaluated, by the extraction that
    checks u and ua as the insertions of T(u, ua); a malformed V by every function that
    takes a representation."""
    model = build_aklt_model(0.3)
    act = model.action("R_z")
    for bad, text in (
        (replace(act, u=np.eye(3)[:2]), r"op: expected square, got shape \(2, 3\)"),
        (replace(act, ua=np.ones(4)), r"op_a: expected a 2D array, got shape \(4,\)"),
    ):
        with pytest.raises(DimensionMismatchError, match=f"^{text}$"):
            extract_virtual_rep(model.lpdo, bad)
    bad = VirtualRep("R_z", np.ones((1, 4)))
    with pytest.raises(DimensionMismatchError, match=r"^flux: expected square, got shape \(1, 4\)$"):
        commutant_residual(build_transfer(model.lpdo, act.u), bad)
    with pytest.raises(DimensionMismatchError, match=r"^rep1.v: expected square, got shape \(1, 4\)$"):
        cocycle_commutator(bad, VirtualRep("R_z", np.eye(2)))


def test_validate_names_the_malformed_matrix():
    """A non-square or non-finite physical or ancilla matrix is refused under its own name
    in the action's path, as the unitarity test of each leg reads it."""
    for action, text, error in (
        (SymmetryAction("g", np.eye(3)[:2], np.eye(4)), r"action.u: expected square, got shape \(2, 3\)", DimensionMismatchError),
        (SymmetryAction("g", np.eye(3), np.eye(4)[:, :3]), r"action.ua: expected square, got shape \(4, 3\)", DimensionMismatchError),
        (SymmetryAction("g", np.eye(3), np.ones(4)), r"action.ua: expected a 2D array, got shape \(4,\)", DimensionMismatchError),
        (SymmetryAction("g", np.full((3, 3), np.nan), np.eye(4)), r"action.u: entries must be finite", ValidationError),
    ):
        with pytest.raises(error, match=f"^{text}$"):
            action.validate()
    with pytest.raises(DimensionMismatchError, match=r"^actions.R_x.ua: expected square, got shape \(4, 3\)$"):
        SymmetryAction("R_x", np.eye(3), np.eye(4)[:, :3]).validate("actions.R_x")


def test_extract_refuses_a_near_defective_untwisted_map():
    """Tensor (1, N) with N nilpotent: T(1) = 1 + N (x) N is a Jordan block at 1."""
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    lpdo = LpdoTensor(np.stack([np.eye(2), n])[:, None])
    with pytest.raises(NearDefectiveError, match="untwisted transfer map is near-defective"):
        extract_virtual_rep(lpdo, SymmetryAction("1", np.eye(2), np.eye(1)))


def test_extract_refuses_a_degenerate_leading_eigenvalue():
    """A GHZ-like tensor diag(1, 0), diag(0, 1) is not injective: T(1) = diag(1, 0, 0, 1)."""
    lpdo = LpdoTensor(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])[:, None])
    with pytest.raises(DegenerateSpectrumError, match="gap 0.000e"):
        extract_virtual_rep(lpdo, SymmetryAction("1", np.eye(2), np.eye(1)))


def test_extract_refuses_a_near_symmetry_that_fails_the_law():
    """R_x tilted by exp(i eps H): the twisted leading modulus moves by O(eps^2), the law by O(eps).

    At eps = 1e-5 the modulus test (1e-8) passes and the push-through law fails.
    """
    model = build_aklt_model(0.0)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, v = np.linalg.eigh(h + h.conj().T)
    u = model.action("R_x").u @ v @ np.diag(np.exp(1e-5j * w)) @ v.conj().T
    tilted = SymmetryAction("R_x", u, model.action("R_x").ua)
    with pytest.raises(NotSymmetricError, match="fails the transformation law"):
        extract_virtual_rep(model.lpdo, tilted)


# --- cocycles and charges -------------------------------------------------------

def test_cocycle_pauli_pairs():
    rx = VirtualRep("x", SX)
    ry = VirtualRep("y", SY)
    rz = VirtualRep("z", SZ)
    ident = VirtualRep("1", np.eye(2))
    assert abs(cocycle_commutator(rx, rz) - (-1)) < 1e-14
    assert abs(cocycle_commutator(rx, ry) - (-1)) < 1e-14
    assert abs(cocycle_commutator(ident, rz) - 1) < 1e-14


def test_endpoint_charges_under_rz():
    ops = spin1_operators()
    model = build_aklt_model(0.3)
    act = model.action("R_z")
    assert abs(endpoint_charge(ops["S_x"], act) - (-1)) < 1e-12
    assert abs(endpoint_charge(ops["S_y"], act) - (-1)) < 1e-12
    assert abs(endpoint_charge(ops["S_z"], act) - 1) < 1e-12
    assert abs(endpoint_charge(ops["S_0"], act) - 1) < 1e-12


def test_endpoint_charge_rejects_mixed_charge():
    ops = spin1_operators()
    model = build_aklt_model(0.3)
    with pytest.raises(IndefiniteChargeError):
        endpoint_charge(ops["S_x"] + ops["S_z"], model.action("R_z"))


def test_cocycle_refusals():
    with pytest.raises(DimensionMismatchError, match="representation shapes differ"):
        cocycle_commutator(VirtualRep("x", SX), VirtualRep("1", np.eye(3)))
    # diag(1, i) and sigma_x: the group commutator is diag(-i, i), not a scalar
    with pytest.raises(NonCommutingError, match="do not commute projectively"):
        cocycle_commutator(VirtualRep("s", np.diag([1.0, 1j])), VirtualRep("x", SX))


def test_endpoint_charge_refusals():
    act = build_aklt_model(0.3).action("R_z")
    with pytest.raises(DimensionMismatchError, match="chi is"):
        endpoint_charge(np.eye(2), act)
    with pytest.raises(IndefiniteChargeError, match="endpoint operator is zero"):
        endpoint_charge(np.zeros((3, 3)), act)
