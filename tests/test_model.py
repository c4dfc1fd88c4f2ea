import json

import numpy as np
import pytest

from weaksym.errors import CovarianceError, DimensionMismatchError, ValidationError
from weaksym.model import (
    KrausChannel,
    LpdoTensor,
    aklt_channel,
    aklt_group,
    aklt_tensor,
    build_aklt_model,
    dilate,
    load_model,
    save_model,
    solve_ancilla_rep,
    spin1_operators,
)


# --- spin-1 operator algebra ----------------------------------------------------

def test_spin_commutators():
    ops = spin1_operators()
    sx, sy, sz = ops["S_x"], ops["S_y"], ops["S_z"]
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)


def test_pi_rotations():
    ops = spin1_operators()
    np.testing.assert_allclose(ops["R_z"], np.diag([-1, 1, -1]), atol=1e-15)
    for alpha in ("x", "y", "z"):
        r = ops[f"R_{alpha}"]
        np.testing.assert_allclose(r @ r, np.eye(3), atol=1e-14)
    # Klein four-group on the physical leg: the rotations multiply into each other
    np.testing.assert_allclose(ops["R_x"] @ ops["R_y"], ops["R_z"], atol=1e-14)


# --- AKLT tensor and channel ------------------------------------------------------

def test_aklt_tensor_middle_component():
    a = aklt_tensor()
    np.testing.assert_allclose(a[1], -np.diag([1, -1]) / np.sqrt(3), atol=1e-15)
    assert a.shape == (3, 2, 2)


def test_aklt_tensor_left_canonical():
    a = aklt_tensor()
    gram = sum(a[i].conj().T @ a[i] for i in range(3))
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_aklt_channel_shapes_and_completeness():
    ch = aklt_channel(0.5)
    assert ch.kraus.shape == (4, 3, 3)
    assert ch.completeness_defect() < 1e-14
    ch.validate()


def test_aklt_channel_pure_limit_is_identity_only():
    ch = aklt_channel(0.0)
    np.testing.assert_allclose(ch.kraus[0], np.eye(3), atol=1e-15)
    for k in ch.kraus[1:]:
        np.testing.assert_allclose(k, 0, atol=1e-15)


def test_aklt_channel_rejects_bad_rate():
    with pytest.raises(ValidationError):
        aklt_channel(1.5)
    with pytest.raises(ValidationError):
        aklt_channel(-0.1)


def test_dilate_and_model_shapes():
    model = build_aklt_model(0.3)
    assert model.lpdo.tensor.shape == (3, 4, 2, 2)
    assert (model.lpdo.d, model.lpdo.da, model.lpdo.bond_dim) == (3, 4, 2)


def test_dilate_pure_limit_reduces_to_mps():
    lpdo = dilate(aklt_tensor(), aklt_channel(0.0))
    np.testing.assert_allclose(lpdo.tensor[:, 0], aklt_tensor(), atol=1e-15)
    np.testing.assert_allclose(lpdo.tensor[:, 1:], 0, atol=1e-15)


def test_lpdo_rejects_wrong_rank():
    with pytest.raises(DimensionMismatchError):
        LpdoTensor(np.zeros((3, 2, 2)))


# --- ancilla representations -------------------------------------------------------

def test_ancilla_rep_frozen_diagonals():
    """Covariance solutions in the Kraus basis (S_0, S_xS_y, S_yS_z, S_zS_x)."""
    ops = spin1_operators()
    ch = aklt_channel(0.3)
    expected = {
        "R_z": np.diag([1.0, 1.0, -1.0, -1.0]),
        "R_x": np.diag([1.0, -1.0, 1.0, -1.0]),
        "R_y": np.diag([1.0, -1.0, -1.0, 1.0]),
    }
    for g, ua in expected.items():
        solved = solve_ancilla_rep(ch, ops[g])
        np.testing.assert_allclose(solved, ua, atol=1e-12)


def test_ancilla_rep_identity():
    ch = aklt_channel(0.3)
    np.testing.assert_allclose(solve_ancilla_rep(ch, np.eye(3)), np.eye(4), atol=1e-12)


def test_ancilla_rep_pure_limit_pads_dead_block():
    """At p=0 only K_0 is alive; the dead rows get identity."""
    ch = aklt_channel(0.0)
    ua = solve_ancilla_rep(ch, spin1_operators()["R_z"])
    np.testing.assert_allclose(ua, np.eye(4), atol=1e-12)


def test_ancilla_rep_rejects_non_covariant_channel():
    """R_z maps S_x + S_z to -S_x + S_z, which leaves the single-operator span."""
    ops = spin1_operators()
    lone = KrausChannel(kraus=np.array([ops["S_x"] + ops["S_z"]]))
    with pytest.raises(CovarianceError):
        solve_ancilla_rep(lone, ops["R_z"])


def test_ancilla_rep_lone_sx_is_covariant():
    """A single S_x Kraus operator only picks up a sign, so covariance holds."""
    ops = spin1_operators()
    ua = solve_ancilla_rep(KrausChannel(kraus=np.array([ops["S_x"]])), ops["R_z"])
    assert ua.shape == (1, 1)
    assert abs(abs(ua[0, 0]) - 1) < 1e-12


def test_channel_and_dilation_refusals():
    ops = spin1_operators()
    with pytest.raises(DimensionMismatchError, match="kraus must be"):
        KrausChannel(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError, match="channel acts on d=2, tensor has d=3"):
        dilate(aklt_tensor(), KrausChannel(np.eye(2)[None]))
    with pytest.raises(DimensionMismatchError, match="u is 2x2, channel has d=3"):
        solve_ancilla_rep(aklt_channel(0.3), np.eye(2))
    with pytest.raises(CovarianceError, match="no nonzero Kraus operators"):
        solve_ancilla_rep(KrausChannel(np.zeros((2, 3, 3))), ops["R_z"])
    with pytest.raises(CovarianceError, match="linearly dependent"):
        solve_ancilla_rep(KrausChannel(np.stack([ops["S_x"], 2 * ops["S_x"]])), ops["R_z"])


def test_ancilla_rep_rejects_non_unitary_coefficients():
    """X maps the span of (Z, Z + X) to itself, but Z + X -> -Z + X = -2 Z + (Z + X) is no rotation.

    solve_ancilla_rep does not require a trace-preserving channel, so only
    the unitarity test refuses this one.
    """
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    with pytest.raises(ValidationError, match="covariance coefficients not unitary"):
        solve_ancilla_rep(KrausChannel(np.stack([z, z + x])), x)


def test_group_and_actions_assembled():
    model = build_aklt_model(0.2)
    assert model.group.labels == aklt_group().labels
    for g in model.group.labels:
        act = model.action(g)
        act.validate()
        assert act.u.shape == (3, 3) and act.ua.shape == (4, 4)
    with pytest.raises(KeyError):
        model.action("R_w")


# --- JSON interchange -----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = tmp_path / "aklt.json"
    model = build_aklt_model(0.3)
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.lpdo.tensor, model.lpdo.tensor)
    assert loaded.group.labels == model.group.labels
    assert loaded.group.table == model.group.table
    for g in model.group.labels:
        assert np.array_equal(loaded.action(g).u, model.action(g).u)
        assert np.array_equal(loaded.action(g).ua, model.action(g).ua)
    assert loaded.channel is not None
    assert np.array_equal(loaded.channel.kraus, model.channel.kraus)


def test_load_rejects_non_unitary_action(tmp_path):
    path = tmp_path / "bad_u.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    doc["actions"][1]["u"][0][0] = [5.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="unitar"):
        load_model(path)


def test_load_rejects_incomplete_channel(tmp_path):
    path = tmp_path / "bad_kraus.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    doc["channel"]["kraus"][0][0][0] = [2.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="channel"):
        load_model(path)


def test_load_rejects_missing_action(tmp_path):
    path = tmp_path / "missing.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    doc["actions"] = doc["actions"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="actions"):
        load_model(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_model(path)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_model("/nonexistent/model.json")
