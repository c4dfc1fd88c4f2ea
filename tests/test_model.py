import json

import numpy as np
import pytest

from weaksym import model as model_module
from weaksym.errors import DimensionMismatchError, ValidationError
from weaksym.model import (
    KrausChannel,
    LpdoTensor,
    aklt_group,
    aklt_tensor,
    build_aklt_model,
    dilate,
    load_model,
    save_model,
    spin1_operators,
)


def aklt_channel(p):
    """The family's channel at noise rate p, as the built model carries it."""
    return build_aklt_model(p).channel


# --- spin-1 operator algebra ----------------------------------------------------

def test_spin_commutators():
    ops = spin1_operators()
    sx, sy, sz = ops["S_x"], ops["S_y"], ops["S_z"]
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)


def test_spin1_operators_are_one_read_only_set_in_new_dicts():
    first, second = spin1_operators(), spin1_operators()
    assert first is not second and list(first) == ["S_0", "S_x", "S_y", "S_z", "R_x", "R_y", "R_z"]
    for name, m in first.items():
        assert m is second[name]
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
    first["S_x"] = first.pop("S_y")
    assert spin1_operators()["S_x"] is second["S_x"] and "S_y" in spin1_operators()


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


def test_aklt_tensor_is_a_new_writable_array_and_the_family_reads_one_cached_copy(monkeypatch):
    a, b = aklt_tensor(), aklt_tensor()
    assert a is not b and a.flags.writeable and np.array_equal(a, b)
    a[:] = 0  # a caller's copy: the next one and the family are unchanged
    assert np.array_equal(aklt_tensor(), b)
    monkeypatch.setattr(model_module, "aklt_tensor", lambda: pytest.fail("build_aklt_model rebuilt A0"))
    lpdo = build_aklt_model(0.3).lpdo
    assert lpdo.tensor.tobytes() == dilate(b, aklt_channel(0.3)).tensor.tobytes()


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
    for p in (1.5, -0.1, float("nan")):
        with pytest.raises(ValidationError, match="channel.p: expected 0 <= p <= 1"):
            aklt_channel(p)


def test_aklt_channel_is_trace_preserving_at_every_rate():
    """The built-in channel is not validated when it is made; its Kraus stack must sum to 1."""
    for p in np.linspace(0.0, 1.0, 101):
        kraus = aklt_channel(p).kraus
        completeness = np.einsum("aji,ajk->ik", kraus.conj(), kraus)
        assert np.abs(completeness - np.eye(3)).max() <= 1e-14, p


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

# Noise rates where the Kraus stack is numerically rank deficient: tiny p
# leaves three operators near zero, p = 1 - 2^-53 leaves K_0 near zero.
EXTREME_P = (1e-22, 1e-20, 1e-18, 1e-16, 1e-14, 1e-12, 1 - 2**-53)


def test_ancilla_rep_frozen_diagonals():
    """Ancilla actions in the Kraus basis (S_0, S_xS_y, S_yS_z, S_zS_x), exactly."""
    model = build_aklt_model(0.3)
    expected = {
        "R_z": np.diag([1.0, 1.0, -1.0, -1.0]),
        "R_x": np.diag([1.0, -1.0, 1.0, -1.0]),
        "R_y": np.diag([1.0, -1.0, -1.0, 1.0]),
    }
    for g, ua in expected.items():
        np.testing.assert_array_equal(model.action(g).ua, ua)
        np.testing.assert_array_equal(model.action(g).u, spin1_operators()[g])


def test_ancilla_rep_identity():
    act = build_aklt_model(0.3).action("1")
    np.testing.assert_array_equal(act.u, np.eye(3))
    np.testing.assert_array_equal(act.ua, np.eye(4))


def test_kraus_operators_are_charge_eigenoperators():
    """R_g K R_g^dag = c K for every element and Kraus operator, with c = conj(ua_g[k, k])."""
    model = build_aklt_model(0.3)
    for g in model.group.labels:
        act = model.action(g)
        for k, kraus in enumerate(model.channel.kraus):
            charge = np.conj(act.ua[k, k])
            np.testing.assert_allclose(act.u @ kraus @ act.u.conj().T, charge * kraus, rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", EXTREME_P)
def test_build_aklt_model_at_extreme_noise_rates(p):
    model = build_aklt_model(p)
    reference = build_aklt_model(0.3)
    for g in model.group.labels:
        assert np.array_equal(model.action(g).ua, reference.action(g).ua)
        model.action(g).validate()


def test_build_aklt_model_on_a_fine_grid():
    reference = build_aklt_model(0.3)
    for p in np.linspace(0.0, 1.0, 1001):
        model = build_aklt_model(p)
        assert all(model.action(g) is reference.action(g) for g in reference.group.labels)


def test_models_do_not_share_their_actions_dict():
    """The action table is shared read-only; each model's dict is its own."""
    first, second = build_aklt_model(0.3), build_aklt_model(0.3)
    first.actions["R_x"] = first.actions["1"]
    del first.actions["R_y"]
    assert second.action("R_x").element == "R_x"
    assert second.action("R_y").element == "R_y"
    assert build_aklt_model(0.6).action("R_y").element == "R_y"
    for arr in (second.action("R_z").u, second.action("R_z").ua):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 2.0


def test_channel_and_dilation_refusals():
    with pytest.raises(DimensionMismatchError, match="kraus must be"):
        KrausChannel(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError, match="channel acts on d=2, tensor has d=3"):
        dilate(aklt_tensor(), KrausChannel(np.eye(2)[None]))


def test_group_and_actions_assembled():
    model = build_aklt_model(0.2)
    assert model.group.labels == aklt_group().labels
    for g in model.group.labels:
        act = model.action(g)
        act.validate()
        assert act.u.shape == (3, 3) and act.ua.shape == (4, 4)
    with pytest.raises(KeyError):
        model.action("R_w")


def test_aklt_group_multiplies_as_z2_x_z2():
    """All 16 products: each rotation is its own inverse, and two distinct ones give the third."""
    table = {
        "1": ("1", "R_x", "R_y", "R_z"),
        "R_x": ("R_x", "1", "R_z", "R_y"),
        "R_y": ("R_y", "R_z", "1", "R_x"),
        "R_z": ("R_z", "R_y", "R_x", "1"),
    }
    group = aklt_group()
    assert group.labels == ("1", "R_x", "R_y", "R_z")
    assert group.identity == "1"
    assert {g: tuple(group.multiply(g, h) for h in group.labels) for g in group.labels} == table


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
