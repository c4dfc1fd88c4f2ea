"""Stacked accessors: many tensors' maps, spectra, leading pairs and virtual
representations computed as one stack, each bit for bit its one-tensor value.

A stack shares the Python around each LAPACK call, not the arithmetic: every
value must equal the one its tensor gets alone (a fresh ``LpdoTensor``, so
nothing is read from the stacked memo), a member that fails must not change
the others, and a sweep's bytes must not depend on which rows share a stack.
"""

import json
import tracemalloc

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import cli
from weaksym.errors import NearDefectiveError, NotSymmetricError
from weaksym.model import LpdoTensor, build_aklt_model
from weaksym.numerics import spectral_decompose
from weaksym.symmetry import SymmetryAction, extract_virtual_rep, extract_virtual_reps
from weaksym.transfer import (
    build_transfer,
    build_transfers,
    transfer_eigenpair,
    transfer_eigenpairs,
    transfer_spectra,
    transfer_spectrum,
)


def _bits(value):
    """Every field of a memoised value as bytes, so that nan and -0.0 compare by their bits."""
    if isinstance(value, np.ndarray):  # the layout too: a product's last bits can depend on it
        return (value.shape, value.strides, value.tobytes())
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, complex, np.number)):
        return np.asarray(value).tobytes()
    if hasattr(value, "eigenvalues"):  # a Spectrum
        fields = (value.eigenvalues, value.right_vectors, value.left_vectors)
        return _bits(fields + (value.pairing_residual, value.condition_estimate))
    if hasattr(value, "v"):  # a VirtualRep
        return (value.element, _bits(value.v), _bits(value.residual))
    raise TypeError(type(value))


def _alone(lpdo):
    """A fresh tensor with the same entries: nothing it reads comes from a stack."""
    return LpdoTensor(lpdo.tensor)


def assert_stacked_equals_alone(lpdos, insertions, actions):
    for op, op_a in insertions:
        for stacked, one in (
            (build_transfers, build_transfer),
            (transfer_spectra, transfer_spectrum),
            (transfer_eigenpairs, transfer_eigenpair),
        ):
            values = stacked(lpdos, op, op_a)
            assert [_bits(v) for v in values] == [_bits(one(_alone(lpdo), op, op_a)) for lpdo in lpdos]
            # the values are stored: a second stacked call and the one-tensor calls hit them
            assert all(a is b for a, b in zip(stacked(lpdos, op, op_a), values))
            assert all(one(lpdo, op, op_a) is v for lpdo, v in zip(lpdos, values))
    for act in actions:
        values = extract_virtual_reps(lpdos, act)
        assert [_bits(v) for v in values] == [_bits(extract_virtual_rep(_alone(lpdo), act)) for lpdo in lpdos]
        assert all(extract_virtual_rep(lpdo, act) is v for lpdo, v in zip(lpdos, values))


def _family_insertions(model):
    eye = np.eye(model.lpdo.d)
    out = [(eye, None)]
    for g in model.group.labels:
        act = model.action(g)
        out += [(act.u, None), (act.u, act.ua), (eye, act.ua)]
    return out


def test_stacks_of_the_family_equal_one_tensor_calls():
    """41 models from p = 0 to 1, the special points included: every map kind the
    family has, its spectrum and leading pair, and every representation."""
    models = [build_aklt_model(p) for p in np.linspace(0.0, 1.0, 41)]
    model = models[0]
    actions = [model.action(g) for g in model.group.labels]
    assert_stacked_equals_alone([m.lpdo for m in models], _family_insertions(model), actions)


@pytest.mark.parametrize("bond", [3, 6], ids=["D6", "D12"])
def test_stacks_of_generic_models_equal_one_tensor_calls(bond):
    """D = 6 takes the GEMM build and the dense stacked path; D = 12 the per-map Krylov path."""
    models = [generic_model(p, seed=seed, bond=bond)[0] for p, seed in ((0.2, 7), (0.3, 8), (0.8, 9))]
    model = models[0]
    insertions = [(np.eye(3), None)] + [(model.action(g).u, model.action(g).ua) for g in ("R_x", "R_z")]
    actions = [model.action(g) for g in ("R_x", "R_z")]
    assert_stacked_equals_alone([m.lpdo for m in models], insertions, actions)


def test_stacks_of_random_tensors_at_odd_bond_equal_one_tensor_calls():
    """D = 3: the GEMM build at an odd bond, on tensors with no symmetry at all."""
    rng = np.random.default_rng(3)
    shape = (3, 4, 3, 3)
    lpdos = [LpdoTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(6)]
    act = build_aklt_model(0.3).action("R_y")
    insertions = [(np.eye(3), None), (act.u, None), (act.u, act.ua), (rng.normal(size=(3, 3)), rng.normal(size=(4, 4)))]
    assert_stacked_equals_alone(lpdos, insertions, [])


def test_a_stack_of_tensors_of_several_shapes_is_split_by_shape():
    lpdos = [build_aklt_model(0.3).lpdo, generic_model(0.3)[0].lpdo, build_aklt_model(0.7).lpdo]
    spectra = transfer_spectra(lpdos, np.eye(3), None)
    assert [_bits(s) for s in spectra] == [_bits(transfer_spectrum(_alone(lpdo), np.eye(3))) for lpdo in lpdos]


def test_a_stacked_spectrum_keeps_the_layout_of_one_matrix_alone():
    """Right vectors are eig's columns picked by one fancy index per matrix, which
    leaves them column-major, as a lone ``r[:, order]`` does; a C-ordered copy
    with the same values moved the last bit of ``string``'s fit residual."""
    maps = np.stack([build_transfer(build_aklt_model(p).lpdo, np.eye(3)) for p in (0.2, 0.3)])
    for m, spectrum in zip(maps, spectral_decompose(maps)):
        w, r = np.linalg.eig(m)
        alone = r[:, np.lexsort((-w.imag, -w.real, -np.abs(w)))]
        assert _bits(spectrum.right_vectors) == _bits(alone)


# --- one member fails ---------------------------------------------------------

def test_a_singular_eigenvector_matrix_leaves_the_rest_of_its_stack_alone():
    """The tensor A[0] = S, the 3 x 3 nilpotent shift, A[1] = 0: eig's right vectors
    of T(1) = conj(S) (x) S are parallel, so they have no inverse."""
    rng = np.random.default_rng(5)
    shape = (2, 1, 3, 3)
    lpdos = [LpdoTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(4)]
    shift = np.zeros(shape)
    shift[0, 0] = np.eye(3, k=1)
    lpdos.insert(2, LpdoTensor(shift))
    eye = np.eye(2)
    singular = np.linalg.eig(build_transfer(_alone(lpdos[2]), eye))[1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    act = SymmetryAction(element="e", u=eye, ua=np.eye(1))
    reps = extract_virtual_reps(lpdos, act)
    spectra = transfer_spectra(lpdos, eye, None)
    assert [_bits(s) for s in spectra] == [_bits(transfer_spectrum(_alone(lpdo), eye)) for lpdo in lpdos]
    assert spectra[2].near_defective and not spectra[0].near_defective
    # the failing member is not stored, and raises today's error when it is read
    assert isinstance(reps[2], NearDefectiveError)
    assert not any(key[0] == "rep" for key in lpdos[2]._memo)
    with pytest.raises(NearDefectiveError, match="untwisted transfer map is near-defective"):
        extract_virtual_rep(lpdos[2], act)
    others = [0, 1, 3, 4]
    assert [_bits(reps[i]) for i in others] == [_bits(extract_virtual_rep(_alone(lpdos[i]), act)) for i in others]


def test_a_tensor_that_is_not_symmetric_leaves_the_rest_of_its_stack_alone():
    models = [build_aklt_model(p) for p in (0.1, 0.4, 0.6, 0.9)]
    rng = np.random.default_rng(0)
    shape = models[0].lpdo.tensor.shape
    bogus = LpdoTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lpdos = [models[0].lpdo, bogus] + [m.lpdo for m in models[1:]]
    act = models[0].action("R_x")
    reps = extract_virtual_reps(lpdos, act)
    assert isinstance(reps[1], NotSymmetricError)
    with pytest.raises(NotSymmetricError, match="twisted leading modulus"):
        extract_virtual_rep(bogus, act)
    others = [0, 2, 3, 4]
    assert [_bits(reps[i]) for i in others] == [_bits(extract_virtual_rep(_alone(lpdos[i]), act)) for i in others]
    # what the failed extraction read is stored, bit for bit its one-tensor value
    assert _bits(transfer_eigenpair(bogus, act.u, act.ua)) == _bits(transfer_eigenpair(_alone(bogus), act.u, act.ua))
    assert not any(key[0] == "rep" for key in bogus._memo)


# --- sweeps -------------------------------------------------------------------

def _seeded_grid(seed):
    """The benchmark's 96-row sweep: off-grid end points drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return ["--p-min", repr(float(0.02 * rng.random())), "--p-max", repr(float(1.0 - 0.02 * rng.random())), "--steps", "96"]


def _sweep(capsys, argv):
    assert cli.main(["sweep", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [["--p-min", "0", "--p-max", "1", "--steps", "5"], _seeded_grid(1)], ids=["five", "seeded-96"])
def test_sweep_bytes_do_not_depend_on_which_rows_share_a_stack(capsys, monkeypatch, grid, fmt):
    argv = [*grid, "--format", fmt]
    stacked = _sweep(capsys, argv)
    for chunk in (1, 7):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
        assert _sweep(capsys, argv) == stacked
    assert stacked.count("\n") > 5


def test_sweep_equals_its_one_row_sweeps_joined(capsys):
    ps = ["0", "0.25", "0.5", "0.75", "1"]
    lines = [_sweep(capsys, ["--p", p]).splitlines() for p in ps]
    assert _sweep(capsys, ["--p-min", "0", "--p-max", "1", "--steps", "5"]).splitlines() == [lines[0][0]] + [l[1] for l in lines]
    rows = [json.loads(_sweep(capsys, ["--p", p, "--format", "json"]))["rows"][0] for p in ps]
    joined = json.dumps({"rows": rows}, indent=2, allow_nan=False) + "\n"
    assert _sweep(capsys, ["--p-min", "0", "--p-max", "1", "--steps", "5", "--format", "json"]) == joined


def test_sweep_working_memory_does_not_grow_with_its_length():
    """The memory a sweep holds beyond the rows it returns is one chunk's worth:
    8 chunks of rows need at most 10% more than 2. (The rows themselves, and the
    text they become, grow with the row count as they must.)"""
    cli._sweep_rows([0.3], 200, 50)  # caches built once per process are not counted

    def working_memory(chunks):
        n = chunks * cli.SWEEP_CHUNK
        p_values = [0.01 + 0.98 * i / (n - 1) for i in range(n)]
        tracemalloc.start()
        try:
            rows = cli._sweep_rows(p_values, 200, 50)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == n
        return peak - held

    assert working_memory(8) <= 1.1 * working_memory(2)

