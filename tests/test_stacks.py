"""Stacked accessors: many tensors' maps, spectra, leading pairs, virtual
representations, ring strings, decay channels and responses computed as one
stack, each bit for bit its one-tensor value.

A stack shares the Python around each LAPACK call, not the arithmetic: every
value must equal the one its tensor gets alone (a fresh ``LpdoTensor``, so
nothing is read from the stacked memo), and a sweep's bytes must not depend on
which rows share a stack. A stack with a member that fails raises that
member's error, naming its tensor; the stacked calls here go through
``cli._isolated``, which then gives that error to the member's rows and
computes the rest once more (or, for an error that names no tensor, halves the
stack down to each failing member alone), so a failing member must not change
the others.
"""

import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

import dense_reference
from test_generic import generic_model
from weaksym import cli, numerics, oracle, symmetry, transfer
from weaksym.errors import (
    DimensionMismatchError,
    GaplessTransferError,
    NearDefectiveError,
    NotSymmetricError,
    UndefinedExponentError,
    WeaksymError,
)
from weaksym.model import LpdoTensor, Model, build_aklt_model, save_model, spin1_operators
from weaksym.numerics import DENSE_MAX_ROWS, spectral_decompose
from weaksym.response import _thermo_responses, thermo_response
from weaksym.stringorder import _decay_channels, _ring_series, _string_series, decay_channel
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
    """A fresh tensor with the same entries, a member of the same family if ``lpdo``
    is one (``LpdoTensor.pencil``): nothing it reads comes from a stack."""
    return dataclasses.replace(lpdo)


def _bare(lpdo):
    """A fresh tensor with the same entries and no family: its maps are contracted."""
    return LpdoTensor(lpdo.tensor)


def _isolated(stacked, stack, *args):
    """``stacked(stack, *args)`` as a sweep computes it: a member that fails gets its own error."""
    return cli._isolated(lambda members: stacked(members, *args), stack)


def assert_stacked_equals_alone(lpdos, insertions, actions):
    for op, op_a in insertions:
        for stacked, one in (
            (build_transfers, build_transfer),
            (transfer_spectra, transfer_spectrum),
            (transfer_eigenpairs, transfer_eigenpair),
        ):
            values = _isolated(stacked, lpdos, op, op_a)
            assert [_bits(v) for v in values] == [_bits(one(_alone(lpdo), op, op_a)) for lpdo in lpdos]
            if stacked is build_transfers:  # a member's map is its family's combination, to 1e-15 the contraction
                for lpdo, value in zip(lpdos, values):
                    np.testing.assert_allclose(value, build_transfer(_bare(lpdo), op, op_a), rtol=0, atol=1e-15)
            # the values are stored: a second stacked call and the one-tensor calls hit them
            assert all(a is b for a, b in zip(_isolated(stacked, lpdos, op, op_a), values))
            assert all(one(lpdo, op, op_a) is v for lpdo, v in zip(lpdos, values))
    for act in actions:
        values = _isolated(extract_virtual_reps, lpdos, act)
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


def _reference_bits(m):
    """The one-matrix reference spectrum of m (``dense_reference.spectrum``) as bits."""
    w, right, left, residual, condition, clusters = dense_reference.spectrum(m)
    return _bits((w, right, left, residual, condition)), _cluster_bits(clusters)


def _cluster_bits(clusters):
    return [(_bits(lam), members.tolist(), _bits(condition)) for lam, members, condition in clusters]


def assert_stacked_spectra_equal_the_reference(maps):
    for m, spectrum in zip(maps, spectral_decompose(np.stack(maps))):
        fields = (spectrum.eigenvalues, spectrum.right_vectors, spectrum.left_vectors)
        measured = _bits(fields + (spectrum.pairing_residual, spectrum.condition_estimate))
        assert (measured, _cluster_bits(spectrum.clusters)) == _reference_bits(m)


def test_stacked_spectra_and_clusters_equal_the_one_matrix_reference_on_the_family():
    """Every map kind of the 41 models, stacked: its eigenpairs with their layout, the
    pairing residual, the condition and each cluster (the family has clusters of one,
    two and three eigenvalues) as one matrix alone gets them."""
    models = [build_aklt_model(p) for p in np.linspace(0.0, 1.0, 41)]
    for op, op_a in _family_insertions(models[0]):
        assert_stacked_spectra_equal_the_reference([build_transfer(_alone(m.lpdo), op, op_a) for m in models])


@pytest.mark.parametrize("bond", range(2, 11))
def test_stacked_spectra_and_clusters_equal_the_one_matrix_reference_on_random_maps(bond):
    """Seeded dense maps of D^2 = 4 to 100 rows: random ones, and ones whose eigenvalues
    repeat, in clusters of two and of up to nine, which clusters measure per size."""
    rng = np.random.default_rng(bond)
    n = bond * bond
    maps = list(rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n)))
    for _ in range(4):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w[: min(n, 12)] = np.repeat(w[:3], [min(n, 12) - 3, 2, 1])[: min(n, 12)]
        maps.append(x @ np.diag(rng.permutation(w)) @ np.linalg.inv(x))
    assert_stacked_spectra_equal_the_reference(maps)


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
    assert_stacked_spectra_equal_the_reference([build_transfer(_alone(lpdo), eye) for lpdo in lpdos])
    act = SymmetryAction(element="e", u=eye, ua=np.eye(1))
    reps = _isolated(extract_virtual_reps, lpdos, act)
    spectra = _isolated(transfer_spectra, lpdos, eye, None)
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
    reps = _isolated(extract_virtual_reps, lpdos, act)
    assert isinstance(reps[1], NotSymmetricError)
    with pytest.raises(NotSymmetricError, match="twisted leading modulus"):
        extract_virtual_rep(bogus, act)
    others = [0, 2, 3, 4]
    assert [_bits(reps[i]) for i in others] == [_bits(extract_virtual_rep(_alone(lpdos[i]), act)) for i in others]
    # what the failed extraction read is stored, bit for bit its one-tensor value
    assert _bits(transfer_eigenpair(bogus, act.u, act.ua)) == _bits(transfer_eigenpair(_alone(bogus), act.u, act.ua))
    assert not any(key[0] == "rep" for key in bogus._memo)


# --- rings, decay channels and responses ---------------------------------------

OPS = spin1_operators()
ENDS = [(OPS[a], OPS[b]) for a, b in (("S_x", "S_x"), ("S_y", "S_y"), ("S_z", "S_z"), ("S_0", "S_0"), ("S_x", "S_y"))]
FLUXES = ("R_x", "R_y")


def _fresh(model):
    """The model on a fresh tensor with the same entries: nothing it reads comes from a stack."""
    return Model(lpdo=_alone(model.lpdo), group=model.group, actions=model.actions)


def _outcome(compute):
    try:
        return compute()
    except (WeaksymError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        return exc


def _fields(value):
    """A series, channel or response field by field as bits; an exception as its type and text."""
    if isinstance(value, Exception):
        return type(value), str(value)
    if isinstance(value, list):
        return [_fields(v) for v in value]
    if dataclasses.is_dataclass(value):
        return tuple(_fields(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray) and value.dtype == object:
        return value.shape, value.tolist()
    if isinstance(value, (np.ndarray, float, complex, np.number)):
        return _bits(value)
    return value  # None, bool, int, Fraction


def assert_rows_equal_one_model_calls(models, lengths, n_sites):
    """The stacked rings, decay channels and responses of ``models`` against one
    call per model and pair (or flux) on a fresh tensor."""
    rings = _isolated(_ring_series, models, "R_z", ENDS, lengths, n_sites)
    channels = [list(row) for row in zip(*[_isolated(_decay_channels, models, "R_z", *pair) for pair in ENDS])]
    responses = _isolated(_thermo_responses, models, FLUXES, "R_z")
    for model, ring, channel, response in zip(models, rings, channels, responses):
        alone = _fresh(model)
        assert _fields(ring) == _fields(_outcome(lambda: _string_series([alone], "R_z", ENDS, lengths, n_sites)[0]))
        assert _fields(channel) == [_fields(_outcome(lambda: decay_channel(alone, "R_z", *pair))) for pair in ENDS]
        fluxes = [_fields(_outcome(lambda: thermo_response(alone, g1, "R_z"))) for g1 in FLUXES]
        # a row's responses fail together, with the error each flux raises alone
        assert ([_fields(response)] * len(FLUXES) if isinstance(response, Exception) else _fields(response)) == fluxes
    return rings, channels, responses


@pytest.mark.parametrize(
    "lengths, n_sites",
    [([50], 200), (range(0, 40, 3), 200), (range(30), 200), ([0, 1000, 99998], 100000)],
    ids=["one", "loop", "stacked", "rescaled"],
)
def test_stacked_rows_of_the_family_equal_one_model_calls(lengths, n_sites):
    """41 models from p = 0 to 1, the special points and their refusals included;
    fewer than MIN_STACKED_POWERS lengths take the per-length loop, more the GEMM
    per bit level of each model's stack. On 10^5 sites each model's powers carry
    binary exponents of their own."""
    models = [build_aklt_model(p) for p in np.linspace(0.0, 1.0, 41)]
    assert_rows_equal_one_model_calls(models, lengths, n_sites)


@pytest.mark.parametrize("bond", [3], ids=["D6"])
def test_stacked_rows_of_generic_models_equal_one_model_calls(bond):
    """D = 6 models share dense stacks. A Krylov-size model (D > 10) is only ever
    a stack of one (the stack rule of weaksym.transfer); its decay channels, the
    complete-spectrum fallback included, are pinned in tests/test_generic.py."""
    models = [generic_model(p, seed=seed, bond=bond)[0] for p, seed in ((0.2, 7), (0.3, 8), (0.8, 9))]
    _, channels, _ = assert_rows_equal_one_model_calls(models, [0, 1, 7], 40)
    assert not any(isinstance(c, Exception) for row in channels for c in row[:2])
    assert not any(key[0] == "complete spectrum" for model in models for key in model.lpdo._memo)


def test_failing_members_leave_the_rest_of_their_stack_alone():
    """On a ring of 5 sites, p = 1/2 is gapless and its envelope Tr T(R_z)^5
    vanishes, and p = 1/4 and 1 have strings with no live channel: each member
    fails alone, with today's error, and the others are as they are alone."""
    models = [build_aklt_model(p) for p in (0.1, 0.25, 0.5, 0.75, 1.0, 0.3)]
    rings, channels, responses = assert_rows_equal_one_model_calls(models, [0, 1, 2, 3], 5)
    assert [isinstance(ring, ZeroDivisionError) for ring in rings] == [False, False, True, False, False, False]
    assert [isinstance(r, GaplessTransferError) for r in responses] == [False, False, True, False, False, False]
    undefined = [[isinstance(c, UndefinedExponentError) for c in row[:2]] for row in channels]
    assert undefined == [[False, False], [False, True], [False, False], [False, False], [True, True], [False, False]]


def test_a_stack_of_arrays_of_several_shapes_is_computed_one_member_at_a_time():
    """Three D = 12 models, whose partial spectra hold different numbers of pairs, break
    the stack rule: the stack raises DimensionMismatchError naming two of the shapes, and
    _isolated gives each model its channel alone."""
    models = [generic_model(p, seed=seed, bond=6)[0] for p, seed in ((0.2, 7), (0.3, 8), (0.8, 9))]
    s0 = OPS["S_0"]
    with pytest.raises(DimensionMismatchError, match=r"one shape, got \(\d+,.*\) and \(\d+,.*\)"):
        _decay_channels(models, "R_z", s0, s0)
    channels = cli._isolated(lambda stack: _decay_channels(stack, "R_z", s0, s0), models)
    assert _fields(channels) == [_fields(decay_channel(_fresh(model), "R_z", s0, s0)) for model in models]


def _error(compute):
    """The type and text of the error ``compute()`` raises."""
    error = _outcome(compute)
    assert isinstance(error, Exception), error
    return type(error), str(error)


SY = (OPS["S_y"], OPS["S_y"])
ONE_FAILS = {
    # p = 1/2 on 5 sites: Tr T(R_z)^5 vanishes
    "ring": (0.5, lambda models: _ring_series(models, "R_z", ENDS, [0, 1, 2, 3], 5),
             lambda model: _string_series([model], "R_z", ENDS, [0, 1, 2, 3], 5)[0]),
    # p = 1/2: T(R_z) is gapless
    "response": (0.5, lambda models: _thermo_responses(models, FLUXES, "R_z"),
                 lambda model: thermo_response(model, "R_x", "R_z")),
    # p = 1/4: S_y's string has no live channel
    "decay": (0.25, lambda models: _decay_channels(models, "R_z", *SY),
              lambda model: decay_channel(model, "R_z", *SY)),
}


@pytest.mark.parametrize("case", list(ONE_FAILS))
def test_a_stack_with_one_failing_member_raises_that_members_error(case):
    """The member that fails sits between two that do not; the stack raises its
    error, with the type and text the member raises alone."""
    p, stacked, alone = ONE_FAILS[case]
    models = [build_aklt_model(q) for q in (0.1, p, 0.3)]
    assert _error(lambda: stacked(models)) == _error(lambda: alone(_fresh(models[1])))
    assert len(stacked([models[0], models[2]])) == 2


def test_a_stack_with_one_tensor_that_is_not_symmetric_raises_its_error():
    models = [build_aklt_model(p) for p in (0.1, 0.4)]
    rng = np.random.default_rng(0)
    shape = models[0].lpdo.tensor.shape
    bogus = LpdoTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    act = models[0].action("R_x")
    stacked = _error(lambda: extract_virtual_reps([models[0].lpdo, bogus, models[1].lpdo], act))
    assert stacked == _error(lambda: extract_virtual_rep(_alone(bogus), act))
    assert stacked[0] is NotSymmetricError
    # the stack stored no representation, not even for the members that pass
    assert not any(key[0] == "rep" for m in models for key in m.lpdo._memo)


def _counted(compute):
    """``compute`` and the sizes of the stacks it is called with, one per call."""
    sizes = []

    def counting(stack, *args):
        sizes.append(len(stack))
        return compute(stack, *args)

    return counting, sizes


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 33, 101, 256])
def test_isolating_one_failing_row_halves_its_stack(k):
    """Wherever the failing row sits, a stack of k rows costs at most
    2 ceil(log2 k) + 1 calls, each row gets its own value and the failing row its
    own error; a stack with no failing row costs one call."""
    bound = 2 * (k - 1).bit_length() + 1
    for bad in [*range(k), None]:
        error = ZeroDivisionError(bad)

        def values(stack):
            if bad in stack:
                raise error
            return [row + 0.5 for row in stack]

        compute, sizes = _counted(values)
        outcome = cli._isolated(compute, list(range(k)))
        assert outcome == [error if row == bad else row + 0.5 for row in range(k)]
        assert (sizes == [k]) if bad is None else (len(sizes) <= bound)


def test_a_sweep_isolates_its_gapless_row_in_logarithmically_many_stacks(monkeypatch):
    """The 101 rows of ``sweep --steps 101`` are one stack, and only p = 1/2 refuses
    its responses: at most 2 ceil(log2 101) + 1 = 15 stacks of responses. Without
    that row they are one stack."""
    compute, sizes = _counted(cli._thermo_responses)
    monkeypatch.setattr(cli, "_thermo_responses", compute)
    rows = cli._sweep_rows([i / 100 for i in range(101)], 200, 50)
    assert [row["p"] for row in rows if "gapless_thermo" in row["flags"]] == [0.5]
    assert sizes[0] == 101 and len(sizes) <= 15
    sizes.clear()
    cli._sweep_rows([i / 100 for i in range(101) if i != 50], 200, 50)
    assert sizes == [100]



def test_a_sweep_computes_each_refused_quantity_once_per_refused_row_and_once_more(monkeypatch):
    """``sweep --steps 101`` is one stack with three refusing rows: p = 1/2 its
    responses, p = 1/4 S_y's exponent, p = 1 both exponents. An error names its
    tensor, so a quantity with f refused rows costs f + 1 stacks, each one row
    smaller, and the ring, which none refuses, one; the rows are those of
    sweeping each p alone."""
    sizes = {}

    def counted(name, compute):
        def counting(stack, g2, *args):
            key = name
            if name == "_decay_channels":  # one quantity per endpoint pair, told by chi_l
                key += next(f" {tag}" for tag in "xy" if np.array_equal(args[0], OPS[f"S_{tag}"]))
            sizes.setdefault(key, []).append(len(stack))
            return compute(stack, g2, *args)
        return counting

    for name in ("_thermo_responses", "_ring_series", "_decay_channels"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    p_values = [i / 100 for i in range(101)]
    rows = cli._sweep_rows(p_values, 200, 50)
    assert sizes == {
        "_thermo_responses": [101, 100],
        "_ring_series": [101],
        "_decay_channels x": [101, 100],
        "_decay_channels y": [101, 100, 99],
    }
    assert [(row["p"], row["flags"]) for row in rows if row["flags"]] == [
        (0.25, ["xi_y_undefined"]), (0.5, ["gapless_thermo"]), (1.0, ["xi_x_undefined", "xi_y_undefined"])
    ]
    alone = [row for p in p_values for row in cli._sweep_rows([p], 200, 50)]
    assert cli._sweep_text(rows, "csv") == cli._sweep_text(alone, "csv")


def test_a_refused_member_of_a_stack_of_memo_misses_flags_its_own_row(monkeypatch):
    """Two of five tensors have their representation stored, so the extraction
    computes the three misses as a stack in which the tensor that is not symmetric
    comes first, not third as its row does. Its error names the tensor itself, so
    its row gets that error, the rest one more stack, and every row is its
    tensor's value alone."""
    models = [build_aklt_model(p) for p in (0.1, 0.4, 0.6, 0.9)]
    rng = np.random.default_rng(0)
    shape = models[0].lpdo.tensor.shape
    bogus = LpdoTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lpdos = [models[0].lpdo, models[1].lpdo, bogus, models[2].lpdo, models[3].lpdo]
    act = models[0].action("R_x")
    extract_virtual_reps(lpdos[:2], act)
    misses, extract = [], symmetry._extract_virtual_reps

    def recording(stack, act):
        misses.append(list(stack))
        return extract(stack, act)

    monkeypatch.setattr(symmetry, "_extract_virtual_reps", recording)
    compute, sizes = _counted(lambda stack: extract_virtual_reps(stack, act))
    reps = cli._isolated(compute, lpdos)
    assert misses[0] == [bogus, *lpdos[3:]] and sizes == [5, 4]
    assert isinstance(reps[2], NotSymmetricError) and reps[2].lpdo is bogus
    assert _fields(reps[2]) == _fields(_outcome(lambda: extract_virtual_rep(_alone(bogus), act)))
    others = [0, 1, 3, 4]
    assert [_bits(reps[i]) for i in others] == [_bits(extract_virtual_rep(_alone(lpdos[i]), act)) for i in others]


def test_an_error_that_names_no_member_still_halves_its_stack(monkeypatch):
    """A stacked eig that fails as a whole names no tensor: with the map of one
    of 8 tensors refused, the stack is halved down to that row, 2 log2 8 + 1 = 7
    stacks, and the others get their spectra alone."""
    lpdos = [build_aklt_model(p).lpdo for p in np.linspace(0.05, 0.95, 8)]
    eye = np.eye(3)
    refused = build_transfer(_alone(lpdos[5]), eye).tobytes()
    eig = np.linalg.eig

    def failing(m):
        if any(x.tobytes() == refused for x in np.reshape(m, (-1, *np.shape(m)[-2:]))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(m)

    monkeypatch.setattr(numerics.np.linalg, "eig", failing)
    compute, sizes = _counted(lambda stack: transfer_spectra(stack, eye, None))
    spectra = cli._isolated(compute, lpdos)
    assert sizes == [8, 4, 4, 2, 1, 1, 2]
    assert isinstance(spectra[5], np.linalg.LinAlgError) and not hasattr(spectra[5], "lpdo")
    others = [0, 1, 2, 3, 4, 6, 7]
    assert [_bits(spectra[i]) for i in others] == [_bits(transfer_spectrum(_alone(lpdos[i]), eye)) for i in others]


def test_the_same_tensor_twice_in_a_stack_refuses_both_its_rows_at_once():
    """p = 1/2, gapless, is the second and the fourth row of one stack: both rows get
    the error that names its tensor, and the other two one more stack."""
    models = [build_aklt_model(p) for p in (0.1, 0.5, 0.3)]
    stack = [models[0], models[1], models[2], models[1]]
    compute, sizes = _counted(lambda stack: _thermo_responses(stack, FLUXES, "R_z"))
    responses = cli._isolated(compute, stack)
    assert sizes == [4, 2]
    assert responses[1] is responses[3] and isinstance(responses[1], GaplessTransferError)
    assert responses[1].lpdo is models[1].lpdo
    assert [_fields(responses[i]) for i in (0, 1, 2)] == [
        _fields(_outcome(lambda: _thermo_responses([_fresh(model)], FLUXES, "R_z")[0])) for model in models
    ]


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



# --- the stacks commands form --------------------------------------------------

@pytest.fixture
def memo_calls(monkeypatch):
    """(function name, tensors) of each call of ``transfer._memoised`` and of the oracle's
    ``oracle._expectations``, under every name a module imported them as."""
    calls = []
    for function in (transfer._memoised, oracle._expectations):

        def recording(lpdos, *args, function=function):
            calls.append((function.__name__, list(lpdos)))
            return function(lpdos, *args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "weaksym" and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, recording)
    return calls


def test_commands_stack_only_dense_tensors_of_one_shape(memo_calls, capsys, tmp_path):
    """The stack rule of weaksym.transfer, on the commands that form stacks: the
    benchmark's seeded sweep and a 5-point one, ``verify all``, and a D = 12 model
    file, whose maps take the Krylov path. Every stack of more than one tensor, of
    the memo or of the dense oracle, holds tensors of one shape whose maps are
    decomposed densely; ``verify all`` forms such stacks of its own, one per
    quantity of a fixed grid of p, and one oracle stack per ring size."""
    model, _, _ = generic_model(0.3, bond=6)
    path = str(tmp_path / "D12.json")
    save_model(model, path)
    for argv in (
        ["sweep", *_seeded_grid(1)],
        ["sweep", "--p-min", "0", "--p-max", "1", "--steps", "5"],
        ["verify", "all"],
        ["verify", "all", "--model", path],
        ["response", "--model", path, "--g1", "R_x", "--g2", "R_z"],
        ["string", "--model", path, "--g2", "R_z", "--chi", "s0"],
    ):
        start = len(memo_calls)
        assert cli.main(argv) == 0, argv
        if argv == ["verify", "all"]:
            assert any(len(lpdos) > 1 for name, lpdos in memo_calls[start:] if name == "_memoised")
            assert [len(lpdos) for name, lpdos in memo_calls[start:] if name == "_expectations"] == [4, 4, 4]
    capsys.readouterr()
    stacks = [lpdos for _, lpdos in memo_calls if len(lpdos) > 1]
    assert stacks
    assert all(len({lpdo.tensor.shape for lpdo in lpdos}) == 1 for lpdos in stacks)
    assert all(lpdos[0].bond_dim**2 <= DENSE_MAX_ROWS for lpdos in stacks)
    assert any(lpdos[0].bond_dim == 12 for _, lpdos in memo_calls)
