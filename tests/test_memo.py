"""Per-model memo of transfer maps, spectra, leading pairs, squaring tables and virtual representations.

Eigendecompositions are counted with a wrapper around ``np.linalg.eig`` as
``weaksym.numerics`` sees it; every eigensolve in the package goes through
that one call. A full spectrum or a dense leading pair is one call on the
map itself, a partial spectrum or a Krylov leading pair (above
``DENSE_MAX_ROWS`` rows) a few calls on small Arnoldi matrices and none on
the map. Squaring tables are counted at
``ScaledPowers.__init__``.
"""

import numpy as np
import pytest

from test_generic import generic_model
from weaksym import cli, numerics, stringorder, symmetry, transfer, verify
from weaksym.errors import DimensionMismatchError, NotSymmetricError, ValidationError
from weaksym.model import LpdoTensor, aklt_group, build_aklt_model, save_model, spin1_operators
from weaksym.response import thermo_response
from weaksym.stringorder import _ring_series, string_order_series
from weaksym.symmetry import SymmetryAction, extract_virtual_rep
from weaksym.transfer import build_transfer, transfer_powers, transfer_spectrum
from weaksym.verify import generic_model_checks


@pytest.fixture
def eig_calls(monkeypatch):
    """The shape of each ``np.linalg.eig`` call in weaksym.numerics: (n, n), or (k, n, n) for a stack."""
    calls = []
    eig = numerics.np.linalg.eig

    def counting(m):
        calls.append(m.shape)
        return eig(m)

    monkeypatch.setattr(numerics.np.linalg, "eig", counting)
    return calls


def _key(m):
    return None if m is None else np.asarray(m, dtype=complex).tobytes()


def test_sweep_row_decomposes_at_most_four_maps(eig_calls):
    # A chunk of one row decomposes T(1), T(R_x, ua_x), T(R_y, ua_y) and
    # T(R_z), each once for the whole row
    (row,) = cli._sweep_rows([0.3], 200, 50)
    assert not row["flags"]
    assert len(eig_calls) <= 4


@pytest.mark.parametrize("rows", [1, 5, cli.SWEEP_CHUNK, cli.SWEEP_CHUNK + 3])
def test_a_sweep_makes_four_stacked_eig_calls_per_chunk(eig_calls, rows):
    """T(1), T(R_x, ua_x), T(R_y, ua_y) and T(R_z), each one eig on the chunk's
    (k, 4, 4) stack: a row that read a map outside the stacked list would add
    an eig of its own."""
    p_values = [0.01 + 0.97 * i / rows for i in range(rows)]  # p = 1/2, gapless, left out
    assert all(not row["flags"] for row in cli._sweep_rows(p_values, 200, 50))
    chunks = [min(cli.SWEEP_CHUNK, rows - at) for at in range(0, rows, cli.SWEEP_CHUNK)]
    assert eig_calls == [(k, 4, 4) for k in chunks for _ in range(4)]


@pytest.mark.parametrize("rows", [96, cli.SWEEP_CHUNK + 3])
def test_a_sweep_builds_each_chunk_of_models_in_one_call(monkeypatch, rows):
    """One ``model._aklt_models`` call per chunk, no model built one p at a time."""
    calls, build = [], cli._aklt_models
    monkeypatch.setattr(cli, "_aklt_models", lambda p_values: calls.append(len(p_values)) or build(p_values))
    monkeypatch.setattr(cli, "build_aklt_model", None)
    assert len(cli._sweep_rows([0.01 + 0.97 * i / rows for i in range(rows)], 200, 50)) == rows
    assert calls == [min(cli.SWEEP_CHUNK, rows - at) for at in range(0, rows, cli.SWEEP_CHUNK)]


@pytest.fixture
def gathers(monkeypatch):
    """The member count of each ``numerics._stacked`` call of more than one member, in
    every module that calls it."""
    counts, stacked = [], numerics._stacked

    def counting(arrays):
        if len(arrays) > 1:
            counts.append(len(arrays))
        return stacked(arrays)

    for module in (numerics, transfer, stringorder):
        monkeypatch.setattr(module, "_stacked", counting)
    return counts


def test_a_sweep_chunk_reads_its_stacks_back_with_no_gather(gathers):
    """A 96-row chunk's spectra, maps, leading pairs, representations and tensors are
    each read as the stack one call computed them as: no member-by-member gather (a
    96-row chunk made 40 from 14 call sites when every read gathered). The first sweep
    of a process also contracts the family's two part tensors per new insertion."""
    p_values = [0.012 + 0.97 * i / 95 for i in range(96)]
    cli._sweep_rows(p_values, 200, 50)
    gathers.clear()
    assert len(cli._sweep_rows(p_values, 200, 50)) == 96
    assert gathers == []


@pytest.mark.parametrize("checks", [verify.transfer_table_checks, verify.gap_checks], ids=["criterion-1", "criterion-3"])
def test_criteria_1_and_3_make_one_stacked_eig_per_insertion(eig_calls, checks):
    """On an uncached ``build_aklt_model``, as the acceptance tests run them: T(1)
    and T(R_z) of the 11-point grid, each one eig on the (11, 4, 4) stack. A
    spectrum read model by model, or from a second model at one p, would add
    an eig of its own."""
    assert all(result.passed for result in checks(build_aklt_model))
    assert eig_calls == [(len(verify.P_GRID), 4, 4)] * 2


def test_criterion_6_makes_one_ring_stack_per_ring_size(monkeypatch):
    """The S_0, S_x and S_y rings of the four models, one stack per N = 3, 4, 5."""
    calls = []
    ring_series = verify._ring_series

    def recording(models, g2, endpoints, lengths, n_sites):
        calls.append((len(models), n_sites))
        return ring_series(models, g2, endpoints, lengths, n_sites)

    monkeypatch.setattr(verify, "_ring_series", recording)
    assert all(result.passed for result in verify.oracle_checks(build_aklt_model))
    assert calls == [(4, 3), (4, 4), (4, 5)]


def _recording(monkeypatch, module, name, record):
    """Calls of ``module.name`` as ``record(*args)`` sees them, in a list."""
    calls = []
    function = getattr(module, name)

    def recording(*args):
        calls.append(record(*args))
        return function(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_verify_all_makes_three_oracle_calls(monkeypatch):
    """One oracle call per ring size N = 3, 4, 5, for the four models of criterion 6 at the
    seams 1, V_x and V_y: the charge and strings at the identity, two numerators at each V."""
    calls = _recording(
        monkeypatch, verify, "_expectations", lambda lpdos, seams, op_lists: (len(lpdos), [len(lists) for lists in op_lists])
    )
    assert all(result.passed for _, result in verify.run_level("all"))
    assert calls == [(4, [1 + 3 * (n - 1), 2, 2]) for n in (3, 4, 5)]


def test_criterion_7_extracts_each_element_once_for_its_stack(monkeypatch):
    """On an uncached ``build_aklt_model``: each element's representation is one extraction of
    the stack of p = 0.2 and 0.8, and each g2's conservation one stacked read for its g1."""
    extractions = _recording(monkeypatch, symmetry, "_extract_virtual_reps", lambda lpdos, act: (len(lpdos), act.element))
    conservation = _recording(
        monkeypatch, verify, "_conservation_checks", lambda models, g1s, g2: (len(models), tuple(g1s), g2)
    )
    assert all(result.passed for result in verify.structural_checks(build_aklt_model))
    labels = build_aklt_model(0.2).group.labels
    assert extractions == [(2, g) for g in labels]
    assert conservation == [(2, labels, g2) for g2 in labels[1:]]


def test_criterion_5_reads_each_grid_as_one_thermodynamic_stack(monkeypatch):
    """The S_x grid of ten p and the S_y grid of three are one series each; only the
    crossing, whose next p depends on the last, reads one model at a time."""
    calls = _recording(monkeypatch, verify, "_string_series", lambda models, g2, endpoints, lengths: len(models))
    assert all(result.passed for result in verify.exponent_checks(build_aklt_model))
    assert calls[:2] == [10, 3]
    assert calls[2:] == [1] * len(calls[2:]) and 2 <= len(calls[2:]) <= 12


@pytest.fixture
def checked_insertions(monkeypatch):
    """A list of ``(name, bytes)`` for every ``transfer._insertion`` check."""
    calls = []
    check = transfer._insertion

    def recording(m, name, leg, dim):
        calls.append((name, np.asarray(m, dtype=complex).tobytes()))
        return check(m, name, leg, dim)

    monkeypatch.setattr(transfer, "_insertion", recording)
    return calls


def test_sweep_row_checks_each_insertion_once(checked_insertions, eig_calls, power_tables):
    """T(1), T(R_x, ua_x), T(R_y, ua_y), T(R_z), T(S_x) and T(S_y): six physical
    insertions and two ancilla ones, each checked when its map is built and
    never on the lookups that hit, also in a chunk of one row."""
    model = build_aklt_model(0.3)
    cli._chunk_rows([0.3], [model], 200, 50)
    ops = spin1_operators()
    physical = [np.eye(3), *(model.action(g).u for g in ("R_x", "R_y", "R_z")), ops["S_x"], ops["S_y"]]
    ancilla = [model.action(g).ua for g in ("R_x", "R_y")]
    expected = [("op", _key(m)) for m in physical] + [("op_a", _key(m)) for m in ancilla]
    assert sorted(checked_insertions) == sorted(expected)
    assert len(eig_calls) <= 4
    assert len(power_tables) == 2


def test_a_sweep_checks_each_insertion_once_per_chunk(checked_insertions, eig_calls, power_tables):
    """T(1), T(R_x, ua_x), T(R_y, ua_y), T(R_z), T(S_x) and T(S_y): six physical
    insertions and two ancilla ones, each checked when its chunk's maps are
    built and never on the lookups a chunk makes that hit. Each chunk squares
    one stack of T(1) and one of T(R_z), the stack of one its model's tables."""
    rows = cli.SWEEP_CHUNK + 1
    cli._sweep_rows([0.3] * rows, 200, 50)
    model = build_aklt_model(0.3)
    ops = spin1_operators()
    physical = [np.eye(3), *(model.action(g).u for g in ("R_x", "R_y", "R_z")), ops["S_x"], ops["S_y"]]
    ancilla = [model.action(g).ua for g in ("R_x", "R_y")]
    expected = [("op", _key(m)) for m in physical] + [("op_a", _key(m)) for m in ancilla]
    assert sorted(checked_insertions) == sorted(expected * 2)
    assert len(eig_calls) == 8
    assert len(power_tables) == 4


def test_a_non_finite_insertion_is_refused_on_every_call_and_never_stored():
    lpdo = build_aklt_model(0.3).lpdo
    bad = np.eye(3)
    bad[1, 2] = np.nan
    entries = dict(lpdo._memo)
    for lookup in (build_transfer, transfer_spectrum, transfer_powers):
        for _ in range(2):
            with pytest.raises(ValidationError, match="op: entries must be finite"):
                lookup(lpdo, bad)
            with pytest.raises(ValidationError, match="op_a: entries must be finite"):
                lookup(lpdo, np.eye(3), np.full((4, 4), np.inf))
    assert lpdo._memo == entries


def test_the_bytes_of_a_stored_insertion_in_another_shape_are_refused():
    lpdo = build_aklt_model(0.3).lpdo
    eye3, eye4 = np.eye(3), np.eye(4)
    build_transfer(lpdo, eye3, eye4)
    transfer_spectrum(lpdo, eye3)
    for lookup in (build_transfer, transfer_spectrum, transfer_powers):
        with pytest.raises(DimensionMismatchError, match=r"op: expected square, got shape \(1, 9\)"):
            lookup(lpdo, eye3.reshape(1, 9))
        with pytest.raises(DimensionMismatchError, match=r"op: expected a 2D array, got shape \(9,\)"):
            lookup(lpdo, eye3.ravel())
        with pytest.raises(DimensionMismatchError, match=r"op_a: expected square, got shape \(2, 8\)"):
            lookup(lpdo, eye3, eye4.reshape(2, 8))


def test_an_action_of_the_wrong_size_is_refused_before_any_spectrum(eig_calls):
    model = build_aklt_model(0.3)
    act = model.action("R_x")
    for u, ua, text in (
        (np.eye(2), act.ua, "op is 2x2, tensor has d=3"),
        (act.u, np.eye(3), "op_a is 3x3, tensor has da=4"),
    ):
        for _ in range(2):
            with pytest.raises(DimensionMismatchError, match=f"^{text}$"):
                extract_virtual_rep(model.lpdo, SymmetryAction(element="R_x", u=u, ua=ua))
    assert eig_calls == []


def test_a_float_identity_shares_the_complex_identity_entry(eig_calls):
    model = build_aklt_model(0.3)
    lpdo = model.lpdo
    u = model.action("1").u
    assert u.dtype == complex
    assert transfer_spectrum(lpdo, np.eye(3)) is transfer_spectrum(lpdo, u)
    assert build_transfer(lpdo, np.eye(3)) is build_transfer(lpdo, u)
    assert transfer_powers(lpdo, np.eye(3, dtype=int)) is transfer_powers(lpdo, u)
    assert len(eig_calls) == 1


@pytest.fixture
def partial_spectra(monkeypatch):
    """A list of the maps ``transfer_spectrum`` hands to ``leading_spectrum``, as bytes."""
    maps = []
    leading = transfer.leading_spectrum

    def recording(m):
        maps.append(m.tobytes())
        return leading(m)

    monkeypatch.setattr(transfer, "leading_spectrum", recording)
    return maps


@pytest.fixture
def eigenpairs(monkeypatch):
    """A list of the maps ``transfer_eigenpair`` hands to ``leading_eigenpair``, as bytes."""
    maps = []
    leading = transfer.leading_eigenpair

    def recording(m):
        maps.append(m.tobytes())
        return leading(m)

    monkeypatch.setattr(transfer, "leading_eigenpair", recording)
    return maps


def test_generic_thermo_response_decomposes_three_maps_once(eig_calls, partial_spectra, eigenpairs, tmp_path, capsys):
    """At D=12: partial spectra of T(1) and T(R_z) and the leading pair of
    T(R_x, ua_x), each by Krylov iteration, no eig of a 144 x 144 map."""
    model, _, _ = generic_model(0.3, bond=6)
    lpdo = model.lpdo
    n = lpdo.bond_dim**2
    act_x, act_z = model.action("R_x"), model.action("R_z")
    spectra = sorted(build_transfer(lpdo, op).tobytes() for op in (np.eye(lpdo.d), act_z.u))
    pairs = [build_transfer(lpdo, act_x.u, act_x.ua).tobytes()]
    path = tmp_path / "model.json"
    save_model(model, path)
    assert cli.main(["response", "--model", str(path), "--g1", "R_x", "--g2", "R_z"]) == 0
    assert "snapped: exp(i*pi)" in capsys.readouterr().out
    assert sorted(partial_spectra) == spectra and eigenpairs == pairs
    assert eig_calls and all(shape[-1] != n for shape in eig_calls)
    # in one process, a second call on the same model computes nothing new
    partial_spectra.clear()
    eigenpairs.clear()
    thermo_response(model, "R_x", "R_z")
    assert sorted(partial_spectra) == spectra and eigenpairs == pairs
    calls = len(eig_calls)
    thermo_response(model, "R_x", "R_z")
    assert len(eig_calls) == calls and len(partial_spectra) == 2 and len(eigenpairs) == 1


def test_a_failed_extraction_computes_its_pair_once(eigenpairs):
    """A random unitary is no symmetry of the tensor: the extraction is refused
    on every call, and the pair of T(u, ua) it read stays stored."""
    model = build_aklt_model(0.3)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    bogus = SymmetryAction(element="R_z", u=q, ua=model.action("R_z").ua)
    for _ in range(2):
        with pytest.raises(NotSymmetricError, match="twisted leading modulus"):
            extract_virtual_rep(model.lpdo, bogus)
    assert eigenpairs == [build_transfer(model.lpdo, q, bogus.ua).tobytes()]


@pytest.fixture
def power_tables(monkeypatch):
    """A list of every ``ScaledPowers`` table built while the test runs."""
    tables = []
    init = numerics.ScaledPowers.__init__

    def recording(self, m):
        init(self, m)
        tables.append(self)

    monkeypatch.setattr(numerics.ScaledPowers, "__init__", recording)
    return tables


@pytest.fixture
def ring_powers(monkeypatch):
    """Every power n a squaring table assembles, in order."""
    powers = []
    power = numerics.ScaledPowers._stack_power

    def recording(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(numerics.ScaledPowers, "_stack_power", recording)
    return powers


def _p_values(rows):
    """Rows no quantity refuses: p in [0.3, 0.45)."""
    return [0.3 + 0.15 * i / rows for i in range(rows)]


def test_sweep_row_builds_one_squaring_table_per_map(power_tables):
    # The rows of a chunk share one stacked table of T(1) and one of T(R_z),
    # for both rings and the envelope Tr T(R_z)^N: squares up to 2^7 for
    # N = 200 and N - l - 2 = 148. A chunk of one builds its two tables too.
    for rows in (1, 3, cli.SWEEP_CHUNK):
        power_tables.clear()
        models = [build_aklt_model(p) for p in _p_values(rows)]
        assert not any(row["flags"] for row in cli._chunk_rows(_p_values(rows), models, 200, 50))
        assert len(power_tables) == 2
        for table, op in zip(power_tables, (np.eye(3), models[0].action("R_z").u)):
            maps = [build_transfer(model.lpdo, op) for model in models]
            assert table._squares[0][0].tobytes() == np.stack(maps).tobytes()
        assert sum(len(table._squares) - 1 for table in power_tables) == 14


def test_sweep_row_computes_each_ring_power_once(power_tables, ring_powers):
    """The S_x and S_y rings of a chunk share the envelope T(R_z)^200 and the
    powers T(R_z)^50 and T(1)^148; each is assembled from its table once per
    chunk, for every row of the chunk at once."""
    for rows, chunks in ((1, 1), (5, 1), (cli.SWEEP_CHUNK + 1, 2)):
        power_tables.clear()
        ring_powers.clear()
        assert not any(row["flags"] for row in cli._sweep_rows(_p_values(rows), 200, 50))
        assert sorted(ring_powers) == sorted([50, 148, 200] * chunks)
        assert len(power_tables) == 2 * chunks
        assert sum(len(table._squares) - 1 for table in power_tables) == 14 * chunks


def test_transfer_powers_are_memoised_and_bit_equal_to_a_fresh_model():
    model, _, _ = generic_model(0.3)
    lpdo = model.lpdo
    act = model.action("R_z")
    ns = [0, 1, 3, 50, 200, 2999]
    for op, op_a in ((act.u, None), (act.u, act.ua), (np.eye(lpdo.d), None)):
        table = transfer_powers(lpdo, op, op_a)
        assert transfer_powers(lpdo, op, op_a) is table
        fresh = transfer_powers(LpdoTensor(lpdo.tensor), op, op_a)
        assert fresh is not table
        for n in ns:
            (m, e), (m0, e0) = table.power(n), fresh.power(n)
            assert m.tobytes() == m0.tobytes() and e == e0


@pytest.mark.parametrize(
    "lengths, n_sites", [(range(0, 99), 100), ([0, 7, 2998], 3000), (range(0, 3000, 7), 10**6)], ids=["N100", "N3000", "N1e6"]
)
def test_a_ring_series_of_one_model_is_its_row_of_a_stack(power_tables, lengths, n_sites):
    """A ring series has one source of squaring tables, a stack of one included: it builds
    the tables of T(1) and T(R_z) for the call and leaves no ("powers", ...) entry in its
    tensor's memo, and each field of its series is bit for bit its model's row in a
    stack of three."""
    sx = spin1_operators()["S_x"]
    alone = build_aklt_model(0.3)
    series = string_order_series(alone, "R_z", sx, sx, lengths, n_sites=n_sites)
    assert len(power_tables) == 2
    assert [key for key in alone.lpdo._memo if key[0] == "powers"] == []
    row = _ring_series([build_aklt_model(p) for p in (0.2, 0.3, 0.7)], "R_z", [(sx, sx)], lengths, n_sites)[1][0]
    for field in ("lengths", "raw", "normalized", "mantissa"):
        assert getattr(series, field).tobytes() == getattr(row, field).tobytes(), field
    assert series.exponent.tolist() == row.exponent.tolist() and series.exponent.dtype == row.exponent.dtype
    assert (series.n_sites, series.base) == (row.n_sites, row.base)


def test_generic_checks_decompose_each_insertion_once(eig_calls):
    model, _, _ = generic_model(0.3)
    lpdo = model.lpdo
    eye = np.eye(lpdo.d)
    insertions = {(_key(eye), None)}
    for g in model.group.labels:
        act = model.action(g)
        insertions.add((_key(act.u), _key(act.ua)))
        if g != model.group.identity:
            insertions.add((_key(act.u), None))
            insertions.add((_key(eye), _key(act.ua)))
    results = generic_model_checks(model)
    assert all(result.passed for _, result in results)
    assert len(eig_calls) <= len(insertions)


def _snapshot(lpdo, model):
    """Every memoised kind of value of ``lpdo`` as raw bytes."""
    eye = np.eye(lpdo.d)
    out = []
    for g in model.group.labels:
        act = model.action(g)
        for op, op_a in ((act.u, None), (act.u, act.ua), (eye, act.ua)):
            out.append(build_transfer(lpdo, op, op_a).tobytes())
            spectrum = transfer_spectrum(lpdo, op, op_a)
            out += [a.tobytes() for a in (spectrum.eigenvalues, spectrum.right_vectors, spectrum.left_vectors)]
            out += [spectrum.condition_estimate, spectrum.pairing_residual < numerics.PAIRING_TOL, spectrum.near_defective]
        rep, theta = extract_virtual_rep(lpdo, act)
        out += [rep.element, rep.v.tobytes(), rep.residual, theta]
    return out


def test_memoised_values_are_bit_equal_to_a_fresh_model():
    model, _, _ = generic_model(0.8)
    lpdo = model.lpdo
    first = _snapshot(lpdo, model)
    act = model.action("R_y")
    assert build_transfer(lpdo, act.u) is build_transfer(lpdo, act.u)
    assert transfer_spectrum(lpdo, act.u, act.ua) is transfer_spectrum(lpdo, act.u, act.ua)
    assert extract_virtual_rep(lpdo, act) is extract_virtual_rep(lpdo, act)
    assert _snapshot(lpdo, model) == first
    assert _snapshot(LpdoTensor(lpdo.tensor), model) == first


def test_identical_actions_keep_their_own_labels():
    model = build_aklt_model(0.3)
    act = model.action("R_x")
    first = extract_virtual_rep(model.lpdo, SymmetryAction(element="a", u=act.u, ua=act.ua))[0]
    second = extract_virtual_rep(model.lpdo, SymmetryAction(element="b", u=act.u, ua=act.ua))[0]
    assert (first.element, second.element) == ("a", "b")
    assert first.v.tobytes() == second.v.tobytes()


def test_shared_arrays_are_read_only():
    model = build_aklt_model(0.3)
    lpdo = model.lpdo
    act = model.action("R_z")
    spectrum = transfer_spectrum(lpdo, act.u)
    arrays = [
        lpdo.tensor,
        build_transfer(lpdo, act.u),
        build_transfer(lpdo, act.u, act.ua),
        spectrum.eigenvalues,
        spectrum.right_vectors,
        spectrum.left_vectors,
        extract_virtual_rep(lpdo, act)[0].v,
    ]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0


def test_constructor_copies_the_tensor():
    tensor = np.array(build_aklt_model(0.3).lpdo.tensor)
    reference = LpdoTensor(tensor)
    expected = build_transfer(reference, np.eye(3)).tobytes()
    lpdo = LpdoTensor(tensor)
    tensor[...] = 0
    assert build_transfer(lpdo, np.eye(3)).tobytes() == expected
    assert np.any(lpdo.tensor != 0)


def test_aklt_group_is_built_once():
    assert aklt_group() is aklt_group()
    assert build_aklt_model(0.2).group is build_aklt_model(0.7).group
