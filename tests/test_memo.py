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
from weaksym import cli, numerics, transfer
from weaksym.errors import DimensionMismatchError, NotSymmetricError, ValidationError
from weaksym.model import LpdoTensor, aklt_group, build_aklt_model, save_model, spin1_operators
from weaksym.response import thermo_response
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
    # On a model whose memo no stack has filled, one row decomposes T(1),
    # T(R_x, ua_x), T(R_y, ua_y) and T(R_z), each once for the whole row
    row = cli._sweep_row(0.3, build_aklt_model(0.3), 200, 50)
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
    never on the ~30 lookups that hit, also on a row no stack has filled."""
    model = build_aklt_model(0.3)
    cli._sweep_row(0.3, model, 200, 50)
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
    built and never on the ~30 lookups a row makes that hit."""
    rows = cli.SWEEP_CHUNK + 1
    cli._sweep_rows([0.3] * rows, 200, 50)
    model = build_aklt_model(0.3)
    ops = spin1_operators()
    physical = [np.eye(3), *(model.action(g).u for g in ("R_x", "R_y", "R_z")), ops["S_x"], ops["S_y"]]
    ancilla = [model.action(g).ua for g in ("R_x", "R_y")]
    expected = [("op", _key(m)) for m in physical] + [("op_a", _key(m)) for m in ancilla]
    assert sorted(checked_insertions) == sorted(expected * 2)
    assert len(eig_calls) == 8
    assert len(power_tables) == 2 * rows


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


def test_sweep_row_builds_one_squaring_table_per_map(power_tables):
    # Both ring strings and the envelope Tr T(R_z)^N share the tables of
    # T(1) and T(R_z): squares up to 2^7 for N = 200 and N - l - 2 = 148.
    model = build_aklt_model(0.3)
    cli._sweep_row(0.3, model, 200, 50)
    maps = [build_transfer(model.lpdo, op) for op in (np.eye(3), model.action("R_z").u)]
    assert len(power_tables) == 2
    assert {table._squares[0][0].tobytes() for table in power_tables} == {t.tobytes() for t in maps}
    assert sum(len(table._squares) - 1 for table in power_tables) == 14


def test_sweep_row_computes_each_ring_power_once(power_tables, monkeypatch):
    """The S_x and S_y rings share the envelope T(R_z)^200 and the powers
    T(R_z)^50 and T(1)^148; each is assembled from its table once per row."""
    powers = []
    power = numerics.ScaledPowers.power

    def recording(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(numerics.ScaledPowers, "power", recording)
    row = cli._sweep_row(0.3, build_aklt_model(0.3), 200, 50)
    assert not row["flags"]
    assert sorted(powers) == [50, 148, 200]
    assert len(power_tables) == 2
    assert sum(len(table._squares) - 1 for table in power_tables) == 14


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
