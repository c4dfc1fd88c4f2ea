import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from test_generic import generic_model
from test_response import product_state_model
from test_stringorder import flip_model
import weaksym
from weaksym import cli
from weaksym.cli import CSV_HEADER, _build_parser, _fmt, _fmt_column, _json_float, _root_label, main
from weaksym.errors import GaplessTransferError, ValidationError
from weaksym.model import LpdoTensor, build_aklt_model, load_model, save_model, spin1_operators
from weaksym.numerics import ldexp
from weaksym.response import thermo_response
from weaksym.stringorder import string_order_series
from weaksym.transfer import transfer_powers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- sweep -------------------------------------------------------------------

def test_sweep_header_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_sweep_single_point_gapless_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "1", "--p-min", "0.5")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "0.5"
    assert row[1] == "nan" and row[3] == "nan"
    assert "gapless_thermo" in row[-1]


def test_sweep_quantized_columns(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "1", "--p-min", "0.2")
    row = out.strip().split("\n")[1].split(",")
    p, reqxz, imqxz, reqyz = (float(x) for x in row[:4])
    assert abs(reqxz - (-1)) < 1e-8 and abs(reqyz - (-1)) < 1e-8
    assert abs(float(row[5]) - 0.4) < 1e-12  # gap (2-4p)/3 at p=0.2
    assert abs(float(row[8]) - np.log(3)) < 1e-6  # xi_x


def _closed_form_xi(p, tag):
    return -np.log(abs(-1 / 3 if tag == "x" else (4 * p - 1) / 3))


def test_sweep_exponents_on_101_points(capsys):
    """Both exponents equal -ln|r| to 1e-12 wherever the string has a channel.

    Refused only where they do not exist: S_y's channel is nilpotent at
    p = 1/4 and both strings vanish at p = 1. At p = 1/2, where T(R_z) is
    gapless, both channels have |r| = 1/3.
    """
    code, out, _ = run(capsys, "sweep", "--steps", "101")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 101
    undefined = set()
    for row in rows:
        p, flags = float(row[0]), row[-1].split(";")
        for tag, column in (("x", 8), ("y", 9)):
            xi = float(row[column])
            if f"xi_{tag}_undefined" in flags:
                assert np.isnan(xi)
                undefined.add((p, tag))
            else:
                assert xi == pytest.approx(_closed_form_xi(p, tag), rel=1e-12), (p, tag)
    assert undefined == {(0.25, "y"), (1.0, "x"), (1.0, "y")}
    half = next(row for row in rows if row[0] == "0.5")
    assert float(half[8]) == pytest.approx(np.log(3), rel=1e-12)
    assert float(half[9]) == pytest.approx(np.log(3), rel=1e-12)


@pytest.mark.parametrize("p", ["0.2485", "0.2515"])
def test_sweep_exponent_next_to_the_nilpotent_point(capsys, p):
    """|r| = 0.002: a window fit loses this channel under roundoff, the spectrum does not."""
    code, out, _ = run(capsys, "sweep", "--p", p)
    row = out.strip().split("\n")[1].split(",")
    assert code == 0 and "xi_y_undefined" not in row[-1]
    assert float(row[9]) == pytest.approx(_closed_form_xi(float(p), "y"), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_vanishing_strings_at_p1_warn_nothing(capsys):
    code, out, err = run(capsys, "sweep", "--p", "1")
    assert code == 0 and err == ""
    assert "xi_x_undefined;xi_y_undefined" in out
    for chi in ("sx", "sy"):
        code, out, err = run(capsys, "string", "--p", "1", "--g2", "R_z", "--chi", chi, "--l-max", "5")
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1] == "# xi=nan residual=nan window=none flags=xi_undefined"


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--steps", "4", "--out", str(a)]) == 0
    assert main(["sweep", "--steps", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_round_trip(capsys):
    code, out, _ = run(capsys, "sweep", "--steps", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    assert json.loads(json.dumps(doc)) == doc
    row = doc["rows"][0]
    assert row["p"] == 0.0 and isinstance(row["flags"], str) is False


def test_sweep_rejects_model_file(tmp_path, capsys):
    """sweep varies p of the built-in family; it has no --model option."""
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    code, _, err = run(capsys, "sweep", "--model", str(path))
    assert code == 1
    assert "unrecognized arguments: --model" in err


def test_sweep_bad_out_path(capsys):
    code, _, err = run(capsys, "sweep", "--steps", "1", "--out", "/no/such/dir/x.csv")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--steps", "0"), "--steps must be at least 1"),
        (("--sites", "10", "--string-length", "9"), "need 0 <= l <= N-2, got l=9, N=10"),
        (("--string-length", "-1"), "need 0 <= l <= N-2, got l=-1, N=200"),
        (("--sites", "0"), "a ring needs at least 1 site, got N=0"),
    ],
)
def test_sweep_refusals(capsys, monkeypatch, argv, message):
    """The string-length and ring-size rules are the library's, applied before any model is built."""
    monkeypatch.setattr(cli, "build_aklt_model", None)
    monkeypatch.setattr(cli, "_aklt_models", None)
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# Of the 700 grids --p-min 0, 0.01, ..., 0.99 by these step counts that end at --p-max 1,
# the six of ROUNDED_PAST_ONE put their last point at 1.0000000000000002 by the grid formula.
GRID_STEPS = (2, 3, 7, 11, 21, 96, 101)
ROUNDED_PAST_ONE = [("0.08", 11), ("0.08", 21), ("0.19", 11), ("0.19", 21), ("0.2", 7), ("0.22", 96)]


@pytest.mark.parametrize("p_min, steps", ROUNDED_PAST_ONE)
def test_a_grid_that_rounds_past_one_ends_at_one(capsys, p_min, steps):
    """A point the grid formula rounds past 1 is 1 (it exited 1, refusing p = 1.0000000000000002)."""
    code, out, err = run(capsys, "sweep", "--p-min", p_min, "--p-max", "1", "--steps", str(steps))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == steps + 1
    _, one, _ = run(capsys, "sweep", "--p", "1")
    assert out.splitlines()[-1] == one.splitlines()[1]


def test_the_grid_moves_no_point_inside_the_unit_interval(monkeypatch):
    """Every grid point in [0, 1] is the formula's p_min + i (p_max - p_min) / (steps - 1)
    bit for bit, as the benchmark's checks recompute it; only the six that it rounds
    past 1 move, to 1. A grid with an end outside [0, 1] is left as it is, for the model
    builder to refuse."""
    grids = []
    monkeypatch.setattr(cli, "_sweep_rows", lambda p_values, n_sites, length: grids.append(p_values) or [])
    moved = []
    for p_min in (f"{i / 100}" for i in range(100)):
        for steps in GRID_STEPS:
            assert main(["sweep", "--p-min", p_min, "--p-max", "1", "--steps", str(steps), "--out", os.devnull]) == 0
            formula = [float(p_min) + i * (1.0 - float(p_min)) / (steps - 1) for i in range(steps)]
            assert grids[-1] == [p if p <= 1.0 else 1.0 for p in formula]
            if grids[-1] != formula:
                moved.append((p_min, steps))
    assert moved == ROUNDED_PAST_ONE
    assert main(["sweep", "--p-min", "0.5", "--p-max", "1.5", "--steps", "3", "--out", os.devnull]) == 0
    assert grids[-1] == [0.5, 1.0, 1.5]


# --- response ----------------------------------------------------------------

def test_response_low_noise(capsys):
    code, out, _ = run(capsys, "response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z")
    assert code == 0
    assert "snapped: exp(i*pi)" in out
    gap_line = [l for l in out.splitlines() if l.startswith("gap:")][0]
    assert abs(float(gap_line.split()[1]) - 0.4) < 1e-12


def test_response_identity(capsys):
    code, out, _ = run(capsys, "response", "--p", "0.2", "--g1", "identity", "--g2", "R_z")
    assert code == 0
    assert out.startswith("value: 1")
    assert "snapped: 1" in out


def test_response_gapless_exits_3(capsys):
    code, _, err = run(capsys, "response", "--p", "0.5", "--g1", "R_y", "--g2", "R_z")
    assert code == 3
    assert "gap" in err


@pytest.mark.parametrize("bond", [3, 6], ids=["D6", "D12"])
def test_generic_model_gapless_at_half_noise_exits_3(bond, tmp_path, capsys):
    """At p = 1/2 the leading 1/3 of T(R_z) is doubly degenerate, on the dense and the Krylov path."""
    model, _, _ = generic_model(0.5, bond=bond)
    with pytest.raises(GaplessTransferError):
        thermo_response(model, "R_y", "R_z")
    path = tmp_path / "model.json"
    save_model(model, path)
    code, _, err = run(capsys, "response", "--model", str(path), "--g1", "R_y", "--g2", "R_z")
    assert code == 3
    assert "gap" in err


def test_response_json(capsys):
    code, out, _ = run(capsys, "response", "--p", "0.8", "--g1", "R_y", "--g2", "R_z", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"][0] - 1) < 1e-8
    assert doc["snapped"] == "1"
    assert doc["mode"] == "thermo" and doc["valid"]


def test_response_finite_mode(capsys):
    code, out, _ = run(
        capsys, "response", "--p", "0.2", "--g1", "R_y", "--g2", "R_z", "--sites", "200", "--json"
    )
    doc = json.loads(out)
    assert doc["mode"] == "finite" and doc["n_sites"] == 200
    assert abs(doc["value"][0] - (-1)) < 1e-8


def test_response_unknown_element(capsys):
    code, _, err = run(capsys, "response", "--p", "0.2", "--g1", "R_w", "--g2", "R_z")
    assert code == 1
    assert "unknown group element" in err


@pytest.mark.parametrize("sites", ["0", "-1"])
def test_response_refuses_rings_of_fewer_than_one_site(capsys, sites):
    code, out, err = run(capsys, "response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z", "--sites", sites)
    assert code == 1 and out == ""
    assert err == f"error: a ring needs at least 1 site, got N={sites}\n"


def test_response_refuses_p_with_a_model_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    code, out, err = run(capsys, "response", "--model", str(path), "--p", "0.3", "--g1", "R_x", "--g2", "R_z")
    assert code == 1 and out == ""
    assert err == "error: --p only applies to the built-in aklt family, not model files\n"


def test_response_cancelled_ring_prints_nan_and_exits_3(capsys):
    """At p = 1/2 the trace of T(R_x)^7 cancels: the value is printed as nan and refused."""
    code, out, err = run(capsys, "response", "--p", "0.5", "--g1", "R_z", "--g2", "R_x", "--sites", "7")
    assert code == 3
    assert out.splitlines()[0] == "value: nan-nanj"
    assert err == "error: response denominator vanishes; value undefined\n"


def test_root_labels():
    assert _root_label(Fraction(0)) == "1"
    assert _root_label(Fraction(1, 2)) == "exp(i*pi)"
    assert _root_label(Fraction(1, 3)) == "exp(2*pi*i*1/3)"


def test_response_requires_p(capsys):
    code, _, err = run(capsys, "response", "--g1", "R_x", "--g2", "R_z")
    assert code == 1


def test_response_mode_conflict(capsys):
    """The thermodynamic limit is the default; there is no --thermo to conflict with --sites."""
    code, _, err = run(
        capsys, "response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z", "--thermo", "--sites", "10"
    )
    assert code == 1
    assert "unrecognized arguments: --thermo" in err


@pytest.mark.parametrize(
    "argv, removed",
    [
        (("sweep", "--steps", "1", "--model", "aklt"), "--model aklt"),
        (("response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z", "--thermo"), "--thermo"),
        (("string", "--p", "0.2", "--g2", "R_z", "--chi", "sx", "--thermo"), "--thermo"),
        (("string", "--p", "0.2", "--g2", "R_z", "--chi", "sx", "--tol", "1e-8"), "--tol 1e-8"),
        (("sweep", "--steps", "1", "--tol", "1e-8"), "--tol 1e-8"),
        (("response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z", "--tol", "1e-8"), "--tol 1e-8"),
    ],
)
def test_options_that_did_nothing_are_usage_errors(capsys, argv, removed):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {removed}" in err


@pytest.mark.parametrize("p", ["0.3", "0.75"])
def test_response_thousands_of_sites_exit_zero(capsys, p):
    for sites in ("2000", "3000"):
        code, out, err = run(capsys, "response", "--p", p, "--g1", "R_x", "--g2", "R_z", "--sites", sites)
        assert code == 0 and err == ""
        assert "(snapped: exp(i*pi))" in out.splitlines()[0]


def test_response_at_a_noise_rate_next_to_zero(capsys):
    """Every p in [0, 1] has the same ancilla actions, so a tiny p is no special case."""
    code, out, err = run(capsys, "response", "--p", "1e-14", "--g1", "R_x", "--g2", "R_z")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "value: -1+0j (snapped: exp(i*pi))"


@pytest.mark.parametrize("scale", ["1e-4", "1e-2", "1", "1e4", "1e8"])
def test_rescaled_tensor_gives_the_same_phase(tmp_path, capsys, scale):
    """A tensor times c describes the same state: the modulus and gap tests are relative to |lambda_0(T(1))|."""
    model = build_aklt_model(0.2)
    path = tmp_path / "scaled.json"
    save_model(replace(model, lpdo=LpdoTensor(model.lpdo.tensor * float(scale))), path)
    code, out, err = run(capsys, "response", "--model", str(path), "--g1", "R_x", "--g2", "R_z")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "value: -1+0j (snapped: exp(i*pi))"
    gap = float(out.splitlines()[1].split()[1])
    assert gap == pytest.approx(0.4 * float(scale) ** 2, rel=1e-12)
    code, out, err = run(capsys, "string", "--model", str(path), "--g2", "R_z", "--chi", "sx", "--l-max", "3")
    assert code == 0 and err == ""
    xi = float(out.strip().splitlines()[-1].split()[1].split("=")[1])
    assert xi == pytest.approx(np.log(3) - 2 * np.log(float(scale)), abs=1e-12)


def test_overflowed_raw_prints_inf_not_nan(tmp_path, capsys):
    """Times 1e4, |lambda_0(T(R_z))|^l passes the double range at l = 39: raw prints +-inf with a zero imaginary part."""
    model = build_aklt_model(0.2)
    path = tmp_path / "scaled.json"
    save_model(replace(model, lpdo=LpdoTensor(model.lpdo.tensor * 1e4)), path)
    code, out, err = run(capsys, "string", "--model", str(path), "--g2", "R_z", "--chi", "sx", "--l-max", "60")
    assert code == 0 and err == "" and "nan" not in out
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    assert rows[38][1] != "inf" and rows[39][:3] == ["39", "inf", "0"] and rows[40][:3] == ["40", "-inf", "0"]


def strict_json(text):
    """json.loads refusing the NaN, Infinity and -Infinity tokens that JSON does not have."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_overflowed_raw_prints_null_in_json(tmp_path, capsys):
    model = build_aklt_model(0.2)
    path = tmp_path / "scaled.json"
    save_model(replace(model, lpdo=LpdoTensor(model.lpdo.tensor * 1e4)), path)
    argv = ("string", "--model", str(path), "--g2", "R_z", "--chi", "sx", "--l-max", "60", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    rows = strict_json(out)["rows"]
    assert rows[38]["raw"][0] is not None and rows[39]["raw"] == [None, 0.0]
    assert sum(v is None for row in rows for v in row["raw"] + row["normalized"]) == 22


def test_infinite_gap_prints_null_in_json(tmp_path, capsys):
    path = tmp_path / "product.json"
    save_model(product_state_model(), path)
    code, out, err = run(capsys, "response", "--model", str(path), "--g1", "g", "--g2", "g", "--json")
    assert code == 0 and err == ""
    doc = strict_json(out)
    assert doc["gap"] is None and doc["value"] == [1.0, 0.0] and doc["snapped"] == "1" and doc["valid"]
    code, out, _ = run(capsys, "response", "--model", str(path), "--g1", "g", "--g2", "g")
    assert code == 0 and "gap: inf\n" in out


VERIFY_TOL_POWERS = {"actions": (1e-8, 1), "commutants": (1e-10, 2), "conservation": (1e-8, 0), "oracle": (1e-10, 6)}


@pytest.mark.parametrize("scale", ["1e-4", "1", "1e4", "1e8"])
def test_rescaled_tensor_passes_verify(tmp_path, capsys, scale):
    """A tensor times c has |lambda_0(T(1))| = c^2, and each verify --model
    tolerance scales with it at the power of its residual: the push-through
    residual as c, a commutant as c^2, a charge on 3 sites as c^6; the
    conservation residual compares phases."""
    model = build_aklt_model(0.2)
    path = tmp_path / "scaled.json"
    save_model(replace(model, lpdo=LpdoTensor(model.lpdo.tensor * float(scale))), path)
    code, out, err = run(capsys, "verify", "all", "--model", str(path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "33/33 checks passed"
    for line in lines[:-1]:
        section, tol = re.match(r"PASS  \[(\w+)\] .* vs tol (\S+)$", line).groups()
        base, power = VERIFY_TOL_POWERS[section]
        assert float(tol) == pytest.approx(base * float(scale) ** power, rel=1e-9)


def test_python_dash_m_entry_point(capsys):
    """``python -m weaksym`` runs ``cli.main`` and exits with its code."""
    argv = ["response", "--p", "0.3", "--g1", "R_x", "--g2", "R_z"]
    code, out, err = run(capsys, *argv)
    src = str(Path(weaksym.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "weaksym", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (0, out, "")


# --- string ------------------------------------------------------------------

def test_string_fit_footer(capsys):
    code, out, _ = run(
        capsys, "string", "--p", "0.75", "--g2", "R_z", "--chi", "sy",
        "--l-min", "20", "--l-max", "50",
    )
    assert code == 0
    footer = out.strip().splitlines()[-1]
    assert footer.startswith("# xi=") and "window=spectrum" in footer
    xi = float(footer.split()[1].split("=")[1])
    assert abs(xi - np.log(1.5)) < 1e-6


def test_string_s0_exponent(capsys):
    code, out, _ = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "s0",
        "--l-min", "20", "--l-max", "50",
    )
    footer = out.strip().splitlines()[-1]
    xi = float(footer.split()[1].split("=")[1])
    assert abs(xi - np.log(3)) < 1e-6


def test_string_ring_length_guard(capsys):
    code, _, err = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sy",
        "--sites", "30", "--l-max", "40",
    )
    assert code == 1
    assert "N-2" in err


def test_string_refuses_l_min_above_l_max(capsys, monkeypatch):
    """The one rule the CLI keeps: it is about two of its options."""
    monkeypatch.setattr(cli, "build_aklt_model", None)
    code, out, err = run(capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sy", "--l-min", "5", "--l-max", "4")
    assert code == 1 and out == ""
    assert err == "error: --l-min must be at most --l-max\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--l-min", "-1", "--l-max", "4"), "string length must be >= 0, got -1"),
        (("--sites", "30", "--l-max", "40"), "need 0 <= l <= N-2, got l=40, N=30"),
        (("--sites", "-3", "--l-max", "4"), "a ring needs at least 1 site, got N=-3"),
    ],
)
def test_string_refuses_lengths_before_building_the_model(capsys, monkeypatch, argv, message):
    """The CLI keeps its rule on two options; the length and ring-size rules are the library's."""
    monkeypatch.setattr(cli, "build_aklt_model", None)
    code, out, err = run(capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sy", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_string_on_a_two_state_model(tmp_path, capsys):
    """Built-in endpoints are spin-1 operators, refused at d = 2; with an explicit one, T(x) = 0 leaves no normalization (exit 3)."""
    path = tmp_path / "flip.json"
    save_model(flip_model(), path)
    code, out, err = run(capsys, "string", "--model", str(path), "--g2", "x", "--chi", "sz")
    assert code == 1 and out == ""
    assert err == "error: built-in endpoint 'sz' is a spin-1 operator; model has d=2\n"
    chi = tmp_path / "z.json"
    chi.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]))
    code, out, err = run(capsys, "string", "--model", str(path), "--g2", "x", "--chi", str(chi))
    assert code == 3 and out == ""
    assert "leading twisted eigenvalue vanishes" in err


def test_string_vanishing_ring_envelope_exits_3(capsys):
    """At p = 1/2, Tr T(R_z)^3 = 2(1/3)^3 + 2(-1/3)^3 is exactly 0: no normalization."""
    code, out, err = run(
        capsys, "string", "--p", "0.5", "--g2", "R_z", "--chi", "sx", "--sites", "3", "--l-max", "1"
    )
    assert code == 3 and out == ""
    assert "Tr[rho U_g2] vanishes" in err


def test_sweep_flags_vanishing_ring_envelope(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "0.5", "--sites", "3", "--string-length", "1")
    row = out.strip().split("\n")[1].split(",")
    assert code == 0
    assert row[6] == row[7] == "nan"
    assert row[-1].endswith("sn_x_undefined;sn_y_undefined")


def test_string_underflow_flagged_not_fatal(capsys):
    """S_y's channel is nilpotent at p=1/4; the exponent is flagged, exit stays 0."""
    code, out, _ = run(
        capsys, "string", "--p", "0.25", "--g2", "R_z", "--chi", "sy",
        "--l-min", "10", "--l-max", "30",
    )
    assert code == 0
    assert "xi_undefined" in out


def test_string_json_structure(capsys):
    code, out, _ = run(
        capsys, "string", "--p", "0.75", "--g2", "R_z", "--chi", "sy",
        "--l-min", "20", "--l-max", "30", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["mode"] == "thermo"
    assert len(doc["rows"]) == 11
    assert abs(doc["fit"]["xi"] - np.log(1.5)) < 1e-6
    assert doc["fit"]["window"] == "spectrum" and doc["fit"]["residual"] < 1e-20


def test_string_chi_from_file(tmp_path, capsys):
    chi = np.diag([1.0, 0.0, -1.0])  # S_z as an explicit matrix
    path = tmp_path / "chi.json"
    path.write_text(json.dumps([[[float(x), 0.0] for x in row] for row in chi]))
    code, out, _ = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", str(path),
        "--l-min", "0", "--l-max", "5",
    )
    assert code == 0


def test_string_builtin_chi_matches_file(tmp_path, capsys):
    _, from_name, _ = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sz",
        "--l-min", "0", "--l-max", "5",
    )
    chi = np.diag([1.0, 0.0, -1.0])
    path = tmp_path / "chi.json"
    path.write_text(json.dumps([[[float(x), 0.0] for x in row] for row in chi]))
    _, from_file, _ = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", str(path),
        "--l-min", "0", "--l-max", "5",
    )
    assert from_name == from_file


# --- verify ------------------------------------------------------------------

def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_model_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("level", ["tables", "oracle"])
def test_verify_a_model_file_at_a_built_in_level_is_a_usage_error(tmp_path, capsys, level):
    """Those levels check the built-in family; a model file takes level all, named or not."""
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    code, out, err = run(capsys, "verify", level, "--model", str(path))
    assert code == 1 and out == ""
    assert f"error: verify {level} checks the built-in family" in err
    named, unnamed = (run(capsys, "verify", *argv, "--model", str(path)) for argv in (["all"], []))
    assert named == unnamed and named[0] == 0


def test_verify_corrupted_model_names_invariant(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    doc["actions"][1]["u"][0][0] = [5.0, 0.0]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 1
    assert "FAIL" in out and "unitary" in out


def test_verify_model_that_breaks_the_push_through_law(tmp_path, capsys):
    """A tensor off the symmetric one by 1e-3: every non-identity element fails and verify exits 1."""
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    noise = 1e-3 * np.random.default_rng(0).normal(size=np.shape(doc["tensor"]))
    doc["tensor"] = (np.array(doc["tensor"]) + noise).tolist()
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL  [actions] push-through law for {g}" for g in ("R_x", "R_y", "R_z")
    ]
    assert all("worst nan vs tol 1e-08  (tensor not symmetric under" in line for line in failed)
    assert out.splitlines()[-1] == f"{out.count('PASS')}/{out.count('PASS') + 3} checks passed"


def test_verify_model_skips_conservation_where_gapless(tmp_path, capsys):
    """At p = 1/2 every twisted transfer is gapless: each conservation line is a skip, and verify passes."""
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.5), path)
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 0
    lines = [line for line in out.splitlines() if "[conservation]" in line]
    assert len(lines) == 12
    assert all(line.startswith("PASS") and "(skipped: symmetry gap for" in line for line in lines)


def test_verify_missing_model_file(capsys):
    code, _, err = run(capsys, "verify", "--model", "/no/such/model.json")
    assert code == 2


def _pop_kraus_row(doc):
    doc["channel"]["kraus"][0].pop()
    return doc


def _nan_in_tensor(doc):
    doc["tensor"][0][0][0][0] = [float("nan"), 0.0]  # json writes and reads it as NaN
    return doc


def _unknown_label_in_table(doc):
    doc["group"]["table"][1][2] = "R_w"
    return doc


# A malformed model file, mostly a field of the wrong JSON type: (edit of a saved file, start of the
# error: the field path, and for some the refusal too).
MALFORMED = {
    "not-an-object": (lambda doc: 5, "file"),
    "elements-not-a-list": (lambda doc: {**doc, "group": {**doc["group"], "elements": 5}}, "group.elements"),
    "rows-not-lists": (lambda doc: {**doc, "group": {**doc["group"], "table": [1, 2, 3, 4]}}, "group.table"),
    "p-a-string": (lambda doc: {**doc, "channel": {**doc["channel"], "p": "x"}}, "channel.p"),
    "p-a-list": (lambda doc: {**doc, "channel": {**doc["channel"], "p": [0.1]}}, "channel.p"),
    "ragged-kraus": (_pop_kraus_row, "channel.kraus"),
    "p-a-bool": (lambda doc: {**doc, "channel": {**doc["channel"], "p": True}}, "channel.p"),
    "D-a-float": (lambda doc: {**doc, "D": 2.7}, "d/da/D"),
    "d-a-string": (lambda doc: {**doc, "d": "3"}, "d/da/D"),
    "da-a-bool": (lambda doc: {**doc, "da": True}, "d/da/D"),
    # an extra entry labelled "1" that carries R_x's action
    "second-action-for-an-element": (
        lambda doc: {**doc, "actions": doc["actions"] + [{**doc["actions"][1], "element": "1"}]},
        "actions[4].element",
    ),
    "no-actions": (lambda doc: {k: v for k, v in doc.items() if k != "actions"}, "actions: missing required field"),
    "d-zero": (lambda doc: {**doc, "d": 0}, "d/da/D: dimensions must be positive"),
    "tensor-wrong-shape": (lambda doc: {**doc, "D": 3}, "tensor: expected shape"),
    "tensor-not-finite": (_nan_in_tensor, "tensor: entries must be finite"),
    "group-not-an-object": (lambda doc: {**doc, "group": 5}, "group: expected an object"),
    "repeated-element": (
        lambda doc: {**doc, "group": {**doc["group"], "elements": ["1", "1", "R_y", "R_z"]}},
        "group.elements: labels must be nonempty and unique",
    ),
    "table-not-square": (
        lambda doc: {**doc, "group": {**doc["group"], "table": doc["group"]["table"][:3]}},
        "group.table: expected a 4x4 table",
    ),
    "table-unknown-label": (_unknown_label_in_table, "group.table[1][2]: unknown label 'R_w'"),
    "actions-not-a-list": (lambda doc: {**doc, "actions": {}}, "actions: expected a list"),
    "action-not-an-object": (lambda doc: {**doc, "actions": [5] + doc["actions"][1:]}, "actions[0]: expected an object"),
    "action-for-an-unknown-element": (
        lambda doc: {**doc, "actions": [{**doc["actions"][0], "element": "R_w"}] + doc["actions"][1:]},
        "actions[0].element: unknown group element 'R_w'",
    ),
    "channel-not-an-object": (lambda doc: {**doc, "channel": 5}, "channel: expected an object"),
}


@pytest.mark.parametrize("edit, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_model_file_exits_1_naming_the_field(tmp_path, capsys, edit, field):
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}"):
        load_model(path)
    code, out, err = run(capsys, "verify", "--model", str(path))
    assert code == 1 and err == ""
    assert out.startswith(f"FAIL  [load] model file invalid: {field}")
    code, out, err = run(capsys, "response", "--model", str(path), "--g1", "R_x", "--g2", "R_z")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}")


# --- top level -----------------------------------------------------------------

def test_broken_pipe_exits_2(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["sweep", "--steps", "1"]) == 2


def test_unknown_command(capsys):
    assert main(["no-such-command"]) == 1


def test_no_command(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _csv_values(out):
    rows = out.strip().splitlines()[1:-1]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "extra",
    [
        ("--p", "0.3", "--chi", "sx"),
        ("--p", "0.75", "--chi", "sy"),
        ("--p", "0.75", "--chi", "sy", "--sites", "3000"),
    ],
)
def test_long_string_series_finite_without_warnings(capsys, extra):
    """Thousands of lengths: no RuntimeWarning, no exit 3 and no non-finite row."""
    l_max = "1000" if "--sites" in extra else "2000"
    code, out, err = run(capsys, "string", "--g2", "R_z", "--l-min", "0", "--l-max", l_max, *extra)
    assert code == 0 and err == ""
    values = _csv_values(out)
    assert values.shape == (int(l_max) + 1, 4)
    assert np.all(np.isfinite(values))


def test_fmt_prints_nan_and_seventeen_digits():
    assert _fmt(float("nan")) == _fmt(np.float64("nan")) == "nan"
    assert _fmt(-float("nan")) == "nan"
    assert _fmt(0.1) == "0.10000000000000001"
    assert _json_float(np.nan) is None
    assert _json_float(np.inf) is None and _json_float(-np.inf) is None
    assert _json_float(np.float64(0.5)) == 0.5


# --- column-wise CSV rendering -------------------------------------------------

NAN = float("nan")
EDGE_VALUES = [0.0, -0.0, NAN, -NAN, np.inf, -np.inf, 5e-324, -5e-324, 0.1, -0.1, 1e308]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_fmt_column_of_one_value_is_fmt(value):
    assert _fmt_column([value]) == [_fmt(value)]


def test_fmt_column_tells_values_apart_by_their_bits():
    """-0.0 == 0.0 and nan != nan as floats; the column still prints each like _fmt."""
    column = EDGE_VALUES + EDGE_VALUES[::-1] + [0.0, -0.0, NAN, 0.1, 0.1 + 2**-56]
    assert _fmt_column(column) == [_fmt(v) for v in column]
    assert _fmt_column(np.array([0.0, -0.0, -0.0, 0.0])) == ["0", "-0", "-0", "0"]
    assert _fmt_column(np.array([NAN, -NAN, np.inf])) == ["nan", "nan", "inf"]
    strided = np.array([1j, complex(-0.0, 0.5), complex(0.0, -0.0)])  # the real and imaginary views of a complex array
    assert _fmt_column(strided.real) == ["0", "-0", "0"]
    assert _fmt_column(strided.imag) == ["1", "0.5", "-0"]


def _per_value_csv(series):
    """The string CSV rows as the per-value rendering prints them."""
    return [
        f"{l},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(w.real)},{_fmt(w.imag)}"
        for l, v, w in zip(series.lengths.tolist(), series.raw.tolist(), series.normalized.tolist())
    ]


@pytest.mark.parametrize(
    "p, l_max, n_sites",
    [("0.3", 2000, None), ("0.3", 1000, 1200)],
    ids=["thermo-underflowed", "ring-1200"],
)
def test_string_csv_equals_the_per_value_rendering(capsys, p, l_max, n_sites):
    """Every row equals _fmt of each value, also from l = 50 on, where S_y's
    thermodynamic mantissa is mostly underflowed to exact signed zeros (from
    l = 48 on a bare tensor of the same bytes, whose maps are contracted)."""
    ring = [] if n_sites is None else ["--sites", str(n_sites)]
    code, out, err = run(capsys, "string", "--p", p, "--g2", "R_z", "--chi", "sy", "--l-max", str(l_max), *ring)
    assert code == 0 and err == ""
    sy = spin1_operators()["S_y"]
    series = string_order_series(build_aklt_model(float(p)), "R_z", sy, sy, range(l_max + 1), n_sites=n_sites)
    lines = out.splitlines()
    assert lines[0] == "l,re_raw,im_raw,re_norm,im_norm"
    assert lines[1:-1] == _per_value_csv(series)
    assert lines[-1].startswith("# xi=")
    if n_sites is None:
        zero = series.mantissa[50:] == 0
        assert series.mantissa[49] != 0 and zero[:4].all() and zero.sum() > 1500
        assert {"0", "-0"} <= {value for row in lines[51:-1] for value in row.split(",")[1:]}
        model = build_aklt_model(float(p))
        bare = string_order_series(replace(model, lpdo=LpdoTensor(model.lpdo.tensor)), "R_z", sy, sy, range(l_max + 1))
        zero = bare.mantissa[48:] == 0
        assert bare.mantissa[47] != 0 and zero[:4].all() and zero.sum() > 1500


def test_sweep_csv_equals_the_per_value_rendering(capsys):
    """nan columns (gapless thermo at p = 1/2, the vanishing strings at p = 1) print as _fmt does."""
    code, out, _ = run(capsys, "sweep", "--steps", "5")
    code_json, text, _ = run(capsys, "sweep", "--steps", "5", "--format", "json")
    assert code == code_json == 0
    rows, columns = json.loads(text)["rows"], CSV_HEADER.split(",")[:-1]
    expected = [  # JSON holds nan as null
        ",".join([_fmt(np.nan if row[c] is None else row[c]) for c in columns] + [";".join(row["flags"])])
        for row in rows
    ]
    assert out.splitlines() == [CSV_HEADER] + expected
    assert "nan" in out


# --- one parser per process ----------------------------------------------------

STRING_CALL = ("string", "--p", "0.3", "--g2", "R_z", "--chi", "sx", "--l-max", "5")


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    """A usage error leaves nothing behind for the next call: it prints the bytes of a fresh parser."""
    _build_parser.cache_clear()
    fresh = run(capsys, *STRING_CALL)
    assert fresh[0] == 0
    parser = _build_parser()
    code, out, err = run(capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sx", "--l-max", "five")
    assert code == 1 and out == "" and "invalid int value: 'five'" in err
    assert run(capsys, *STRING_CALL) == fresh
    assert _build_parser() is parser


def test_an_option_of_one_call_does_not_reach_the_next(capsys):
    code, out, _ = run(capsys, *STRING_CALL, "--format", "json")
    assert code == 0 and json.loads(out)["rows"]
    code, out, _ = run(capsys, *STRING_CALL)
    assert code == 0 and out.startswith("l,re_raw,im_raw,re_norm,im_norm\n")
    code, out, _ = run(capsys, "sweep", "--p", "0.3", "--format", "json")
    assert code == 0 and json.loads(out)["rows"]
    code, out, _ = run(capsys, "sweep", "--p", "0.3")
    assert code == 0 and out.startswith(CSV_HEADER + "\n")


def test_verify_without_a_level_still_runs_all(capsys):
    code, tables, _ = run(capsys, "verify", "tables")
    assert code == 0
    code, default, _ = run(capsys, "verify")
    assert code == 0
    code, every, _ = run(capsys, "verify", "all")
    assert code == 0
    assert default == every != tables
    assert default.count("\n") > tables.count("\n")


# --- rings of billions of sites ---------------------------------------------------

def _state_norm(p, n_sites):
    """Tr rho = Tr T(1)^N of the stored tensor."""
    mantissa, exponent = transfer_powers(build_aklt_model(p).lpdo, np.eye(3)).power(n_sites)
    return ldexp(np.trace(mantissa), exponent).real


def test_ring_of_ten_billion_sites_matches_a_million(capsys):
    """At N = 10^10 the binary exponents of T(R_z)^N (|lambda_0| = 11/15 at
    p = 0.8) pass 2^31; they once wrapped in int32 and printed -1.1e-8.

    The stored T(1) has Tr T(1)^N = 1 - 1.72 N eps, and the ring series is
    not divided by it, so the printed values drift by 3.8e-6 relative at
    N = 10^10. Divided by Tr rho, both rings give the same string.
    """
    values = {}
    for n_sites in (10**6, 10**10):
        code, out, err = run(
            capsys, "string", "--p", "0.8", "--g2", "R_z", "--chi", "sy",
            "--sites", str(n_sites), "--l-min", "48", "--l-max", "50",
        )
        assert code == 0 and err == ""
        values[n_sites] = _csv_values(out) / _state_norm(0.8, n_sites)
    np.testing.assert_allclose(values[10**10], values[10**6], rtol=0, atol=1e-9)
    np.testing.assert_allclose(values[10**10][:, 2], -((2 * 0.2 / 3) ** 2), rtol=1e-12)


def test_ring_string_of_length_near_ten_billion_matches_a_million(capsys):
    """At l = N - 2 the envelope's binary exponent times l, about -4.5e19 at
    N = 10^10, passes int64; it once wrapped and printed -0.

    No power of T(1) enters at l = N - 2, and the drift of the stored
    T(g2)^l cancels against that of the envelope |Tr T(g2)^N|^{l/N}, so the
    two rings agree without dividing by Tr rho.
    """
    values = {}
    for n_sites in (10**6, 10**10):
        code, out, err = run(
            capsys, "string", "--p", "0.8", "--g2", "R_z", "--chi", "sy",
            "--sites", str(n_sites), "--l-min", str(n_sites - 2), "--l-max", str(n_sites - 2),
        )
        assert code == 0 and err == ""
        values[n_sites] = _csv_values(out)
    np.testing.assert_allclose(values[10**10], values[10**6], rtol=0, atol=1e-12)
    np.testing.assert_allclose(values[10**10][:, 2], -((2 * 0.2 / 3) ** 2), rtol=1e-12)


def test_string_lengths_past_int64_are_refused(capsys):
    """A length in [2^63, 2^64) once wrapped to a negative int64 and was refused
    as negative; one of 2^64 ended in an OverflowError traceback. 2^63 - 1 is
    still taken."""
    for length in (2**63, 2**64):
        code, out, err = run(
            capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sy",
            "--l-min", str(length), "--l-max", str(length),
        )
        assert (code, out) == (1, "")
        assert err == f"error: string length must be an integer in [-2^63, 2^63), got {length}\n"
    code, out, _ = run(
        capsys, "string", "--p", "0.3", "--g2", "R_z", "--chi", "sy",
        "--l-min", str(2**63 - 1), "--l-max", str(2**63 - 1),
    )
    assert code == 0 and out.splitlines()[1] == f"{2**63 - 1},0,0,0,0"


@pytest.mark.parametrize("length", [2**60, 2**63 - 1], ids=["2^60", "2^63-1"])
def test_thermodynamic_strings_at_huge_lengths_print_no_nan(capsys, length):
    """T(R_z)/|lambda_0| has spectral radius 1 up to one ulp. Its power for a jump
    to l once overflowed inside the product, and inf * 0 printed nan with numpy's
    overflow warning, in 12 of these 164 probes at 2^60 and 100 at 2^63 - 1. The
    carried row keeps its binary exponent, so none prints nan or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in np.linspace(0.0, 1.0, 41):
            for chi in ("sx", "sy", "sz", "s0"):
                argv = ["--p", repr(float(p)), "--g2", "R_z", "--chi", chi, "--l-min", str(length), "--l-max", str(length)]
                code, out, err = run(capsys, "string", *argv)
                assert (code, err) == (0, ""), argv
                assert "nan" not in out.splitlines()[1], argv


def test_ring_strings_past_int64_sites_are_refused(capsys):
    """N - 2 - l passes int64 at N = 10^20; it once ended in an OverflowError
    traceback. The largest ring taken, N = 2^63 - 1, prints values that
    underflow (Tr rho = Tr T(1)^N of the stored tensor is about 2^-5080
    there), so it is checked on the carried scale: the raw series divided by
    Tr rho is the thermodynamic one."""
    code, out, err = run(
        capsys, "string", "--p", "0.8", "--g2", "R_z", "--chi", "sy",
        "--sites", str(10**20), "--l-min", "48", "--l-max", "50",
    )
    assert (code, out) == (1, "")
    assert err == "error: a ring string needs N < 2^63, got N=100000000000000000000\n"
    model = build_aklt_model(0.8)
    sy = spin1_operators()["S_y"]
    with pytest.raises(ValidationError, match=r"N < 2\^63, got N=9223372036854775808$"):
        string_order_series(model, "R_z", sy, sy, [48], n_sites=2**63)
    ring = string_order_series(model, "R_z", sy, sy, [48, 49, 50], n_sites=2**63 - 1)
    mantissa, exponent = transfer_powers(model.lpdo, np.eye(3)).power(2**63 - 1)
    per_state = ldexp(ring.mantissa / np.trace(mantissa), ring.exponent - exponent)
    thermo = string_order_series(model, "R_z", sy, sy, [48, 49, 50])
    np.testing.assert_allclose(per_state, thermo.raw, rtol=1e-12, atol=0)


def test_a_sweep_whose_raw_ring_values_overflow_prints_nothing_on_stderr(capsys):
    """At N = 2^63 - 1 the raw ring values pass the double range, where +-inf is
    ldexp's documented value; numpy's overflow warning once reached stderr with
    the module's path and line (under this suite's warning filter it is an
    error)."""
    argv = ["sweep", "--p-min", "0.1", "--p-max", "0.9", "--steps", "40",
            "--sites", str(2**63 - 1), "--string-length", "48"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, expected, _ = run(capsys, *argv)
    assert run(capsys, *argv) == (0, expected, "")
    assert len(expected.splitlines()) == 41


@pytest.mark.parametrize("l_min", [2**63 - 3, 2**63 - 18], ids=["loop", "stacked"])
def test_ring_strings_with_exponents_past_int64_print_their_value(capsys, l_min):
    """At N = 2^63 - 1 and p = 0.6, T(R_z)^l has a binary exponent near -1.0e19.
    One length (the per-length loop) ended in an OverflowError traceback, and
    sixteen (the stacked path) did too. Both print the same row, whose
    normalized value is within two ulps of the string's at N = 10^6 and one of
    the closed form -16/225 (bit for bit the N = 10^6 value when the maps are
    contracted, tests/test_batched_powers.py)."""
    n_sites = 2**63 - 1
    argv = ["string", "--p", "0.6", "--g2", "R_z", "--chi", "sy", "--sites", str(n_sites)]
    code, out, err = run(capsys, *argv, "--l-min", str(l_min), "--l-max", str(n_sites - 2))
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:-1]
    assert len(rows) == n_sites - 1 - l_min
    _, small, _ = run(capsys, *argv[:-1], str(10**6), "--l-min", str(10**6 - 2), "--l-max", str(10**6 - 2))
    assert rows[-1] == f"{n_sites - 2},-0,0,-0.071111111111111125,0"
    huge, small = rows[-1].split(",")[1:], small.splitlines()[1].split(",")[1:]
    assert huge[:2] + huge[3:] == small[:2] + small[3:]
    ulp = np.spacing(16 / 225)
    assert abs(float(huge[2]) - float(small[2])) <= 2 * ulp and abs(float(huge[2]) + 16 / 225) <= ulp


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "0.3", "--chi", "sy", "--sites", "1200", "--l-min", "0", "--l-max", "20"],
        ["--p", "0.75", "--chi", "sx", "--l-min", "0", "--l-max", "2000"],
        ["--chi", "sy", "--sites", "1200", "--l-min", "0", "--l-max", "1000"],
    ],
    ids=["ring-21", "thermo-2001", "ring-1001-D6"],
)
def test_string_bytes_do_not_depend_on_the_blas_thread_count(argv, tmp_path):
    """BLAS may split one stacked GEMM across threads; each entry's sum must not
    change when it does. The D = 6 ring stacks 809 maps of 36 x 36 per GEMM."""
    if "--p" not in argv:
        path = tmp_path / "model.json"
        save_model(generic_model(0.3)[0], path)
        argv = ["--model", str(path), *argv]
    one, two = _at_one_and_two_blas_threads(["string", "--g2", "R_z", *argv])
    assert one == two
    assert one[0] == 0 and one[1].count(b"\n") > 20


def test_verify_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """verify all --model on a D = 6 file: the leg-size checks, the push-through
    tolerance and the 3-site oracle."""
    path = tmp_path / "model.json"
    save_model(generic_model(0.3)[0], path)
    one, two = _at_one_and_two_blas_threads(["verify", "all", "--model", str(path)])
    assert one == two
    assert one[0] == 0 and one[1].endswith(b"\n33/33 checks passed\n")


def _at_one_and_two_blas_threads(argv):
    """(exit code, stdout, stderr) of ``python -m weaksym *argv`` at one and at two BLAS threads."""
    src = str(Path(weaksym.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
        )
        done = subprocess.run([sys.executable, "-m", "weaksym", *argv], capture_output=True, env=env, timeout=120)
        outputs.append((done.returncode, done.stdout, done.stderr))
    return outputs


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["sweep", "--steps", "21"], 22),
        (["sweep", "--steps", "101"], 102),
        (["sweep", "--p-min", "0", "--p-max", "1", "--steps", "5"], 6),
        (["sweep", "--p-min", "0.0105", "--p-max", "0.9874", "--steps", "96", "--format", "json"], 96 * 13),
        (["sweep", "--p-min", "0", "--p-max", "1", "--steps", "33"], 34),
        (["sweep", "--p-min", "0", "--p-max", "1", "--steps", str(cli.SWEEP_CHUNK + 1)], cli.SWEEP_CHUNK + 2),
        (["verify", "oracle"], 4),
        (["verify", "all"], 25),
    ],
    ids=["sweep-21", "sweep-101", "sweep-5", "sweep-96-json", "sweep-33", "sweep-chunk-plus-one", "verify-oracle", "verify-all"],
)
def test_shared_series_bytes_do_not_depend_on_the_blas_thread_count(argv, lines):
    """A sweep row evaluates S_x and S_y, and the oracle check S_0, S_x and S_y,
    as one series each; a sweep's rows share stacked maps, spectra, pairs,
    representations, rings, decay channels and responses (sweep-101 has three
    refused rows in one stack, each taken out by the tensor its error names;
    sweep-chunk-plus-one has refused rows inside a full chunk and ends in a
    stack of one); ``verify all``
    reads its fixed grids, oracle and structural identities as stacks. Their
    output must not change with the BLAS threads."""
    one, two = _at_one_and_two_blas_threads(argv)
    assert one == two
    assert one[0] == 0 and one[1].count(b"\n") >= lines
