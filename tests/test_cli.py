import json

import numpy as np
import pytest

from weaksym.cli import CSV_HEADER, _fmt, _json_float, main
from weaksym.model import build_aklt_model, save_model


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
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    code, _, err = run(capsys, "sweep", "--model", str(path))
    assert code == 1
    assert "aklt" in err


def test_sweep_bad_out_path(capsys):
    code, _, err = run(capsys, "sweep", "--steps", "1", "--out", "/no/such/dir/x.csv")
    assert code == 2


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


def test_response_requires_p(capsys):
    code, _, err = run(capsys, "response", "--g1", "R_x", "--g2", "R_z")
    assert code == 1


def test_response_mode_conflict(capsys):
    code, _, err = run(
        capsys, "response", "--p", "0.2", "--g1", "R_x", "--g2", "R_z", "--thermo", "--sites", "10"
    )
    assert code == 1


@pytest.mark.parametrize("p", ["0.3", "0.75"])
def test_response_thousands_of_sites_exit_zero(capsys, p):
    for sites in ("2000", "3000"):
        code, out, err = run(capsys, "response", "--p", p, "--g1", "R_x", "--g2", "R_z", "--sites", sites)
        assert code == 0 and err == ""
        assert "(snapped: exp(i*pi))" in out.splitlines()[0]


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


def test_verify_corrupted_model_names_invariant(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(build_aklt_model(0.3), path)
    doc = json.loads(path.read_text())
    doc["actions"][1]["u"][0][0] = [5.0, 0.0]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 1
    assert "FAIL" in out and "unitary" in out


def test_verify_missing_model_file(capsys):
    code, _, err = run(capsys, "verify", "--model", "/no/such/model.json")
    assert code == 2


# --- top level -----------------------------------------------------------------

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
    assert _fmt(float("nan")) == _fmt(None) == _fmt(np.float64("nan")) == "nan"
    assert _fmt(-float("nan")) == "nan"
    assert _fmt(0.1) == "0.10000000000000001"
    assert _json_float(np.nan) is None and _json_float(None) is None
    assert _json_float(np.float64(0.5)) == 0.5
