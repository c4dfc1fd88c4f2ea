"""Command-line interface.

Subcommands: ``sweep`` (phase-diagram grid to CSV/JSON), ``response``
(single quantized-response diagnostic), ``string`` (string-order series
with its decay channel), ``verify`` (built-in check suite or generic model
checks). Output is deterministic: floats print with 17 significant
digits so repeated runs are byte-identical and JSON round-trips doubles
without loss.

Exit codes: 0 success, 1 usage or failed verification, 2 I/O failure,
3 mathematically undefined quantity requested (for example a
thermodynamic response at a gap closing).
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import (
    DegenerateSpectrumError,
    GaplessTransferError,
    NearDefectiveError,
    NonCommutingError,
    NotSymmetricError,
    UndefinedExponentError,
    ValidationError,
)
from .model import _decode_array, build_aklt_model, load_model, spin1_operators
from .response import finite_response, thermo_response
from .stringorder import decay_channel, normalized_string, string_order_series
from .transfer import symmetry_gap, twisted_spectrum
from . import verify as _verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_UNDEFINED = 3

CSV_HEADER = "p,reQxz,imQxz,reQyz,imQyz,gap_z,abs_sn_x,abs_sn_y,xi_x,xi_y,flags"
# A decay exponent that does not exist is flagged, not fatal: the string
# vanishes, its channel is nilpotent, or no channel can be told apart.
_NO_EXPONENT = (UndefinedExponentError, NearDefectiveError, GaplessTransferError)

_CHI_BUILTIN = {"s0": "S_0", "sx": "S_x", "sy": "S_y", "sz": "S_z"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value):
    # "%.17g" already prints NaN as "nan"
    return "nan" if value is None else f"{float(value):.17g}"


def _fmt_complex(value):
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}j"


def _json_float(value):
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def _root_label(frac):
    if frac is None:
        return "none"
    if frac == 0:
        return "1"
    if frac == Fraction(1, 2):
        return "exp(i*pi)"
    return f"exp(2*pi*i*{frac.numerator}/{frac.denominator})"


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_model(args):
    if args.model == "aklt":
        if args.p is None:
            raise ValidationError("--p is required with the built-in aklt family")
        return build_aklt_model(args.p)
    if args.p is not None:
        raise ValidationError("--p only applies to the built-in aklt family, not model files")
    return load_model(args.model)


def _group_label(model, name, flag):
    if name is None:
        raise ValidationError(f"{flag} is required")
    if name in model.group.labels:
        return name
    if name.lower() in ("identity", "id"):
        return model.group.identity
    raise ValidationError(
        f"unknown group element {name!r}; choose from {list(model.group.labels)}"
    )


def _resolve_chi(spec, dim):
    key = spec.lower()
    if key in _CHI_BUILTIN:
        if dim != 3:
            raise ValidationError(f"built-in endpoint {spec!r} is a spin-1 operator; model has d={dim}")
        return spin1_operators()[_CHI_BUILTIN[key]]
    with open(spec) as fh:
        payload = json.load(fh)
    return _decode_array(payload, (dim, dim), "chi")


# --- sweep -------------------------------------------------------------------

def _sweep_row(p, n_sites, length, gap_tol):
    model = build_aklt_model(p)
    flags = []
    nan = float("nan")
    try:
        qxz = thermo_response(model, "R_x", "R_z", gap_tol=gap_tol).value
        qyz = thermo_response(model, "R_y", "R_z", gap_tol=gap_tol).value
    except GaplessTransferError:
        qxz = qyz = complex(nan, nan)
        flags.append("gapless_thermo")
    gap_z = symmetry_gap(twisted_spectrum(model, "R_z"))

    ops = spin1_operators()
    sn = {}
    xi = {}
    for tag in ("x", "y"):
        chi = ops[f"S_{tag}"]
        try:
            ring = string_order_series(model, "R_z", chi, chi, [length], n_sites=n_sites)
            sn[tag] = abs(normalized_string(model, ring).normalized[0])
        except ZeroDivisionError:
            sn[tag] = nan
            flags.append(f"sn_{tag}_undefined")
        try:
            xi[tag] = decay_channel(model, "R_z", chi, chi).xi
        except _NO_EXPONENT:
            xi[tag] = nan
            flags.append(f"xi_{tag}_undefined")

    return {
        "p": p,
        "reQxz": qxz.real,
        "imQxz": qxz.imag,
        "reQyz": qyz.real,
        "imQyz": qyz.imag,
        "gap_z": gap_z,
        "abs_sn_x": sn["x"],
        "abs_sn_y": sn["y"],
        "xi_x": xi["x"],
        "xi_y": xi["y"],
        "flags": flags,
    }


_SWEEP_COLUMNS = CSV_HEADER.split(",")[:-1]


def _sweep_text(rows, fmt):
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(
                ",".join([_fmt(row[c]) for c in _SWEEP_COLUMNS] + [";".join(row["flags"])])
            )
        return "\n".join(lines) + "\n"
    payload = {
        "rows": [
            {**{c: _json_float(row[c]) for c in _SWEEP_COLUMNS}, "flags": row["flags"]}
            for row in rows
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_sweep(args):
    if args.model != "aklt":
        raise ValidationError("sweep varies p; only the parametric aklt family supports it")
    if args.p is not None:
        p_values = [args.p]
    elif args.steps < 1:
        raise ValidationError("--steps must be at least 1")
    elif args.steps == 1:
        p_values = [args.p_min]
    else:
        span = args.p_max - args.p_min
        p_values = [args.p_min + i * span / (args.steps - 1) for i in range(args.steps)]
    if args.string_length > args.sites - 2:
        raise ValidationError("--string-length must be at most N-2 on a ring")
    rows = [_sweep_row(p, args.sites, args.string_length, args.tol) for p in p_values]
    _write_text(args.out, _sweep_text(rows, args.format))
    return EXIT_OK


# --- response ----------------------------------------------------------------

def cmd_response(args):
    model = _resolve_model(args)
    g1 = _group_label(model, args.g1, "--g1")
    g2 = _group_label(model, args.g2, "--g2")
    if args.thermo and args.sites is not None:
        raise ValidationError("choose one of --thermo and --sites")
    if args.sites is not None:
        result = finite_response(model, g1, g2, args.sites)
    else:
        result = thermo_response(model, g1, g2, gap_tol=args.tol)

    if args.json:
        payload = {
            "value": [_json_float(result.value.real), _json_float(result.value.imag)],
            "snapped": _root_label(result.snapped) if result.snapped is not None else None,
            "gap": _json_float(result.gap),
            "mode": result.mode,
            "n_sites": result.n_sites,
            "valid": result.valid,
        }
        print(json.dumps(payload, indent=2))
    else:
        snapped = f" (snapped: {_root_label(result.snapped)})" if result.snapped is not None else ""
        print(f"value: {_fmt_complex(result.value)}{snapped}")
        print(f"gap: {_fmt(result.gap)}")
        print(f"mode: {result.mode}" + (f" (N={result.n_sites})" if result.n_sites else ""))
    if not result.valid:
        print("error: response denominator vanishes; value undefined", file=sys.stderr)
        return EXIT_UNDEFINED
    return EXIT_OK


# --- string ------------------------------------------------------------------

def cmd_string(args):
    model = _resolve_model(args)
    g2 = _group_label(model, args.g2, "--g2")
    chi = _resolve_chi(args.chi, model.lpdo.d)
    if args.l_min < 0 or args.l_max < args.l_min:
        raise ValidationError("need 0 <= l_min <= l_max")
    if args.thermo and args.sites is not None:
        raise ValidationError("choose one of --thermo and --sites")
    n_sites = args.sites
    if n_sites is not None and args.l_max > n_sites - 2:
        raise ValidationError("--l-max must be at most N-2 on a ring")
    lengths = range(args.l_min, args.l_max + 1)
    series = string_order_series(model, g2, chi, chi, lengths, n_sites=n_sites)
    series = normalized_string(model, series)

    flags = []
    try:
        channel = decay_channel(model, g2, chi, chi)
    except _NO_EXPONENT:
        channel = None
        flags.append("xi_undefined")

    rows = list(zip(series.lengths.tolist(), series.raw.tolist(), series.normalized.tolist()))
    if args.format == "json":
        payload = {
            "g2": g2,
            "mode": series.mode,
            "n_sites": n_sites,
            "rows": [
                {
                    "l": int(l),
                    "raw": [v.real, v.imag],
                    "normalized": [w.real, w.imag],
                }
                for l, v, w in rows
            ],
            "fit": None
            if channel is None
            else {"xi": channel.xi, "residual": channel.floor, "window": "spectrum"},
            "flags": flags,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["l,re_raw,im_raw,re_norm,im_norm"]
        for l, v, w in rows:
            lines.append(
                f"{int(l)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(w.real)},{_fmt(w.imag)}"
            )
        if channel is not None:
            lines.append(
                f"# xi={_fmt(channel.xi)} residual={_fmt(channel.floor)} "
                f"window=spectrum flags={';'.join(flags)}"
            )
        else:
            lines.append(f"# xi=nan residual=nan window=none flags={';'.join(flags)}")
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def cmd_verify(args):
    if args.model == "aklt":
        results = _verify.run_level(args.level)
    else:
        try:
            model = load_model(args.model)
        except ValidationError as exc:
            print(f"FAIL  [load] model file invalid: {exc}")
            return 1
        results = _verify.generic_model_checks(model)
    n_fail = 0
    for section, result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            n_fail += 1
        detail = f"  ({result.detail})" if result.detail else ""
        print(f"{status}  [{section}] {result.name}: worst {result.worst:.3e} vs tol {result.tol:.0e}{detail}")
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else 1


# --- parser ------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--model", default="aklt", help="built-in family id (aklt) or model JSON path")
    sub.add_argument("--p", type=float, default=None, help="noise rate for the built-in family")
    sub.add_argument("--tol", type=float, default=1e-8, help="gap tolerance for thermodynamic quantities")


def _build_parser():
    parser = _Parser(prog="weaksym", description="Quantized responses and string order of locally purified mixed states.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p_sweep = sub.add_parser("sweep", help="phase-diagram grid over p, CSV or JSON")
    _add_common(p_sweep)
    p_sweep.add_argument("--p-min", type=float, default=0.0)
    p_sweep.add_argument("--p-max", type=float, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=11)
    p_sweep.add_argument("--sites", type=int, default=200, help="ring length N")
    p_sweep.add_argument("--string-length", type=int, default=50, help="string length l for the plateau columns")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_resp = sub.add_parser("response", help="quantized response for one pair of elements")
    _add_common(p_resp)
    p_resp.add_argument("--g1", required=True, help="flux element")
    p_resp.add_argument("--g2", required=True, help="charge element")
    p_resp.add_argument("--sites", type=int, default=None, help="finite ring length (default thermodynamic)")
    p_resp.add_argument("--thermo", action="store_true", help="thermodynamic limit (the default)")
    p_resp.add_argument("--json", action="store_true", help="machine-readable output")
    p_resp.set_defaults(func=cmd_response)

    p_str = sub.add_parser("string", help="string order series with its decay exponent")
    _add_common(p_str)
    p_str.add_argument("--g2", required=True, help="string element")
    p_str.add_argument("--chi", required=True, help="endpoint: s0|sx|sy|sz or a JSON matrix path")
    p_str.add_argument("--l-min", type=int, default=0)
    p_str.add_argument("--l-max", type=int, default=50)
    p_str.add_argument("--sites", type=int, default=None, help="finite ring length (default thermodynamic)")
    p_str.add_argument("--thermo", action="store_true", help="thermodynamic limit (the default)")
    p_str.add_argument("--out", default=None, help="output path (default stdout)")
    p_str.add_argument("--format", choices=("csv", "json"), default="csv")
    p_str.set_defaults(func=cmd_string)

    p_ver = sub.add_parser("verify", help="run the built-in check suite")
    p_ver.add_argument("level", nargs="?", choices=("tables", "oracle", "all"), default="all")
    p_ver.add_argument("--model", default="aklt", help="built-in family id (aklt) or model JSON path")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        GaplessTransferError,
        UndefinedExponentError,
        NearDefectiveError,
        DegenerateSpectrumError,
        ZeroDivisionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ValidationError, NonCommutingError, NotSymmetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
