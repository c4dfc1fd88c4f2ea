"""Command-line interface.

Subcommands: ``sweep`` (phase-diagram grid to CSV/JSON), ``response``
(single quantized-response diagnostic), ``string`` (string-order series
with its decay channel), ``verify`` (built-in check suite or generic model
checks). Output is deterministic: floats print with 17 significant
digits so repeated runs are byte-identical and JSON round-trips doubles
without loss. A CSV float column is rendered as a whole, each distinct
value formatted once: a long string series repeats few values (exact
zeros of a real model, underflowed mantissas).

The argument parser is built once per process, so repeated in-process
:func:`main` calls share it; parsing keeps no state between calls.

Exit codes: 0 success, 1 usage or failed verification, 2 I/O failure,
3 mathematically undefined quantity requested (for example a
thermodynamic response at a gap closing).
"""

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    GaplessTransferError,
    NearDefectiveError,
    UndefinedExponentError,
    ValidationError,
    WeaksymError,
)
from .model import _aklt_models, _decode_array, build_aklt_model, load_model, spin1_operators
from .response import _thermo_responses, finite_response, thermo_response
from .stringorder import _decay_channels, _ring_series, _string_lengths, decay_channel, string_order_series
from .transfer import symmetry_gaps, transfer_spectra
from . import verify as _verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_UNDEFINED = 3

CSV_HEADER = "p,reQxz,imQxz,reQyz,imQyz,gap_z,abs_sn_x,abs_sn_y,xi_x,xi_y,flags"
# A decay exponent that does not exist is flagged, not fatal: the string
# vanishes, its channel is nilpotent, or no channel can be told apart.
_NO_EXPONENT = (UndefinedExponentError, NearDefectiveError, GaplessTransferError)
# What a stacked quantity may raise because of one of its rows.
_ROW_ERRORS = (WeaksymError, np.linalg.LinAlgError, ZeroDivisionError)

_CHI_BUILTIN = {"s0": "S_0", "sx": "S_x", "sy": "S_y", "sz": "S_z"}
# A sweep builds the models of this many rows at a time and computes each
# quantity of their rows as one stack (_chunk_rows). A chunk costs about
# 1.4 ms plus 0.12 ms a row. A 1,001-row off-grid sweep (2-vCPU x86-64, one
# BLAS thread, median of 12 rounds with the chunk sizes interleaved,
# tracemalloc peak) by rows per chunk:
#   32: 192 ms, 1.26 MB; 64: 158 ms, 1.77 MB; 128: 134 ms, 2.78 MB;
#   256: 139 ms, 4.82 MB; 1024: 141 ms, 17.4 MB.
# From 128 rows on the times are within the host's drift of each other.
# A family with larger maps (sweep --model, ROADMAP item 11) will need a
# chunk that shrinks with the map size.
SWEEP_CHUNK = 256


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value):
    # "%.17g" already prints NaN as "nan"
    return f"{float(value):.17g}"


def _fmt_column(values):
    """``[_fmt(v) for v in values]``, formatting each distinct float once.

    Values are told apart by their IEEE bits, not by float equality, so
    -0.0 still prints ``-0`` next to 0.0's ``0``; every nan prints ``nan``.
    """
    values = np.asarray(values, dtype=float)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = [_fmt(v) for v in bits.view(float).tolist()]
    return [text[i] for i in where.tolist()]


def _fmt_complex(value):
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}j"


def _json_float(value):
    """A float for JSON: nan and +-inf, which strict JSON cannot hold, become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _root_label(frac):
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


def _group_label(model, name):
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

def _sweep_rows(p_values, n_sites, length):
    """The row of each p, ``SWEEP_CHUNK`` models at a time, built in one call and released after
    their rows: a sweep of up to ``SWEEP_CHUNK`` rows is one stack, and its refused rows are
    told apart by the tensor each error names (:func:`_isolated`)."""
    rows = []
    for at in range(0, len(p_values), SWEEP_CHUNK):
        chunk = p_values[at : at + SWEEP_CHUNK]
        rows += _chunk_rows(chunk, _aklt_models(chunk), n_sites, length)
    return rows


def _chunk_rows(p_values, models, n_sites, length):
    """The sweep rows of ``models``, one per p: their responses, rings and decay
    channels each computed as one stack, a failure flagged on its own row."""
    nan = float("nan")
    ops = spin1_operators()
    ends = [(ops[f"S_{tag}"],) * 2 for tag in ("x", "y")]
    responses = _isolated(lambda stack: _thermo_responses(stack, ("R_x", "R_y"), "R_z"), models)
    rings = _isolated(lambda stack: _ring_series(stack, "R_z", ends, [length], n_sites), models)
    # one stack per pair: S_x's exponent survives where only S_y's is undefined
    channels = [_isolated(lambda stack: _decay_channels(stack, "R_z", *pair), models) for pair in ends]
    gaps = symmetry_gaps(transfer_spectra([model.lpdo for model in models], models[0].action("R_z").u, None)).tolist()
    rows = []
    for p, gap_z, response, ring, *decay in zip(p_values, gaps, responses, rings, *channels):
        flags = []
        if _flagged(response, GaplessTransferError):
            qxz = qyz = complex(nan, nan)
            flags.append("gapless_thermo")
        else:
            qxz, qyz = (q.value for q in response)
        vanishes = _flagged(ring, ZeroDivisionError)  # the two rings share one envelope
        sn = [nan] * 2 if vanishes else [abs(series.normalized[0]) for series in ring]
        xi = []
        for tag, channel in zip("xy", decay):
            if vanishes:
                flags.append(f"sn_{tag}_undefined")
            undefined = _flagged(channel, _NO_EXPONENT)
            if undefined:
                flags.append(f"xi_{tag}_undefined")
            xi.append(nan if undefined else channel.xi)
        values = (p, qxz.real, qxz.imag, qyz.real, qyz.imag, gap_z, *sn, *xi)
        rows.append({**dict(zip(_SWEEP_COLUMNS, values)), "flags": flags})
    return rows


def _isolated(compute, models):
    """``compute(models)``, one value per model (or tensor); if that stack raises one of
    ``_ROW_ERRORS``, each row's value, a refused row's the error it raises alone.

    An error that names its tensor (:func:`weaksym.errors._named`) is the value of
    every row of that tensor, told by identity, and the rest of the stack is
    isolated the same way, so f refused rows cost f + 1 calls of ``compute``. An
    error that names none, or a tensor of no row (a stacked ``eig`` that fails as a
    whole), is isolated by halving: the values of the stack's two halves, each
    isolated the same way, down to a row alone, whose value is its error; one
    such row in k costs 2 ceil(log2 k) + 1 calls.

    This is the only place a stack's error is caught. A model gets its value
    bit for bit in any stack, so isolating changes no value.
    """
    try:
        return compute(models)
    except _ROW_ERRORS as exc:
        tensor = getattr(exc, "lpdo", None)
        refused = [getattr(model, "lpdo", model) is tensor for model in models]
        if any(refused):
            kept = [model for model, out in zip(models, refused) if not out]
            rest = iter(_isolated(compute, kept) if kept else ())
            return [exc if out else next(rest) for out in refused]
        half = len(models) // 2
        return _isolated(compute, models[:half]) + _isolated(compute, models[half:]) if half else [exc]


def _flagged(outcome, undefined):
    """Whether ``outcome``, a row's value from :func:`_isolated`, is an error of ``undefined``;
    any other error is raised."""
    if isinstance(outcome, Exception) and not isinstance(outcome, undefined):
        raise outcome
    return isinstance(outcome, undefined)


_SWEEP_COLUMNS = CSV_HEADER.split(",")[:-1]


def _sweep_text(rows, fmt):
    if fmt == "csv":
        columns = [_fmt_column([row[c] for row in rows]) for c in _SWEEP_COLUMNS]
        columns.append([";".join(row["flags"]) for row in rows])
        return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
    payload = {
        "rows": [
            {**{c: _json_float(row[c]) for c in _SWEEP_COLUMNS}, "flags": row["flags"]}
            for row in rows
        ]
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def cmd_sweep(args):
    if args.p is not None:
        p_values = [args.p]
    elif args.steps < 1:
        raise ValidationError("--steps must be at least 1")
    elif args.steps == 1:
        p_values = [args.p_min]
    else:
        span = args.p_max - args.p_min
        p_values = [args.p_min + i * span / (args.steps - 1) for i in range(args.steps)]
        if 0.0 <= min(args.p_min, args.p_max) and max(args.p_min, args.p_max) <= 1.0:
            # every point lies between the ends, so one past 0 or 1 is the formula's rounding
            p_values = [min(max(p, 0.0), 1.0) for p in p_values]
    _string_lengths([args.string_length], args.sites)
    rows = _sweep_rows(p_values, args.sites, args.string_length)
    _write_text(args.out, _sweep_text(rows, args.format))
    return EXIT_OK


# --- response ----------------------------------------------------------------

def cmd_response(args):
    model = _resolve_model(args)
    g1 = _group_label(model, args.g1)
    g2 = _group_label(model, args.g2)
    if args.sites is not None:
        result = finite_response(model, g1, g2, args.sites)
    else:
        result = thermo_response(model, g1, g2)

    label = None if result.snapped is None else _root_label(result.snapped)
    if args.json:
        payload = {
            "value": [_json_float(result.value.real), _json_float(result.value.imag)],
            "snapped": label,
            "gap": _json_float(result.gap),
            "mode": result.mode,
            "n_sites": result.n_sites,
            "valid": result.valid,
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"value: {_fmt_complex(result.value)}" + ("" if label is None else f" (snapped: {label})"))
        print(f"gap: {_fmt(result.gap)}")
        print(f"mode: {result.mode}" + (f" (N={result.n_sites})" if result.n_sites else ""))
    if not result.valid:
        print("error: response denominator vanishes; value undefined", file=sys.stderr)
        return EXIT_UNDEFINED
    return EXIT_OK


# --- string ------------------------------------------------------------------

def cmd_string(args):
    if args.l_max < args.l_min:
        raise ValidationError("--l-min must be at most --l-max")
    n_sites = args.sites
    _string_lengths([args.l_min, args.l_max], n_sites)
    model = _resolve_model(args)
    g2 = _group_label(model, args.g2)
    chi = _resolve_chi(args.chi, model.lpdo.d)
    lengths = range(args.l_min, args.l_max + 1)
    series = string_order_series(model, g2, chi, chi, lengths, n_sites=n_sites)

    flags = []
    try:
        channel = decay_channel(model, g2, chi, chi)
    except _NO_EXPONENT:
        channel = None
        flags.append("xi_undefined")

    if args.format == "json":
        rows = zip(series.lengths.tolist(), series.raw.tolist(), series.normalized.tolist())
        payload = {
            "g2": g2,
            "mode": series.mode,
            "n_sites": n_sites,
            "rows": [
                {
                    "l": int(l),
                    "raw": [_json_float(v.real), _json_float(v.imag)],
                    "normalized": [_json_float(w.real), _json_float(w.imag)],
                }
                for l, v, w in rows
            ],
            "fit": None
            if channel is None
            else {"xi": _json_float(channel.xi), "residual": _json_float(channel.floor), "window": "spectrum"},
            "flags": flags,
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        columns = [map(str, series.lengths.tolist())]
        for values in (series.raw, series.normalized):
            columns += [_fmt_column(values.real), _fmt_column(values.imag)]
        lines = ["l,re_raw,im_raw,re_norm,im_norm", *map(",".join, zip(*columns))]
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
    elif args.level != "all":
        raise ValidationError(f"verify {args.level} checks the built-in family; a model file takes level all")
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

def _add_common(sub, model=True):
    """--model unless the command varies p, and --p."""
    if model:
        sub.add_argument("--model", default="aklt", help="built-in family id (aklt) or model JSON path")
    sub.add_argument("--p", type=float, default=None, help="noise rate for the built-in family")


@functools.cache
def _build_parser():
    parser = _Parser(prog="weaksym", description="Quantized responses and string order of locally purified mixed states.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p_sweep = sub.add_parser("sweep", help="phase-diagram grid over p of the aklt family, CSV or JSON")
    _add_common(p_sweep, model=False)
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
    p_resp.add_argument("--json", action="store_true", help="machine-readable output")
    p_resp.set_defaults(func=cmd_response)

    p_str = sub.add_parser("string", help="string order series with its decay exponent")
    _add_common(p_str)
    p_str.add_argument("--g2", required=True, help="string element")
    p_str.add_argument("--chi", required=True, help="endpoint: s0|sx|sy|sz or a JSON matrix path")
    p_str.add_argument("--l-min", type=int, default=0)
    p_str.add_argument("--l-max", type=int, default=50)
    p_str.add_argument("--sites", type=int, default=None, help="finite ring length (default thermodynamic)")
    p_str.add_argument("--out", default=None, help="output path (default stdout)")
    p_str.add_argument("--format", choices=("csv", "json"), default="csv")
    p_str.set_defaults(func=cmd_string)

    p_ver = sub.add_parser("verify", help="run the built-in check suite")
    p_ver.add_argument("level", nargs="?", choices=tuple(_verify.LEVELS), default="all")
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
    except (*_NO_EXPONENT, DegenerateSpectrumError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValueError as exc:  # every refusal of bad input subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
