"""Benchmark of the weaksym CLI: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload phase_sweep --seed 1 --seconds 25 --trace 0

The workloads are defined in ``workloads.py``. A run makes one warm-up
pass, then a fixed number of measured passes: as many as fill
``--seconds`` at the reference host's speed (see ``planned_passes``). Every
output of every pass is checked against the closed forms in ``checks.py``.
Because the pass count does not depend on how fast the host happens to be,
``attempted`` and ``failed`` depend only on the workload, ``--seed`` and
``--seconds``: two runs with the same arguments count the same outputs.
It prints a report of every metric by name and unit, writes the full
result (environment, sha256 of every CLI output of the first pass,
per-pass times, failure reasons) to ``.bench_out/``, and ends with one
JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Host-speed correction: this benchmark was set on a shared 2-vCPU host whose
speed drifts by +-20% over minutes, which no statistic within one run
removes. Every invocation of a pass therefore runs twice, back to back in
the same process and in alternating order: on the program under test
(``src/``) and on ``baseline/``, a frozen copy of the program as it was when
the benchmark was defined. Pass times are reported in nominal seconds,
(program / baseline) * NOMINAL_PASS_S[workload], i.e. seconds at the
reference host's speed; raw times are kept in the result file. Only the
program is checked and traced; the report says whether each first-pass
output is byte-identical to the baseline's.

``--trace 0`` reports the end-to-end metrics:

    wall_s       median pass time (nominal s)
    items_per_s  items per pass / wall_s; an item is a verify check, a
                 sweep row, a string length or a response
    setup_s      ``import weaksym`` plus ``build_aklt_model`` or
                 ``load_model`` in a fresh process, paired with the same on
                 the baseline in the next process, SETUP_PAIRS times:
                 median program / median baseline, times NOMINAL_SETUP_S
    peak_rss_mb  peak resident memory of the benchmark process
    ok_share     share of checked outputs that are neither failed nor wrong
                 (1 - fail_share; a share that is never 0 keeps the bound
                 well defined)

The report also prints ``wall_s_tail``, the highest percentile of pass
times with at least ten passes beyond it (the maximum with 10 passes or
fewer), with its sample count. It is not a gated metric: a 25 s run holds
3 to 9 measured passes, and on a host whose speed flips between two levels
1.7x apart within seconds, such a tail spread by up to 0.38 across seeds.

``--trace 1`` traces passes 2, 3, 6, 7, ... and leaves the others untraced,
and reports per-layer
metrics named ``<module>.<function>.<stat>`` as medians over the traced
passes (see ``PER_LAYER``), plus ``trace.overhead_s``: median traced minus
median untraced pass time. The spans are written to ``.bench_out/`` too.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from time import perf_counter

# Small dense matrices dominate; one BLAS thread keeps a 2-core machine
# steady and never exceeds nproc. Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, median_over_passes, section_slug  # noqa: E402
from workloads import NOMINAL_PASS_S, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline")
SETUP_PAIRS = 9
# Median baseline set-up time (import + model construction in a fresh
# process) on the reference host of NOMINAL_PASS_S.
NOMINAL_SETUP_S = 0.13
MIN_PASSES = 2
# A run that is this many times longer than --seconds (a much slower
# program) stops early, so it still ends within the contract's time limit.
OVERRUN_FACTOR = 4
TAIL_BEYOND = 10

# Per-layer metrics: traced function -> (stats beyond calls/self_s/total_s,
# the end-to-end metric and workload each should move).
PER_LAYER = {
    "numerics.spectral_decompose": (
        ("n3_sum", "unique_ratio", "calls_per_row"),
        "self_s, n3_sum: wall_s on generic_bond; calls, unique_ratio, calls_per_row: wall_s on phase_sweep",
    ),
    "symmetry.extract_virtual_rep": (
        ("unique_ratio",),
        "self_s: wall_s on generic_bond; calls, unique_ratio: wall_s on phase_sweep",
    ),
    "transfer.build_transfer": (("unique_ratio",), "wall_s on phase_sweep and long_strings"),
    "transfer.build_ancilla_transfer": (("unique_ratio",), "wall_s on phase_sweep and long_strings"),
    "response.thermo_response": ((), "wall_s on phase_sweep and generic_bond; ok_share on long_strings"),
    "response.finite_response": ((), "wall_s on phase_sweep and generic_bond; ok_share on long_strings"),
    "response.ancilla_response": ((), "wall_s on phase_sweep and generic_bond; ok_share on long_strings"),
    "response.conservation_check": ((), "wall_s on phase_sweep and generic_bond; ok_share on long_strings"),
    "stringorder.string_order_thermo": ((), "wall_s on long_strings and phase_sweep"),
    "stringorder.string_order_ring": ((), "wall_s on long_strings and phase_sweep"),
    "stringorder.normalized_string": ((), "wall_s on long_strings and phase_sweep"),
    "stringorder.decay_exponent": ((), "wall_s on long_strings and phase_sweep"),
    "oracle.contract_full": (("amplitudes",), "wall_s on verify_all"),
    "oracle.density_from_state": ((), "wall_s on verify_all"),
    "oracle.expectation": ((), "wall_s on verify_all"),
    "model.build_aklt_model": ((), "setup_s"),
    "model.load_model": ((), "setup_s"),
}
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "n3_sum": ("count", "lower"),
    "unique_ratio": ("ratio", "higher"),
    "calls_per_row": ("count", "lower"),
    "amplitudes": ("count", "lower"),
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# argv: program|baseline, the directory to import it from, aklt|model, p or path.
_SETUP_PROBE = """
import importlib, importlib.util, os, sys, time
t0 = time.perf_counter()
side, where, kind, arg = sys.argv[1:5]
if side == "program":
    sys.path.insert(0, where)
    name = "weaksym"
    importlib.import_module(name)
else:
    name = "weaksym_baseline"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(where, "__init__.py"), submodule_search_locations=[where]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
model = importlib.import_module(name + ".model")
if kind == "aklt":
    model.build_aklt_model(float(arg))
else:
    model.load_model(arg)
print(repr(time.perf_counter() - t0))
"""


def per_layer_specs():
    """[(name, unit, better, moves)] in report order."""
    specs = []
    for fn, (extra, moves) in PER_LAYER.items():
        for stat in ("calls", "self_s", "total_s") + extra:
            unit, better = STAT_UNITS[stat]
            specs.append((f"{fn}.{stat}", unit, better, moves))
    for section in checks.VERIFY_SECTIONS:
        specs.append((f"verify.{section_slug(section)}.total_s", "s", "lower", "wall_s on verify_all"))
    specs.append(("cli.self_s", "s", "lower", "wall_s on long_strings"))
    specs.append(("trace.overhead_s", "s", "lower", "(traced minus untraced wall_s)"))
    return specs


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _call(cli, argv):
    """Time one ``cli.main(argv)`` call; returns (seconds, rc, stdout, warnings, crash)."""
    out, err = io.StringIO(), io.StringIO()
    rc = crash = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crash is a wrong output, not the end of the run
            crash = traceback.format_exc(limit=3).splitlines()[-1]
        seconds = perf_counter() - start
    return seconds, rc, out.getvalue(), caught, crash


def classify(inv, call, tally):
    """Classify the outputs of one program invocation; returns the items read."""
    _, rc, text, caught, crash = call
    if crash is not None:
        tally.add(checks.WRONG, f"crash in {inv.argv[0]}: {crash}")
        return 0
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    tally.add(*checks.classify_status(rc, warned))
    if rc == 3 and inv.refused is not None:
        inv.refused(tally)
        return 0
    return inv.check(text, tally)


def load_baseline():
    """The frozen copy of the program in bench/baseline, imported as ``weaksym_baseline``."""
    spec = importlib.util.spec_from_file_location(
        "weaksym_baseline", os.path.join(BASELINE, "__init__.py"), submodule_search_locations=[BASELINE]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module("weaksym_baseline.cli")


def _setup_probe(side, target):
    where = SRC if side == "program" else BASELINE
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, side, where, *target],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(target, pairs=SETUP_PAIRS):
    """Set-up time in nominal seconds, and the raw (program, baseline) pairs.

    Each pair runs the program's and the baseline's set-up in fresh
    processes back to back, the order alternating, as the passes do. The
    ratio is taken of the medians: a single probe varies more than the host.
    """
    times = []
    for i in range(pairs):
        order = ("program", "baseline") if i % 2 == 0 else ("baseline", "program")
        pair = {side: _setup_probe(side, target) for side in order}
        times.append((pair["program"], pair["baseline"]))
    program = statistics.median(a for a, _ in times)
    baseline = statistics.median(b for _, b in times)
    return program / baseline * NOMINAL_SETUP_S, times


def tail_time(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Nearest rank: the r-th smallest of n has n - r samples beyond it. With
    fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    maximum is returned with percentile None.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], None
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


@dataclass
class Run:
    """What the passes of one run produced."""

    nominal_s: float  # the workload's baseline pass time on the reference host
    tally: checks.Tally = field(default_factory=checks.Tally)
    passes: list = field(default_factory=list)  # (pass_id, traced, program s, baseline s, items)
    digests: dict = field(default_factory=dict)  # first pass: label -> (program sha256, baseline sha256)
    setup_target: tuple = None

    @property
    def times(self):
        """Program pass times in nominal seconds: (program / baseline) * nominal_s."""
        return [p[2] / p[3] * self.nominal_s for p in self.passes]


def _run_pair(cli, baseline, inv, tracer, program_first):
    """One invocation on the program and on the baseline, back to back.

    Returns (program call, baseline call); the program is traced when a
    tracer is given.
    """
    def program():
        if tracer is None:
            return _call(cli, inv.argv)
        tracer.install()
        try:
            return _call(cli, inv.argv)
        finally:
            tracer.uninstall()

    if program_first:
        ours = program()
        return ours, _call(baseline, inv.argv)
    base = _call(baseline, inv.argv)
    return program(), base


def planned_passes(seconds, nominal_s):
    """Measured passes of a run: as many as fill ``seconds`` at the reference speed.

    A pass runs the program and the baseline, about 2 * nominal_s on the
    reference host, and the warm-up pass counts towards ``seconds``.
    """
    return max(MIN_PASSES, int(seconds / (2 * nominal_s)) - 1)


def run_passes(args, cli, baseline, workdir, tracer):
    """Warm-up pass, then ``planned_passes`` measured passes.

    Every invocation runs on the program and on the frozen baseline, back
    to back; only the program is checked and traced. Only a run longer
    than OVERRUN_FACTOR * --seconds stops before the planned count.
    """
    build = WORKLOADS[args.workload]
    run = Run(nominal_s=NOMINAL_PASS_S[args.workload])
    planned = planned_passes(args.seconds, run.nominal_s)
    start = perf_counter()
    wall = []
    k = 0
    while True:
        invocations, target = build(np.random.default_rng((args.seed, k)), workdir)
        run.setup_target = run.setup_target or target
        program_tracer = tracer if (k // 2) % 2 == 1 else None  # passes 2, 3, 6, 7, ...
        traced = program_tracer is not None
        if traced:
            tracer.pass_id = k
        t0 = perf_counter()
        # Each invocation runs on both sides back to back, the order
        # alternating, so both see the host at nearly the same speed.
        pairs = [
            _run_pair(cli, baseline, inv, program_tracer, (k + i) % 2 == 1)
            for i, inv in enumerate(invocations)
        ]
        calls = [ours for ours, _ in pairs]
        base_calls = [base for _, base in pairs]
        # Outputs are checked after the pass, so no timing follows checking
        # work that its counterpart does not.
        items = sum(classify(inv, call, run.tally) for inv, call in zip(invocations, calls))
        a_seconds = sum(call[0] for call in calls)
        b_seconds = sum(call[0] for call in base_calls)
        if k == 0:
            for inv, call, base in zip(invocations, calls, base_calls):
                run.digests[inv.label()] = (_sha256(call[2]), _sha256(base[2]))
        wall.append(perf_counter() - t0)
        if k > 0:
            run.passes.append((k, traced, a_seconds, b_seconds, items))
        k += 1
        if len(run.passes) >= planned:
            return run
        overrun = perf_counter() - start + statistics.median(wall) > OVERRUN_FACTOR * args.seconds
        if len(run.passes) >= MIN_PASSES and overrun:
            return run


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(run, setup_s):
    wall_s = statistics.median(run.times)
    return {
        "wall_s": wall_s,
        "items_per_s": statistics.median(p[4] for p in run.passes) / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - run.tally.failed / run.tally.attempted,
    }


def per_layer(run, tracer):
    stats = tracer.pass_stats()
    traced = [p[0] for p in run.passes if p[1]]
    items = {p[0]: p[4] for p in run.passes}
    values = {}
    for name, unit, _, _ in per_layer_specs():
        fn, stat = name.rsplit(".", 1)
        if fn == "trace":
            continue
        if stat == "calls_per_row":
            value = statistics.median(
                stats[k][fn]["calls"] / items[k] if fn in stats[k] and items[k] else 0 for k in traced
            )
        elif fn == "cli":
            value = statistics.median(
                sum(rec["self_s"] for f, rec in stats[k].items() if f.startswith("cli.")) for k in traced
            )
        else:
            value = median_over_passes(stats, fn, stat, traced)
        values[name] = int(value) if unit == "count" and float(value).is_integer() else value
    times = run.times
    on = [t for t, p in zip(times, run.passes) if p[1]]
    off = [t for t, p in zip(times, run.passes) if not p[1]]
    values["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
    every = {
        fn: {s: median_over_passes(stats, fn, s, traced) for s in ("calls", "self_s", "total_s")}
        for fn in sorted({f for k in traced for f in stats[k]})
    }
    return values, every


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) and not value.is_integer() else str(int(value))


def _end_to_end_report(run, metrics, setup_times):
    times, tally = run.times, run.tally
    tail, pct = tail_time(times)
    tail_note = (
        f"p{pct:.0f} of {len(times)} passes, {TAIL_BEYOND} beyond it"
        if pct is not None else f"maximum of {len(times)} passes (fewer than {TAIL_BEYOND + 1})"
    )
    notes = {
        "wall_s": f"median of {len(times)} passes",
        "items_per_s": f"{_fmt(statistics.median(p[4] for p in run.passes))} items per pass / wall_s",
        "setup_s": f"median program / median baseline over {len(setup_times)} pairs of fresh processes",
        "peak_rss_mb": "ru_maxrss of this process",
        "ok_share": f"fail_share {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} outputs)",
    }
    program = statistics.median(p[2] for p in run.passes)
    baseline = statistics.median(p[3] for p in run.passes)
    return [
        f"raw pass medians: program {program:.6g} s, baseline {baseline:.6g} s; "
        f"nominal baseline pass {run.nominal_s:g} s"
    ] + [
        f"{name:12s} {_fmt(value):>12s} {END_TO_END_UNITS[name]:6s} {notes[name]}"
        for name, value in metrics.items()
    ] + [f"{'wall_s_tail':12s} {_fmt(tail):>12s} {'s':6s} {tail_note} (reported, not gated)"]


def _per_layer_report(metrics):
    lines, group = [], None
    for name, unit, _, moves in per_layer_specs():
        if moves != group:
            lines.append(f"-> moves {moves}")
            group = moves
        lines.append(f"   {name:50s} {_fmt(metrics[name]):>12s} {unit}")
    return lines


def run_benchmark(args, cli):
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        run = run_passes(args, cli, load_baseline(), workdir, tracer)
        setup_s, setup_times = (None, []) if args.trace else measure_setup(run.setup_target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = run.tally
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "digests_first_pass": {k.replace(ROOT + os.sep, ""): v for k, v in run.digests.items()},
        "pass_seconds": {
            "program": [p[2] for p in run.passes],
            "baseline": [p[3] for p in run.passes],
            "nominal": run.times,
        },
        "setup_seconds": setup_times,
        "failures": dict(tally.reasons),
    }
    report = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"env {json.dumps(result['env'])}",
        f"passes {len(run.passes)} measured after 1 warm-up; items per pass {run.passes[0][4]}",
    ]
    if args.trace:
        metrics, result["all_functions"] = per_layer(run, tracer)
        units = {name: unit for name, unit, _, _ in per_layer_specs()}
        report += _per_layer_report(metrics)
        spans_path = os.path.join(OUT, f"{tag}-spans.jsonl")
        tracer.write_spans(spans_path)
        report.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(run, setup_s)
        units = END_TO_END_UNITS
        report += _end_to_end_report(run, metrics, setup_times)
    report.append(f"outputs {tally.attempted}: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.kinds.items())))
    report += [f"  {count:7d}  {reason}" for reason, count in sorted(tally.reasons.items())]
    for label, (ours, base) in result["digests_first_pass"].items():
        same = "same as baseline" if ours == base else f"baseline {base[:16]}"
        report.append(f"sha256 {ours}  {label}  ({same})")
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(report))
    summary = {
        "correct": tally.kinds[checks.WRONG] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weaksym", "cli.py")):
        print(f"error: no weaksym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import weaksym.cli as cli

    return run_benchmark(args, cli)


if __name__ == "__main__":
    sys.exit(main())
