"""Time the command line of two checkouts against each other in one process.

    python3 tests/inprocess_ab.py BASE CHANGE [--rounds R] [--call "sweep --steps 101"] ...

BASE and CHANGE are checkout roots. Each one's ``src/weaksym`` is loaded
under a name of its own (``weaksym_base``, ``weaksym_change``), so both
live in this one process with one numpy, at one BLAS thread. A round runs
every call through each side's ``cli.main`` in turn, the side that goes first
alternating from round to round, and times each side's pass. Every call's
stdout and exit code must be the same on both sides, in every round; a
difference is reported and the script exits 1. One untimed pass per side
comes first. It prints each side's median and quartiles of a pass, the
ratio of the medians (change over base) and the rounds each side won, and
the same per call.

Without ``--call`` the calls are the two sweeps of the benchmark's
``phase_sweep`` pass: the 96-row off-grid sweep of ``tests/output_digests.py``
and the 5-row sweep through the special points. Not collected by pytest:
the name does not start with ``test_``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PHASE_SWEEP = [
    "sweep --p-min 0.010236432494005134 --p-max 0.9809907260734813 --steps 96",
    "sweep --p-min 0 --p-max 1 --steps 5",
]


def load_cli(root, name):
    """``cli`` of the package under ``root``/src/weaksym, imported as the package ``name``."""
    package = Path(root).resolve() / "src" / "weaksym"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, calls):
    """(seconds per call, (exit code, stdout) per call) of one pass."""
    seconds, outputs = [], []
    for argv in calls:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds.append(time.perf_counter() - start)
        outputs.append((code, out.getvalue()))
    return seconds, outputs


def summary(label, base, change):
    """One line: each side's median and quartiles in ms, their ratio and the rounds each won."""
    def quartiles(times):
        q1, median, q3 = statistics.quantiles(times, n=4)
        return f"{median * 1e3:8.3f} ms [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"

    won = sum(c < b for b, c in zip(base, change))
    ratio = statistics.median(change) / statistics.median(base)
    return f"{label}\n  base   {quartiles(base)}\n  change {quartiles(change)}\n  ratio {ratio:.3f}, change faster in {won}/{len(base)} rounds"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--call", action="append", help="a CLI invocation, e.g. 'sweep --steps 101' (repeatable)")
    args = parser.parse_args(argv)
    calls = [call.split() for call in (args.call or PHASE_SWEEP)]
    sides = {"base": load_cli(args.base, "weaksym_base"), "change": load_cli(args.change, "weaksym_change")}
    times = {side: [] for side in sides}  # per side, per round: [pass, *calls]
    differ = set()
    for rounds in range(args.rounds + 1):
        order = list(sides) if rounds % 2 == 0 else list(sides)[::-1]
        passes = {side: run(sides[side], calls) for side in order}
        differ |= {" ".join(call) for call, a, b in zip(calls, passes["base"][1], passes["change"][1]) if a != b}
        if rounds:  # the first pass is untimed
            for side, (seconds, _) in passes.items():
                times[side].append([sum(seconds), *seconds])
    print(f"{args.rounds} rounds, one BLAS thread, {len(calls)} calls per pass")
    labels = ["pass"] + [" ".join(call) for call in calls]
    for i, label in enumerate(labels):
        print(summary(label, [t[i] for t in times["base"]], [t[i] for t in times["change"]]))
    for call in sorted(differ):
        print(f"OUTPUT DIFFERS: {call}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
