"""Digests of the command line's outputs, to show that two trees print the same bytes.

Run from the root of a checkout, once per tree and BLAS thread count:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 tests/output_digests.py > one-thread.txt
    OMP_NUM_THREADS=2 OPENBLAS_NUM_THREADS=2 python3 tests/output_digests.py > two-threads.txt

and compare the files of two trees at the same thread count with ``diff``.
Every call runs in this one process through ``weaksym.cli.main``, in a
temporary directory that holds the model files it reads. Each prints one
line ``<sha256> <exit code> <argv>``: the digest of its stdout, a NUL byte and
its stderr, in which each ``<path>/src/weaksym/<module>.py:<line>`` of a
warning is masked, since paths and line numbers differ between checkouts.

The calls are the 110 of ``BENCH_27.json`` (``outputs.calls``): sweeps,
strings, responses and ``verify`` on the built-in family, and on the model
files ``D6-p0.3.json`` ... ``D12-p0.7.json`` that ``bench/genmodel.py``
writes. Then ``verify all --model``, ``string --chi s0|sy`` and
``response --g1 R_x|R_y`` (with and without ``--sites 7``) on models of the
tests' seeded generator (``test_generic.generic_model`` at p = 0.3) at
D = 6, 12 and 16. Not collected by pytest: the name does not start with
``test_``. It takes a few seconds.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from genmodel import write_generic_model  # noqa: E402
from test_generic import generic_model  # noqa: E402
from weaksym import cli  # noqa: E402
from weaksym.model import save_model  # noqa: E402

GRID = "--p-min 0.010236432494005134 --p-max 0.9809907260734813"
HUGE = "--sites 9223372036854775807"
SWEEPS = [
    "",
    "--steps 101",
    "--p-min 0 --p-max 1 --steps 5",
    f"{GRID} --steps 96",
    f"{GRID} --steps 33",
    "--p-min 0 --p-max 1 --steps 33",
    "--steps 21",
    "--p-min 0 --p-max 1 --steps 9 --sites 4 --string-length 2",
    "--p-min 0 --p-max 1 --steps 65 --sites 2000 --string-length 1000",
    f"--p-min 0.1 --p-max 0.9 --steps 40 {HUGE} --string-length 48",
]
CALLS = [
    *(f"sweep {sweep} --format {fmt}".replace("  ", " ") for fmt in ("csv", "json") for sweep in SWEEPS),
    "sweep --p 0.5 --sites 3 --string-length 1",
    "sweep --p 0.25",
    "sweep --p 1",
    "sweep --p 0",
    "sweep --sites 10 --string-length 9",
    "verify",
    "verify all",
    "verify oracle",
    "verify tables",
    *(f"string --p {p} --g2 R_z --chi {chi} --l-min 0 --l-max 2000" for p in (0.3, 0.75) for chi in ("sx", "sy")),
    "string --p 0.3 --g2 R_z --chi sy --l-min 0 --l-max 1000 --sites 1200",
    "string --p 0.75 --g2 R_z --chi sy --l-min 0 --l-max 1000 --sites 3000",
    f"string --p 0.6 --g2 R_z --chi sy --l-min 9223372036854775790 --l-max 9223372036854775805 {HUGE}",
    "string --p 0.2 --g2 R_z --chi sz --format json",
    "string --p 0.7 --g2 R_x --chi sy --sites 60 --format json",
    *(f"string --p {p} --g2 R_z --chi {chi} --l-max 20" for p in (0, 0.25, 0.5, 1) for chi in ("s0", "sx", "sy", "sz")),
    *(
        f"response --p {p} --g1 {g1} --g2 R_z --sites {n}"
        for p in (0.3, 0.75)
        for g1 in ("R_x", "R_y")
        for n in (1000, 2000, 3000)
    ),
    "response --p 0.3 --g1 R_x --g2 R_z",
    "response --p 0.3 --g1 R_x --g2 R_z --sites 3000 --json",
    "response --p 0.5 --g1 R_x --g2 R_z",
    "response --p 1 --g1 R_y --g2 R_z",
]
for _name in ("D6-p0.3", "D6-p0.7", "D12-p0.3", "D12-p0.7"):
    _model = f"--model {_name}.json"
    CALLS += [f"string {_model} --g2 R_z --chi {chi}" for chi in ("s0", "sx", "sy", "sz")]
    CALLS.append(f"string {_model} --g2 R_z --chi sy --sites 1200 --l-max 100")
    CALLS += [f"response {_model} --g1 {g1} --g2 R_z{sites}" for g1 in ("R_x", "R_y") for sites in ("", " --sites 7")]
    if _name.startswith("D6"):
        CALLS += [f"verify all {_model}", f"verify {_model}"]
for _bond in (3, 6, 8):
    _model = f"--model tests-D{2 * _bond}.json"
    CALLS.append(f"verify all {_model}")
    CALLS += [f"string {_model} --g2 R_z --chi {chi}" for chi in ("s0", "sy")]
    CALLS += [f"response {_model} --g1 {g1} --g2 R_z{sites}" for g1 in ("R_x", "R_y") for sites in ("", " --sites 7")]

MASK = re.compile(r"\S*src/weaksym/(\w+)\.py:\d+")


def write_models():
    """The model files the calls read, into the working directory."""
    for bond in (6, 12):
        for p in (0.3, 0.7):
            write_generic_model(f"D{bond}-p{p}.json", p, bond, np.random.default_rng(bond))
    for bond in (3, 6, 8):
        save_model(generic_model(0.3, bond=bond)[0], f"tests-D{2 * bond}.json")


def digest(argv):
    """(sha256 of stdout, NUL and masked stderr, exit code) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    masked = MASK.sub(r"weaksym/\1.py:<line>", err.getvalue())
    return hashlib.sha256(f"{out.getvalue()}\0{masked}".encode()).hexdigest(), code


def main():
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        write_models()
        for call in CALLS:
            sha, code = digest(call.split())
            print(sha, code, call, flush=True)
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
