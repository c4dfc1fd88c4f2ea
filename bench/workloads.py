"""The four benchmark workloads: which CLI invocations one pass makes.

Each workload is a function ``(rng, workdir) -> (invocations, setup)``.

Every workload is a closed loop with one client: a pass runs its
invocations back to back through ``weaksym.cli.main`` and the next pass
starts when the last one returns. Pass ``k`` of a run with seed ``s`` draws
its inputs from ``numpy.random.default_rng((s, k))``, so a seed fixes every
input of every pass while no two passes of a run repeat the seeded ones.
"""

import os
from dataclasses import dataclass
from typing import Callable

import checks
from genmodel import write_generic_model

SWEEP_STEPS = 96
SPECIAL_GRID = ("0", "1", "5")  # p-min, p-max, steps: 0, 1/4, 1/2, 3/4, 1
LONG_L_MAX = 2000
RING_L_MAX = 1000
RING_CASES = ((0.3, "sy", 1200), (0.75, "sy", 3000))
RESPONSE_SITES = (1000, 2000, 3000)
STRING_P = (0.3, 0.75)
GENERIC_VERIFY_BOND = 6
GENERIC_RESPONSE_BOND = 12
# One thermo response e^{iQ(g1, R_z)} at D=12 per pass, g1 drawn by the pass seed.
GENERIC_FLUXES = ("R_x", "R_y")
# verify --model on Z2 x Z2: 4 push-through laws, 16 commutants,
# 12 conservation pairs and one dense-oracle check.
GENERIC_VERIFY_CHECKS = 33
# What setup_s builds in a fresh process: the built-in family at this p, or
# the D=16 model file of the pass.
AKLT_SETUP = ("aklt", "0.3")


@dataclass
class Invocation:
    """One CLI call and the checker of its output.

    ``check(out, tally)`` classifies the outputs of a run that exited 0 and
    returns the number of items (work units) read; ``refused(tally)``
    classifies the outputs missing from a run that exited 3.
    """

    argv: list
    check: Callable
    refused: Callable = None

    def label(self):
        return " ".join(self.argv)


def _refuse_one(reason):
    return lambda tally: tally.add(checks.FAIL, reason)


def verify_all(rng, workdir):
    return [
        Invocation(
            ["verify", "all"],
            lambda out, t: checks.check_verify(out, t, sections=checks.VERIFY_SECTIONS),
        )
    ], AKLT_SETUP


def phase_sweep(rng, workdir):
    """A 96-row sweep with seeded off-grid end points, plus the special points."""
    p_min = float(0.02 * rng.random())
    p_max = float(1.0 - 0.02 * rng.random())
    grid = checks.sweep_grid(p_min, p_max, SWEEP_STEPS)
    special = checks.sweep_grid(0.0, 1.0, int(SPECIAL_GRID[2]))
    return [
        Invocation(
            ["sweep", "--p-min", repr(p_min), "--p-max", repr(p_max), "--steps", str(SWEEP_STEPS)],
            lambda out, t: checks.check_sweep(out, grid, t),
        ),
        Invocation(
            ["sweep", "--p-min", SPECIAL_GRID[0], "--p-max", SPECIAL_GRID[1], "--steps", SPECIAL_GRID[2]],
            lambda out, t: checks.check_sweep(out, special, t),
        ),
    ], AKLT_SETUP


def _string(p, chi, l_max, n_sites=None):
    lengths = range(0, l_max + 1)
    argv = ["string", "--p", repr(p), "--g2", "R_z", "--chi", chi, "--l-min", "0", "--l-max", str(l_max)]
    if n_sites is not None:
        if l_max > n_sites - 2 - checks.RING_MARGIN:
            raise ValueError("ring lengths too close to N for the closed form")
        argv += ["--sites", str(n_sites)]
    return Invocation(
        argv,
        lambda out, t: checks.check_string(out, p, chi, lengths, t, n_sites=n_sites),
        lambda t: checks.check_string_refused(lengths, t),
    )


def _response(argv, expected, gap, n_sites):
    if n_sites is not None:
        argv = argv + ["--sites", str(n_sites)]

    def check(out, tally):
        checks.check_response(out, expected, gap, n_sites, tally)
        return 1

    return Invocation(argv, check, _refuse_one("response (refused)"))


def long_strings(rng, workdir):
    """Thousands of lengths on a few fixed models; the inputs do not use the seed.

    p = 0.3 and 0.75 are fixed so that the count of floating-point range
    failures is a property of the program, not of the seed.
    """
    invs = [_string(p, chi, LONG_L_MAX) for p in STRING_P for chi in ("sx", "sy")]
    invs += [_string(p, chi, RING_L_MAX, n) for p, chi, n in RING_CASES]
    for p in STRING_P:
        for g1 in ("R_x", "R_y"):
            for n in RESPONSE_SITES:
                argv = ["response", "--p", repr(p), "--g1", g1, "--g2", "R_z"]
                invs.append(_response(argv, checks.aklt_response(p, g1), checks.gap_z(p), n))
    return invs, AKLT_SETUP


def generic_bond(rng, workdir):
    """verify --model at D=6 and a thermo response at D=12 on seeded generic models.

    D=8 and D=16 make 4-5 s passes; on a shared host two back-to-back runs
    of such a pass differ by up to 80%, and a run holds too few of them to
    be steady. D=6 and 12 keep the few-large-matrices character (36x36 and
    144x144 transfer maps, against 4x4 in phase_sweep) at about 1 s a pass.
    """
    p = float(rng.uniform(0.05, 0.45) if rng.random() < 0.5 else rng.uniform(0.55, 0.95))
    verify_path = os.path.join(workdir, f"generic-D{GENERIC_VERIFY_BOND}.json")
    response_path = os.path.join(workdir, f"generic-D{GENERIC_RESPONSE_BOND}.json")
    write_generic_model(verify_path, p, GENERIC_VERIFY_BOND, rng)
    info = write_generic_model(response_path, p, GENERIC_RESPONSE_BOND, rng)
    invs = [
        Invocation(
            ["verify", "all", "--model", verify_path],
            lambda out, t: checks.check_verify(
                out, t, sections={"actions", "commutants", "conservation", "oracle"},
                n_checks=GENERIC_VERIFY_CHECKS,
            ),
        )
    ]
    g1 = GENERIC_FLUXES[int(rng.integers(len(GENERIC_FLUXES)))]
    argv = ["response", "--model", response_path, "--g1", g1, "--g2", "R_z"]
    invs.append(_response(argv, checks.aklt_response(p, g1), checks.generic_gap(p, info["mu1"]), None))
    return invs, ("model", response_path)


# Median pass time of the frozen baseline (bench/baseline) for each workload
# on the host the bounds were set on (2-vCPU x86_64 VM, Python 3.11, numpy
# 2.4 with OpenBLAS 0.3.31 on one thread). Reported times are
# (program / baseline) * this, so they read as seconds at that host's speed.
NOMINAL_PASS_S = {
    "verify_all": 2.5,
    "phase_sweep": 1.15,
    "long_strings": 2.9,
    "generic_bond": 1.6,
}

WORKLOADS = {
    "verify_all": verify_all,
    "phase_sweep": phase_sweep,
    "long_strings": long_strings,
    "generic_bond": generic_bond,
}
