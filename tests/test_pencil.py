"""The built-in family's transfer maps as a pencil.

A member at noise rate p has the tensor sqrt(1-p) B_0 + sqrt(p) B_1 of the
family's two part tensors (``model._aklt_family``), and its maps are
(1 - p) T(B_0) + p T(B_1): the parts are contracted once per process and
insertion, and each member's map is their combination (``LpdoTensor.pencil``,
``transfer.build_transfers``). An ancilla insertion that couples slot 0 with
slots 1-3 has cross terms, and such a map is contracted as a bare tensor's is.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_stacks import _seeded_grid
import weaksym
from weaksym import cli
from weaksym.model import LpdoTensor, build_aklt_model, spin1_operators
from weaksym.transfer import _contract, build_transfer, build_transfers

OPS = spin1_operators()


def sweep_insertions():
    """The six (op, op_a) a sweep row reads: 1, R_z, S_x and S_y, and R_x and R_y with their ua."""
    model = build_aklt_model(0.3)
    ops = [(OPS[name], None) for name in ("S_0", "R_z", "S_x", "S_y")]
    return ops + [(model.action(g).u, model.action(g).ua) for g in ("R_x", "R_y")]


def contracted(lpdo, op, op_a):
    """T(op, op_a) of the tensor's entries, as :func:`weaksym.transfer._contract` builds it."""
    op_a = None if op_a is None else np.asarray(op_a, dtype=complex)
    return _contract(lpdo.tensor[None], np.asarray(op, dtype=complex), op_a)[0]


def _bits(m):
    return m.shape, m.strides, m.tobytes()


@pytest.mark.parametrize("insertion", range(6), ids=["1", "R_z", "S_x", "S_y", "R_x-ua", "R_y-ua"])
def test_the_pencil_agrees_with_the_contraction_of_the_members_tensor(insertion):
    op, op_a = sweep_insertions()[insertion]
    for p in np.linspace(0.0, 1.0, 101):
        lpdo = build_aklt_model(p).lpdo
        np.testing.assert_allclose(build_transfer(lpdo, op, op_a), contracted(lpdo, op, op_a), rtol=0, atol=1e-15)


def test_an_ancilla_insertion_with_cross_terms_is_contracted():
    """op_a = 1 plus an entry between slots 0 and 1: the member's own tensor is contracted."""
    op_a = np.eye(4, dtype=complex)
    op_a[0, 1] = 0.5
    for p in (0.0, 0.3, 1.0):
        lpdo = build_aklt_model(p).lpdo
        assert _bits(build_transfer(lpdo, OPS["R_z"], op_a)) == _bits(contracted(lpdo, OPS["R_z"], op_a))


def test_a_members_map_does_not_depend_on_its_stack():
    """Bit for bit: a member alone, in a stack of 32 members, and in a stack that
    also holds a bare tensor, which gets its contraction alone."""
    ps = np.linspace(0.01, 0.99, 32)
    for op, op_a in sweep_insertions():
        stacked = build_transfers([build_aklt_model(p).lpdo for p in ps], op, op_a)
        alone = [build_transfer(build_aklt_model(p).lpdo, op, op_a) for p in ps]
        assert [_bits(m) for m in stacked] == [_bits(m) for m in alone]
        bare = LpdoTensor(build_aklt_model(ps[5]).lpdo.tensor)
        mixed = build_transfers([build_aklt_model(ps[0]).lpdo, bare, build_aklt_model(ps[7]).lpdo], op, op_a)
        assert [_bits(m) for m in mixed] == [_bits(alone[0]), _bits(contracted(bare, op, op_a)), _bits(alone[7])]
        assert all(not m.flags.writeable for m in stacked + mixed)


COUNT_CONTRACTIONS = """
import contextlib, io, sys
from weaksym import cli, transfer
sizes = []
contract = transfer._contract
def counting(a4, op, op_a):
    sizes.append(len(a4))
    return contract(a4, op, op_a)
transfer._contract = counting
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sweep", *sys.argv[1:]]) == 0
print(sum(sizes), len(sizes))
"""


def test_a_sweep_contracts_only_the_two_parts_per_insertion():
    """A fresh process's 96-row sweep contracts 12 tensor maps, the two parts for
    each of six insertions, not one map per row and insertion (576, in 18 calls)."""
    src = str(Path(weaksym.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", COUNT_CONTRACTIONS, *_seeded_grid(1)], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "12 6\n", "")


def _sweep(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", *argv]) == 0
    return [line.split(",") for line in out.getvalue().splitlines()[1:]]


def test_the_gap_at_one_half_is_exactly_zero():
    """gap_z = |2 - 4p|/3 closes at p = 1/2: (T(B_0) + T(B_1))/2 has the tied moduli exactly."""
    (row,) = _sweep(["--p", "0.5"])
    assert row[5] == "0"


def _ring_string(p, ratio, n_sites, length):
    """|S(l)| normalized on a ring, A |r|^l / |Tr T(R_z)^N|^(l/N); the (1/3)^(N-l-2) terms are negligible."""
    amplitude = (2 * (1 - p) / 3) ** 2
    if amplitude == 0 or ratio == 0:
        return 0.0
    eigenvalues = ((3 - 4 * p) / 3, (4 * p - 1) / 3, -1 / 3, -1 / 3)
    lead = max(abs(v) for v in eigenvalues)
    log_charge = n_sites * math.log(lead) + math.log(abs(sum((v / lead) ** n_sites for v in eigenvalues)))
    return amplitude * math.exp(length * (math.log(abs(ratio)) - log_charge / n_sites))


@pytest.mark.parametrize("grid", [["--steps", "101"], _seeded_grid(1)], ids=["101", "seeded-96"])
def test_sweep_closed_form_errors(grid):
    """Worst errors against the closed forms: gap_z below 1e-15 absolute, xi_x below
    1e-15 and xi_y below 1e-13 relative, |S_N| (N = 200, l = 50) below 1e-14 absolute."""
    worst = dict.fromkeys(("gap_z", "xi_x", "xi_y", "sn"), 0.0)
    for row in _sweep(grid):
        p = float(row[0])
        gap_z, sn_x, sn_y, xi_x, xi_y = map(float, row[5:10])
        worst["gap_z"] = max(worst["gap_z"], abs(gap_z - abs(2 - 4 * p) / 3))
        if p < 1:  # both strings vanish at p = 1; S_y's channel is nilpotent at p = 1/4
            worst["xi_x"] = max(worst["xi_x"], abs(xi_x - math.log(3)) / math.log(3))
            if p != 0.25:
                xi = -math.log(abs(4 * p - 1) / 3)
                worst["xi_y"] = max(worst["xi_y"], abs(xi_y - xi) / xi)
        for got, ratio in ((sn_x, -1 / 3), (sn_y, (4 * p - 1) / 3)):
            worst["sn"] = max(worst["sn"], abs(got - _ring_string(p, ratio, 200, 50)))
    assert worst["gap_z"] < 1e-15 and worst["xi_x"] < 1e-15, worst
    assert worst["xi_y"] < 1e-13 and worst["sn"] < 1e-14, worst
