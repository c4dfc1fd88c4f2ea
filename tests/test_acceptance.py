"""Acceptance gate: every required behavior at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line per sub-check so the
residuals are visible in the report (pytest -v shows one line per
criterion; -s adds the residual detail). The checks themselves live in
weaksym.verify so the CLI ``verify`` command runs the same code.
"""

import numpy as np
import pytest

from weaksym import verify
from weaksym.model import build_aklt_model


def _report(criterion, results):
    failures = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {criterion}: {result.name} (worst {result.worst:.3e}, tol {result.tol:.0e})")
        if not result.passed:
            failures.append(f"{result.name}: worst {result.worst:.3e} exceeds tol {result.tol:.0e}")
    assert not failures, "; ".join(failures)


def test_criterion_1_transfer_spectra_and_matrices():
    """Eigenvalues of T(1) and T(R_z) as multisets within 1e-12 on the
    11-point p-grid; explicit matrices entrywise within 1e-14."""
    _report("criterion 1", verify.transfer_table_checks(build_aklt_model))


def test_criterion_2_quantized_responses():
    """Thermodynamic responses (-1,-1) below and (-1,+1) above p=1/2
    within 1e-8; finite N=200 agrees within 1e-8; p=1/2 errors as
    gapless with gap below 1e-12."""
    _report("criterion 2", verify.response_checks(build_aklt_model))


def test_criterion_3_symmetry_gap():
    """Gap of T(R_z) equals |2-4p|/3 within 1e-12 on the p-grid; gap of
    T(1) equals 2/3 for all p."""
    _report("criterion 3", verify.gap_checks(build_aklt_model))


def test_criterion_4_normalized_string_order():
    """At l=50, N=200: |S_y| within 1e-6 of (2(1-p)/3)^2 above p=1/2 and
    below 1e-6 under it; |S_x| below 1e-6 on the whole grid."""
    _report("criterion 4", verify.string_order_checks(build_aklt_model))


def test_criterion_5_decay_exponents_and_crossing():
    """xi_x = ln 3 within 1e-6 wherever the S_x string exists (it
    vanishes identically at p=1); xi_y = -ln((4p-1)/3) within 1e-6 at
    p in {0.6, 0.75, 0.9}; Illinois regula falsi, safeguarded by
    midpoints, locates the crossing at 0.5 within 1e-6."""
    _report("criterion 5", verify.exponent_checks(build_aklt_model))


def test_criterion_6_oracle_equivalence():
    """For N in {3,4,5} and p in {0, 0.3, 0.7, 1}: uniform charges,
    flux-inserted numerators, and every ring string order agree between
    the transfer route and the dense contraction within 1e-10."""
    _report("criterion 6", verify.oracle_checks(build_aklt_model))


def test_criterion_7_structural_identities():
    """Commutant residuals below 1e-12 for all commuting pairs; the
    push-through law below 1e-8 for every extracted representation;
    conservation law below 1e-8 at p in {0.2, 0.8}; a squared flux
    (full group orbit) responds trivially within 1e-8."""
    _report("criterion 7", verify.structural_checks(build_aklt_model))


def test_criterion_8_pure_state_limit():
    """At p=0, N=200 the responses equal -1 within 1e-10 and coincide
    with the projective cocycle of the extracted representations."""
    _report("criterion 8", verify.pure_limit_checks(build_aklt_model))
