"""Quantized topological responses of weakly symmetric mixed states.

The response of a flux V_g1 threaded through the virtual legs, measured by
a uniform u_g2 insertion, is

    e^{i Q(g1, g2)} = tr[kron(conj(V_g1), V_g1) T(g2)^N] / tr[T(g2)^N],

evaluated either at finite ring size N or in the thermodynamic limit,
where the ratio collapses onto the leading left/right eigenvector pair of
T(g2). For commuting g1, g2 the thermodynamic value is a phase, pinned to
a root of unity away from transitions.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GaplessTransferError, NearDefectiveError, NonCommutingError
from .numerics import spectral_decompose
from .symmetry import cocycle_commutator, extract_virtual_rep
from .transfer import build_transfer, flux_operator, symmetry_gap, twisted_spectrum

SNAP_TOL = 1e-6
GAP_TOL = 1e-8
DENOMINATOR_FLOOR = 1e-300


@dataclass
class ResponseResult:
    """Outcome of a response evaluation.

    ``snapped`` is the nearest root of unity as a fraction of 2*pi (e.g.
    Fraction(1, 2) for -1) when the value lies within the snap tolerance
    of one, else None. ``mode`` is "thermo" or "finite"; ``n_sites`` is
    None in thermo mode. ``valid`` is cleared when the value is not a
    usable phase (vanishing denominator, or thermo modulus off unity).
    """

    value: complex
    snapped: Fraction | None
    gap: float
    mode: str
    n_sites: int | None
    valid: bool


def snap_root_of_unity(value, order, tol=SNAP_TOL):
    """Nearest k/order with |value - e^{2 pi i k / order}| < tol, else None."""
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        return None
    best = None
    best_dist = tol
    for k in range(int(order)):
        root = np.exp(2j * np.pi * k / order)
        dist = abs(value - root)
        if dist < best_dist:
            best_dist = dist
            best = Fraction(k, int(order))
    return best


def _require_commuting(model, g1, g2):
    if not model.group.commutes(g1, g2):
        raise NonCommutingError(f"group elements {g1!r} and {g2!r} do not commute")


def finite_response(model, g1, g2, n_sites):
    """Flux response on a finite ring, both traces by repeated squaring.

    Returns a :class:`ResponseResult` in mode "finite". The result is
    flagged invalid (value NaN) when the denominator trace falls below the
    representable floor. g1 = identity returns exactly 1.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    t = build_transfer(model.lpdo, model.action(g2).u)
    power = np.linalg.matrix_power(t, int(n_sites))
    denominator = complex(np.trace(power))
    numerator = complex(np.trace(flux_operator(rep1.v) @ power))
    gap = symmetry_gap(spectral_decompose(t))
    if abs(denominator) < DENOMINATOR_FLOOR:
        return ResponseResult(
            value=complex(np.nan, np.nan),
            snapped=None,
            gap=gap,
            mode="finite",
            n_sites=int(n_sites),
            valid=False,
        )
    value = numerator / denominator
    return ResponseResult(
        value=value,
        snapped=snap_root_of_unity(value, model.group.order(g1)),
        gap=gap,
        mode="finite",
        n_sites=int(n_sites),
        valid=True,
    )


def _leading_pair(spectrum, xs, gap_tol, what, ends=None):
    """Leading-pair contractions (L0·X·R0)/(L0·R0) of a gapped spectrum.

    Returns the list of values, one per X in ``xs``, and the symmetry gap.
    ``ends = (X_L, X_R)`` stands for X_L·X·X_R with each end contracted
    onto its eigenvector once. Raises :class:`NearDefectiveError` for an
    untrustworthy spectrum and :class:`GaplessTransferError` when the gap
    is at or below ``gap_tol``; ``what`` ("for 'R_z'") names the map in both.
    """
    if spectrum.near_defective:
        raise NearDefectiveError(f"transfer spectrum {what} is near-defective")
    gap = symmetry_gap(spectrum)
    if gap <= gap_tol:
        raise GaplessTransferError(f"symmetry gap {what} is {gap:.3e}; thermodynamic limit undefined")
    _, left, right = spectrum.leading
    norm = left @ right
    if ends is not None:
        left, right = left @ ends[0], ends[1] @ right
    return [complex((left @ x @ right) / norm) for x in xs], gap


def flux_response(model, flux, g2, gap_tol=GAP_TOL):
    """Thermodynamic response of an arbitrary seam matrix ``flux``.

    (L0| kron(conj(X), X) |R0) on the leading biorthonormal eigenvector
    pair of T(g2). Returns ``(value, gap)``. Raises
    :class:`GaplessTransferError` when the symmetry gap of T(g2) is at or
    below ``gap_tol`` (the value is undefined at a transition) and
    :class:`NearDefectiveError` for untrustworthy spectra.
    """
    spectrum = twisted_spectrum(model, g2)
    [value], gap = _leading_pair(spectrum, [flux_operator(flux)], gap_tol, f"for {g2!r}")
    return value, gap


def _ancilla_flux_response(model, flux, g2, gap_tol):
    """:func:`flux_response` on T(1, ua_g2): the insertion sits on the ancilla leg."""
    t = build_transfer(model.lpdo, np.eye(model.lpdo.d), model.action(g2).ua)
    [value], gap = _leading_pair(
        spectral_decompose(t), [flux_operator(flux)], gap_tol, f"for {g2!r} on the ancilla"
    )
    return value, gap


def _thermo_result(model, g1, value, gap):
    valid = bool(abs(abs(value) - 1.0) <= 1e-8)
    return ResponseResult(
        value=value,
        snapped=snap_root_of_unity(value, model.group.order(g1)) if valid else None,
        gap=gap,
        mode="thermo",
        n_sites=None,
        valid=valid,
    )


def thermo_response(model, g1, g2, gap_tol=GAP_TOL):
    """Thermodynamic-limit flux response e^{i Q(g1, g2)}.

    Threads the extracted virtual representation V_g1 through the leading
    eigenvector pair of T(g2). Valid results are phases: unit modulus
    within 1e-8.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    return _thermo_result(model, g1, *flux_response(model, rep1.v, g2, gap_tol=gap_tol))


def ancilla_response(model, g1, g2, gap_tol=GAP_TOL):
    """Ancilla share of the response: ua_g2 inserted on the ancilla leg.

    Same flux and eigenvector pair as :func:`thermo_response`, but on the
    transfer map T(1, ua_g2) with the physical leg traced through. A
    trivial ancilla action gives 1 identically.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    return _thermo_result(model, g1, *_ancilla_flux_response(model, rep1.v, g2, gap_tol))


def conservation_check(model, g1, g2):
    """Residual of e^{i Q_t} = e^{i Q} * e^{i Q_a}.

    The total (cocycle) charge of the purified state splits between the
    physical and ancilla responses. Returns
    ``(residual, total, physical, ancilla)`` where ``total`` is the
    commutator phase of the extracted virtual representations.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    rep2, _ = extract_virtual_rep(model.lpdo, model.action(g2))
    total = cocycle_commutator(rep1, rep2)
    physical = _thermo_result(model, g1, *flux_response(model, rep1.v, g2))
    ancilla = _thermo_result(model, g1, *_ancilla_flux_response(model, rep1.v, g2, GAP_TOL))
    residual = abs(total - physical.value * ancilla.value)
    return float(residual), total, physical, ancilla
