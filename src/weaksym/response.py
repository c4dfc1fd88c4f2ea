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
from .numerics import ScaledPowers
from .symmetry import cocycle_commutator, extract_virtual_rep
from .transfer import build_transfer, flux_operator, symmetry_gap, transfer_spectrum, twisted_spectrum

SNAP_TOL = 1e-6
GAP_TOL = 1e-8


@dataclass
class ResponseResult:
    """Outcome of a response evaluation.

    ``snapped`` is the nearest root of unity as a fraction of 2*pi (e.g.
    Fraction(1, 2) for -1) when the value lies within the snap tolerance
    of one, else None. ``mode`` is "thermo" or "finite"; ``n_sites`` is
    None in thermo mode. ``valid`` is cleared when the value is not a
    usable phase (a denominator trace that is exactly zero, or a thermo
    modulus off unity).
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

    Returns a :class:`ResponseResult` in mode "finite". The power of T(g2)
    carries a binary exponent that cancels in the ratio, so the traces never
    underflow; the result is flagged invalid (value NaN) only when the
    denominator trace is exactly zero. g1 = identity returns exactly 1.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    u2 = model.action(g2).u
    power, _ = ScaledPowers(build_transfer(model.lpdo, u2)).power(int(n_sites))
    denominator = complex(np.trace(power))
    numerator = complex(np.trace(flux_operator(rep1.v) @ power))
    gap = symmetry_gap(transfer_spectrum(model.lpdo, u2))
    if denominator == 0:
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


def _leading_pair(spectrum, gap_tol, what):
    """Leading eigenvector pair of a gapped spectrum, for (L0·X·R0)/(L0·R0).

    Returns ``(left, right, norm, gap)``: the left row L0, the right column
    R0, their overlap L0·R0 and the symmetry gap. Every thermodynamic value
    is ``(left @ X @ right) / norm`` for some X. Raises
    :class:`NearDefectiveError` for an untrustworthy spectrum and
    :class:`GaplessTransferError` when the gap is at or below ``gap_tol``;
    ``what`` ("for 'R_z'") names the map in both.
    """
    if spectrum.near_defective:
        raise NearDefectiveError(f"transfer spectrum {what} is near-defective")
    gap = symmetry_gap(spectrum)
    if gap <= gap_tol:
        raise GaplessTransferError(f"symmetry gap {what} is {gap:.3e}; thermodynamic limit undefined")
    _, left, right = spectrum.leading
    return left, right, left @ right, gap


def _pair_value(spectrum, x, gap_tol, what):
    """(L0·X·R0)/(L0·R0) on the leading pair of ``spectrum``, and the gap."""
    left, right, norm, gap = _leading_pair(spectrum, gap_tol, what)
    return complex((left @ x @ right) / norm), gap


def flux_response(model, flux, g2, gap_tol=GAP_TOL):
    """Thermodynamic response of an arbitrary seam matrix ``flux``.

    (L0| kron(conj(X), X) |R0) on the leading biorthonormal eigenvector
    pair of T(g2). Returns ``(value, gap)``. Raises
    :class:`GaplessTransferError` when the symmetry gap of T(g2) is at or
    below ``gap_tol`` (the value is undefined at a transition) and
    :class:`NearDefectiveError` for untrustworthy spectra.
    """
    return _pair_value(twisted_spectrum(model, g2), flux_operator(flux), gap_tol, f"for {g2!r}")


def _ancilla_flux_response(model, flux, g2, gap_tol):
    """:func:`flux_response` on T(1, ua_g2): the insertion sits on the ancilla leg."""
    spectrum = transfer_spectrum(model.lpdo, np.eye(model.lpdo.d), model.action(g2).ua)
    return _pair_value(spectrum, flux_operator(flux), gap_tol, f"for {g2!r} on the ancilla")


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
