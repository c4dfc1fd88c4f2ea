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
from .numerics import _identity, _ring_size
from .symmetry import cocycle_commutator, extract_virtual_rep
from .transfer import flux_operator, symmetry_gap, transfer_powers, transfer_spectrum, twisted_spectrum

SNAP_TOL = 1e-6
# A symmetry gap at or below this share of |lambda_0(T(1))| is a transition:
# the thermodynamic limit is undefined. Scale-free, as symmetry.REP_TOL says.
GAP_TOL = 1e-8


@dataclass
class ResponseResult:
    """Outcome of a response evaluation, built by ``_result`` alone.

    ``snapped`` is the nearest root of unity as a fraction of 2*pi (e.g.
    Fraction(1, 2) for -1) when the value is valid and within the snap
    tolerance of one, else None. ``n_sites`` is the ring size, None in the
    thermodynamic limit, and ``mode`` ("finite" or "thermo") follows from it.
    ``valid`` is cleared when the value is not a usable phase (a denominator
    trace that cancels to zero or to roundoff, or a thermo modulus off unity).
    """

    value: complex
    snapped: Fraction | None
    gap: float
    n_sites: int | None
    valid: bool

    @property
    def mode(self):
        return "thermo" if self.n_sites is None else "finite"


def snap_root_of_unity(value, order):
    """k/order of the root e^{2 pi i k / order} nearest value if within ``SNAP_TOL``, else None."""
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        return None
    order = int(order)
    k = round(float(np.angle(value)) * order / (2 * np.pi)) % order
    return Fraction(k, order) if abs(value - np.exp(2j * np.pi * k / order)) < SNAP_TOL else None


def _require_commuting(model, g1, g2):
    if not model.group.commutes(g1, g2):
        raise NonCommutingError(f"group elements {g1!r} and {g2!r} do not commute")


def finite_response(model, g1, g2, n_sites):
    """Flux response on a finite ring, both traces by repeated squaring.

    Returns a :class:`ResponseResult` in mode "finite". The power of T(g2)
    carries a binary exponent that cancels in the ratio, so the traces never
    underflow; the result is flagged invalid (value NaN) when the
    denominator trace cancels: |Tr M| <= N * D^2 * eps * sum_i |M_ii| for
    the scaled power M, which holds for an exactly zero trace too.
    g1 = identity returns 1 to within roundoff.
    A ring size that is not an integer (200.0 is one) or below 1 raises
    :class:`ValidationError`.
    """
    n_sites = _ring_size(n_sites)
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    u2 = model.action(g2).u
    power, _ = transfer_powers(model.lpdo, u2).power(n_sites)
    denominator = complex(np.trace(power))
    numerator = complex(np.trace(flux_operator(rep1.v) @ power))
    gap = symmetry_gap(transfer_spectrum(model.lpdo, u2))
    # Each diagonal entry of the power carries a rounding error of about
    # N * D^2 * eps times its size, so a trace within that much of zero has
    # cancelled and no digit of the ratio means anything.
    roundoff = n_sites * power.shape[0] * np.finfo(float).eps * np.abs(np.diagonal(power)).sum()
    valid = not abs(denominator) <= roundoff
    value = numerator / denominator if valid else complex(np.nan, np.nan)
    return _result(model, g1, value, gap, n_sites, valid)


def _result(model, g1, value, gap, n_sites=None, valid=None):
    """The :class:`ResponseResult` of ``value``, a response to the flux of ``g1``.

    ``valid`` defaults to the thermo test, a modulus of 1 within 1e-8; a
    valid value is snapped to the roots of unity of the order of ``g1``.
    """
    if valid is None:
        valid = bool(abs(abs(value) - 1.0) <= 1e-8)
    snapped = snap_root_of_unity(value, model.group.order(g1)) if valid else None
    return ResponseResult(value=value, snapped=snapped, gap=gap, n_sites=n_sites, valid=valid)


def _leading_pair(lpdo, spectrum, what):
    """Leading eigenvector pair of a gapped spectrum of ``lpdo``, for (L0·X·R0)/(L0·R0).

    Returns ``(left, right, norm, gap)``: the left row L0, the right column
    R0, their overlap L0·R0 and the symmetry gap. Every thermodynamic value
    is ``(left @ X @ right) / norm`` for some X. Raises
    :class:`NearDefectiveError` for an untrustworthy spectrum and
    :class:`GaplessTransferError` when the gap is at or below ``GAP_TOL``
    (1e-8) times |lambda_0(T(1))|; ``what`` ("for 'R_z'") names the map in both.
    """
    if spectrum.near_defective:
        raise NearDefectiveError(f"transfer spectrum {what} is near-defective")
    gap = symmetry_gap(spectrum)
    if gap <= GAP_TOL * abs(transfer_spectrum(lpdo, _identity(lpdo.d)).eigenvalues[0]):
        raise GaplessTransferError(f"symmetry gap {what} is {gap:.3e}; thermodynamic limit undefined")
    _, left, right = spectrum.leading
    return left, right, left @ right, gap


def _pair_value(lpdo, spectrum, x, what):
    """(L0·X·R0)/(L0·R0) on the leading pair of ``spectrum``, a spectrum of ``lpdo``, and the gap."""
    left, right, norm, gap = _leading_pair(lpdo, spectrum, what)
    return complex((left @ x @ right) / norm), gap


def flux_response(model, flux, g2):
    """Thermodynamic response of an arbitrary seam matrix ``flux``.

    (L0| kron(conj(X), X) |R0) on the leading biorthonormal eigenvector
    pair of T(g2). Returns ``(value, gap)``. Raises
    :class:`GaplessTransferError` when the symmetry gap of T(g2) is at or
    below ``GAP_TOL`` times |lambda_0(T(1))| and :class:`NearDefectiveError`
    for untrustworthy spectra.
    """
    return _pair_value(model.lpdo, twisted_spectrum(model, g2), flux_operator(flux), f"for {g2!r}")


def thermo_response(model, g1, g2):
    """Thermodynamic-limit flux response e^{i Q(g1, g2)}.

    Threads the extracted virtual representation V_g1 through the leading
    eigenvector pair of T(g2). Valid results are phases: unit modulus
    within 1e-8. Raises :class:`GaplessTransferError` when the symmetry gap
    of T(g2) is at or below ``GAP_TOL`` (1e-8) times |lambda_0(T(1))|.
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    return _result(model, g1, *flux_response(model, rep1.v, g2))


def conservation_check(model, g1, g2):
    """Residual of e^{i Q_t} = e^{i Q} * e^{i Q_a}.

    The total (cocycle) charge of the purified state splits between the
    physical and ancilla responses. Returns
    ``(residual, total, physical, ancilla)`` where ``total`` is the
    commutator phase of the extracted virtual representations, ``physical``
    the :func:`thermo_response`, and ``ancilla`` the same contraction on
    T(1, ua_g2), with ua_g2 on the ancilla leg (1 for a trivial ua_g2).
    """
    _require_commuting(model, g1, g2)
    rep1, _ = extract_virtual_rep(model.lpdo, model.action(g1))
    rep2, _ = extract_virtual_rep(model.lpdo, model.action(g2))
    total = cocycle_commutator(rep1, rep2)
    physical = thermo_response(model, g1, g2)
    spectrum = transfer_spectrum(model.lpdo, _identity(model.lpdo.d), model.action(g2).ua)
    value, gap = _pair_value(model.lpdo, spectrum, flux_operator(rep1.v), f"for {g2!r} on the ancilla")
    ancilla = _result(model, g1, value, gap)
    residual = abs(total - physical.value * ancilla.value)
    return float(residual), total, physical, ancilla
