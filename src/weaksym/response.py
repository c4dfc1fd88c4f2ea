"""Quantized topological responses of weakly symmetric mixed states.

The response of a flux V_g1 threaded through the virtual legs, measured by
a uniform u_g2 insertion, is

    e^{i Q(g1, g2)} = tr[kron(conj(V_g1), V_g1) T(g2)^N] / tr[T(g2)^N],

evaluated either at finite ring size N or in the thermodynamic limit,
where the ratio collapses onto the leading left/right eigenvector pair of
T(g2). For commuting g1, g2 the thermodynamic value is a phase, pinned to
a root of unity away from transitions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import GaplessTransferError, NearDefectiveError, NonCommutingError, _named
from .numerics import _identity, _ring_size, _stacked
from .symmetry import cocycle_commutator, extract_virtual_rep, extract_virtual_reps
from .transfer import flux_operator, symmetry_gap, symmetry_gaps, transfer_powers, transfer_spectra, transfer_spectrum

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
    return _results(model.group.order(g1), np.array([value]), np.array([gap]), n_sites, [valid])[0]


def _results(order, values, gaps, n_sites=None, valid=None):
    """The :class:`ResponseResult` of each of ``values``, a stack of responses to the flux of
    an element of order ``order``, with its gap. ``valid`` defaults to the thermo test, a
    modulus of 1 within 1e-8; a valid value is snapped to the roots of unity of that
    order. The angles are one stack, the rest Python arithmetic on each value."""
    angles = np.arctan2(values.imag, values.real).tolist()  # np.angle's, which math.atan2 is not
    values = values.tolist()
    if valid is None:
        valid = [abs(abs(value) - 1.0) <= 1e-8 for value in values]
    return [
        ResponseResult(value=value, snapped=_snapped(value, angle, order) if ok else None, gap=gap, n_sites=n_sites, valid=ok)
        for value, angle, gap, ok in zip(values, angles, gaps.tolist(), valid)
    ]


def _snapped(value, angle, order):
    """k/order of the root e^{2 pi i k / order} nearest the complex ``value`` if within
    ``SNAP_TOL``, else None; ``angle`` is the value's angle as ``np.angle`` takes it."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return None
    k = round(angle * order / (2 * np.pi)) % order
    return Fraction(k, order) if abs(value - _roots(order)[k]) < SNAP_TOL else None


@cache
def _roots(order):
    """The roots e^{2 pi i k / order} as Python complex numbers, computed once per order."""
    return [complex(np.exp(2j * np.pi * k / order)) for k in range(order)]


def _leading_pairs(lpdos, spectra, what):
    """Leading eigenvector pair of each gapped spectrum in ``spectra``, one of each of
    ``lpdos``, for (L0·X·R0)/(L0·R0): as stacks ``(left, right, norm, gap)``.

    That is the left rows L0, the right columns R0, their overlaps L0·R0 and the
    symmetry gaps. Every thermodynamic value is ``(left @ X @ right) / norm``
    for some X. A spectrum raises :class:`NearDefectiveError` when it is
    untrustworthy and :class:`GaplessTransferError` when the gap is at or
    below ``GAP_TOL`` (1e-8) times |lambda_0(T(1))|; ``what`` ("for 'R_z'")
    names the map in both. The first spectrum that fails raises, naming its tensor
    (:func:`~weaksym.errors._named`).
    """
    for lpdo, spectrum in zip(lpdos, spectra):  # before T(1) is read: this error comes first, as for one spectrum
        if spectrum.near_defective:
            raise _named(NearDefectiveError(f"transfer spectrum {what} is near-defective"), lpdo)
    lam = _stacked([ref.eigenvalues for ref in transfer_spectra(lpdos, _identity(lpdos[0].d), None)])[:, 0]
    gaps = symmetry_gaps(spectra)
    for lpdo, gap, top in zip(lpdos, gaps.tolist(), lam.tolist()):
        if gap <= GAP_TOL * abs(top):
            raise _named(GaplessTransferError(f"symmetry gap {what} is {gap:.3e}; thermodynamic limit undefined"), lpdo)
    left = _stacked([spectrum.left_vectors for spectrum in spectra])[:, 0]
    right = _stacked([spectrum.right_vectors for spectrum in spectra])[:, :, 0]
    return left, right, (left[:, None] @ right[:, :, None])[:, 0, 0], gaps


def _pair_values(pairs, x):
    """(L0·X·R0)/(L0·R0) of each member of ``pairs`` (:func:`_leading_pairs` of a stack)
    with its X of the stack ``x``, as stacked products."""
    left, right, norm, _ = pairs
    return ((left[:, None] @ x) @ right[:, :, None])[:, 0, 0] / norm


def flux_response(model, flux, g2):
    """Thermodynamic response of an arbitrary seam matrix ``flux``.

    (L0| kron(conj(X), X) |R0) on the leading biorthonormal eigenvector
    pair of T(g2). Returns ``(value, gap)``. Raises
    :class:`GaplessTransferError` when the symmetry gap of T(g2) is at or
    below ``GAP_TOL`` times |lambda_0(T(1))| and :class:`NearDefectiveError`
    for untrustworthy spectra. This is the stack of one of :func:`_flux_responses`.
    """
    (values,), gaps = _flux_responses([model], [flux], g2)
    return values.tolist()[0], gaps.tolist()[0]


def _flux_responses(models, fluxes, g2):
    """:func:`flux_response` of each of ``fluxes`` (a seam matrix, or a stack of one per model) for
    each of ``models``, a stack under the stack rule of :mod:`weaksym.transfer`: ``(values, gaps)``,
    per flux one value per model, from the leading pairs of T(g2) read once for every flux."""
    lpdos = [model.lpdo for model in models]
    pairs = _leading_pairs(lpdos, transfer_spectra(lpdos, models[0].action(g2).u, None), f"for {g2!r}")
    return [_pair_values(pairs, flux_operator(flux)) for flux in fluxes], pairs[3]


def thermo_response(model, g1, g2):
    """Thermodynamic-limit flux response e^{i Q(g1, g2)}.

    Threads the extracted virtual representation V_g1 through the leading
    eigenvector pair of T(g2). Valid results are phases: unit modulus
    within 1e-8. Raises :class:`GaplessTransferError` when the symmetry gap
    of T(g2) is at or below ``GAP_TOL`` (1e-8) times |lambda_0(T(1))|.
    This is the stack of one of :func:`_thermo_responses`.
    """
    return _thermo_responses([model], [g1], g2)[0][0]


def _thermo_responses(models, g1s, g2):
    """:func:`thermo_response` of each flux element of ``g1s`` with g2, for each of
    ``models``, a stack under the stack rule of :mod:`weaksym.transfer`: per model a
    list with one result per element. The leading pairs of T(g2) are read once for every
    element. The first failure raises: an element's representation, then the
    pairs of T(g2).
    """
    for g1 in g1s:
        _require_commuting(models[0], g1, g2)
    lpdos = [model.lpdo for model in models]
    reps = [_stacked([rep.v for rep, _ in extract_virtual_reps(lpdos, models[0].action(g1))]) for g1 in g1s]
    values, gaps = _flux_responses(models, reps, g2)
    results = [_results(models[0].group.order(g1), value, gaps) for g1, value in zip(g1s, values)]
    return [list(row) for row in zip(*results)]


def conservation_check(model, g1, g2):
    """Residual of e^{i Q_t} = e^{i Q} * e^{i Q_a}.

    The total (cocycle) charge of the purified state splits between the
    physical and ancilla responses. Returns
    ``(residual, total, physical, ancilla)`` where ``total`` is the
    commutator phase of the extracted virtual representations, ``physical``
    the :func:`thermo_response`, and ``ancilla`` the same contraction on
    T(1, ua_g2), with ua_g2 on the ancilla leg (1 for a trivial ua_g2).
    This is the stack of one of :func:`_conservation_checks`.
    """
    return _conservation_checks([model], [g1], g2)[0][0]


def _conservation_checks(models, g1s, g2):
    """:func:`conservation_check` of each element of ``g1s`` with g2, for each of ``models``,
    a stack under the stack rule of :mod:`weaksym.transfer`: per model one tuple per element,
    the responses read from the leading pairs of T(g2) and of T(1, ua_g2) once for all."""
    for g1 in g1s:
        _require_commuting(models[0], g1, g2)
    lpdos = [model.lpdo for model in models]
    reps = [extract_virtual_reps(lpdos, models[0].action(g)) for g in (*g1s, g2)]
    totals = [[cocycle_commutator(rep1, rep2) for (rep1, _), (rep2, _) in zip(extracted, reps[-1])] for extracted in reps[:-1]]
    physical = _thermo_responses(models, g1s, g2)
    spectra = transfer_spectra(lpdos, _identity(lpdos[0].d), models[0].action(g2).ua)
    pairs = _leading_pairs(lpdos, spectra, f"for {g2!r} on the ancilla")
    fluxes = [flux_operator(_stacked([rep.v for rep, _ in extracted])) for extracted in reps[:-1]]
    ancilla = [_results(models[0].group.order(g1), _pair_values(pairs, x), pairs[3]) for g1, x in zip(g1s, fluxes)]
    return [
        [(float(abs(total - phys.value * anc.value)), total, phys, anc) for total, phys, anc in zip(*row)]
        for row in zip(zip(*totals), physical, zip(*ancilla))
    ]
