import re

import numpy as np
import pytest

from weaksym import numerics
from weaksym.errors import DimensionMismatchError, ValidationError
from weaksym.model import build_aklt_model
from weaksym.numerics import (
    DENSE_MAX_ROWS,
    LEADING_PAIRS,
    PAIRING_TOL,
    TIE_TOL,
    ScaledPowers,
    _whole,
    ldexp,
    leading_eigenpair,
    leading_spectrum,
    rescale,
    spectral_decompose,
)
from weaksym.oracle import expectation
from weaksym.transfer import build_transfer, symmetry_gap

from test_generic import generic_model

def test_spectral_decompose_diagonal():
    m = np.diag([1.0, -1 / 3, -1 / 3, -1 / 3])
    spec = spectral_decompose(m)
    np.testing.assert_allclose(spec.eigenvalues, [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-14)
    assert not spec.near_defective


def test_spectral_decompose_modulus_ordering():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        spec = spectral_decompose(m)
        mods = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12)


def test_spectral_decompose_biorthonormal():
    """Left rows against right columns reproduce the identity and m itself."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        spec = spectral_decompose(m)
        assert spec.pairing_residual < PAIRING_TOL and not spec.near_defective
        gram = spec.left_vectors @ spec.right_vectors
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)
        rebuilt = spec.right_vectors @ np.diag(spec.eigenvalues) @ spec.left_vectors
        np.testing.assert_allclose(rebuilt, m, atol=1e-9)


def test_spectral_decompose_left_eigen_rows():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    spec = spectral_decompose(m)
    for lam, row in zip(spec.eigenvalues, spec.left_vectors):
        np.testing.assert_allclose(row @ m, lam * row, atol=1e-10)


def test_jordan_block_flags_near_defective():
    spec = spectral_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert spec.near_defective


def test_a_singular_eigenvector_matrix_is_near_defective():
    """A 3 x 3 nilpotent Jordan block: eig's three right vectors are parallel, so R has no inverse.

    No left vectors pair with them; the spectrum is near-defective, and its
    pairing residual says that L R is nowhere near the identity.
    """
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(m)[1])
    spec = spectral_decompose(m)
    assert spec.near_defective and not np.isfinite(spec.condition_estimate)
    assert spec.pairing_residual >= 0.5


def test_cluster_condition_does_not_depend_on_the_basis_of_an_eigenspace():
    """Mixing the vectors of a triple eigenvalue, R -> R X and L -> X^-1 L, leaves every cluster's
    condition ||R_c L_c||_F as it was; the largest per-pair (Wilkinson) condition moves."""
    rng = np.random.default_rng(6)
    m = with_eigenvalues(rng, [1.0, 0.5, 0.5, 0.5], 8)
    spec = spectral_decompose(m)
    triple = np.abs(spec.eigenvalues - 0.5) < 1e-9
    assert triple.sum() == 3
    x = np.eye(8, dtype=complex)
    x[np.ix_(triple, triple)] += rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mixed = numerics._measured(spec.eigenvalues.copy()[None], (spec.right_vectors @ x)[None], np.linalg.solve(x, spec.left_vectors)[None])[0]
    assert abs(mixed.condition_estimate / spec.condition_estimate - 1) > 0.1
    assert [members.sum() for _, members, _ in spec.clusters] == [1, 3, 1, 1, 1, 1]
    for (lam, members, condition), (mixed_lam, mixed_members, mixed_condition) in zip(spec.clusters, mixed.clusters):
        assert mixed_lam == lam and np.array_equal(mixed_members, members)
        projector = spec.right_vectors[:, members] @ spec.left_vectors[members]
        assert condition == pytest.approx(np.linalg.norm(projector), rel=1e-12)
        assert mixed_condition == pytest.approx(condition, rel=1e-10)


def test_leading_triple():
    m = np.diag([3.0, 1.0])
    lam, left, right = spectral_decompose(m).leading
    assert abs(lam - 3.0) < 1e-14
    np.testing.assert_allclose(np.abs(right), [1, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(left), [1, 0], atol=1e-14)


def power_trace(m, n):
    """tr(m^n) from ScaledPowers(m).power(n), the exponent applied."""
    mantissa, exponent = ScaledPowers(m).power(n)
    return complex(ldexp(np.trace(mantissa), exponent))


def test_matrix_power_trace_identity():
    assert abs(power_trace(np.eye(4), 10) - 4.0) < 1e-14


def test_matrix_power_trace_zero_power_is_dimension():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    assert abs(power_trace(m, 0) - 6.0) < 1e-14


def test_matrix_power_trace_aklt_untwisted():
    """tr T(1)^N = 1 + 3(-1/3)^N, the eigenvalue power sum."""
    t1 = np.array([[1, 0, 0, 2], [0, -1, 0, 0], [0, 0, -1, 0], [2, 0, 0, 1]]) / 3.0
    for n in (1, 2, 5, 20):
        expected = 1 + 3 * (-1 / 3) ** n
        assert abs(power_trace(t1, n) - expected) < 1e-13


def test_matrix_power_trace_rejects_bad_power():
    with pytest.raises(ValidationError):
        ScaledPowers(np.eye(2)).power(-1)
    with pytest.raises(ValidationError):
        ScaledPowers(np.eye(2)).power(1.5)


def test_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        spectral_decompose(np.ones((2, 3)))


def test_rejects_non_finite():
    m = np.eye(3)
    m = m.astype(complex)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        spectral_decompose(m)


# --- powers with a carried binary exponent ------------------------------------

def _aklt_maps():
    for p in (0.0, 0.3, 0.75, 1.0):
        model = build_aklt_model(p)
        for g in model.group.labels:
            yield build_transfer(model.lpdo, model.action(g).u)


def test_scaled_powers_bit_identical_to_matrix_power():
    """In the normal range mantissa * 2**exponent is np.linalg.matrix_power, bit for bit."""
    rng = np.random.default_rng(11)
    maps = [(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))) / 3.5 for _ in range(4)]
    maps += list(_aklt_maps())
    compared = 0
    for m in maps:
        powers = ScaledPowers(m)
        for n in list(range(40)) + [64, 99, 200, 511, 512, 513, 1000]:
            reference = np.linalg.matrix_power(m, n)
            moduli = np.abs(reference[reference != 0])
            if moduli.size and (moduli.min() < 1e-300 or moduli.max() > 1e300):
                continue  # only the normal range is exact
            mantissa, exponent = powers.power(n)
            np.testing.assert_array_equal(ldexp(mantissa, exponent), reference)
            compared += 1
    assert compared > 400


def test_scaled_powers_carry_the_exponent_past_underflow():
    """tr T(R_z)^N at p = 3/4 is (2/3)^N (1 + 2^-N + ...), far below 1e-308 at N = 3000."""
    model = build_aklt_model(0.75)
    tz = build_transfer(model.lpdo, model.action("R_z").u)
    powers = ScaledPowers(tz)
    for n in (1000, 2000, 3000):
        mantissa, exponent = powers.power(n)
        log2_trace = np.log2(abs(np.trace(mantissa))) + exponent
        assert abs(log2_trace - n * np.log2(2 / 3)) < 1e-10
        assert np.all(np.isfinite(mantissa)) and np.abs(mantissa).max() > 2.0**-800
    assert abs(np.trace(np.linalg.matrix_power(tz, 3000))) == 0.0  # the plain power underflows


def test_scaled_powers_exponents_past_two_to_the_31_do_not_wrap():
    """(1/2)^n at n = 2^33 + k has binary exponent -n; frexp's int32 shifts
    must not wrap it, for one power or a stack of them."""
    powers = ScaledPowers(np.diag([0.5, 0.25]))
    ns = 2**33 + np.arange(numerics.MIN_STACKED_POWERS)
    mantissa, exponent = powers.power(int(ns[0]))
    assert ldexp(mantissa, exponent + int(ns[0]))[0, 0] == 1
    mantissas, exponents = powers.powers(ns)
    np.testing.assert_array_equal(ldexp(mantissas[:, 0, 0], exponents + ns), 1)


def test_ldexp_past_the_double_range_is_inf_without_a_warning():
    """Beyond the double range z * 2**e is +-inf (a zero part stays zero), for
    int64 exponents and for Python ints past int64; numpy's overflow warning,
    an error under this suite's warning filter, is not raised."""
    z = np.array([1.5 - 2j, 1j, -1e-300 + 0j])
    expected = [complex(np.inf, -np.inf), complex(0, np.inf), complex(-np.inf, 0)]
    assert ldexp(z, np.array([1100, 1100, 2100])).tolist() == expected
    assert ldexp(z, np.array([2**70] * 3, dtype=object)).tolist() == expected


def test_scaled_powers_zero_and_rejects_bad_power():
    mantissa, exponent = ScaledPowers(np.zeros((3, 3))).power(5)
    assert exponent == 0 and not mantissa.any()
    mantissa, exponent = ScaledPowers(np.zeros((3, 3))).power(0)
    np.testing.assert_array_equal(mantissa, np.eye(3))
    with pytest.raises(ValidationError):
        ScaledPowers(np.eye(2)).power(-2)


def test_rescale_is_exact():
    m = np.array([[3.0e-200, 1.0e-210j], [0.0, -5.0e-205]])
    scaled, exponent = rescale(m[None], np.array([7]))
    assert 0.5 <= np.abs(scaled).max() < 1.0
    np.testing.assert_array_equal(ldexp(scaled[0], exponent[0] - 7), m)
    same, exponent = rescale(np.eye(2)[None], np.array([3]))
    assert exponent.tolist() == [3] and np.array_equal(same, np.eye(2)[None])


# --- leading eigenpairs by Krylov iteration, against the dense reference ------

def with_eigenvalues(rng, top, n, bulk=0.45):
    """Seeded non-normal X diag(values) X^-1: ``top`` first, the rest uniform in |z| < bulk."""
    rest = n - len(top)
    z = bulk * np.sqrt(rng.uniform(size=rest)) * np.exp(2j * np.pi * rng.uniform(size=rest))
    x = np.eye(n) + 0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return x @ np.diag(np.concatenate([top, z])) @ np.linalg.inv(x)


def assert_leading_matches_dense(m):
    """A partial spectrum is the top of the dense one, to 1e-10, tied clusters whole."""
    partial, full = leading_spectrum(m), spectral_decompose(m)
    k = len(partial.eigenvalues)
    assert not partial.complete and k >= LEADING_PAIRS
    mods = np.abs(full.eigenvalues)
    assert mods[k - 1] - mods[k] > TIE_TOL * mods[0]  # the cut falls in a gap
    assert abs(symmetry_gap(partial) - symmetry_gap(full)) <= 1e-10
    assert partial.pairing_residual < PAIRING_TOL and not partial.near_defective and partial.pairing_residual <= 1e-10
    np.testing.assert_allclose(partial.left_vectors @ partial.right_vectors, np.eye(k), atol=1e-10)
    # each cluster of equal eigenvalues: same count, same spectral projector sum_k R_k L_k
    lam0 = abs(full.eigenvalues[0])
    for lam in partial.eigenvalues:
        here = np.abs(partial.eigenvalues - lam) <= 1e-8 * lam0
        there = np.abs(full.eigenvalues - lam) <= 1e-8 * lam0
        assert here.sum() == there.sum()
        np.testing.assert_allclose(partial.eigenvalues[here].mean(), full.eigenvalues[there].mean(), atol=1e-10)
        projector = partial.right_vectors[:, here] @ partial.left_vectors[here]
        expected = full.right_vectors[:, there] @ full.left_vectors[there]
        np.testing.assert_allclose(projector, expected, atol=1e-10 * max(1.0, np.abs(expected).max()))
    if mods[0] - mods[1] > 1e-8 * lam0:  # a simple leading pair: the vectors up to a phase
        _, left, right = partial.leading
        _, left_full, right_full = full.leading
        phase = np.vdot(right, right_full)
        phase /= abs(phase)
        np.testing.assert_allclose(right * phase, right_full, atol=1e-10)
        np.testing.assert_allclose(left / phase, left_full, atol=1e-10 * np.abs(left_full).max())
    return partial


def test_leading_spectrum_matches_dense_on_non_normal_matrices():
    rng = np.random.default_rng(23)
    for n in (DENSE_MAX_ROWS + 1, 150, 200):
        top = [1.0, 0.8 * np.exp(0.3j), -0.7, 0.6j, 0.55]
        assert_leading_matches_dense(with_eigenvalues(rng, top, n))


@pytest.mark.parametrize("p", [0.2, 0.5, 0.75])
def test_leading_spectrum_matches_dense_on_transfer_maps(p):
    """T(1), T(R_x, ua_x) and T(R_z) of AKLT (x) random MPS at D = 12 and 16; p = 1/2 is gapless."""
    for bond in (6, 8):
        model, _, _ = generic_model(p, bond=bond)
        lpdo = model.lpdo
        act_x, act_z = model.action("R_x"), model.action("R_z")
        for op, op_a in ((np.eye(lpdo.d), None), (act_x.u, act_x.ua), (act_z.u, None)):
            partial = assert_leading_matches_dense(build_transfer(lpdo, op, op_a))
        if p == 0.5:  # T(R_z): the leading 1/3 is doubly degenerate
            assert abs(symmetry_gap(partial)) < 1e-12 and len(partial.eigenvalues) >= 2


def test_leading_spectrum_tied_conjugate_pair_at_the_cut():
    """A real map's complex third eigenvalue comes with its conjugate: the cut moves past both."""
    rng = np.random.default_rng(5)
    n = 120
    blocks = np.zeros((n, n))
    blocks[0, 0], blocks[1, 1] = 1.0, 0.8
    for at, (r, angle) in [(2, (0.7, 1.1))] + [(k, (0.45 * rng.uniform(), rng.uniform(0, np.pi))) for k in range(4, n, 2)]:
        blocks[at : at + 2, at : at + 2] = r * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    x = np.eye(n) + 0.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    m = x @ blocks @ np.linalg.inv(x)
    partial = assert_leading_matches_dense(m)
    assert len(partial.eigenvalues) == 4
    assert abs(partial.eigenvalues[2] - partial.eigenvalues[3].conjugate()) < 1e-10


def test_leading_spectrum_exactly_degenerate_clusters():
    """Arnoldi from one vector meets one eigenvector per eigenvalue; the multiplicity still counts."""
    rng = np.random.default_rng(9)
    m = with_eigenvalues(rng, [1.0, 0.7, 0.7, 0.7, 0.5], 120)
    partial = assert_leading_matches_dense(m)
    assert len(partial.eigenvalues) == 4
    m = with_eigenvalues(rng, [0.9, 0.9, 0.6], 120)
    partial = assert_leading_matches_dense(m)
    assert len(partial.eigenvalues) == 3 and abs(symmetry_gap(partial)) < 1e-12


def test_leading_spectrum_invariant_subspace_smaller_than_the_basis():
    """Three distinct eigenvalues: the Krylov space breaks down after three vectors."""
    rng = np.random.default_rng(4)
    n = 120
    values = np.array([1.0, 0.6, 0.6] + [0.3] * (n - 3))
    x = np.eye(n) + 0.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    m = x @ np.diag(values) @ np.linalg.inv(x)
    partial = assert_leading_matches_dense(m)
    assert len(partial.eigenvalues) == 3


def test_leading_spectrum_is_the_same_on_every_call():
    m = with_eigenvalues(np.random.default_rng(2), [1.0, -0.8, 0.5], 120)
    first, second = leading_spectrum(m), leading_spectrum(m)
    assert not first.complete
    for a, b in zip((first.eigenvalues, first.right_vectors, first.left_vectors),
                    (second.eigenvalues, second.right_vectors, second.left_vectors)):
        assert a.tobytes() == b.tobytes()


def test_leading_spectrum_is_the_dense_one_up_to_the_row_cutoff():
    rng = np.random.default_rng(8)
    assert not leading_spectrum(with_eigenvalues(rng, [1.0, 0.8, 0.6], DENSE_MAX_ROWS + 1)).complete
    small = rng.normal(size=(DENSE_MAX_ROWS,) * 2)
    partial, full = leading_spectrum(small), spectral_decompose(small)
    assert partial.complete
    for a, b in zip((partial.eigenvalues, partial.right_vectors, partial.left_vectors),
                    (full.eigenvalues, full.right_vectors, full.left_vectors)):
        assert a.tobytes() == b.tobytes()


def assert_is_the_dense_spectrum(m):
    partial, full = leading_spectrum(m), spectral_decompose(m)
    assert partial.complete
    for a, b in zip((partial.eigenvalues, partial.right_vectors, partial.left_vectors),
                    (full.eigenvalues, full.right_vectors, full.left_vectors)):
        assert a.tobytes() == b.tobytes()
    assert partial.condition_estimate == full.condition_estimate


@pytest.mark.parametrize(
    "name, value",
    [("MAX_RESTARTS", 0), ("KRYLOV_BASIS", LEADING_PAIRS + 1)],
    ids=["no-restarts-left", "basis-too-small-for-the-pairs"],
)
def test_leading_spectrum_is_the_dense_one_when_arnoldi_gives_up(monkeypatch, name, value):
    m = with_eigenvalues(np.random.default_rng(2), [1.0, -0.8, 0.5], 120)
    monkeypatch.setattr(numerics, name, value)
    assert_is_the_dense_spectrum(m)


def test_leading_spectrum_is_the_dense_one_past_a_basis_of_tied_vectors():
    """30 copies of the leading eigenvalue: the deflated runs collect more vectors than the basis holds."""
    assert_is_the_dense_spectrum(with_eigenvalues(np.random.default_rng(3), [1.0] * 30 + [0.5], 120))


def test_leading_spectrum_is_the_dense_one_on_a_defective_top():
    """A Jordan block at the top: the pairs Arnoldi returns miss their eigen-equation."""
    rng = np.random.default_rng(0)
    n = 120
    d = np.diag(np.concatenate([[1.0, 1.0], 0.45 * np.sqrt(rng.uniform(size=n - 2)) * np.exp(2j * np.pi * rng.uniform(size=n - 2))]))
    d[0, 1] = 1.0
    x = np.eye(n) + 0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    assert_is_the_dense_spectrum(x @ d @ np.linalg.inv(x))


def test_leading_spectrum_is_the_dense_one_when_the_pairing_is_singular(monkeypatch):
    m = with_eigenvalues(np.random.default_rng(2), [1.0, -0.8, 0.5], 120)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert_is_the_dense_spectrum(m)


def test_rejects_arrays_that_are_not_matrices():
    for m in (np.zeros(3), np.zeros((DENSE_MAX_ROWS + 1,) * 2 + (1,))):
        with pytest.raises(DimensionMismatchError, match="expected a 2D array"):
            leading_spectrum(m)


# --- one leading eigenpair ----------------------------------------------------

def assert_is_the_dense_pair(m):
    lam, right = leading_eigenpair(m)
    lam0, _, right0 = spectral_decompose(m).leading
    assert np.array_equal(lam, lam0) and np.array_equal(right, right0)


def test_leading_eigenpair_is_the_dense_one_on_every_twisted_map_of_the_family():
    """T(u_g, ua_g) of every g on the 11-point p-grid, bit for bit."""
    for p in [i / 10 for i in range(11)]:
        model = build_aklt_model(p)
        for g in model.group.labels:
            act = model.action(g)
            assert_is_the_dense_pair(build_transfer(model.lpdo, act.u, act.ua))


def test_leading_eigenpair_is_the_dense_one_on_random_maps():
    rng = np.random.default_rng(31)
    for _ in range(10):
        assert_is_the_dense_pair(rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36)))


@pytest.mark.parametrize("bond", [6, 8])
@pytest.mark.parametrize("p", [0.2, 0.75])
def test_leading_eigenpair_matches_dense_on_twisted_maps(monkeypatch, p, bond):
    """T(u_g, ua_g) of AKLT (x) random MPS at D = 12 and 16, by Arnoldi: no eig of the map itself."""
    model, _, _ = generic_model(p, bond=bond)
    lpdo = model.lpdo
    eig, shapes = np.linalg.eig, []
    for g in model.group.labels:
        act = model.action(g)
        m = build_transfer(lpdo, act.u, act.ua)
        with monkeypatch.context() as patch:
            patch.setattr(numerics.np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
            lam, right = leading_eigenpair(m)
        lam0, _, right0 = spectral_decompose(m).leading
        assert abs(lam - lam0) <= 1e-13 * abs(lam0)
        phase = np.vdot(right, right0)
        np.testing.assert_allclose(right * phase / abs(phase), right0, atol=1e-12)
    assert shapes and m.shape not in shapes


@pytest.mark.parametrize("reason", ["run-gives-up", "no-restarts-left", "pair-misses"])
def test_leading_eigenpair_is_the_dense_one_when_arnoldi_gives_up(monkeypatch, reason):
    m = with_eigenvalues(np.random.default_rng(2), [1.0, -0.8, 0.5], 120)
    if reason == "run-gives-up":
        monkeypatch.setattr(numerics, "_arnoldi_run", lambda *args, **kwargs: None)
    elif reason == "no-restarts-left":
        monkeypatch.setattr(numerics, "MAX_RESTARTS", 0)
    else:  # a run that claims a subspace which is not invariant
        basis = np.eye(len(m), 1, dtype=complex)
        monkeypatch.setattr(numerics, "_arnoldi_run", lambda *args, **kwargs: (basis, 1.0, 1.0))
    assert_is_the_dense_pair(m)


@pytest.mark.parametrize("seed", range(4))
def test_leading_eigenpair_of_a_tie_is_the_first_in_spectrum_order(monkeypatch, seed):
    """Eigenvalues 1 and -1 tie in modulus. The Arnoldi run converges both, and
    the pair returned is the first of them in Spectrum order. Which one that
    is falls to roundoff in the last bits of the two moduli, as it does in a
    partial spectrum; exact moduli, as a dense eig of a diagonal map gives,
    put +1 first."""
    m = with_eigenvalues(np.random.default_rng(seed), [1.0, -1.0, 0.5], 120)
    eig, solved = np.linalg.eig, []
    monkeypatch.setattr(numerics.np.linalg, "eig", lambda a: solved.append(eig(a)) or solved[-1])
    lam, right = leading_eigenpair(m)
    values = solved[-1][0]  # the Ritz values of the converged subspace
    assert len(values) == 2 and np.abs(np.sort_complex(values) - [-1, 1]).max() <= 1e-12
    assert lam == values[numerics._by_modulus(values)[0]]
    assert np.linalg.norm(m @ right - lam * right) <= 1e-12 * np.linalg.norm(right)
    monkeypatch.undo()
    lam, right = leading_eigenpair(np.diag([-1.0, 0.5, 1.0]))
    assert lam == 1 and np.array_equal(right, [0, 0, 1])


def test_leading_eigenpair_is_the_same_on_every_call():
    m = with_eigenvalues(np.random.default_rng(2), [1.0, -0.8, 0.5], 120)
    (lam, right), (lam2, right2) = leading_eigenpair(m), leading_eigenpair(m)
    assert lam == lam2 and right.tobytes() == right2.tobytes()


# --- integer range of sizes and lengths ---------------------------------------

@pytest.mark.parametrize(
    "values, shown",
    [([2**63], "9223372036854775808"), ([5, 2**64], "18446744073709551616"),
     ([-(2**63) - 1], "-9223372036854775809"), ([1e19], "1e+19")],
    ids=["uint64", "past-uint64", "below-int64", "float"],
)
def test_whole_refuses_sequences_past_int64(values, shown):
    with pytest.raises(ValidationError, match=rf"^length in \[-2\^63, 2\^63\), got {re.escape(shown)}$"):
        _whole(values, "length")


def test_whole_keeps_int64_sequences_and_scalars_of_any_size():
    kept = _whole([2**63 - 1, -(2**63)], "length")
    assert kept.dtype == np.int64 and kept.tolist() == [2**63 - 1, -(2**63)]
    assert _whole([3.0, 2.0**62], "length").tolist() == [3, 2**62]
    assert _whole(10**20, "N") == 10**20


@pytest.mark.parametrize(
    "refuse, name, leg, dim",
    [
        (lambda model, m: build_transfer(model.lpdo, m), "op", "d", 3),
        (lambda model, m: build_transfer(model.lpdo, np.eye(3), m), "op_a", "da", 4),
        (lambda model, m: expectation(model.lpdo, m, [[np.eye(3)] * 2]), "seam", "D", 2),
        (lambda model, m: expectation(model.lpdo, np.eye(2), [[np.eye(3), m]]), "op", "d", 3),
    ],
    ids=["transfer-op", "transfer-op_a", "oracle-seam", "oracle-op"],
)
def test_every_leg_size_refusal_names_the_matrix_and_the_leg(refuse, name, leg, dim):
    """One check decides whether a square matrix fits a leg of the tensor (d = 3, da = 4, D = 2)."""
    model = build_aklt_model(0.3)
    for size in (dim - 1, dim + 1):
        with pytest.raises(DimensionMismatchError, match=f"^{name} is {size}x{size}, tensor has {leg}={dim}$"):
            refuse(model, np.eye(size))


# --- clusters ------------------------------------------------------------------

def clusters_one_at_a_time(spectrum):
    """``Spectrum.clusters`` as the greedy loop computed it, one distance row per
    cluster: each takes the untaken eigenvalues within CLUSTER_TOL |lambda_0| of its first."""
    w, out = spectrum.eigenvalues, []
    simple = np.sqrt((abs(spectrum.right_vectors) ** 2).sum(0) * (abs(spectrum.left_vectors) ** 2).sum(1))
    unassigned = np.ones(len(w), dtype=bool)
    for i in range(len(w)):
        if unassigned[i]:
            members = unassigned & (np.abs(w - w[i]) <= numerics.CLUSTER_TOL * abs(w[0]))
            unassigned &= ~members
            condition = simple[i]
            if np.count_nonzero(members) > 1:
                r, l = spectrum.right_vectors[:, members], spectrum.left_vectors[members]
                condition = np.sqrt(np.vdot(l @ l.conj().T, r.conj().T @ r).real)
            out.append((complex(w[i]), members, float(condition)))
    return out


def assert_clusters_as_one_at_a_time(spectrum):
    clusters, expected = spectrum.clusters, clusters_one_at_a_time(spectrum)
    assert len(clusters) == len(expected)
    for (lam, members, condition), (lam0, members0, condition0) in zip(clusters, expected):
        assert type(lam) is complex and np.asarray(lam).tobytes() == np.asarray(lam0).tobytes()
        assert members.dtype == bool and np.array_equal(members, members0)
        assert type(condition) is float and np.asarray(condition).tobytes() == np.asarray(condition0).tobytes()


def test_clusters_of_the_family_equal_the_greedy_loop():
    """The 41 twisted spectra T(R_z) from p = 0 to 1: a twofold -1/3 at every p,
    and the ties of the special points."""
    for p in np.linspace(0.0, 1.0, 41):
        model = build_aklt_model(p)
        assert_clusters_as_one_at_a_time(spectral_decompose(build_transfer(model.lpdo, model.action("R_z").u)))


@pytest.mark.parametrize("bond", [3, 6], ids=["D6", "D12"])
def test_clusters_of_generic_spectra_equal_the_greedy_loop(bond):
    """Dense D = 6 spectra, with the random factor's ties, and partial Krylov ones at D = 12."""
    for p in (0.2, 0.5, 0.8):
        model, _, _ = generic_model(p, bond=bond)
        for g in ("1", "R_x", "R_z"):
            assert_clusters_as_one_at_a_time(leading_spectrum(build_transfer(model.lpdo, model.action(g).u)))


def test_a_chain_of_close_eigenvalues_is_two_clusters():
    """w0, w0 + 0.9 tol and w0 + 1.8 tol: the second is within tolerance of both
    others, but a cluster is measured from its first member, not closed under
    nearness, so the third starts a cluster of its own."""
    tol = numerics.CLUSTER_TOL
    w = np.array([1.0, 1.0 + 0.9 * tol, 1.0 + 1.8 * tol, 0.5], dtype=complex)
    rng = np.random.default_rng(2)
    right = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spectrum = numerics._measured(w[None], right[None], np.linalg.inv(right)[None])[0]
    assert_clusters_as_one_at_a_time(spectrum)
    assert [members.tolist() for _, members, _ in spectrum.clusters] == [
        [True, True, False, False],
        [False, False, True, False],
        [False, False, False, True],
    ]


# --- stacks -------------------------------------------------------------------

def _members(kind, rng):
    """Five complex members of one kind for ``_stacked``."""
    shape = {"0d": (), "1d": (4,), "2d": (4, 4), "3d": (2, 3, 4), "4d": (3, 2, 2, 2)}.get(kind, (4, 4))
    members = [np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(5)]
    if kind == "fortran":
        members = [np.asfortranarray(m) for m in members]
    elif kind == "column":  # strided 1-d views, as a spectrum's leading column
        members = [m[:, 0] for m in members]
    elif kind == "read-only":
        for m in members:
            m.flags.writeable = False
    return members


@pytest.mark.parametrize("kind", ["0d", "1d", "2d", "3d", "4d", "fortran", "column", "read-only"])
def test_a_stack_is_np_stack_bit_for_bit(kind):
    """Values, dtype, shape and strides of np.stack; a column-major member keeps its
    layout, so its stack is np.stack's of the transposes, transposed back. Every
    member is a stack of one as a view."""
    members = _members(kind, np.random.default_rng(3))
    stack = numerics._stacked(members)
    reference = np.stack(members)
    if kind == "fortran":
        reference = np.stack([m.T for m in members]).transpose(0, 2, 1)
        assert all(x.strides == m.strides for x, m in zip(stack, members))
    assert (stack.dtype, stack.shape, stack.strides) == (reference.dtype, reference.shape, reference.strides)
    assert stack.tobytes() == reference.tobytes() and stack.flags.writeable
    one = numerics._stacked(members[:1])
    assert one.base is members[0] or one.base is members[0].base
    assert one.tobytes() == members[0].tobytes() and one.shape == (1, *members[0].shape)


@pytest.mark.parametrize(
    "shapes",
    [[(4,), (4,), (5,)], [(2, 3), (3, 3)], [(2, 3), (2, 4)], [(4,), (2, 2)], [(3, 2, 2), (3, 2, 2), (2, 2, 2)]],
    ids=["1d-length", "2d-rows", "2d-columns", "ndim", "3d-first"],
)
def test_a_stack_of_several_shapes_names_the_first_and_the_first_other(shapes):
    """np.concatenate takes arrays whose first dimensions differ; a stack does not."""
    members = [np.zeros(shape, dtype=complex) for shape in shapes]
    other = next(shape for shape in shapes if shape != shapes[0])
    message = f"a stack needs arrays of one shape, got {shapes[0]} and {other}"
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        numerics._stacked(members)
