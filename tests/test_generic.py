"""Generic-model tests at bond dimension D = 2, 6 and 12 (the transfer-map
definition test runs at D = 4, 6 and 12).

The model is the decohered AKLT LPDO tensored with a seeded random
injective MPS B on an extra ancilla factor,

    A'[i, (a, s), (x, g), (y, h)] = A[i, a, x, y] B[s, g, h],

then put in a random unitary gauge W A' W^dag on the virtual legs. The
actions are u_g and ua_g (x) 1, so no symmetry acts on B. Every twisted
transfer map is similar to T_AKLT (x) E_B, which leaves the AKLT responses
and the conservation law unchanged while exercising D > 2 and the (u, ua)
insertions.

The three bond dimensions take the three routes to a spectrum: D=2 the
einsum-built map and a dense eig, D=6 the matrix-product map and a dense eig,
D=12 the matrix-product map and the Krylov iteration of a partial spectrum.
Test ids without a suffix are D=6.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaksym import numerics
from weaksym.errors import NearDefectiveError, UndefinedExponentError
from weaksym.model import LpdoTensor, Model, build_aklt_model, spin1_operators
from weaksym.response import (
    _leading_pairs,
    conservation_check,
    finite_response,
    flux_response,
    thermo_response,
)
from weaksym.stringorder import CLUSTER_TOL, LIVE_TOL, decay_channel
from weaksym.symmetry import GroupTable, SymmetryAction, _push_through_residuals, extract_virtual_rep
from weaksym.transfer import build_transfer, symmetry_gap, transfer_spectrum, twisted_spectrum
from weaksym.verify import aklt_tz_eigenvalues

TESTS = Path(__file__).resolve().parent
DR = 2  # physical dimension of the random factor, an extra ancilla leg
BOND = 3  # its bond dimension; the model has D = 2 * BOND = 6
# Bond dimensions of the random factor the invariance tests run at: D = 6, 2, 12.
BONDS = (BOND, 1, 6)


def at_bonds(argnames, cases):
    """Parametrize ``argnames`` over ``cases`` and the random factor's bond over ``BONDS``.

    The D=6 ids are the plain case ids; the others end in ``-D2`` and ``-D12``.
    """
    params = []
    for bond in BONDS:
        for case in cases:
            case = case if isinstance(case, tuple) else (case,)
            suffix = "" if bond == BOND else f"-D{2 * bond}"
            params.append(pytest.param(*case, bond, id="-".join(map(str, case)) + suffix))
    return pytest.mark.parametrize(f"{argnames}, bond", params)


def random_matrix(rng, n):
    """Seeded complex Gaussian n x n matrix: neither Hermitian nor unitary."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_injective_mps(rng, bond=BOND):
    """Complex Gaussian B[s, g, h], scaled so its transfer map has leading eigenvalue 1.

    Redrawn until the map is gapped: second modulus below 0.9 of the first,
    or no second eigenvalue at all (bond 1).
    """
    while True:
        b = rng.normal(size=(DR, bond, bond)) + 1j * rng.normal(size=(DR, bond, bond))
        mods = np.sort(np.abs(np.linalg.eigvals(random_factor_transfer(b))))[::-1]
        if len(mods) < 2 or mods[1] < 0.9 * mods[0]:
            return b / np.sqrt(mods[0])


def random_factor_transfer(b):
    """sum_s B_s (x) conj(B_s): the transfer map of the random factor."""
    return sum(np.kron(x, x.conj()) for x in b)


def generic_model(p, seed=7, bond=BOND):
    """(generic model, AKLT model, gauge W) at noise rate p and D = 2 * bond.

    The gauge makes V_g = W (V_g^AKLT (x) 1) W^dag neither symmetric nor
    antisymmetric, so a transposed representation cannot pass for V_g.
    """
    aklt = build_aklt_model(p)
    rng = np.random.default_rng(seed)
    b = random_injective_mps(rng, bond)
    d, da, dv, _ = aklt.lpdo.tensor.shape
    tensor = np.einsum("iaxy,sgh->iasxgyh", aklt.lpdo.tensor, b).reshape(d, da * DR, dv * bond, dv * bond)
    w, _ = np.linalg.qr(random_matrix(rng, dv * bond))
    tensor = w @ tensor @ w.conj().T
    actions = {
        g: SymmetryAction(element=g, u=act.u, ua=np.kron(act.ua, np.eye(DR)))
        for g, act in aklt.actions.items()
    }
    return Model(lpdo=LpdoTensor(tensor), group=aklt.group, actions=actions), aklt, w


def transfer_by_definition(a4, op, op_a):
    """sum O[j,i] O_a[b,a] kron(conj(A[j,b]), A[i,a]), term by term."""
    d, da, dv, _ = a4.shape
    t = np.zeros((dv * dv, dv * dv), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(da):
                for b in range(da):
                    t += op[j, i] * op_a[b, a] * np.kron(a4[j, b].conj(), a4[i, a])
    return t


@pytest.mark.parametrize("g", ["R_x", "R_z"])
def test_build_transfer_matches_definition(g):
    """T(op, op_a) is its term-by-term sum at D = 4, 6 and 12.

    Next to the unitary actions, seeded random insertions that are neither
    Hermitian nor unitary catch a transposed or conjugated op or op_a and
    swapped bra and ket layers.
    """
    rng = np.random.default_rng(11)
    for bond in (2, 3, 6):
        model, _, _ = generic_model(0.3, bond=bond)
        lpdo = model.lpdo
        act = model.action(g)
        assert lpdo.bond_dim == 2 * bond
        eye, eye_a = np.eye(lpdo.d), np.eye(lpdo.da)
        op, op_a = random_matrix(rng, lpdo.d), random_matrix(rng, lpdo.da)
        pairs = ((eye, eye_a), (act.u, eye_a), (eye, act.ua), (act.u, act.ua),
                 (op, eye_a), (eye, op_a), (op, op_a), (act.u, op_a))
        for o, o_a in pairs:
            expected = transfer_by_definition(lpdo.tensor, o, o_a)
            np.testing.assert_allclose(build_transfer(lpdo, o, o_a), expected, atol=1e-13)
        for o in (act.u, op):
            expected = transfer_by_definition(lpdo.tensor, o, eye_a)
            np.testing.assert_allclose(build_transfer(lpdo, o), expected, atol=1e-13)


@pytest.mark.parametrize("bond", BONDS, ids=lambda bond: f"D{2 * bond}")
def test_bonds_take_the_three_routes_to_a_spectrum(bond):
    """D=2 builds T by einsum, D=6 by one product; both decompose it in full. D=12 is partial."""
    model, _, _ = generic_model(0.3, bond=bond)
    spectrum = twisted_spectrum(model, "R_z")
    assert spectrum.complete == (model.lpdo.bond_dim**2 <= numerics.DENSE_MAX_ROWS)
    assert len(spectrum.eigenvalues) >= 2


@at_bonds("p", [0.2, 0.8])
def test_extracted_reps_satisfy_push_through(p, bond):
    model, aklt, w = generic_model(p, bond=bond)
    for g in model.group.labels:
        act = model.action(g)
        rep, theta = extract_virtual_rep(model.lpdo, act)
        residual = float(_push_through_residuals(model.lpdo.tensor[None], act.u, act.ua, rep.v[None], [theta])[0])
        assert residual < 1e-8
        assert rep.residual == pytest.approx(residual, abs=1e-14)
        # V_g = W (V_g^AKLT (x) 1) W^dag up to a phase: the symmetry does not touch B
        v_aklt = extract_virtual_rep(aklt.lpdo, aklt.action(g))[0].v
        expected = w @ np.kron(v_aklt, np.eye(bond)) @ w.conj().T
        overlap = np.trace(rep.v.conj().T @ expected) / model.lpdo.bond_dim
        assert abs(abs(overlap) - 1) < 1e-8


@at_bonds("p", [0.2, 0.8])
def test_conservation_law(p, bond):
    """All four values of the conservation check are the AKLT ones."""
    model, aklt, _ = generic_model(p, bond=bond)
    for g1 in model.group.labels:
        for g2 in ("R_x", "R_y", "R_z"):
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            _, total_a, physical_a, ancilla_a = conservation_check(aklt, g1, g2)
            assert residual <= 1e-8
            assert abs(total - total_a) <= 1e-10
            assert abs(physical.value - physical_a.value) <= 1e-10
            assert abs(ancilla.value - ancilla_a.value) <= 1e-10


@at_bonds("p, q_yz", [(0.2, -1.0), (0.8, 1.0)])
def test_thermo_response_reproduces_aklt(p, q_yz, bond):
    model, _, _ = generic_model(p, bond=bond)
    assert abs(thermo_response(model, "R_x", "R_z").value - (-1.0)) < 1e-8
    res = thermo_response(model, "R_y", "R_z")
    assert abs(res.value - q_yz) < 1e-8
    assert res.valid and res.snapped is not None
    # the ancilla carries the rest of the cocycle -1
    assert abs(conservation_check(model, "R_y", "R_z")[3].value - (-q_yz)) < 1e-8


@at_bonds("p", [0.2, 0.3, 0.75, 0.8])
def test_rz_gap_is_the_closed_form(p, bond):
    """T(R_z) is similar to T_AKLT(R_z) (x) E_B: its moduli are |lambda_i| |mu_j|."""
    rng = np.random.default_rng(7)
    mu = np.linalg.eigvals(random_factor_transfer(random_injective_mps(rng, bond)))
    moduli = np.sort(np.outer(np.abs(aklt_tz_eigenvalues(p)), np.abs(mu)).ravel())[::-1]
    model, _, _ = generic_model(p, bond=bond)
    assert abs(symmetry_gap(twisted_spectrum(model, "R_z")) - (moduli[0] - moduli[1])) <= 1e-10


@at_bonds("alpha, p", [(alpha, p) for p in (0.3, 0.75) for alpha in ("S_0", "S_x", "S_y")])
def test_decay_channel_reproduces_aklt(alpha, p, bond):
    """The random factor only adds dead channels: the exponent is the AKLT one."""
    model, aklt, _ = generic_model(p, bond=bond)
    chi = spin1_operators()[alpha]
    generic = decay_channel(model, "R_z", chi, chi)
    reference = decay_channel(aklt, "R_z", chi, chi)
    assert generic.xi == pytest.approx(reference.xi, rel=1e-10)
    assert generic.amplitude == pytest.approx(reference.amplitude, abs=1e-10)
    assert generic.order_one == reference.order_one


@at_bonds("p", [0.3, 0.75])
def test_outputs_invariant_under_an_ancilla_basis_change(p, bond):
    """A[i, a] -> sum_b W[a, b] A[i, b] with ua_g -> W ua_g W^dag changes no output."""
    model, _, _ = generic_model(p, bond=bond)
    rng = np.random.default_rng(13)
    da = model.lpdo.da
    w, _ = np.linalg.qr(rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)))
    rotated = Model(
        lpdo=LpdoTensor(np.einsum("ab,ibxy->iaxy", w, model.lpdo.tensor)),
        group=model.group,
        actions={
            g: SymmetryAction(element=g, u=act.u, ua=w @ act.ua @ w.conj().T)
            for g, act in model.actions.items()
        },
    )
    for g1 in model.group.labels:
        for g2 in model.group.labels:
            before, after = thermo_response(model, g1, g2), thermo_response(rotated, g1, g2)
            assert abs(after.value - before.value) <= 1e-10
            assert after.snapped == before.snapped
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            residual_r, total_r, physical_r, ancilla_r = conservation_check(rotated, g1, g2)
            assert abs(residual_r - residual) <= 1e-10
            assert abs(total_r - total) <= 1e-10
            assert abs(physical_r.value - physical.value) <= 1e-10
            assert abs(ancilla_r.value - ancilla.value) <= 1e-10
    gap = symmetry_gap(twisted_spectrum(model, "R_z"))
    assert abs(symmetry_gap(twisted_spectrum(rotated, "R_z")) - gap) <= 1e-10
    for alpha in ("S_0", "S_x", "S_y"):
        chi = spin1_operators()[alpha]
        before, after = decay_channel(model, "R_z", chi, chi), decay_channel(rotated, "R_z", chi, chi)
        assert abs(after.xi - before.xi) <= 1e-10
        assert abs(after.amplitude - before.amplitude) <= 1e-10
        assert after.order_one == before.order_one


def test_flux_response_ignores_a_phase_on_the_flux():
    for bond in BONDS:
        model, _, _ = generic_model(0.3, bond=bond)
        v = extract_virtual_rep(model.lpdo, model.action("R_y"))[0].v
        phase = np.exp(1j * np.random.default_rng(17).uniform(0, 2 * np.pi))
        value, gap = flux_response(model, v, "R_z")
        value_r, gap_r = flux_response(model, phase * v, "R_z")
        assert abs(value_r - value) <= 1e-10 and gap_r == gap


@pytest.mark.parametrize("bond", BONDS)
def test_finite_response_refuses_a_trace_cancelled_to_roundoff(bond):
    """Tr T(g2) is zero for the AKLT factor, but the gauged generic map leaves
    roundoff: at N=1 every response, and at p=1/2 the odd rings, are refused
    like the exactly cancelled built-in traces, while even rings stay valid."""
    model = generic_model(0.5, bond=bond)[0]
    for g1 in ("R_x", "R_y"):
        for n_sites in (1, 7):
            res = finite_response(model, g1, "R_z", n_sites)
            assert not res.valid and res.snapped is None and np.isnan(res.value.real)
        assert finite_response(model, g1, "R_z", 8).valid
    for p in (0.3, 0.8):
        model = generic_model(p, bond=bond)[0]
        for g1 in model.group.labels:
            assert not finite_response(model, g1, "R_z", 1).valid


def every_output(model):
    """Each response, conservation value, gap and decay channel the tests above compute, by name."""
    out = {}
    for g1 in model.group.labels:
        for g2 in model.group.labels:
            out[f"Q({g1}, {g2})"] = thermo_response(model, g1, g2).value
            residual, total, physical, ancilla = conservation_check(model, g1, g2)
            out[f"conservation({g1}, {g2})"] = (residual, total, physical.value, ancilla.value)
        out[f"gap({g1})"] = symmetry_gap(twisted_spectrum(model, g1))
    for alpha in ("S_0", "S_x", "S_y", "S_z"):
        chi = spin1_operators()[alpha]
        try:
            channel = decay_channel(model, "R_z", chi, chi)
            out[f"xi({alpha})"] = (channel.xi, channel.amplitude)
        except UndefinedExponentError:
            out[f"xi({alpha})"] = None
    return out


@pytest.mark.parametrize("p, bond", [(0.3, 6), (0.75, 8)], ids=["0.3-D12", "0.75-D16"])
def test_krylov_and_dense_paths_agree(p, bond, monkeypatch):
    """At D = 12 and 16 every output read off partial spectra is the dense one to 1e-10."""
    model, _, _ = generic_model(p, bond=bond)
    assert not twisted_spectrum(model, "1").complete
    krylov = every_output(model)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "DENSE_MAX_ROWS", (2 * bond) ** 2)
        model, _, _ = generic_model(p, bond=bond)
        assert twisted_spectrum(model, "1").complete
        dense = every_output(model)
    assert krylov.keys() == dense.keys()
    for name, value in dense.items():
        if value is None:
            assert krylov[name] is None, name
        else:
            np.testing.assert_allclose(krylov[name], value, rtol=0, atol=1e-10, err_msg=name)


def cluster_projector_norms(spectrum):
    """[(eigenvalue, multiplicity, ||R_c L_c||_F)] per cluster, grouped as ``Spectrum.clusters`` groups them.

    The reference for ``Spectrum.clusters``: the spectral projector
    sum_k R_k L_k of each cluster is formed as an n x n matrix.
    """
    w = spectrum.eigenvalues
    unassigned = np.ones(len(w), dtype=bool)
    out = []
    for i in range(len(w)):
        if unassigned[i]:
            members = unassigned & (np.abs(w - w[i]) <= CLUSTER_TOL * abs(w[0]))
            unassigned &= ~members
            projector = spectrum.right_vectors[:, members] @ spectrum.left_vectors[members]
            out.append((complex(w[i]), int(members.sum()), float(np.linalg.norm(projector))))
    return out


def measured_clusters(spectrum):
    """``spectrum.clusters`` as [(eigenvalue, multiplicity, condition)]."""
    return [(lam, int(members.sum()), condition) for lam, members, condition in spectrum.clusters]


def assert_same_clusters(held, clusters, rel):
    """Each cluster of ``held`` is in ``clusters`` (eigenvalue to 1e-12, not by position: moduli of a
    conjugate pair tie, so roundoff orders them), with its multiplicity and its norm to ``rel``."""
    eigenvalues = np.array([lam for lam, _, _ in clusters])
    for lam, count, size in held:
        at = int(np.argmin(np.abs(eigenvalues - lam)))
        assert abs(eigenvalues[at] - lam) <= 1e-12 and clusters[at][1] == count, lam
        assert clusters[at][2] == pytest.approx(size, rel=rel), lam


def tuned_endpoints(model, factor):
    """(chi_l, chi_r): the leading channel of <chi_l T(1)^l chi_r> at ``factor`` times its live threshold.

    The threshold is ``LIVE_TOL`` times the contraction scale times the norm
    of the leading spectral projector R_0 L_0 of T(1). chi_l is a seeded
    random matrix with its leading amplitude cancelled, plus that much of
    the identity; chi_r is a seeded random matrix.
    """
    lpdo = model.lpdo
    rng = np.random.default_rng(3)
    eye, b, chi_r = np.eye(lpdo.d), random_matrix(rng, lpdo.d), random_matrix(rng, lpdo.d)
    spectrum = transfer_spectrum(lpdo, eye)
    left, right, norm = (x[0] for x in _leading_pairs([lpdo], [spectrum], "of T(1)")[:3])
    tr = build_transfer(lpdo, chi_r)

    def leading_amplitude(chi):  # linear in chi
        return (left @ build_transfer(lpdo, chi) @ right) * (left @ tr @ right) / norm / norm

    cancelled = b - leading_amplitude(b) / leading_amplitude(eye) * eye
    envelope = (
        np.linalg.norm(left) * np.linalg.norm(build_transfer(lpdo, cancelled)) * np.linalg.norm(tr)
        * np.linalg.norm(right) / abs(norm)
    )
    _, simple, projector_norm = cluster_projector_norms(spectrum)[0]
    assert simple == 1
    target = factor * LIVE_TOL * envelope * projector_norm
    return cancelled + target / leading_amplitude(eye) * eye, chi_r


@pytest.mark.parametrize("factor", [1.5, 0.01], ids=["live", "dead"])
def test_a_channel_near_its_live_threshold_gets_one_verdict_on_both_paths(factor, monkeypatch):
    """The partial and the dense spectrum of T(1) judge a channel near its live threshold alike.

    At D=12 chi_l is tuned so that the leading channel of
    <chi_l T(1)^l chi_r> has an amplitude ``factor`` times its threshold,
    which scales with the norm of that channel's own spectral projector. On
    both paths the clusters the partial spectrum holds have the same
    projector norms, so a channel at 1.5 times the threshold is live on both
    (order one, xi = 0), and one at 0.01 times is dead on both, which then
    read the decay of the AKLT factor's -1/3. A condition estimate of the
    whole eigenvector matrix would put the dense threshold tens to hundreds
    of times higher, by an amount that depends on the basis LAPACK returns
    inside degenerate eigenspaces.
    """
    model, _, _ = generic_model(0.3, bond=6)
    lpdo = model.lpdo
    chi_l, chi_r = tuned_endpoints(model, factor)
    partial = transfer_spectrum(lpdo, np.eye(lpdo.d))
    assert not partial.complete and len(partial.eigenvalues) == 3
    channels = [decay_channel(model, "1", chi_l, chi_r)]
    held = measured_clusters(partial)
    assert_same_clusters(cluster_projector_norms(partial), held, rel=1e-12)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "DENSE_MAX_ROWS", lpdo.bond_dim**2)
        model, _, _ = generic_model(0.3, bond=6)
        dense = transfer_spectrum(model.lpdo, np.eye(lpdo.d))
        assert dense.complete
        channels.append(decay_channel(model, "1", chi_l, chi_r))
    assert_same_clusters(held, measured_clusters(dense), rel=1e-12)
    for channel in channels:
        if factor > 1:
            assert channel.order_one and abs(channel.xi) < 1e-12
            assert 0 <= channel.floor <= LIVE_TOL
        else:
            assert not channel.order_one
            assert channel.xi == pytest.approx(np.log(3), abs=1e-10)  # the AKLT factor's -1/3
            assert channel.floor == pytest.approx(factor * LIVE_TOL, rel=1e-3)
    assert channels[0].eigenvalue == pytest.approx(channels[1].eigenvalue, abs=1e-12)
    assert channels[0].amplitude == pytest.approx(channels[1].amplitude, rel=1e-10)


def thread_probe():
    """Print, as JSON, what the D=12 model's decay channels are read from, on both spectrum paths.

    Per path (the partial spectra with their fallback, then ``DENSE_MAX_ROWS``
    raised so every spectrum is dense): the clusters of T(1) and T(R_z) with
    their spectral-projector norms, partial and complete, and the channel
    ``decay_channel`` picks for the spin endpoints under R_z and for the tuned
    endpoints under 1. Run in a subprocess by the BLAS thread-count test.
    """
    out = {}
    for path in ("partial", "dense"):
        if path == "dense":
            numerics.DENSE_MAX_ROWS = 144
        model, _, _ = generic_model(0.3, bond=6)
        lpdo = model.lpdo
        for g in ("1", "R_z"):
            for complete in (False, True):
                clusters = measured_clusters(transfer_spectrum(lpdo, model.action(g).u, complete=complete))
                out[f"{path} T({g}) complete={complete}"] = [[lam.real, lam.imag, n, size] for lam, n, size in clusters]
        ends = [("R_z", alpha, chi, chi) for alpha, chi in spin1_operators().items()]
        ends += [("1", f"tuned x{factor}", *tuned_endpoints(model, factor)) for factor in (100, 1.5, 0.01)]
        for g2, name, chi_l, chi_r in ends:
            try:
                channel = decay_channel(model, g2, chi_l, chi_r)
                out[f"{path} {g2} {name}"] = [channel.xi, channel.eigenvalue.real, channel.eigenvalue.imag]
            except UndefinedExponentError:
                out[f"{path} {g2} {name}"] = None
    print(json.dumps(out))


def test_decay_channels_do_not_depend_on_the_blas_thread_count():
    """At one and at two BLAS threads, the D=12 model's cluster norms agree to 1e-10 and its channels to 1e-12.

    LAPACK's eigenvector basis inside a degenerate eigenspace depends on the
    thread count; a cluster's projector norm does not. The tuned endpoint at
    100 times its threshold sits where a live test scaled by cond(R) of the
    complete spectrum (about 88 at one thread, 1,142 at two) called it live
    at one thread and dead at two. Floors are roundoff, so they are not
    compared; neither are bytes.
    """
    src = Path(numerics.__file__).parents[1]
    runs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), str(TESTS), os.environ.get("PYTHONPATH")])),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
        )
        done = subprocess.run(
            [sys.executable, "-c", "import test_generic; test_generic.thread_probe()"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    one, two = runs
    assert one.keys() == two.keys()
    for name, value in one.items():
        if " T(" in name:
            clusters = [(complex(re, im), n, size) for re, im, n, size in two[name]]
            assert len(value) == len(clusters), name
            assert_same_clusters([(complex(re, im), n, size) for re, im, n, size in value], clusters, rel=1e-10)
        elif value is None:
            assert two[name] is None, name
        else:
            np.testing.assert_allclose(two[name], value, rtol=0, atol=1e-12, err_msg=name)
    assert one["dense 1 tuned x100"][0] == pytest.approx(0, abs=1e-12)  # order one: live on either path


def jordan_model(bond):
    """A Z2 model whose T(g) has a Jordan block at its top eigenvalue, with D = 2 * bond.

    The tensor is (1, N, N, N^T) on four physical states, N = [[0, 1], [0, 0]],
    times the random factor; g acts as u_g = diag(1, 1, -1, 1). On the first
    factor T(1) = 1 + 2 N(x)N + N^T(x)N^T is diagonalizable (1 +- sqrt(2), 1,
    1), while in T(g) the two N(x)N cancel and 1 + N^T(x)N^T is a Jordan block.
    """
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    a = np.stack([np.eye(2), n, n, n.T])[:, None]
    b = random_injective_mps(np.random.default_rng(5), bond)
    tensor = np.einsum("iaxy,sgh->iasxgyh", a, b).reshape(4, DR, 2 * bond, 2 * bond)
    group = GroupTable(("1", "g"), (("1", "g"), ("g", "1")))
    actions = {
        "1": SymmetryAction(element="1", u=np.eye(4), ua=np.eye(DR)),
        "g": SymmetryAction(element="g", u=np.diag([1.0, 1.0, -1.0, 1.0]), ua=np.eye(DR)),
    }
    return Model(lpdo=LpdoTensor(tensor), group=group, actions=actions)


@pytest.mark.parametrize("bond", [1, 6], ids=["D2", "D12"])
def test_a_jordan_block_is_refused(bond):
    """The leading-pair contraction and the decay channel both refuse to pair T(g)'s vectors.

    At D=12 the Arnoldi runs on T(g) and on its adjoint find different
    counts in the defective cluster, so the map gets the dense
    decomposition, which flags it.
    """
    model = jordan_model(bond)
    with pytest.raises(NearDefectiveError, match="for 'g' is near-defective"):
        flux_response(model, np.eye(model.lpdo.bond_dim), "g")
    with pytest.raises(NearDefectiveError, match=r"of T\(g\) is near-defective"):
        decay_channel(model, "g", np.eye(4), np.eye(4))
