"""Acceptance suite: one test per criterion, each printing a pass line
with the measured numbers."""

import time

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import koashi_winter as kw
from discordlim import linalg as la
from discordlim import protocols as proto
from discordlim import verify
from discordlim.cli import evaluate_point, sweep_rows


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_1_crossover_reproduction():
    start = time.monotonic()
    res = proto.find_crossover()
    elapsed = time.monotonic() - start
    ratio = res.theta / np.pi
    assert 0.090 < ratio < 0.096
    assert elapsed <= 60.0
    report("1 crossover", f"theta'/pi = {ratio:.6f}, {elapsed:.2f}s")


def test_2_endpoint_exactness():
    r0 = evaluate_point(0.0)
    r1 = evaluate_point(np.pi / 4)
    for key in ("I", "Ic", "I_clone"):
        assert r0[key] == pytest.approx(1.0, abs=1e-6)
        assert r1[key] == pytest.approx(0.0, abs=1e-6)
    assert r0["discord"] == pytest.approx(0.0, abs=1e-6)
    assert r1["discord"] == pytest.approx(0.0, abs=1e-6)
    report("2 endpoints", "theta=0 gives (1,1,0,1); theta=pi/4 gives zeros")


def test_3_dual_route_agreement():
    start = time.monotonic()
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 4, 101):
        rho = kw.example_state(theta)
        gap = abs(
            corr.classical_correlation(rho).classical_info - kw.classical_correlation_kw(rho)
        )
        worst = max(worst, gap)
        assert gap < verify.KW_AGREEMENT_TOL
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    report("3 dual-route", f"max |optimizer - closed form| = {worst:.2e}, {elapsed:.1f}s")


def test_4_identity_ic_plus_discord():
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 4, 21):
        rep = corr.classical_correlation(kw.example_state(theta))
        worst = max(worst, abs(rep.classical_info + rep.discord - rep.mutual_info))
    for seed in range(100):
        rho = la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))
        rep = corr.classical_correlation(rho)
        worst = max(worst, abs(rep.classical_info + rep.discord - rep.mutual_info))
    assert worst < 1e-8
    report("4 identity", f"max |Ic + discord - I| = {worst:.2e}")


def test_5_pure_state_gap():
    worst = 0.0
    for seed in range(100):
        psi = la.random_pure_state(4, seed)
        rho = la.DensityMatrix(psi.to_density().mat, (2, 2))
        rep = corr.classical_correlation(rho)
        s_s = la.von_neumann_entropy(la.partial_trace(rho, [0]))
        worst = max(worst, abs(rep.discord - s_s), abs(rep.mutual_info - 2 * rep.classical_info))
        assert abs(rep.discord - s_s) < 1e-4
        assert abs(rep.mutual_info - 2 * rep.classical_info) < 1e-4
    report("5 pure-state gap", f"max deviation = {worst:.2e} over 100 states")


def test_6_broadcast_bounds():
    worst = -np.inf
    for seed in range(200):
        psi = la.StateVector(la.random_pure_state(4, seed).vec, (2, 2))
        b_dim = (1, 2, 4)[seed % 3]
        iso = proto.random_broadcast_isometry(2, (2, 2), b_dim, seed + 1)
        out = proto.apply_broadcast(psi, iso)
        infos = proto.recipient_infos(out)
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        slack = infos[0] + infos[1] - 2 * s_s
        worst = max(worst, slack)
        assert slack <= 1e-8
    copy_out = proto.apply_broadcast(kw.example_state(0.0), proto.classical_copy_isometry())
    infos = proto.recipient_infos(copy_out)
    s_s = la.von_neumann_entropy(la.partial_trace(copy_out, [0]))
    assert abs(infos[0] + infos[1] - 2 * s_s) < 1e-8
    for seed in range(50):
        psi = la.StateVector(la.random_pure_state(4, seed + 700).vec, (2, 2))
        iso = proto.random_broadcast_isometry(2, (2, 2, 2), 2, seed + 701)
        out = proto.apply_broadcast(psi, iso)
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        assert np.mean(proto.recipient_infos(out)) <= s_s + 1e-8
    report("6 broadcast bounds", f"max sum-bound slack = {worst:.2e}; copy channel saturates")


def test_7_protocol_consistency():
    worst_eq = 0.0
    worst_excess = -np.inf
    states = [kw.example_state(t) for t in (0.0, np.pi / 8, 0.2, np.pi / 4)] + [
        la.DensityMatrix(la.random_density_matrix(4, s), (2, 2)) for s in range(6)
    ]
    per_state = 50  # 10 states x 50 = 500 sampled measurements
    for i, rho in enumerate(states):
        ic = corr.classical_correlation(rho).classical_info
        for j in range(per_state):
            m = corr.random_povm(2 + j % 2, 10_000 * i + j)
            li = proto.locc_transfer_info(rho, m)
            worst_eq = max(worst_eq, abs(li - corr.accessible_information(rho, m)))
            worst_excess = max(worst_excess, li - ic)
            assert abs(li - corr.accessible_information(rho, m)) < 1e-9
            assert li <= ic + 1e-8
    min_pt_eig = np.inf
    for seed in range(50):
        rho = la.DensityMatrix(la.random_density_matrix(4, seed + 900), (2, 2))
        rng = np.random.default_rng(seed)
        m = corr.qubit_projective_povm(*rng.uniform([0, 0], [np.pi, 2 * np.pi]))
        sigmas = tuple(
            la.DensityMatrix(la.random_density_matrix(2, seed + 950 + i), (2,)) for i in range(2)
        )
        out = proto.measure_and_prepare(rho, proto.PreparedEnsembleChannel(m, sigmas))
        pt_eig = np.linalg.eigvalsh(la.partial_transpose(out.mat, out.dims, 1))[0]
        min_pt_eig = min(min_pt_eig, pt_eig)
        assert pt_eig >= -1e-9
    report(
        "7 protocol consistency",
        f"max |locc - J| = {worst_eq:.2e}, max Ic excess = {worst_excess:.2e}, "
        f"min PT eigenvalue = {min_pt_eig:.2e}",
    )


def test_8_cloner_validity():
    worst_fid = 0.0
    worst_overlap = 0.0
    for theta in np.linspace(0.0, np.pi / 4, 101):
        psi, phi = kw.example_branches(theta)
        out = proto.optimal_state_dependent_cloner(psi, phi)
        gap = abs(out.fidelity - proto.cloner_fidelity_scan(psi, phi))
        drift = abs(np.vdot(out.alpha.vec, out.beta.vec) - np.vdot(psi.vec, phi.vec))
        worst_fid = max(worst_fid, gap)
        worst_overlap = max(worst_overlap, drift)
        assert gap < 1e-6
        assert drift < 1e-8
    report("8 cloner", f"max fidelity gap = {worst_fid:.2e}, max overlap drift = {worst_overlap:.2e}")


def test_9_sweep_shape():
    rows = sweep_rows(0.0, np.pi / 4, 200)
    diffs = [r["diff"] for r in rows]
    signs = [np.sign(d) for d in diffs if abs(d) > 1e-8]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    ic = [r["Ic"] for r in rows]
    assert all(ic[i + 1] <= ic[i] + 1e-9 for i in range(len(ic) - 1))
    clone = [r["I_clone"] for r in rows]
    assert all(clone[i + 1] <= clone[i] + 1e-9 for i in range(len(clone) - 1))
    assert clone[0] == pytest.approx(1.0, abs=1e-6)
    assert clone[-1] == pytest.approx(0.0, abs=1e-6)
    report("9 sweep shape", "one diff sign change; Ic and I_clone nonincreasing, 1 -> 0")
