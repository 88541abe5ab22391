"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 3, 5, 6, 7 and 8 are `discordlim.verify` suites run at a pinned
(seed, samples); their pass lines name the suite and its check count.
The others print the measured numbers."""

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


def test_3_dual_route_agreement(run_suite):
    # The 101-angle grid: optimizer and closed form within KW_AGREEMENT_TOL.
    start = time.monotonic()
    res = run_suite(verify.suite_kw_agreement, seed=11, samples=100, checks=103)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    report("3 dual-route", f"{res.name}: {res.checks} checks, {elapsed:.1f}s")


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


def test_5_pure_state_gap(run_suite):
    # 100 pure states: discord = S(rho^S) and I = 2 S(rho^S) within PURE_GAP_TOL.
    res = run_suite(verify.suite_corr_pure_gap, seed=11, samples=1000, checks=200)
    report("5 pure-state gap", f"{res.name}: {res.checks} checks")


def test_6_broadcast_bounds(run_suite):
    # 200 two-recipient and 100 three-recipient broadcasts of pure states.
    res = run_suite(verify.suite_proto_broadcast, seed=11, samples=200, checks=500)
    report("6 broadcast bounds", f"{res.name}: {res.checks} checks")


def test_7_protocol_consistency(run_suite):
    # 250 projective measurements on 25 states; the three-outcome POVMs
    # below are the part the suite does not sample.
    res = run_suite(verify.suite_proto_locc, seed=11, samples=500, checks=500)
    worst_eq = 0.0
    worst_excess = -np.inf
    states = [kw.example_state(t) for t in (0.0, np.pi / 8, 0.2, np.pi / 4)] + [
        la.DensityMatrix(la.random_density_matrix(4, s), (2, 2)) for s in range(6)
    ]
    for i, rho in enumerate(states):
        ic = corr.classical_correlation(rho).classical_info
        for j in range(1, 50, 2):
            m = corr.random_povm(3, 10_000 * i + j)
            li = proto.locc_transfer_info(rho, m)
            worst_eq = max(worst_eq, abs(li - corr.accessible_information(rho, m)))
            worst_excess = max(worst_excess, li - ic)
            assert abs(li - corr.accessible_information(rho, m)) < verify.LOCC_EQUALS_J_TOL
            assert li <= ic + verify.CHAIN_TOL
    report(
        "7 protocol consistency",
        f"{res.name}: {res.checks} checks; three outcomes: max |locc - J| = {worst_eq:.2e}, "
        f"max Ic excess = {worst_excess:.2e}",
    )


def test_8_cloner_validity(run_suite):
    # The 101-angle grid: fidelity against a brute-force scan, and the
    # output overlap.
    res = run_suite(verify.suite_proto_cloner, seed=11, samples=100, checks=202)
    report("8 cloner", f"{res.name}: {res.checks} checks")


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
