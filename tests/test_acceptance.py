"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 3, 5, 6, 7 and 8 are `discordlim.verify` suites run at a pinned
(seed, samples); their pass lines name the suite and its check count.
The others print the measured numbers. Criterion 4 is the paper's claim
that the loss needs no entanglement."""

import time

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import koashi_winter as kw
from discordlim import protocols as proto
from discordlim import verify
from discordlim.cli import evaluate_point


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
    # The 101-angle grid: optimizer and closed form within ROUNDING_TOL.
    start = time.monotonic()
    res = run_suite(verify.suite_kw_agreement, seed=11, samples=100, checks=103)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    report("3 dual-route", f"{res.name}: {res.checks} checks, {elapsed:.1f}s")


# Discord, in bits, that counts as a loss: a twelfth of the family's
# smallest on the grid of criterion 4 (0.0122 bits at pi/80), and 1e9
# times ROUNDING_TOL, within which the optimizer meets the closed form.
DISCORD_MARGIN = 1e-3


def test_4_loss_without_entanglement():
    # Claim (b): inside (0, pi/4) the family is unentangled, yet a
    # classical relay loses its discord.
    worst_c, least_d = 0.0, np.inf
    for theta in np.linspace(0.0, np.pi / 4, 21)[1:-1]:
        rho = kw.example_state(theta)
        worst_c = max(worst_c, kw.concurrence(rho))
        least_d = min(least_d, corr.classical_correlation(rho).discord)
    assert worst_c <= verify.ROUNDING_TOL
    assert least_d > DISCORD_MARGIN
    report("4 loss without entanglement",
           f"max concurrence = {worst_c:.2e}, min discord = {least_d:.5f} bits")


def test_5_pure_state_gap(run_suite):
    # 100 pure states: discord = S(rho^S), and J of the reported measurement
    # = I^c, each within ROUNDING_TOL.
    res = run_suite(verify.suite_corr_pure_gap, seed=11, samples=1000, checks=200)
    report("5 pure-state gap", f"{res.name}: {res.checks} checks")


def test_6_broadcast_bounds(run_suite):
    # 200 two-recipient and 100 three-recipient broadcasts of pure states.
    res = run_suite(verify.suite_proto_broadcast, seed=11, samples=200, checks=500)
    report("6 broadcast bounds", f"{res.name}: {res.checks} checks")


def test_7_protocol_consistency(run_suite):
    # Claim (a): 500 rank-1 POVMs of 2-4 outcomes on 25 states, each relayed by
    # flags (= J <= I^c) and to random mixed states (PPT, <= I^c).
    res = run_suite(verify.suite_proto_relays, seed=11, samples=500, checks=2000)
    report("7 protocol consistency", f"{res.name}: {res.checks} checks")


def test_8_cloner_validity(run_suite):
    # The 101-angle grid: fidelity against the closed-form optimum, and
    # the output overlap.
    res = run_suite(verify.suite_proto_cloner, seed=11, samples=100, checks=202)
    report("8 cloner", f"{res.name}: {res.checks} checks")


def test_9_sweep_shape(figure_rows):
    signs = [np.sign(r["diff"]) for r in figure_rows if abs(r["diff"]) > 1e-8]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
    for key in ("Ic", "I_clone"):
        col = [r[key] for r in figure_rows]
        assert all(col[i + 1] <= col[i] + 1e-9 for i in range(len(col) - 1))
    assert figure_rows[0]["I_clone"] == pytest.approx(1.0, abs=1e-6)
    assert figure_rows[-1]["I_clone"] == pytest.approx(0.0, abs=1e-6)
    report("9 sweep shape", "one diff sign change; Ic and I_clone nonincreasing, 1 -> 0")
