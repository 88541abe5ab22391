"""The benchmark's ops and output checks run on the package's public API:
every public name a workload calls must still exist with its signature.
Each workload's fixed probe inputs go through its op and its check."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_reads_the_package_tolerances(bench):
    # A tolerance the package renames would leave the benchmark on its
    # fallback value, which may be looser (KW_AGREEMENT_TOL's is 1e-4).
    from discordlim import protocols, verify

    workloads, _ = bench
    for name in ("KW_AGREEMENT_TOL", "CHAIN_TOL", "ENTROPY_TOL", "SUM_BOUND_TOL"):
        assert getattr(workloads, name) == getattr(verify, name), name
    assert workloads.CROSSOVER_TOL == protocols.CROSSOVER_TOL


@pytest.mark.parametrize("name", ["family_sweep", "random_states", "closed_form"])
def test_probe_inputs_pass_their_checks(bench, name):
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name](0, probe=True)
    for inp in workload.probe_inputs():
        out = workload.run(tracing.untraced_call, inp)
        fails, _ = workload.check(tracing.untraced_call, inp, out)
        assert fails == []


def test_closed_form_first_two_crossover_cycles_pass_their_checks(bench):
    # Ops 0-159 of a seeded run: two find_crossover calls and every
    # broadcast recipient count and ancilla dimension the workload mixes.
    workloads, tracing = bench
    workload = workloads.WORKLOADS["closed_form"](0)
    for i in range(2 * workloads.CROSSOVER_EVERY):
        inp = workload.input(i)
        out = workload.run(tracing.untraced_call, inp)
        fails, _ = workload.check(tracing.untraced_call, inp, out)
        assert fails == [], f"op {i} ({workload.kind(inp)}): {fails}"


@pytest.mark.parametrize("name", ["family_sweep", "closed_form"])
@pytest.mark.parametrize("offset", [5e-7, 9.9e-7])
def test_family_check_passes_where_the_package_clips_an_eigenvalue(bench, name, offset):
    # At pi/4 - 5e-7, rho^A's small eigenvalue, ~2.5e-13, is at or below
    # ENTROPY_CLIP: the package's I drops it, while the benchmark's
    # reference keeps its -q log2 q ~ 1e-11. At pi/4 - 9.9e-7 the
    # package's I^c exceeds its I by 1.4e-12.
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name](0)
    theta = np.pi / 4 - offset
    inp = theta if name == "family_sweep" else ("family", theta)
    out = workload.run(tracing.untraced_call, inp)
    fails, _ = workload.check(tracing.untraced_call, inp, out)
    assert fails == []


@pytest.mark.parametrize("workload", ["random_states", "closed_form"])
def test_paired_ab_reads_a_tree_against_itself_bit_identical(workload):
    # An A/A run of the tool behind each change's bit-identity evidence.
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                          str(ROOT), "--ops", "18", "--workload", workload],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "outputs bit-identical in 18/18 ops" in out.stdout
