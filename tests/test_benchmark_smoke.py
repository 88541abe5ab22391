"""The benchmark's ops and output checks run on the package's public API:
every public name a workload calls must still exist with its signature.
Each workload's fixed probe inputs go through its op and its check."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


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
