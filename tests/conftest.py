import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from discordlim.cli import sweep_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's (workloads, tracing) modules, imported from
    perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="session")
def figure_rows():
    """The figure's 200 rows, `sweep_rows(0, pi/4, 200)`, built once."""
    return sweep_rows(0.0, np.pi / 4, 200)


@pytest.fixture
def run_suite():
    """Run one `discordlim.verify` suite at a pinned (seed, samples). It
    must pass and make exactly `checks` checks, so a suite that stops
    making a check fails here as surely as one whose check fails."""

    def run(suite, seed, samples, checks):
        res = suite(seed, samples)
        assert res.ok, f"{res.name}: {len(res.failures)} failures, first {res.failures[:5]}"
        assert res.checks == checks, f"{res.name}: {res.checks} checks, pinned {checks}"
        return res

    return run
