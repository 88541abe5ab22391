"""The benchmark's ops and output checks run on the package's public API:
every public name a workload calls must still exist with its signature.
Each workload's fixed probe inputs go through its op and its check."""

import os
import shutil
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
@pytest.mark.parametrize("theta", [pytest.param(np.pi / 4 - 5e-7, id="5e-07"),
                                   pytest.param(np.pi / 4 - 9.9e-7, id="9.9e-07"),
                                   pytest.param(1e-6, id="theta-1e-06")])
def test_family_check_passes_where_the_package_clips_an_eigenvalue(bench, name, theta):
    # Near either end of the family an eigenvalue or a branch weight falls
    # to ~1e-12. Entropies that clipped there, not at ENTROPY_CLIP
    # (~3.6e-15), fail these checks at ROUNDING_TOL: at pi/4 - 5e-7 they
    # drop rho^A's eigenvalue ~2.5e-13, whose -q log2 q ~ 1e-11 the
    # reference h((1 + sin 2theta)/2) keeps; at pi/4 - 9.9e-7 they put I^c
    # above I by 1.4e-12; at theta = 1e-6 they put the optimizer and KW
    # routes 1.9e-11 apart.
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name](0)
    inp = theta if name == "family_sweep" else ("family", theta)
    out = workload.run(tracing.untraced_call, inp)
    fails, _ = workload.check(tracing.untraced_call, inp, out)
    assert fails == []


@pytest.mark.parametrize("workload", ["family_sweep", "random_states", "closed_form"])
def test_paired_ab_reads_a_tree_against_itself_bit_identical(workload):
    # An A/A run of the tool behind each change's bit-identity evidence.
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                          str(ROOT), "--ops", "18", "--workload", workload],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "outputs bit-identical in 18/18 ops" in out.stdout


def test_paired_ab_alternates_the_first_side_within_each_op_kind():
    # closed_form's crossover is every 80th op, always at an odd index: an
    # order that alternated by op index ran the same side first in each.
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                          str(ROOT), "--ops", "160", "--workload", "closed_form"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = {line.split()[0]: line.split() for line in out.stdout.splitlines() if line.strip()}
    # kind, ops, parent, change, ratio, share, parent-first, bit-identical, max |diff|
    assert rows["crossover"][6:] == ["1/2", "2/2", "0"]
    assert rows["family"][6:] == ["32/64", "64/64", "0"]


def test_paired_ab_exits_quietly_when_stdout_closes():
    # `paired_ab.py ... | head`: the reader is gone before the report is
    # written, and the tool ends with status 0 and no traceback.
    with subprocess.Popen([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                           str(ROOT), "--ops", "2"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    assert err == b""


def test_paired_ab_writes_no_bytecode_into_either_tree(tmp_path):
    # A tree left with a __pycache__ reads a lower setup_s in the benchmark
    # than one without, so the tool must not write one, whatever the
    # environment says.
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "discordlim", tree / "src" / "discordlim",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                          str(trees[0]), "--change", str(trees[1]), "--ops", "4"],
                         capture_output=True, text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("__pycache__")) == []


def test_paired_ab_exits_1_when_an_output_differs(tmp_path):
    # As `diff` does: the change tree's entropies read 1e-9 high, so no
    # closed_form op's outputs match, and the report is still printed.
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        for part in ("src/discordlim", "perfbench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
    linalg = trees[1] / "src" / "discordlim" / "linalg.py"
    text = linalg.read_text()
    assert text.count("LOG2 = np.log(2.0)\n") == 1
    linalg.write_text(text.replace("LOG2 = np.log(2.0)\n", "LOG2 = np.log(2.0) * (1 - 1e-9)\n"))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ab.py"), "--parent",
                          str(trees[0]), "--change", str(trees[1]), "--ops", "4"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 1, out.stderr
    assert "outputs bit-identical in 0/4 ops" in out.stdout
    assert "throughput_ops_s" in out.stdout
