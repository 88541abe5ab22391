"""Paired in-process A/B of two discordlim trees on one benchmark workload.

    python3 tools/paired_ab.py --parent ../parent --ops 6000
    python3 tools/paired_ab.py --parent ../parent --change . --workload closed_form --seed 1

Each tree's `src/discordlim` is imported under its own package name
(`ab_parent`, `ab_change`), and one `perfbench/workloads.py` runs both:
for every op, the workload's module-level `dl` is pointed at one package,
then at the other, so that both sides see the same inputs under the same
machine load. The side that runs first alternates between the ops of each
kind, so a kind that recurs at an even period (`closed_form`'s crossover,
every 80th op) runs parent first in half of its ops too. Every package call
an op makes is timed on its own. The script prints, per op kind and per
call, the median time of each side and the ratio change / parent, the
throughput and latency percentiles of the op times; per op kind also how
many ops ran parent first, how many gave bit-identical outputs on the two
sides, and the largest absolute difference between their float outputs.
Beside each end-to-end and op-kind ratio stand its quartiles over 10
consecutive blocks of the ops (of that kind's ops for a kind), so that a
claimed gain reads against the ratio's own spread.
The times are unscaled: the pairing, not a calibration, cancels the drift
of a shared host.

Like `diff`, it exits 0 when every op's outputs are bit-identical and 1
when any differ, after the full report.

It reads `perfbench/` from the change tree and writes nothing into either
tree, no bytecode cache included.
"""

from __future__ import annotations

import os
import sys

# The same single BLAS thread as perfbench/run.py, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Write no bytecode cache into either tree: a tree that holds one reads a
# lower import time (`setup_s`) in perfbench/run.py than one that does not.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Each end-to-end and op-kind ratio is also read on this many consecutive
# blocks of ops (fewer when there are fewer ops), and the quartiles of the
# block ratios are printed beside it: the spread a claimed gain reads against.
BLOCKS = 10


def load_package(tree: Path, name: str):
    """`tree/src/discordlim` imported as the package `name`; its relative
    imports resolve inside that name, so two trees load side by side."""
    pkg_dir = tree / "src" / "discordlim"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: Path, pkg):
    """`tree/perfbench/workloads.py`, importing `pkg` as its `discordlim`."""
    aliased = {k: v for k, v in sys.modules.items() if k == pkg.__name__
               or k.startswith(pkg.__name__ + ".")}
    for k, v in aliased.items():
        sys.modules["discordlim" + k[len(pkg.__name__):]] = v
    path = tree / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for k in aliased:
        del sys.modules["discordlim" + k[len(pkg.__name__):]]
    return module


def bits(out) -> str:
    """A repr of an op's output that differs when any float's bits do."""
    if isinstance(out, (tuple, list)):
        return "(" + ",".join(bits(x) for x in out) + ")"
    return float(out).hex() if isinstance(out, (float, np.floating)) else repr(out)


def floats(out) -> list[float]:
    """The floats of an op's output, in order; other leaves are left out."""
    if isinstance(out, (tuple, list)):
        return [x for o in out for x in floats(o)]
    return [float(out)] if isinstance(out, (float, np.floating)) else []


def run(args) -> dict:
    pkgs = {"parent": load_package(args.parent.resolve(), "ab_parent"),
            "change": load_package(args.change.resolve(), "ab_change")}
    wl_mod = load_workloads(args.change.resolve(), pkgs["change"])
    workload = wl_mod.WORKLOADS[args.workload](args.seed)
    op_s = {s: [] for s in SIDES}
    kinds = []
    call_s = {s: defaultdict(list) for s in SIDES}
    identical, diffs, parent_first = [], [], []
    seen = defaultdict(int)  # ops of each kind run so far

    def timed(side):
        record = call_s[side]

        def call(name, fn, *a):
            t0 = perf_counter()
            out = fn(*a)
            record[name].append(perf_counter() - t0)
            return out
        return call

    calls = {s: timed(s) for s in SIDES}
    for side in SIDES:  # warm-up on the probe inputs, untimed
        wl_mod.dl = pkgs[side]
        for inp in type(workload)(0, probe=True).warmup_inputs():
            workload.run(lambda _name, fn, *a: fn(*a), inp)
    for i in range(args.ops):
        inp = workload.input(i)
        kind = workload.kind(inp)
        kinds.append(kind)
        parent_first.append(seen[kind] % 2 == 0)
        seen[kind] += 1
        outs = {}
        for side in (SIDES if parent_first[-1] else SIDES[::-1]):
            wl_mod.dl = pkgs[side]
            t0 = perf_counter()
            outs[side] = workload.run(calls[side], inp)
            op_s[side].append(perf_counter() - t0)
        identical.append(bits(outs["parent"]) == bits(outs["change"]))
        pairs = zip(floats(outs["parent"]), floats(outs["change"]))
        diffs.append(max((abs(p - c) for p, c in pairs), default=0.0))
    return {"op_s": op_s, "kinds": kinds, "call_s": call_s, "identical": identical,
            "diffs": diffs, "parent_first": parent_first}


def ratio_row(label: str, parent: list[float], change: list[float], scale: float) -> str:
    p, c = statistics.median(parent) * scale, statistics.median(change) * scale
    return f"{label:<44} {len(parent):>7} {p:>12.2f} {c:>12.2f} {c / p:>8.3f}"


def block_quartiles(parent: list[float], change: list[float], fn) -> str:
    """The quartiles of fn(change) / fn(parent) over up to BLOCKS
    consecutive blocks of the paired op times."""
    blocks = np.array_split(np.arange(len(parent)), min(BLOCKS, len(parent)))
    ratios = [fn([change[k] for k in b]) / fn([parent[k] for k in b]) for b in blocks]
    q1, q3 = np.percentile(ratios, [25, 75])
    return f"{q1:>6.3f} {q3:>6.3f}"


def report(res: dict, args) -> None:
    op_s, kinds = res["op_s"], res["kinds"]
    n = len(kinds)
    print(f"workload {args.workload}, seed {args.seed}, {n} ops per side, "
          f"order alternating per op kind; "
          f"outputs bit-identical in {sum(res['identical'])}/{n} ops")
    print(f"q1 and q3: quartiles of the ratio over {min(BLOCKS, n)} consecutive blocks of the"
          " ops (of each kind's ops for a kind)")
    print(f"{'end to end':<44} {'':>7} {'parent':>12} {'change':>12} {'ratio':>8}"
          f" {'q1':>6} {'q3':>6}")
    for metric, fn in (("throughput_ops_s", lambda t: len(t) / sum(t)),
                       ("latency_p50_ms", lambda t: float(np.percentile(t, 50)) * 1e3),
                       ("latency_p90_ms", lambda t: float(np.percentile(t, 90)) * 1e3)):
        p, c = fn(op_s["parent"]), fn(op_s["change"])
        print(f"{metric:<44} {'':>7} {p:>12.4g} {c:>12.4g} {c / p:>8.3f}",
              block_quartiles(op_s["parent"], op_s["change"], fn))
    wins = sum(c < p for p, c in zip(op_s["parent"], op_s["change"]))
    print(f"{'ops faster on the change side':<44} {wins:>7}/{n}")
    print(f"\n{'op kind (median us)':<44} {'ops':>7} {'parent':>12} {'change':>12} {'ratio':>8}"
          f" {'q1':>6} {'q3':>6}  share  parent-first  bit-identical  max |diff|")
    total = sum(op_s["parent"])
    for kind in sorted(set(kinds)):
        idx = [k for k, x in enumerate(kinds) if x == kind]
        sel = {s: [op_s[s][k] for k in idx] for s in SIDES}
        first = f"{sum(res['parent_first'][k] for k in idx)}/{len(idx)}"
        same = f"{sum(res['identical'][k] for k in idx)}/{len(idx)}"
        print(ratio_row(kind, sel["parent"], sel["change"], 1e6),
              block_quartiles(sel["parent"], sel["change"], statistics.median),
              f"{sum(sel['parent']) / total:>6.0%}  {first:>12}  {same:>13}"
              f"  {max(res['diffs'][k] for k in idx):>10.2g}")
    print(f"\n{'call (median us)':<44} {'calls':>7} {'parent':>12} {'change':>12} {'ratio':>8}")
    for name in sorted(res["call_s"]["parent"]):
        print(ratio_row(name, res["call_s"]["parent"][name], res["call_s"]["change"][name], 1e6))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    p.add_argument("--change", type=Path, default=ROOT, help="root of the change tree")
    p.add_argument("--workload", default="closed_form",
                   choices=("family_sweep", "random_states", "closed_form"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ops", type=int, default=6000)
    args = p.parse_args(argv)
    if args.seed < 0 or args.ops < 1:
        p.error("--seed must be >= 0 and --ops >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    res = run(args)
    try:
        report(res, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): stop quietly, with stdout on
        # devnull so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(res["identical"]) else 1


if __name__ == "__main__":
    sys.exit(main())
