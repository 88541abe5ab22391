"""End-to-end wall times of the discordlim CLI, parent tree against change tree.

    python3 tools/e2e_times.py --parent ../parent
    python3 tools/e2e_times.py --parent ../parent --change . --repeats 20 --json times.json

Each command runs in a fresh `python3` process with `PYTHONPATH` set to
one tree's `src`, so every time includes interpreter start-up and the
imports. The commands are the north star's end-to-end ones: `import
discordlim`, `point`, `crossover`, `sweep --steps 200`, `verify
--samples 100`, and the Tier-1 suite (`pytest -q -p no:cacheprovider`,
run in the tree's root). Every command runs once per tree untimed first,
which also writes the bytecode cache where the environment allows it;
then the timed rounds alternate the trees, the parent first in even
rounds and the change first in odd ones. The script prints, per command,
the median and quartiles of each tree's wall times, the ratio of the
medians (change / parent), and whether the two trees wrote the same
bytes (stdout, and the sweep's CSV) in every run; for Tier-1, whose
output carries timings and test counts, whether they exited with the
same code. Any other child that exits non-zero stops the script.

It changes nothing in either tree beyond Python's own bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLI = [sys.executable, "-m", "discordlim"]
TIER1 = "tier-1 pytest"
# (name, argv); "{out}" is replaced by a per-run CSV path.
COMMANDS = (
    ("import discordlim", [sys.executable, "-c", "import discordlim"]),
    ("point", CLI + ["point", "--theta", "0.125", "--in-pi"]),
    ("crossover", CLI + ["crossover"]),
    ("sweep --steps 200", CLI + ["sweep", "--theta-min", "0", "--theta-max", "0.25", "--in-pi",
                                 "--steps", "200", "--out", "{out}"]),
    ("verify --samples 100", CLI + ["verify", "--samples", "100"]),
    (TIER1, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]),
)


def run_once(tree: Path, name: str, argv: list[str], out: Path) -> tuple[float, bytes]:
    """One fresh-process run of argv on `tree`: (wall seconds, the bytes
    it wrote, stdout then the CSV if any), or for Tier-1, run in the
    tree's root, (wall seconds, its exit code as bytes)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out.unlink(missing_ok=True)
    argv = [str(out) if a == "{out}" else a for a in argv]
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, cwd=tree)
    wall = perf_counter() - t0
    if name == TIER1:
        return wall, str(proc.returncode).encode()
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} on {tree} exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace')[-500:]}")
    return wall, proc.stdout + (out.read_bytes() if out.exists() else b"")


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "quartiles_s": [q1, q3], "runs_s": times}


def measure(trees: dict[str, Path], repeats: int) -> dict:
    times = {name: {s: [] for s in SIDES} for name, _ in COMMANDS}
    same = {name: True for name, _ in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for name, argv in COMMANDS:  # untimed warm-up
            for side in SIDES:
                run_once(trees[side], name, argv, out)
        for k in range(repeats):
            for name, argv in COMMANDS:
                written = {}
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    wall, written[side] = run_once(trees[side], name, argv, out)
                    times[name][side].append(wall)
                same[name] &= written["parent"] == written["change"]
    rows = {}
    for name, by_side in times.items():
        row = rows[name] = {s: summary(by_side[s]) for s in SIDES}
        row["median_ratio"] = row["change"]["median_s"] / row["parent"]["median_s"]
        row["same_output"] = same[name]
    return {"repeats": repeats, "commands": rows}


def report(res: dict) -> None:
    print(f"fresh-process wall time (s), {res['repeats']} runs per tree, order alternating")
    print(f"{'command':<22} {'parent median [q1, q3]':>26} {'change median [q1, q3]':>26}"
          f" {'ratio':>7}  same output")
    for name, row in res["commands"].items():
        cells = [f"{row[s]['median_s']:.3f} [{row[s]['quartiles_s'][0]:.3f}, "
                 f"{row[s]['quartiles_s'][1]:.3f}]" for s in SIDES]
        print(f"{name:<22} {cells[0]:>26} {cells[1]:>26} {row['median_ratio']:>7.3f}"
              f"  {'yes' if row['same_output'] else 'NO'}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    p.add_argument("--change", type=Path, default=ROOT, help="root of the change tree")
    p.add_argument("--repeats", type=int, default=10, help="timed runs per command and tree")
    p.add_argument("--json", type=Path, help="also write the results, every run's time included")
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be >= 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    res = measure({"parent": args.parent.resolve(), "change": args.change.resolve()}, args.repeats)
    report(res)
    if args.json:
        args.json.write_text(json.dumps(res, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
