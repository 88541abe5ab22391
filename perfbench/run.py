"""Benchmark for discordlim.

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 25 --trace 0

Runs one workload (family_sweep, random_states or closed_form) in this
process as a closed loop with one client, checks every op's outputs, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from a traced pass. Results,
and the spans of a traced pass, are also written under perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import os

# The matrices are 2x2 to 32x32: one BLAS thread, set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibration import REFERENCE_S, calibration  # noqa: E402
from tracing import (  # noqa: E402
    EIG_CALLS, EIG_MATRICES, EIG_S, END, NAME, OP_ID, SPAN_FIELDS, START, Tracer, root_names,
    self_times, untraced_call,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# p90 is reported only with >= 10 samples beyond it, so the end-to-end
# metrics cover at least 100 ops; the deterministic counters are read over
# ops 0-99.
MIN_OPS = 100
SETUP_RUNS = 5
# The child calibrates itself after the timed part; argv[1] is BENCH_DIR.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import discordlim as dl\n"
    "dl.classical_correlation(dl.example_state(0.39269908169872414))\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calibration import calibration\n"
    "print(t, calibration())\n"
)
MAX_MESSAGES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("family_sweep", "random_states", "closed_form"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh processes, one at a time: `import discordlim` plus the first
    classical_correlation call, timed inside the child, which then runs a
    calibration. Returns the child times and their calibrations."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, calibrations = [], []
    for _ in range(SETUP_RUNS):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH_DIR)], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        t, cal = res.stdout.split()[-2:]
        times.append(float(t))
        calibrations.append(float(cal))
    return times, calibrations


def scaled_setup(times: list[float], calibrations: list[float]) -> float:
    """Median set-up time at the reference machine speed. The median
    absorbs the first child of a new checkout, which also compiles
    bytecode."""
    return statistics.median(t * REFERENCE_S / cal for t, cal in zip(times, calibrations))


class Run:
    """One closed loop over a workload's ops, with the checks and counts."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.call = tracer.call if tracer else untraced_call
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.loop_s = 0.0
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.accuracy: dict[str, float] = {}

    def _in_span(self, op_id, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        self.tracer.op_id = op_id
        return self.tracer.call(name, fn, *args)

    def op(self, op_id, inp, wl=None):
        """Run one op; returns (output or None on error, error text, seconds)."""
        wl = wl or self.wl
        start = perf_counter()
        try:
            out, err = self._in_span(op_id, "op." + wl.kind(inp), wl.run, self.call, inp), None
        except Exception:  # an op that raises is a failed op; the loop goes on
            out, err = None, traceback.format_exc(limit=3)
        return out, err, perf_counter() - start

    def check(self, op_id, inp, out, err, record_accuracy, wl=None):
        wl = wl or self.wl
        self.attempted += 1
        acc = {}
        if err is None:
            try:
                fails, acc = self._in_span(op_id, "check." + wl.kind(inp), wl.check,
                                           self.call, inp, out)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
        else:
            fails = [err]
        if fails:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"op {op_id} ({wl.kind(inp)}): {'; '.join(fails)}")
        if record_accuracy:
            for key, value in acc.items():
                self.accuracy[key] = max(self.accuracy.get(key, float("-inf")), value)

    def closed_loop(self, seconds: float):
        """The next op starts when the previous one ends. Inputs are made,
        and outputs checked, a batch at a time outside the timed time, and
        a calibration runs before the first batch and after each one. Runs
        whole batches until the op time reaches `seconds` and at least
        MIN_OPS ops are done."""
        i, n = 0, self.wl.batch
        self.calibrations.append(calibration())
        while self.loop_s < seconds or i < MIN_OPS:
            batch = [(i + k, self.wl.input(i + k)) for k in range(n)]
            done = []
            t_batch = perf_counter()
            for op_id, inp in batch:
                out, err, dt = self.op(op_id, inp)
                self.latencies.append(dt)
                self.kinds.append(self.wl.kind(inp))
                done.append((op_id, inp, out, err))
            self.loop_s += perf_counter() - t_batch
            self.calibrations.append(calibration())
            i += n
            for op_id, inp, out, err in done:
                self.check(op_id, inp, out, err, op_id < MIN_OPS)

    def scaled_latencies(self) -> list[float]:
        """Each op's time at the reference machine speed (calibration.py)."""
        n = self.wl.batch
        return [t * 2 * REFERENCE_S / (self.calibrations[k // n] + self.calibrations[k // n + 1])
                for k, t in enumerate(self.latencies)]

    def warm_up(self):
        """Let lazy imports and caches settle, on the fixed probe inputs,
        which are drawn apart from the workload's sequence."""
        for inp in type(self.wl)(0, probe=True).warmup_inputs():
            self.wl.run(untraced_call, inp)

    def kind_stats(self) -> dict:
        total = sum(self.latencies)
        stats = {}
        for kind in sorted(set(self.kinds)):
            lat = [t for t, k in zip(self.latencies, self.kinds) if k == kind]
            stats[kind] = {"ops": len(lat), "median_ms": statistics.median(lat) * 1e3,
                           "share_of_op_time": sum(lat) / total}
        return stats


def latency_figures(latencies: list[float]) -> dict:
    p50, p90 = np.percentile(np.array(latencies) * 1e3, [50, 90])
    return {"ops": len(latencies), "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": float(p50), "latency_p90_ms": float(p90)}


def end_to_end_metrics(scaled: dict, setup_s: float) -> dict:
    return {
        "throughput_ops_s": (scaled["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
        "latency_p90_ms": (scaled["latency_p90_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer metric -> (span name, scale, unit): median seconds per call.
CALL_MEDIANS = {
    "correlations.classical_correlation_ms": ("correlations.classical_correlation", 1e3, "ms"),
    "correlations.accessible_information_us": ("correlations.accessible_information", 1e6, "us"),
    "correlations.mutual_information_ms": ("correlations.mutual_information", 1e3, "ms"),
    "koashi_winter.classical_correlation_kw_ms":
        ("koashi_winter.classical_correlation_kw", 1e3, "ms"),
    "protocols.cloning_recipient_info_ms": ("protocols.cloning_recipient_info", 1e3, "ms"),
    "protocols.apply_broadcast_ms": ("protocols.apply_broadcast", 1e3, "ms"),
    "protocols.recipient_infos_ms": ("protocols.recipient_infos", 1e3, "ms"),
    "protocols.locc_transfer_info_ms": ("protocols.locc_transfer_info", 1e3, "ms"),
    "protocols.find_crossover_ms": ("protocols.find_crossover", 1e3, "ms"),
    "linalg.density_matrix_us": ("linalg.DensityMatrix", 1e6, "us"),
    "linalg.partial_trace_us": ("linalg.partial_trace", 1e6, "us"),
}
# Per-call eigensolver counts on fixed probe inputs: metric -> (probe op, span).
PROBE_EIG_CALLS = {
    "classical_correlation": ("probe.family_sweep.0", "correlations.classical_correlation"),
    "classical_correlation_kw": ("probe.family_sweep.0", "koashi_winter.classical_correlation_kw"),
    "cloning_recipient_info": ("probe.family_sweep.0", "protocols.cloning_recipient_info"),
    "find_crossover": ("probe.closed_form.4", "protocols.find_crossover"),
    "density_matrix": ("probe.closed_form.1", "linalg.DensityMatrix"),
}
LAYERS = ("correlations", "koashi_winter", "protocols", "linalg")


def per_layer_metrics(tracer, run: Run, overhead_pct: float) -> dict:
    """A metric whose calls never ran, because an earlier call of the op
    raised, reads NaN; the run then has failed ops."""
    nan = float("nan")
    spans = tracer.spans
    metrics = {}
    for metric, (name, scale, unit) in CALL_MEDIANS.items():
        durations = [s[END] - s[START] for s in spans if s[NAME] == name]
        metrics[metric] = (statistics.median(durations) * scale if durations else nan, unit)

    ops = [s for s in spans if s[NAME].startswith("op.")]
    counted = [s for s in ops if isinstance(s[OP_ID], int) and s[OP_ID] < MIN_OPS]
    metrics["numpy.eig_calls"] = (sum(s[EIG_CALLS] for s in counted) / len(counted), "count")
    metrics["numpy.eig_matrices"] = (sum(s[EIG_MATRICES] for s in counted) / len(counted),
                                     "count")
    for fn, (op_id, name) in PROBE_EIG_CALLS.items():
        rec = next((s for s in spans if s[OP_ID] == op_id and s[NAME] == name), None)
        metrics[f"numpy.eig_calls.{fn}"] = (rec[EIG_CALLS] if rec else nan, "count")
        if fn == "classical_correlation":
            metrics[f"numpy.eig_matrices.{fn}"] = (rec[EIG_MATRICES] if rec else nan, "count")

    metrics["correlations.kw_gap_max_bits"] = (run.accuracy.get("kw_gap", nan), "bits")
    metrics["correlations.sample_excess_max_bits"] = (run.accuracy.get("sample_excess", nan),
                                                      "bits")

    selfs = self_times(spans)
    roots = root_names(spans)
    for layer in LAYERS:
        total = sum(t for s, t, r in zip(spans, selfs, roots)
                    if r.startswith("op.") and s[NAME].split(".")[0] == layer)
        metrics[f"{layer}.self_ms_per_op"] = (total * 1e3 / len(ops), "ms")
    metrics["numpy.eig_ms_per_op"] = (sum(s[EIG_S] for s in ops) * 1e3 / len(ops), "ms")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def traced_run(workloads: dict, args):
    """Traced pass, then the fixed probe ops of all three workloads, then the
    tracing overhead."""
    wl = workloads[args.workload](args.seed)
    tracer = Tracer()
    run = Run(wl, tracer)
    run.warm_up()
    with tracer.counting_eigensolvers():
        run.closed_loop(args.seconds)
        for probe_cls in workloads.values():
            probe = probe_cls(0, probe=True)
            for k, inp in enumerate(probe.probe_inputs()):
                op_id = f"probe.{probe.name}.{k}"
                out, err, _ = run.op(op_id, inp, probe)
                run.check(op_id, inp, out, err, True, probe)

    # Ops covering about a sixteenth of the traced op time.
    n, traced_s = 0, 0.0
    while n < len(run.latencies) and (n < 10 or traced_s < args.seconds / 16):
        traced_s += run.latencies[n]
        n += 1
    return run, per_layer_metrics(tracer, run, tracing_overhead_pct(wl, n)), tracer


def tracing_overhead_pct(wl, n: int) -> float:
    """Ops 0..n-1 once more, each untraced and traced back to back, in
    alternating order, so that drift in the machine's speed cancels. The
    spans go to a tracer of their own and are dropped."""
    plain, traced = Run(wl), Run(wl, Tracer())
    plain_s = traced_s = 0.0
    for i in range(n):
        inp = wl.input(i)
        for use_trace in ((True, False) if i % 2 else (False, True)):
            if use_trace:
                with traced.tracer.counting_eigensolvers():
                    traced_s += traced.op(i, inp)[2]
            else:
                plain_s += plain.op(i, inp)[2]
    return 100.0 * (traced_s - plain_s) / plain_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discordlim" / "__init__.py").is_file():
        print(f"error: discordlim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times, setup_calibrations = measure_setup() if args.trace == 0 else ([], [])

    from workloads import WORKLOADS  # imports discordlim from SRC
    tracer = None
    if args.trace:
        run, metrics, tracer = traced_run(WORKLOADS, args)
    else:
        run = Run(WORKLOADS[args.workload](args.seed))
        run.warm_up()
        run.closed_loop(args.seconds)
    figures = {"scaled": latency_figures(run.scaled_latencies()),
               "unscaled": latency_figures(run.latencies)}
    if not args.trace:
        metrics = end_to_end_metrics(figures["scaled"],
                                     scaled_setup(setup_times, setup_calibrations))

    env = environment()
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, latency_samples=len(run.latencies),
                  timed_op_s=run.loop_s, batch_ops=run.wl.batch, figures=figures,
                  calibration_s=run.calibrations,
                  setup_runs_s=setup_times, setup_calibration_s=setup_calibrations,
                  kinds=run.kind_stats(),
                  accuracy=run.accuracy, failures=run.messages, result=result)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env))
    print(f"ops attempted={run.attempted} failed={run.failed} "
          f"latency_samples={len(run.latencies)} timed_op_s={run.loop_s:.3f}")
    for kind, st in record["kinds"].items():
        print(f"  kind {kind}: {st['ops']} ops, unscaled median {st['median_ms']:.3f} ms, "
              f"{100 * st['share_of_op_time']:.1f}% of op time")
    for name, fig in figures.items():
        print(f"  {name}: {fig['ops']} ops, "
              f"{fig['throughput_ops_s']:.4g} ops/s, p50 {fig['latency_p50_ms']:.4g} ms, "
              f"p90 {fig['latency_p90_ms']:.4g} ms")
    for msg in run.messages:
        print("  FAILED " + msg.replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
