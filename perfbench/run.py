"""integrable-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py) through the public API
for S seconds, one client in one process, and checks every output.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters importing integrable_lab and generating the first pass),
pass time and the request p50/p90 of a pass (medians over passes, scaled
to a reference host speed by calibrate.py), and peak RSS.
--trace 1 alternates untraced and traced passes over the same inputs and
reports the per-module metrics, the GC figures and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from calibrate import Calibration
from tracer import GcMonitor, Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 11

# Traced self times reported per module, by span name.
SELF_TIMES = [
    "graded.mul", "graded.compose", "graded.add", "graded.eq",
    "lattice.periodic_transfer", "lattice.open_transfer",
    "baxter_q.ar_project_check", "baxter_q.build_qmatrix",
    "baxter_q.trace_qmatrix", "baxter_q.tq_check",
    "hall_littlewood.hl_R", "hall_littlewood.skew_P",
    "partitions.basis",
    "vertex_ops.build_gamma", "vertex_ops.gamma_commutation_check",
    "gaudin.gaudin_sum", "bethe.bethe_solve", "cli.main",
]
CLI_COMMANDS = ["eval", "matrix", "verify"]


def quantile(values, q):
    """Inclusive-method quantile (q in 0..1) of a non-empty sample."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def count_changed(results, digests):
    """Reports whose digest differs from (or is missing in) the record."""
    return sum(1 for r in results for key, seed, digest in r.reports
               if digests.get(key, {}).get(str(seed)) != digest)


def probe_setup(workload, seed):
    """Seconds a fresh interpreter takes to import integrable_lab and
    generate the first pass's inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def setup_probe(workload, seed):
    start = time.perf_counter()
    lab = workloads.load_lab()
    workloads.make_pass(lab, workload, seed, 0)
    print(repr(time.perf_counter() - start))


def run_untraced(lab, workload, seed, seconds, calibration=None, setup_samples=None):
    """Passes for `seconds`.  With a list in `setup_samples`, set-up probes
    run before the first passes (and after the last, to make up
    SETUP_REPEATS), spreading them over the run; their time is not counted
    in `seconds`.  Set-up times are not scaled to the host speed: a busy
    neighbour that slows the reference kernel by half leaves them as they
    are (see NOTES.md)."""
    results = []
    probing = 0.0

    def probe():
        nonlocal probing
        started = time.perf_counter()
        setup_samples.append(probe_setup(workload, seed))
        probing += time.perf_counter() - started

    start = time.perf_counter()
    while not results or time.perf_counter() - start - probing < seconds:
        while setup_samples is not None and len(setup_samples) < SETUP_REPEATS \
                and len(setup_samples) < 3 * (len(results) + 1):
            probe()
        ops = workloads.make_pass(lab, workload, seed, len(results))
        results.append(workloads.run_pass(lab, ops, calibration))
    while setup_samples is not None and len(setup_samples) < SETUP_REPEATS:
        probe()
    return results


def run_traced(lab, workload, seed, seconds):
    """Pairs of (untraced, traced) passes over the same inputs."""
    plain, traced, summaries = [], [], []
    gc_monitor = GcMonitor()
    calibration = Calibration()  # host-speed scales for the overhead only
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        ops = workloads.make_pass(lab, workload, seed, len(plain))
        with gc_monitor.watching():
            plain.append(workloads.run_pass(lab, ops, calibration))
        result = workloads.PassResult()
        tracer = Tracer()
        with tracer.installed(), tracer.root():
            outputs = workloads.call_pass(lab, ops, result, calibration)
        workloads.check_pass(lab, ops, outputs, result)
        traced.append(result)
        summaries.append(tracer)
    return plain, traced, summaries, gc_monitor


def pass_timings(results, scaled):
    """Median over passes of the pass time and of its request percentiles."""
    walls, p50s, p90s = [], [], []
    for r in results:
        latencies = [dt * scale if scaled else dt for _, dt, scale in r.latencies]
        walls.append(sum(latencies))
        p50s.append(quantile(latencies, 0.5))
        p90s.append(quantile(latencies, 0.9))
    return statistics.median(walls), statistics.median(p50s), statistics.median(p90s)


def end_to_end_metrics(results, setup_samples):
    """Pass timings are scaled to the reference host speed (see calibrate.py)."""
    wall, p50, p90 = pass_timings(results, scaled=True)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "request_p50_ms": (1e3 * p50, "ms"),
        "request_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_timings(results):
    """The pass timings unscaled, as printed context."""
    wall, p50, p90 = pass_timings(results, scaled=False)
    return {
        "raw.wall_s": (wall, "s"),
        "raw.request_p50_ms": (1e3 * p50, "ms"),
        "raw.request_p90_ms": (1e3 * p90, "ms"),
    }


def suite_names():
    return sorted({name for suites in workloads.SUITE_WORKLOADS.values()
                   for name, _ in suites})


def per_layer_metrics(plain, traced, tracers, gc_monitor):
    n = len(tracers)
    selfs, sums, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    spans, totals = defaultdict(float), defaultdict(float)
    distinct = 0
    for tracer in tracers:
        for name, (self_s, total_s, calls) in tracer.self_times().items():
            selfs[name] += self_s
            totals[name] += total_s
            spans[name] += calls
        for name, value in tracer.sums.items():
            sums[name] += value
        for name, value in tracer.counts.items():
            counts[name] += value
        distinct += len(tracer.tbinom_args)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["graded.entry.calls"] = (counts["graded.entry"] / n, "count")
    m["graded.add_to.calls"] = (counts["graded.add_to"] / n, "count")
    m["graded.mul.calls"] = (spans["graded.mul"] / n, "count")
    m["graded.mul.nnz_out"] = (sums["graded.mul.nnz_out"] / n, "count")
    m["lattice.toda_monodromy.total_s"] = (totals["lattice.toda_monodromy"] / n, "s")
    m["lattice.toda_monodromy.window_states"] = (
        sums["lattice.toda_monodromy.window_states"] / n, "count")
    m["baxter_q.ar_project.useful_ratio"] = (ratio(
        sums["baxter_q.ar_project.asserted_columns"],
        sums["baxter_q.ar_project.window_states"]), "ratio")
    for name in ("tbinom", "tfact", "tpoch"):
        calls = counts if name == "tbinom" else spans
        m[f"scalars.{name}.calls"] = (calls[f"scalars.{name}"] / n, "count")
    m["scalars.self_s"] = ((selfs["scalars.tfact"] + selfs["scalars.tpoch"]) / n, "s")
    m["scalars.tbinom.distinct_ratio"] = (ratio(distinct, counts["scalars.tbinom"]), "ratio")
    m["hall_littlewood.hl_R.calls"] = (spans["hall_littlewood.hl_R"] / n, "count")
    m["partitions.basis.calls"] = (spans["partitions.basis"] / n, "count")
    m["partitions.basis.states"] = (sums["partitions.basis.states"] / n, "count")
    m["gaudin.gaudin_sum.terms"] = (counts["gaudin.gaudin_sum.terms"] / n, "count")
    m["bethe.bethe_vector.calls"] = (counts["bethe.bethe_vector"] / n, "count")
    m["bethe.bethe_solve.roots_per_seed"] = (ratio(
        sums["bethe.bethe_solve.roots"], sums["bethe.bethe_solve.seeds"]), "ratio")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (selfs[name] / n, "s")

    # whole-call timings come from the untraced passes
    by_label = defaultdict(list)
    for r in plain:
        for label, dt, _ in r.latencies:
            by_label[label].append(dt)
    for suite in suite_names():
        values = by_label.get(suite)
        m[f"suites.{suite}.wall_s"] = (statistics.median(values) if values else 0.0, "s")
    for command in CLI_COMMANDS:
        values = by_label.get(command)
        m[f"cli.{command}.p50_ms"] = (1e3 * quantile(values, 0.5) if values else 0.0, "ms")
    m["runtime.gc_pause_s"] = (gc_monitor.pause_s / len(plain), "s")
    m["runtime.gc_gen2_collections"] = (gc_monitor.gen2 / len(plain), "count")
    m["trace.overhead_s"] = (statistics.median(
        pass_timings([t], scaled=True)[0] - pass_timings([p], scaled=True)[0]
        for p, t in zip(plain, traced)), "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    lab = workloads.load_lab()
    digests = load_digests()
    if args.trace:
        plain, traced, tracers, gc_monitor = run_traced(lab, args.workload, args.seed,
                                                        args.seconds)
        results = plain + traced
        metrics = per_layer_metrics(plain, traced, tracers, gc_monitor)
        context = {}
        passes = f"{len(plain)} untraced + {len(traced)} traced passes"
    else:
        setup_samples = []
        calibration = Calibration()
        results = run_untraced(lab, args.workload, args.seed, args.seconds, calibration,
                               setup_samples)
        metrics = end_to_end_metrics(results, setup_samples)
        context = raw_timings(results)
        context["raw.host_kernel_ms"] = (1e3 * statistics.median(calibration.samples), "ms")
        passes = (f"{len(results)} passes, "
                  f"{sum(len(r.latencies) for r in results)} requests, "
                  f"{len(setup_samples)} set-ups")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    changed = count_changed(results, digests)
    if args.trace:
        metrics["suites.reports_changed"] = (changed, "count")
    else:
        context["suites.reports_changed"] = (changed, "count")
    context["failed_frac"] = (failed / max(attempted, 1), "ratio")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {passes}; "
          f"{failed} of {attempted} operations failed")
    for name, (value, unit) in {**metrics, **context}.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for r in results:
        for problem in r.problems:
            print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
