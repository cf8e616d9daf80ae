"""Layered benchmark of torsal: four workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; torsal is imported from its ``src/``.
Workloads (see workloads.py for why each exists): cold-start,
cli-session, expand, eliminate. Each is a closed loop with one client.

--trace 0 times the workload and prints the end-to-end metrics:
    ops_per_s    successful operations per second of time spent in operations
    op_ms_p50    median time of an attempted operation
    op_ms_tail   the highest of p75/p90/p95 with at least ten samples beyond
                 it in a run of the standard length, fixed per workload (the
                 report line names it and the count beyond); p99 is left
                 out because on a shared machine the top 1% of a run is
                 mostly other tenants' interference, not torsal
    setup_s      median over SETUP_PROBES fresh processes of import, input
                 generation and warm-up
    peak_rss_mb  peak resident memory of the benchmark process (of the
                 torsal child processes for cold-start)
--trace 1 runs the workload untraced for half the time and traced for
the other half, and prints the per-layer metrics (tracing.py); the spans
go to perfbench/out/.

Garbage collection is off inside a cycle and runs between cycles, as in
timeit, so a collection's cost does not land in whichever operation
happens to trigger it. Times are scaled by the yardstick of calibrate.py;
the report line keeps the unscaled figures.

Every operation's result is checked against an independent reference.
``attempted`` counts operations; ``failed`` counts those that raised,
crashed or gave a wrong result, so error_rate = failed / attempted.
``correct`` is false when an operation that completed gave a wrong
result; a raised exception is a failure, not a wrong result. The last
line of stdout is the JSON result; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import Yardstick
from checkout import ROOT, CheckoutError, child_env, import_torsal

OUT_DIR = Path(__file__).with_name("out")
CHILD = Path(__file__).with_name("child.py")
SETUP_PROBES = 9
IMPORT_PROBES = 7
TAIL_LADDER = (95, 90, 75)
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunStats:
    """Durations and outcomes of the operations of one measured stretch.

    ``raw`` holds wall-clock durations; ``durations`` the same scaled by
    the yardstick (calibrate.py), which is what the metrics use.
    """

    def __init__(self):
        self.raw = []
        self.durations = []
        self.scales = []
        self.failed = 0
        self.wrong = 0
        self.failures = Counter()
        self.checks_run = Counter()

    def record(self, seconds: float, scale: float, verdict, checked_kind=None) -> None:
        self.raw.append(seconds)
        self.scales.append(scale)
        self.durations.append(seconds * scale)
        if checked_kind is not None:
            self.checks_run[checked_kind] += 1
        if verdict is not None:
            kind, reason = verdict
            self.failed += 1
            self.wrong += kind == "wrong"
            self.failures[reason] += 1

    def extend(self, other: "RunStats") -> None:
        for name in ("raw", "durations", "scales"):
            getattr(self, name).extend(getattr(other, name))
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures += other.failures
        self.checks_run += other.checks_run

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def ops_per_s(self, durations=None) -> float:
        return (self.attempted - self.failed) / sum(durations or self.durations)


def measure(workload, seconds: float) -> RunStats:
    """Whole cycles of the workload until ``seconds`` of wall time have passed."""
    yardstick = workload.yardstick()
    timed = []  # (start, seconds, verdict, checked kind)
    start = perf_counter()
    index = 0
    gc.disable()
    while index == 0 or perf_counter() - start < seconds:
        gc.collect()
        for op in workload.cycle(index):
            if yardstick.due():
                yardstick.sample()
            began = perf_counter()
            try:
                result = op.run()
            except Exception as exc:
                timed.append((began, perf_counter() - began,
                              ("failed", f"{op.kind}: {type(exc).__name__}"), None))
                continue
            elapsed = perf_counter() - began
            try:
                verdict = op.check(result)
            except Exception as exc:
                verdict = ("wrong", f"{op.kind}: check raised {type(exc).__name__}")
            timed.append((began, elapsed, verdict, op.kind))
        index += 1
    gc.enable()
    yardstick.sample()
    stats = RunStats()
    for began, elapsed, verdict, kind in timed:
        stats.record(elapsed, yardstick.scale_at(began + elapsed / 2), verdict, kind)
    return stats


def tail(durations, highest: float):
    """(percentile, value, samples beyond) for the tail metric.

    The highest ladder percentile, up to the workload's ``highest``, with at
    least ten samples beyond it. ``highest`` is fixed per workload so that
    runs of the standard length all report the same percentile.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for pct in (p for p in TAIL_LADDER if p <= highest):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)  # too few samples: report the median as the tail
    return 50, ordered[rank - 1], n - rank


def process_seconds(argv: list, count: int) -> list:
    """Scaled wall times of ``count`` runs of a child process, each between
    two yardstick samples."""
    yardstick = Yardstick.small()
    yardstick.sample()
    samples = []
    for _ in range(count):
        began = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        took = perf_counter() - began
        yardstick.sample()
        samples.append(took * yardstick.scale_at(began + took / 2))
    return samples


def import_ms() -> tuple:
    """Median cold ``python -c pass`` and median extra for ``import torsal.cli``."""
    bare = statistics.median(process_seconds([sys.executable, "-c", "pass"], IMPORT_PROBES))
    cli = statistics.median(
        process_seconds([sys.executable, "-c", "import torsal.cli"], IMPORT_PROBES))
    return bare * 1000, (cli - bare) * 1000


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(torsal, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "kernel_backend": torsal.kernel_backend(),
        "torsal_version": torsal.__version__,
        "torsal_file": str(Path(torsal.__file__).resolve().relative_to(ROOT)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def run_untraced(workload, args) -> tuple:
    stats = measure(workload, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cold-start" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    setups = process_seconds(
        [sys.executable, str(CHILD), "setup", args.workload, str(args.seed)], SETUP_PROBES)
    pct, tail_s, beyond = tail(stats.durations, workload.TAIL_PERCENTILE)
    metrics = {
        "ops_per_s": stats.ops_per_s(),
        "op_ms_p50": statistics.median(stats.durations) * 1000,
        "op_ms_tail": tail_s * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    report = {
        "op_ms_tail_percentile": pct,
        "op_ms_tail_samples_beyond": beyond,
        "setup_s_samples": setups,
        "unscaled": {
            "ops_per_s": stats.ops_per_s(stats.raw),
            "op_ms_p50": statistics.median(stats.raw) * 1000,
            "yardstick_scale_median": statistics.median(stats.scales),
        },
    }
    if args.workload == "cold-start":  # the floor under every operation
        report["python_c_pass_ms"] = statistics.median(
            process_seconds([sys.executable, "-c", "pass"], IMPORT_PROBES)) * 1000
    return stats, metrics, END_TO_END, report


def run_traced(workload, args) -> tuple:
    from tracing import LAYER_METRICS, ChildTraces, Tracer, layer_values

    half = args.seconds / 2
    untraced = measure(workload, half)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    if args.workload == "cold-start":
        children = ChildTraces(OUT_DIR)
        workload.trace_children(children)
        traced = measure(workload, half)
        summary, rows = children.summary, children.rows
    else:
        with tracer:
            traced = measure(workload, half)
        summary = tracer.summary()
        rows = ((0, *row) for row in tracer.span_rows())
    spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("process\tindex\tparent\tname\tstart_s\tend_s\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")
    interpreter_ms, cli_import_ms = import_ms()
    metrics = layer_values(summary, traced.attempted)
    scale = statistics.median(traced.scales)
    for name, unit in LAYER_METRICS.items():
        if unit in ("ms", "ms/op") and name in metrics:
            metrics[name] *= scale
    metrics["import.interpreter_ms"] = interpreter_ms
    metrics["import.torsal_cli_ms"] = cli_import_ms
    metrics["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
    metrics["trace.overhead_share"] = metrics["trace.overhead_ops_per_s"] / untraced.ops_per_s()
    stats = RunStats()
    stats.extend(untraced)
    stats.extend(traced)
    report = {
        "untraced_ops_per_s": untraced.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "traced_ops": traced.attempted,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return stats, {name: metrics[name] for name in LAYER_METRICS}, LAYER_METRICS, report


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        torsal = import_torsal()
        workload = WORKLOADS[args.workload](args.seed)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for op in workload.warmup():
        try:
            op.run()
        except Exception:  # warm-up only; the timed run counts failures
            pass

    run = run_traced if args.trace else run_untraced
    stats, metrics, units, report = run(workload, args)

    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:32s} {value:16.6f} {units[name]}")
    print(f"{args.workload:12s} {'error_rate':32s} {stats.failed / stats.attempted:16.6f} share")
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(torsal, args.seed),
        "error_rate": stats.failed / stats.attempted,
        "failures": dict(stats.failures),
        "checks_run": dict(stats.checks_run),
        **report,
    }))
    print(json.dumps({
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
