"""One benchmark process: set up, warm up, then run one workload's ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --index I --mode MODE

MODE is ``run`` (closed loop, one client, no tracing) or ``trace`` (each op
seed run once untraced and once traced, then the per-layer pass). Workers of
one run share the warm-up seed and draw their timed op seeds from their
index. The worker prints ``READY`` once the warm-up op is done and a JSON
result as its last line.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import layers
import tracing
from workloads import OUT, WORKLOADS, import_library, op_seeds


def timed(fn, *args, **kwargs):
    """(result or None, seconds, error text or None); op errors are output failures."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
    return result, time.perf_counter() - t0, None


class Tally:
    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.checks = collections.Counter()
        self.errors: list[str] = []

    def record(self, result, error) -> None:
        self.attempted += 1
        bad = ["exception"] if error else self.wl.check(result)
        if bad:
            self.failed += 1
            self.checks.update(bad)
        if error and len(self.errors) < 3:
            self.errors.append(error)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_checks": dict(self.checks), "errors": self.errors}


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel shaped like the library's hot loop.

    It walks 2x2 derivative products along a Hénon orbit, as the direction
    kernel does, but is the benchmark's own code, so no change to the library
    can change it. On a shared host its time follows the host's speed.
    """
    t0 = time.perf_counter()
    x, y = 0.63, 0.19
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for _ in range(3000):
        j11 = -2.8 * x
        a, b, c, d = j11 * a + c, j11 * b + d, 0.3 * a, 0.3 * b
        n = math.hypot(math.hypot(a, b), math.hypot(c, d))
        a, b, c, d = a / n, b / n, c / n, d / n
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
        if abs(x) > 2.0:
            x, y = 0.63, 0.19
    return time.perf_counter() - t0


def run_loop(wl, seeds, seconds: float) -> dict:
    """Timed closed loop; each op is bracketed by two calibration runs."""
    tally = Tally(wl)
    latencies, calibrations = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        before = calibrate()
        result, dt, error = timed(wl.run, next(seeds))
        calibrations.append(0.5 * (before + calibrate()))
        latencies.append(dt)
        tally.record(result, error)
    # loop time outside the ops and the calibrations: checks and bookkeeping
    overhead = time.perf_counter() - start - 2.0 * sum(calibrations) - sum(latencies)
    usage = resource.RUSAGE_CHILDREN if wl.kind == "cli" else resource.RUSAGE_SELF
    return {**tally.as_dict(), "latencies": latencies, "calibrations": calibrations,
            "overhead": overhead, "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}


class TracedRunner:
    """Runs ops with spans recorded; op ids index op_kind."""

    def __init__(self):
        import_library()
        self.tracer = tracing.Tracer()
        self.replacements = tracing.tracing_replacements(self.tracer)
        self.op_kind: dict[int, str] = {}

    def run(self, wl, seed):
        tracer = self.tracer
        tracer.op_id = len(self.op_kind)
        self.op_kind[tracer.op_id] = wl.kind
        if wl.kind == "cli":
            with tracer.span("op.cli") as idx:
                result = wl.run(seed, traced=True)
            tracer.merge(result.spans, idx)
            return result
        with tracing.patched(self.replacements), tracer.span("op." + wl.kind):
            result = wl.run(seed)
        if wl.kind == "budget":
            b = result[0]
            tracer.add("budget.accept_ratio.k1", b.accepted_counts[1] / b.n)
            tracer.add("budget.accept_ratio.kmax", b.accepted_counts[b.kmax] / b.n)
        return result

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.tracer.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def trace_loop(wl, seeds, seconds: float, runner: TracedRunner) -> dict:
    """Each op seed untraced and traced, alternating which goes first."""
    tally = Tally(wl)
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        seed = next(seeds)
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            fn = (lambda s: runner.run(wl, s)) if with_trace else wl.run
            result, dt, error = timed(fn, seed)
            (traced if with_trace else plain).append(dt)
            tally.record(result, error)
    return {**tally.as_dict(), "overhead_ratio": sum(traced) / sum(plain)}


def per_layer_pass(wl, seed: int, runner: TracedRunner) -> dict:
    """Counting passes, one traced op of every other kind, micro-timings and probes."""
    companions = op_seeds("companion", seed)
    others = {cls.kind: cls() for cls in WORKLOADS.values()}
    for other in others.values():
        other.setup()
    theorem, budget = others["theorem"], others["budget"]

    # the counting passes come first, so they also warm up the companion ops
    metrics = {}
    with tracing.counting(theorem.map) as (m, c):
        theorem.run(next(companions), m=m)
    metrics["maps.eval_calls.theorem"] = c["eval"].calls
    metrics["maps.jac_calls.theorem"] = c["jac"].calls
    metrics["directions.theta_calls"] = c["theta"].calls
    with tracing.counting(budget.map) as (m, c):
        budget.run(next(companions), m=m)
    metrics["maps.eval_calls.budget"] = c["eval"].calls
    metrics["maps.jac_calls.budget"] = c["jac"].calls
    metrics["budget.tube_exit_calls"] = c["tube_exit"].calls

    for kind, other in others.items():
        if kind != wl.kind:
            runner.run(other, next(companions))
    metrics.update(layers.span_metrics(runner.tracer, runner.op_kind, budget.N))
    metrics.update(layers.micro_timings(theorem.sl))
    metrics.update(layers.fresh_interpreter_probes())
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace"))
    args = ap.parse_args()

    # One CPU for the worker and its child processes, so that the calibration
    # runs on the CPU that runs the ops; the two CPUs of a shared host can
    # differ in speed at the same moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_calibrations = [calibrate()]
    wl = WORKLOADS[args.workload]()
    wl.setup()
    # every worker of a run warms up on the same seed, so their fingerprints must agree
    warm, _, error = timed(wl.run, next(op_seeds(args.workload, args.seed)))
    print("READY", flush=True)
    setup_calibrations += [calibrate() for _ in range(4)]

    out = {"warmup_failed_checks": ["exception"] if error else wl.check(warm), "errors": [],
           "setup_calibration": statistics.median(setup_calibrations)}
    if error:
        out["errors"].append(error)
    else:
        out["fingerprint"] = wl.fingerprint(warm)
        out["self_check_ok"] = all(wl.check(bad) for bad in wl.corruptions(warm))

    seeds = op_seeds(f"{args.workload}/{args.index}", args.seed)
    if args.mode == "run":
        loop = run_loop(wl, seeds, args.seconds)
    else:
        runner = TracedRunner()
        loop = trace_loop(wl, seeds, args.seconds, runner)
        loop["per_layer"] = per_layer_pass(wl, args.seed, runner)
        OUT.mkdir(parents=True, exist_ok=True)
        runner.write_spans(OUT / f"{args.workload}.spans.jsonl")
    loop["errors"] = out["errors"] + loop["errors"]
    out.update(loop)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
