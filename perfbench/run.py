"""stableleaf benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
NAME is one of the workloads in BENCHMARK.json, or ``all``; ``--trace both``
makes the untraced and the traced run one after the other. Every metric is
printed by name with its unit, followed by the environment. The results,
with the reason each workload was chosen, go to
.perfbench_out/results-<workload>-trace<t>.json, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--trace 0 runs the timed closed loop (one client) in a few worker processes
one after the other; each worker's set-up is one set-up sample, and all of
them must give the same warm-up fingerprint. --trace 1 runs one worker that
times each op seed once untraced and once traced, then records the
per-layer pass.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out"
# An untraced run splits its seconds over this many worker processes, one
# after the other. Op times differ between processes as well as over time on
# a shared host, so pooling several processes steadies the medians; each
# worker also gives one set-up sample.
WORKERS = 4
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail percentile
# Time metrics are scaled to a reference host speed: each op's wall time is
# multiplied by REF_CALIBRATION_S over the time of the calibration kernel run
# next to it (worker.calibrate). A shared host's speed drifts by tens of
# percent over minutes; the scaling removes most of that drift, while any
# change in the library's speed shows in full. Raw wall times are printed
# and stored too.
REF_CALIBRATION_S = 2.5e-3


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Worker:
    """A worker process whose set-up time runs from spawn to its READY line."""

    def __init__(self, workload: str, seed: int, seconds: float, mode: str, index: int = 0):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--index", str(index), "--mode", mode],
            cwd=str(ROOT), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        # a hung worker is killed, so that a run always ends
        self.watchdog = threading.Timer(seconds + 120.0, self.proc.kill)
        self.watchdog.start()

    def finish(self) -> tuple[float, dict]:
        """(set-up seconds, the worker's JSON result)."""
        try:
            ready = self.proc.stdout.readline()
            setup_s = time.perf_counter() - self.start
            rest, _ = self.proc.communicate()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if ready.strip() != "READY" or self.proc.returncode != 0:
            fail(f"worker failed (exit {self.proc.returncode})")
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND
    if i < (n - 1) / 2:
        return statistics.median(xs), f"p50 of {n} ops (fewer than {2 * TAIL_BEYOND} ops)"
    return xs[i], f"p{100 * (i + 1) / n:.0f} of {n} ops"


def time_metrics(parts, setups, scaled: bool) -> tuple[dict, str]:
    """Time metrics of a run's workers, scaled by their calibrations or unscaled."""
    def k(c):
        return REF_CALIBRATION_S / c if scaled else 1.0

    lat = [x * k(c) for p in parts for x, c in zip(p["latencies"], p["calibrations"])]
    loop_s = sum(lat) + sum(p["overhead"] * k(statistics.median(p["calibrations"])) for p in parts)
    tail_s, tail_label = tail(lat)
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "throughput_ops_s": sum(p["attempted"] for p in parts) / loop_s,
        "setup_s": statistics.median(s * k(p["setup_calibration"]) for s, p in zip(setups, parts)),
    }, tail_label


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    runs = [Worker(workload, seed, seconds / WORKERS, "run", i).finish() for i in range(WORKERS)]
    setups = [setup_s for setup_s, _ in runs]
    parts = [part for _, part in runs]
    raw, _ = time_metrics(parts, setups, scaled=False)
    scaled, tail_label = time_metrics(parts, setups, scaled=True)
    return {
        "warmup_failed_checks": sorted({c for p in parts for c in p["warmup_failed_checks"]}),
        "self_check_ok": all(p.get("self_check_ok") is True for p in parts),
        "fingerprint": parts[0].get("fingerprint"),
        "deterministic": all(p.get("fingerprint") == parts[0].get("fingerprint") for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failed_checks": dict(sum((collections.Counter(p["failed_checks"]) for p in parts),
                                  collections.Counter())),
        "errors": [e for p in parts for e in p["errors"]],
        "metrics": {**scaled, "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)},
        "raw_wall_time_metrics": raw,
        "notes": {"latency_tail_s": tail_label, "setup_s": f"median of {WORKERS} worker set-ups",
                  **{k: f"unscaled {v:.6g}" for k, v in raw.items() if k != "latency_tail_s"}},
        "parts": parts,
        "setup_samples": setups,
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    _, res = Worker(workload, seed, seconds, "trace").finish()
    res["metrics"] = {**res.pop("per_layer"), "trace.overhead_ratio": res["overhead_ratio"]}
    res["notes"] = {"trace.overhead_ratio": "traced / untraced time over the same op seeds",
                    "spans": str((OUT / f"{workload}.spans.jsonl").relative_to(ROOT))}
    return res


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "cpu": platform.processor() or platform.machine(), "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", required=True, choices=("0", "1", "both"))
    args = ap.parse_args()

    if not (ROOT / "src" / "stableleaf" / "__init__.py").is_file():
        fail(f"no stableleaf sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(why) if args.workload == "all" else [args.workload]
    if any(n not in why for n in names):
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(why)} or all")
    traces = ("0", "1") if args.trace == "both" else (args.trace,)
    env = environment()

    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            declared = spec["end_to_end" if trace == "0" else "per_layer"]
            measure = measure_untraced if trace == "0" else measure_traced
            res = measure(name, args.seed, args.seconds)
            if set(res["metrics"]) != {m["name"] for m in declared}:
                fail(f"measured metrics differ from BENCHMARK.json: "
                     f"{sorted(set(res['metrics']) ^ {m['name'] for m in declared})}")
            correct = (not res["warmup_failed_checks"] and res.get("self_check_ok") is True
                       and res["failed"] == 0 and res.get("deterministic", True))
            metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
            print(f"== {name}, seed {args.seed}, {args.seconds:g} s, trace {trace}: {why[name]}")
            for metric, v in metrics.items():
                note = res["notes"].get(metric)
                print(f"  {metric:36s} {v['value']:.6g} {v['unit']}" + (f"  ({note})" if note else ""))
            print(f"  {'fail_ratio':36s} {res['failed'] / res['attempted']:.6g}"
                  f"  ({res['failed']} of {res['attempted']} ops; failed checks {res['failed_checks']})")
            print(f"  self-check rejects corrupted results: {res.get('self_check_ok')}; "
                  f"same warm-up fingerprint in every worker: {res.get('deterministic', 'n/a')}")
            print(f"  fingerprint: {json.dumps(res.get('fingerprint'))}")
            for err in res["errors"]:
                print("  error: " + err.strip().replace("\n", "\n    "))
            (OUT / f"results-{name}-trace{trace}.json").write_text(json.dumps(
                {"workload": name, "why": why[name], "seed": args.seed, "seconds": args.seconds,
                 "trace": int(trace), "environment": env, "correct": correct, **res,
                 "metrics": metrics}, indent=1) + "\n")
            summary["correct"] = summary["correct"] and bool(correct)
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = "" if len(names) * len(traces) == 1 else f"{name}/"
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
