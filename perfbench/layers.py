"""Per-layer metrics: span aggregation, isolated micro-timings and probes.

Span metrics are medians over the traced ops of the kind that exercises the
layer. Per-call costs are medians of repeated timings at fixed in-domain
inputs. Import costs are taken in fresh interpreters.
"""

from __future__ import annotations

import collections
import math
import statistics
import subprocess
import sys
import time
import timeit

from workloads import HENON, HENON_GUESS, run_child

REPEATS = 7
FRESH_REPEATS = 3

# per-op span totals: metric -> (op kind, span name)
SPAN_TOTALS = {
    "fixedpoint.eigen_split_s": ("theorem", "fixedpoint.eigen_split"),
    "fixedpoint.budget_s": ("theorem", "budget.estimate_budget"),
    "fixedpoint.direction_derivative_s": ("theorem", "directions.direction_field_derivative"),
    "fixedpoint.choose_epsilon_s": ("theorem", "leaf.choose_epsilon"),
    "fixedpoint.cauchy_iterate_s": ("theorem", "leaf.cauchy_iterate"),
    "fixedpoint.contraction_s": ("theorem", "leaf.contraction_check"),
    "fixedpoint.uniqueness_s": ("theorem", "leaf.uniqueness_probe"),
    "leaf.integrate_s": ("theorem", "leaf.integrate_leaf"),
    "budget.estimate_s": ("budget", "budget.estimate_budget"),
    "cocycle.build_s": ("budget", "cocycle.build_orbit_cocycle"),
    "cli.import_s": ("cli", "cli.import"),
    "cli.run_command_s": ("cli", "cli.run_command"),
    "reports.emit_json_s": ("cli", "reports.emit_json"),
    "reports.emit_leaf_csv_s": ("cli", "reports.emit_leaf_csv"),
}
# per-op span counts: metric -> (op kind, span name)
SPAN_CALLS = {
    "leaf.integrate_calls": ("theorem", "leaf.integrate_leaf"),
    "cocycle.build_calls": ("budget", "cocycle.build_orbit_cocycle"),
}
# per-op counters noted by result hooks: metric -> op kind
NOTED = {
    "leaf.rk4_steps": "theorem",
    "leaf.truncated_sides": "theorem",
    "budget.accept_ratio.k1": "budget",
    "budget.accept_ratio.kmax": "budget",
}


def span_metrics(tracer, op_kind: dict, budget_samples: int) -> dict:
    """Medians over ops of per-op span totals, counts, self times and coverage."""
    spans = tracer.spans
    child_time = collections.defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = collections.defaultdict(lambda: collections.defaultdict(float))
    calls = collections.defaultdict(collections.Counter)
    tube_self = collections.defaultdict(float)
    coverage = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        totals[op][name] += dur
        calls[op][name] += 1
        if name == "leaf.cauchy_iterate":
            tube_self[op] += dur - child_time[idx]
        if name == "op.theorem":
            coverage[op] = child_time[idx] / dur

    def med(kind, values):
        vals = [v for op, v in values.items() if op_kind.get(op) == kind]
        if not vals:
            raise RuntimeError(f"no traced {kind} op to measure")
        return statistics.median(vals)

    out = {}
    for metric, (kind, span) in SPAN_TOTALS.items():
        out[metric] = med(kind, {op: t[span] for op, t in totals.items()})
    for metric, (kind, span) in SPAN_CALLS.items():
        out[metric] = med(kind, {op: c[span] for op, c in calls.items()})
    for metric, kind in NOTED.items():
        out[metric] = med(kind, {op: c[metric] for op, c in tracer.counts.items()})
    out["leaf.tube_check_s"] = med("theorem", tube_self)
    out["fixedpoint.stage_coverage"] = med("theorem", coverage)
    out["budget.us_per_sample"] = out["budget.estimate_s"] / budget_samples * 1e6
    return out


def per_call(stmt: str, env: dict, number: int) -> float:
    """Median seconds per call of stmt over REPEATS timed batches."""
    timer = timeit.Timer(stmt, globals=env)
    timer.timeit(max(1, number // 10))
    return statistics.median(timer.repeat(REPEATS, number)) / number


def micro_timings(sl) -> dict:
    """Per-call costs at fixed in-domain inputs near the Hénon saddle."""
    from stableleaf.cocycle import singular_values
    from stableleaf.directions import contracted_theta_fast
    from stableleaf.leaf import rk4_streamline

    m = sl.make_map("henon", **HENON)
    fp = sl.eigen_split(m, sl.Point2(*HENON_GUESS))
    x, y = fp.p
    eps = 0.0125
    spacing = eps / 128

    def field(px, py, rux, ruy):
        # the order-12 unit leaf field, oriented against the previous tangent
        th, _, _ = contracted_theta_fast(m, px, py, 12)
        ux, uy = math.cos(th), math.sin(th)
        return (-ux, -uy) if ux * rux + uy * ruy < 0.0 else (ux, uy)

    th0, _, _ = contracted_theta_fast(m, x, y, 12)
    coc = sl.build_orbit_cocycle(m, fp.p, 12)
    env = {
        "m": m, "x": x, "y": y, "theta": contracted_theta_fast, "rk4": rk4_streamline,
        "field": field, "ux": math.cos(th0), "uy": math.sin(th0), "spacing": spacing,
        "sv": singular_values, "mat": coc.products[6], "rng": sl.SplitRng(7),
        "dfd": sl.direction_field_derivative, "coc": coc, "h": 1e-4,
    }
    out = {
        "maps.eval_ns": per_call("m.eval_xy(x, y)", env, 20000) * 1e9,
        "maps.jac_ns": per_call("m.jac_xy(x, y)", env, 20000) * 1e9,
        "cocycle.singular_values_ns": per_call("sv(mat)", env, 20000) * 1e9,
        "rng.point_ns": per_call("rng.point_in_box(x, y, 0.05)", env, 20000) * 1e9,
        "leaf.rk4_cell_us": per_call("rk4(field, x, y, ux, uy, 1, spacing, 4)", env, 40) * 1e6,
        "directions.field_derivative_s": per_call("dfd(m, coc, 12, h)", env, 20),
    }
    for k in (4, 8, 12, 16):
        out[f"directions.theta_us.k{k}"] = per_call(f"theta(m, x, y, {k})", env, 500) * 1e6
    return out


# scipy.spatial is imported lazily by choose_epsilon, after the library itself
_SCIPY_PROBE = (
    "import time, stableleaf.cli\n"
    "t0 = time.perf_counter()\n"
    "import scipy.spatial\n"
    "print(time.perf_counter() - t0)\n"
)


def fresh_interpreter_probes() -> dict:
    """Interpreter start-up and import costs, each in a fresh interpreter."""
    interp, scipy = [], []
    for _ in range(FRESH_REPEATS):
        t0 = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "pass"], 60.0)
        interp.append(time.perf_counter() - t0)
        code2, out = run_child([sys.executable, "-c", _SCIPY_PROBE], 60.0, stdout=subprocess.PIPE, text=True)
        if code or code2:
            raise RuntimeError("fresh-interpreter probe failed")
        scipy.append(float(out))
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_scipy_s": statistics.median(scipy),
    }
