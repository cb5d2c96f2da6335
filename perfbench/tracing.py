"""Span recording and call counting from outside the library.

A traced op swaps wrappers in for stage- and layer-level functions in every
loaded ``stableleaf`` module that holds them, and puts the originals back when
the op ends. Each wrapper records a span (name, start, end, parent, op id).
Spans stay in memory until the benchmark writes them out at the end.

Per-point hot calls (``eval_xy``, ``jac_xy``, ``contracted_theta_fast``,
``first_tube_exit``) are never wrapped in a timed or traced op: a wrapper on
them costs about as much as the call itself. They are counted in a separate,
untimed pass with ``counting`` instead.
"""

from __future__ import annotations

import collections
import dataclasses
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op id)
        self.counts = collections.defaultdict(collections.Counter)  # op id -> Counter
        self.op_id = None
        self._stack: list[int] = []

    def _call(self, name, fn, args, kwargs, on_result=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)
        if on_result is not None:
            on_result(self, result)
        return result

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code; yields its index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.op_id)

    def wrap(self, fn, name, on_result=None):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, on_result)

        return traced

    def add(self, key, value):
        self.counts[self.op_id][key] += value

    def merge(self, spans, parent):
        """Append spans recorded by a child process under span index parent."""
        base = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append((name, start, end, parent if p is None else base + p, self.op_id))


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "stableleaf" or name.startswith("stableleaf."))]


@contextmanager
def patched(replacements: dict):
    """Swap each original function for its replacement in every stableleaf module."""
    undo = []
    for mod in _library_modules():
        for attr, val in list(vars(mod).items()):
            new = replacements.get(id(val))
            if new is not None and new[0] is val:
                setattr(mod, attr, new[1])
                undo.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)


def _leaf_result(tracer, curve):
    # completed RK4 steps: every recorded node past the centre took a full cell
    n_side = (curve.grid_points - 1) // 2
    steps_per_cell = round((curve.eps / n_side) / curve.h)
    tracer.add("leaf.rk4_steps", (len(curve.t) - 1) * steps_per_cell)
    tracer.add("leaf.truncated_sides", int(curve.truncated_neg) + int(curve.truncated_pos))


def stage_functions():
    """The library functions a traced op records spans for, with their result hooks."""
    from stableleaf import budget, cli, cocycle, directions, fixedpoint, leaf, reports

    return [
        (fixedpoint.eigen_split, None),
        (budget.estimate_budget, None),
        (budget.check_condition_star, None),
        (budget.check_condition_double_star, None),
        (cocycle.build_orbit_cocycle, None),
        (directions.direction_field_derivative, None),
        (leaf.choose_epsilon, None),
        (leaf.cauchy_iterate, None),
        (leaf.integrate_leaf, _leaf_result),
        (leaf.contraction_check, None),
        (leaf.uniqueness_probe, None),
        (reports.emit_json, None),
        (reports.emit_leaf_csv, None),
        (cli.run_command, None),
    ]


def tracing_replacements(tracer: Tracer) -> dict:
    """Span-recording wrappers for stage_functions, named module.function, for patched()."""
    out = {}
    for fn, hook in stage_functions():
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        out[id(fn)] = (fn, tracer.wrap(fn, name, hook))
    return out


class CallCounter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@contextmanager
def counting(m):
    """Yield (counted map, counters) for one untimed counting pass.

    The map's raw callables are counted, so maps.eval_calls and maps.jac_calls
    equal the eval_xy and jac_xy calls of a map with analytic derivatives (the
    built-in maps have them). contracted_theta_fast and first_tube_exit are
    counted by swapping them in the library modules for the pass.
    """
    from stableleaf import budget, directions

    ev, jac = CallCounter(m.raw_eval), CallCounter(m.raw_jac)
    counted = dataclasses.replace(m, raw_eval=ev, raw_jac=jac)
    theta = CallCounter(directions.contracted_theta_fast)
    tube = CallCounter(budget.first_tube_exit)
    counters = {"eval": ev, "jac": jac, "theta": theta, "tube_exit": tube}
    with patched({id(theta.fn): (theta.fn, theta), id(tube.fn): (tube.fn, tube)}):
        yield counted, counters
