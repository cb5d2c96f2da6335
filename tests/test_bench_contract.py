"""The benchmark in perfbench/ still runs against this tree.

perfbench/ reaches into the package by name: the functions its traced ops
wrap, the calls of its workloads and the statements of its micro-timings. A
renamed name or a changed signature there makes every benchmark op fail. This
test imports perfbench's modules, changes nothing in them, and runs one
theorem-henon op and one budget-wide op three ways: untraced, with spans
recorded, and counted. It runs the micro-timings with each statement timed
once. cli-cold and the fresh-interpreter probes start child processes, and
the probes import scipy, so neither runs here.
"""

import math
import sys
import timeit
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=["theorem-henon", "budget-wide"])
def workload(request):
    wl = workloads.WORKLOADS[request.param]()
    wl.setup()
    return wl


def test_workload_op_passes_its_checks(workload):
    assert workload.check(workload.run(1)) == []


def test_traced_op_records_every_stage_span(workload):
    tracer = tracing.Tracer()
    with tracing.patched(tracing.tracing_replacements(tracer)):
        assert workload.check(workload.run(1)) == []
    recorded = {name for name, *_ in tracer.spans}
    spans = {name for kind, name in list(layers.SPAN_TOTALS.values()) + list(layers.SPAN_CALLS.values())
             if kind == workload.kind}
    assert spans <= recorded, spans - recorded


def test_counted_op_counts_map_calls(workload):
    with tracing.counting(workload.map) as (m, counters):
        assert workload.check(workload.run(1, m=m)) == []
    assert counters["eval"].calls > 0 and counters["jac"].calls > 0
    assert (counters["theta"].calls > 0) == (workload.kind == "theorem")


def test_micro_timings_run(monkeypatch):
    monkeypatch.setattr(layers, "per_call", lambda stmt, env, number: timeit.Timer(stmt, globals=env).timeit(1))
    out = layers.micro_timings(workloads.import_library())
    assert out and all(math.isfinite(v) and v >= 0.0 for v in out.values())
