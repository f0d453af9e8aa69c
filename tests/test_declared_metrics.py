"""Every per-layer metric the benchmark declares reads something real.

The benchmark (`benchmarks/run.py --trace 1`) refuses a run in which a
declared metric names a callable the tracer does not wrap (`Tracer.calls`
raises `KeyError`) or reads 0 on a workload listed in its ``exercised``.
These tests run the same reads on one traced pass of each workload, so a
change that deletes or stops reaching a traced callable fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def tracer():
    workloads.import_engine()
    with tracing.Tracer() as installed:
        installed.install(tracing.HOOKS)
        yield installed


def test_every_call_and_time_metric_names_a_wrapped_callable(tracer):
    named = [m for m in tracing.LAYER_METRICS if m.source[0] in ("calls", "seconds")]
    assert named
    assert [m.name for m in named if m.source[1] not in tracer.stats] == []


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_no_metric_reads_zero_on_a_workload_it_exercises(workload, tracer):
    # gl3 takes most of each workload's time and runs the code paths of gl2
    items = [i for i in workloads.load(workload) if i.scenario != "gl3"]
    tracer.reset()
    tracer.enabled = True
    try:
        for item in items:
            workloads.run_item(workload, item, SEED)
    finally:
        tracer.enabled = False
    values = tracing.read_layer_metrics(tracer)
    exercised = [m.name for m in tracing.LAYER_METRICS if workload in m.exercised]
    assert [name for name in exercised if not values[name]] == []
