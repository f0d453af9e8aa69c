"""The benchmark's per-layer counts are exact evidence: two traced passes of
a workload at one seed must give identical counts.  The reference kernel
that scales reported times must be fixed work."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _traced_counts(workload, items, tracer):
    tracer.reset()
    tracer.enabled = True
    try:
        for item in items:
            workloads.run_item(workload, item, SEED)
    finally:
        tracer.enabled = False
    values = tracing.read_layer_metrics(tracer)
    return {name: values[name] for name in tracing.EXACT_COUNTS}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat(workload):
    workloads.import_engine()
    # gl3 items take most of each workload's time and run the same code
    # paths as gl2, so they are left out to keep this test quick.
    items = [i for i in workloads.load(workload) if i.scenario != "gl3"]
    with tracing.Tracer() as tracer:
        tracer.install(tracing.HOOKS)
        first = _traced_counts(workload, items, tracer)
        second = _traced_counts(workload, items, tracer)
    assert first == second
    assert first["poly.mul.calls"] > 0 and first["nash.arcs.tried"] > 0


def test_tracer_uninstalls():
    workloads.import_engine()
    from nashfol import linalg, nash, poly

    originals = (nash.rank, linalg.rank, poly.MultiPoly.__dict__["__mul__"])
    with tracing.Tracer() as tracer:
        tracer.install(tracing.HOOKS)
        assert nash.rank is linalg.rank and nash.rank is not originals[0]
    assert (nash.rank, linalg.rank, poly.MultiPoly.__dict__["__mul__"]) == originals


def test_calibration_kernel_is_fixed():
    import calibrate

    assert calibrate.kernel() == calibrate._EXPECTED
    assert calibrate.sample() > 0
