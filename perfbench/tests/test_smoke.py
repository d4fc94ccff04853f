"""Tiny-size runs of every workload through the real pipeline."""

from dataclasses import replace

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

TINY = {
    "sharded-shm": {"events": 3_000},
    "classic-csv": {"events": 3_000},
    "paced-shm": {"events": 3_000, "rate": 30_000.0},
    "sim-chronograph": {"sim_scale": 0.001},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, name, trace):
    workload = replace(WORKLOADS[name], **TINY[name])
    untraced, traced, setup, last_trace, attempted, failed, problems = (
        run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace, work=tmp_path)
    )
    assert problems == [] and failed == 0 and attempted > 0
    metrics = run.summarise(untraced, traced, setup, trace)
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(metrics) == set(expected)
    if not trace:
        assert all(metric["value"] > 0 for metric in metrics.values())
    else:
        payload = run.layers.chrome_trace(*last_trace, {})
        from repro.core.tracing import validate_chrome_trace

        assert validate_chrome_trace(payload) == []
