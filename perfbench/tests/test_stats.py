"""The benchmark's own arithmetic: lag, percentiles, failed operations."""

import pytest

from perfbench import layers, run, stats


def test_lag_of_synthetic_arrivals_gives_known_percentiles():
    # 1000 events at 1000 eps from t=10.0, each arriving alone exactly
    # (k + 1) ms after its due time: lags are 1..1000 ms.
    rate = 1000.0
    arrivals = [(10.0 + k / rate + (k + 1) / 1000.0, 1) for k in range(1000)]
    lags = stats.shard_lags(arrivals, started_at=10.0, rate=rate)
    assert len(lags) == 1000
    assert stats.percentile(lags, 50.0) == pytest.approx(0.500)
    assert stats.percentile(lags, 99.0) == pytest.approx(0.990)
    assert stats.percentile(lags, 100.0) == pytest.approx(1.000)


def test_batched_arrival_lags_every_event_in_the_batch():
    # Four events due at 0, 1, 2, 3 s arrive together at t=3.5: the
    # earliest-due event waited longest.
    lags = stats.shard_lags([(3.5, 4)], started_at=0.0, rate=1.0)
    assert list(lags) == pytest.approx([3.5, 2.5, 1.5, 0.5])


def test_completion_lags_from_a_sampled_count_curve():
    due = [0.0, 1.0, 2.0]
    samples = [(0.0, 0), (1.5, 1), (4.0, 3)]
    assert list(stats.completion_lags(due, samples)) == pytest.approx(
        [1.5, 3.0, 2.0]
    )
    # An event never seen complete is left out.
    assert len(stats.completion_lags(due, [(1.5, 2)])) == 2


def test_supported_percentile_needs_ten_samples_beyond():
    assert stats.supported_percentile(999) == 90.0
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(9999) == 99.0
    assert stats.supported_percentile(10_000) == 99.9
    assert stats.supported_percentile(19) == 0.0


def test_short_and_duplicate_delivery_count_as_failed():
    assert stats.failed_events(100, 100) == 0
    assert stats.failed_events(100, 97) == 3
    assert stats.failed_events(100, 104) == 4
    assert stats.failed_events(100, 0) == 100


def _live_rep(delivered: int, markers: int = 1):
    inputs = {"graph_events": 10, "markers": 1}
    rep = {
        "t0": 0.0,
        "shards": [
            {
                "started_at": 0.1,
                "duration": 0.5,
                "events_emitted": 10,
                "markers": markers,
            }
        ],
        "peak_rss_mb": 1.0,
    }
    sink = {
        "errors": [],
        "totals": [delivered],
        "arrivals": [[(0.2, delivered)]] if delivered else [[]],
    }
    return inputs, rep, sink


def test_short_delivery_fails_the_missing_events():
    workload = run.WORKLOADS["classic-csv"]
    with pytest.raises(run.CheckFailed) as caught:
        run.live_metrics(workload, *_live_rep(delivered=7))
    assert caught.value.failed == 3


def test_lost_marker_fails_every_event():
    workload = run.WORKLOADS["classic-csv"]
    with pytest.raises(run.CheckFailed) as caught:
        run.live_metrics(workload, *_live_rep(delivered=10, markers=0))
    assert caught.value.failed is None


def test_exclusive_time_subtracts_the_covering_union():
    spans = [(0.0, 4.0), (6.0, 8.0)]
    cover = [(1.0, 2.0), (1.5, 3.0), (7.0, 9.0)]
    assert layers.exclusive(spans, cover) == pytest.approx(2.0 + 1.0)


def test_benchmark_json_names_what_the_code_reports():
    import json

    from perfbench.workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
