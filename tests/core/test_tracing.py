"""Tests for the end-to-end tracing layer (clock, spans, export).

Covers the unified :class:`TraceClock` (including the regression that
probes and replayer historically stamped records with *different*
clock sources), sampled span recording with exact counters, span
accounting closure, the Chrome ``trace_event`` exporter and its
validator, and the live + simulated instrumentation paths.
"""

import json
import os

import pytest

from repro.core.analysis import trace_latency_profile
from repro.core.connectors import (
    CallbackTransport,
    PipeReceiver,
    PipeTransport,
    WindowCounter,
)
from repro.core.events import add_vertex, marker
from repro.core.generator import StreamGenerator
from repro.core.harness import HarnessConfig, TestHarness
from repro.core.models import UniformRules
from repro.core.probes import LiveProcessProbe
from repro.core.replayer import LiveReplayer
from repro.core.resultlog import Record, ResultLog
from repro.core.tracing import (
    PHASES,
    Span,
    TraceClock,
    Tracer,
    TracingTransport,
    chrome_trace,
    records_to_chrome_trace,
    reset_shared_clock,
    shared_clock,
    validate_chrome_trace,
)
from repro.errors import AnalysisError
from repro.platforms.inmem import InMemoryPlatform


class _FakeSim:
    """Minimal stand-in exposing the simulation calendar."""

    def __init__(self) -> None:
        self.now = 0.0


class TestTraceClock:
    def test_starts_near_zero_and_advances(self):
        clock = TraceClock()
        first = clock.now()
        second = clock.now()
        assert first >= 0.0
        assert second >= first

    def test_explicit_origin(self):
        clock = TraceClock(source=lambda: 12.5, origin=10.0)
        assert clock.now() == pytest.approx(2.5)

    def test_for_simulation_reads_the_calendar(self):
        sim = _FakeSim()
        clock = TraceClock.for_simulation(sim)
        assert clock.now() == 0.0
        sim.now = 2.5
        assert clock.now() == 2.5


class TestSharedClock:
    def test_shared_clock_is_a_singleton(self):
        assert shared_clock() is shared_clock()

    def test_reset_replaces_the_singleton(self):
        old = shared_clock()
        new = reset_shared_clock()
        assert new is not old
        assert shared_clock() is new
        assert new.now() < 1.0  # fresh epoch


class TestClockUnification:
    """Satellite regression: probe, receiver counter, and replayer must
    all stamp on one epoch (historically monotonic vs. perf_counter)."""

    def test_probe_records_share_the_replay_epoch(self):
        clock = reset_shared_clock()
        probe = LiveProcessProbe()
        before = clock.now()
        records = probe()
        after = clock.now()
        assert records, "procfs should be readable on Linux CI"
        for record in records:
            # With the old time.monotonic() source this timestamp would
            # be the system uptime — hours past the replay epoch.
            assert before <= record.timestamp <= after

    def test_window_counter_defaults_to_the_shared_clock(self):
        clock = reset_shared_clock()
        counter = WindowCounter()
        assert counter._clock is clock

    def test_replay_start_lands_on_the_shared_epoch(self):
        clock = reset_shared_clock()
        events = [add_vertex(i) for i in range(10)]
        before = clock.now()
        report = LiveReplayer(
            events, CallbackTransport(lambda line: None), rate=1_000_000
        ).run()
        after = clock.now()
        assert before <= report.started_at <= after


class TestSampling:
    def test_should_sample_stride(self):
        tracer = Tracer(sample_every=4)
        assert [i for i in range(9) if tracer.should_sample(i)] == [0, 4, 8]

    def test_stride_one_samples_everything(self):
        tracer = Tracer()
        assert all(tracer.should_sample(i) for i in range(5))

    def test_sample_batch_hits_iff_range_contains_a_sampled_id(self):
        tracer = Tracer(sample_every=4)
        assert tracer.sample_batch(0, 4)  # contains 0
        assert not tracer.sample_batch(1, 3)  # 1..3
        assert tracer.sample_batch(1, 4)  # 1..4 contains 4
        assert not tracer.sample_batch(7, 1)
        # Cross-check against should_sample over a sweep of ranges.
        for first in range(10):
            for count in range(1, 6):
                expected = any(
                    tracer.should_sample(i) for i in range(first, first + count)
                )
                assert tracer.sample_batch(first, count) == expected

    def test_empty_batch_never_sampled(self):
        assert not Tracer(sample_every=1).sample_batch(0, 0)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestTracerRecording:
    def test_instant_and_measure(self):
        tracer = Tracer(clock=TraceClock(origin=0.0))
        tracer.instant("emitted", "replayer", timestamp=1.5, event_id=7)
        with tracer.measure("decoded", "codec", count=3):
            pass
        assert len(tracer.spans) == 2
        instant, measured = tracer.spans
        assert instant.name == "emitted"
        assert instant.start == 1.5
        assert instant.duration == 0.0
        assert instant.event_id == 7
        assert measured.name == "decoded"
        assert measured.duration >= 0.0
        assert measured.count == 3

    def test_counts_are_exact_and_independent_of_sampling(self):
        tracer = Tracer(sample_every=1000)
        tracer.count("emitted", 500)
        tracer.count("emitted", 250)
        tracer.count("ingested", 750)
        assert tracer.counts == {"emitted": 750, "ingested": 750}

    def test_accounting_closed_with_events_in_flight(self):
        tracer = Tracer()
        tracer.count("emitted", 100)
        tracer.count("ingested", 90)
        accounting = tracer.accounting()
        assert accounting["in_flight"] == 10
        assert accounting["closed"]

    def test_accounting_detects_phantom_arrivals(self):
        tracer = Tracer()
        tracer.count("emitted", 5)
        tracer.count("ingested", 6)
        assert not tracer.accounting()["closed"]

    def test_export_metadata_reports_sampling_and_counts(self):
        tracer = Tracer(sample_every=64, metadata={"mode": "live"})
        tracer.count("emitted", 2)
        meta = tracer.export_metadata()
        assert meta["mode"] == "live"
        assert meta["sample_every"] == 64
        assert meta["counts"]["emitted"] == 2
        assert meta["accounting"]["closed"]

    def test_phases_cover_the_accounting_pair(self):
        assert "emitted" in PHASES
        assert "ingested" in PHASES


class TestSpanRecords:
    def test_to_record_round_trips_through_the_result_log(self):
        tracer = Tracer(clock=TraceClock(origin=0.0))
        tracer.record_span(
            "transported", "transport", 0.5, 0.25, event_id=3, count=8, retry="1"
        )
        log = ResultLog(tracer.to_records())
        (record,) = log.spans("transported")
        assert record.kind == "span"
        assert record.timestamp == 0.5
        assert record.value == 0.25
        assert record.source == "transport"
        assert record.tags["event_id"] == "3"
        assert record.tags["count"] == "8"
        assert record.tags["retry"] == "1"

    def test_result_log_spans_filters_by_name_and_category(self):
        tracer = Tracer(clock=TraceClock(origin=0.0))
        tracer.record_span("emitted", "replayer", 0.0)
        tracer.record_span("ingested", "inmem", 0.1)
        log = tracer.result_log()
        assert len(log.spans()) == 2
        assert len(log.spans("emitted")) == 1
        assert len(log.spans(category="inmem")) == 1
        assert not log.spans("emitted", category="inmem")

    def test_records_to_chrome_trace_reconstructs_spans(self):
        tracer = Tracer(clock=TraceClock(origin=0.0))
        tracer.record_span("transported", "transport", 0.5, 0.25, event_id=3, count=8)
        payload = records_to_chrome_trace(tracer.result_log(), {"source": "test"})
        assert validate_chrome_trace(payload) == []
        (event,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert event["name"] == "transported"
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["args"]["event_id"] == 3
        assert event["args"]["count"] == 8
        assert payload["otherData"]["source"] == "test"

    def test_marker_records_become_instants(self):
        log = ResultLog(
            [
                Record(
                    timestamp=1.0,
                    source="replayer",
                    metric="marker",
                    value=42.0,
                    kind="marker",
                    tags={"label": "phase-1"},
                )
            ]
        )
        payload = records_to_chrome_trace(log)
        assert validate_chrome_trace(payload) == []
        (event,) = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert event["name"] == "marker:phase-1"


class TestChromeExport:
    def _spans(self) -> list[Span]:
        return [
            Span("emitted", "replayer", start=0.001, event_id=0),
            Span("transported", "transport", start=0.001, duration=0.002, count=32),
        ]

    def test_export_is_well_formed(self):
        payload = chrome_trace(self._spans(), {"mode": "test"})
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["mode"] == "test"

    def test_categories_get_named_thread_rows(self):
        payload = chrome_trace(self._spans())
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"replayer", "transport"}
        process = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process and process[0]["args"]["name"] == "graphtides"

    def test_durations_become_complete_events_in_microseconds(self):
        payload = chrome_trace(self._spans())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 1 and len(instants) == 1
        assert complete[0]["dur"] == pytest.approx(2000.0)
        assert instants[0]["ts"] == pytest.approx(1000.0)
        assert instants[0]["s"] == "t"

    def test_write_chrome_trace_produces_loadable_json(self, tmp_path):
        tracer = Tracer(clock=TraceClock(origin=0.0), metadata={"mode": "test"})
        tracer.instant("emitted", "replayer", timestamp=0.0, event_id=0)
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["spans_recorded"] == 1


class TestValidateChromeTrace:
    def _event(self, **overrides) -> dict:
        event = {"name": "x", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1, "s": "t"}
        event.update(overrides)
        return event

    def test_top_level_must_be_an_object(self):
        (problem,) = validate_chrome_trace([1, 2])
        assert "object" in problem

    def test_trace_events_array_required(self):
        assert validate_chrome_trace({"displayTimeUnit": "ms"}) == [
            "missing 'traceEvents' array"
        ]

    def test_non_object_entry_flagged(self):
        problems = validate_chrome_trace({"traceEvents": ["nope"]})
        assert problems and "not an object" in problems[0]

    def test_invalid_phase_flagged(self):
        problems = validate_chrome_trace({"traceEvents": [self._event(ph="Q")]})
        assert problems and "invalid phase" in problems[0]

    def test_negative_timestamp_flagged(self):
        problems = validate_chrome_trace({"traceEvents": [self._event(ts=-1.0)]})
        assert problems and "invalid ts" in problems[0]

    def test_missing_pid_flagged(self):
        event = self._event()
        del event["pid"]
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert problems and "pid" in problems[0]

    def test_complete_event_requires_duration(self):
        problems = validate_chrome_trace({"traceEvents": [self._event(ph="X")]})
        assert problems and "dur" in problems[0]

    def test_metadata_events_need_no_timestamp(self):
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {}}
        assert validate_chrome_trace({"traceEvents": [meta]}) == []

    def test_valid_minimal_trace_passes(self):
        assert validate_chrome_trace({"traceEvents": [self._event()]}) == []


class TestTracingTransport:
    def test_lines_pass_through_unchanged(self):
        tracer = Tracer(sample_every=1)
        lines: list[str] = []
        transport = TracingTransport(CallbackTransport(lines.append), tracer)
        transport.send_many(["a"])
        transport.send_many(["b", "c"])
        assert lines == ["a", "b", "c"]

    def test_spans_carry_send_order_event_ids(self):
        tracer = Tracer(sample_every=1)
        transport = TracingTransport(CallbackTransport(lambda line: None), tracer)
        transport.send_many(["a"])
        transport.send_many(["b", "c", "d"])
        first, second = tracer.spans
        assert (first.event_id, first.count) == (0, 1)
        assert (second.event_id, second.count) == (1, 3)
        assert all(span.name == "transported" for span in tracer.spans)
        assert tracer.counts["transported"] == 4

    def test_unsampled_counts_deferred_until_close(self):
        tracer = Tracer(sample_every=1000)
        transport = TracingTransport(CallbackTransport(lambda line: None), tracer)
        for __ in range(10):
            transport.send_many(["x"])
        # Only the first send (id 0) was sampled; the other nine counts
        # are deferred on the hot path...
        assert len(tracer.spans) == 1
        assert tracer.counts["transported"] == 1
        # ...and flushed exactly on close.
        transport.close()
        assert tracer.counts["transported"] == 10

    def test_empty_batch_is_a_no_op(self):
        tracer = Tracer(sample_every=1)
        transport = TracingTransport(CallbackTransport(lambda line: None), tracer)
        transport.send_many([])
        assert not tracer.spans
        assert "transported" not in tracer.counts


class TestLiveReplayerTracing:
    def _run(self, tracer: Tracer, events, batch_size: int = 32):
        transport = TracingTransport(CallbackTransport(lambda line: None), tracer)
        return LiveReplayer(
            events, transport, rate=1_000_000, batch_size=batch_size, tracer=tracer
        ).run()

    def test_emitted_count_matches_the_report(self):
        tracer = Tracer(sample_every=1)
        events = [add_vertex(i) for i in range(300)]
        report = self._run(tracer, events)
        assert tracer.counts["emitted"] == report.events_emitted == 300
        assert tracer.counts["transported"] == 300

    def test_sampled_run_keeps_counts_exact_with_fewer_spans(self):
        events = [add_vertex(i) for i in range(512)]
        dense = Tracer(sample_every=1)
        self._run(dense, events)
        sparse = Tracer(sample_every=64)
        self._run(sparse, events)
        assert sparse.counts["emitted"] == dense.counts["emitted"] == 512
        assert 0 < len(sparse.spans) < len(dense.spans)

    def test_marker_recorded_as_instant(self):
        tracer = Tracer(sample_every=1)
        events = [add_vertex(0), marker("checkpoint"), add_vertex(1)]
        self._run(tracer, events, batch_size=1)
        markers = [span for span in tracer.spans if span.name == "marker"]
        assert markers and markers[0].args.get("label") == "checkpoint"

    def test_encoded_and_emitted_spans_present(self):
        tracer = Tracer(sample_every=1)
        self._run(tracer, [add_vertex(i) for i in range(100)])
        names = {span.name for span in tracer.spans}
        assert {"encoded", "emitted"} <= names


class TestLivePipeAccounting:
    def test_pipe_delivery_accounting_closes(self):
        """Emit through a real pipe into a traced receiver: every
        emitted event must be ingested (nothing in flight after EOF)."""
        reset_shared_clock()
        tracer = Tracer(sample_every=1)
        read_fd, write_fd = os.pipe()
        events = [add_vertex(i) for i in range(500)]
        transport = TracingTransport(PipeTransport(write_fd), tracer)
        with PipeReceiver(read_fd, tracer=tracer) as receiver:
            # run() closes the transport, signalling EOF to the reader.
            report = LiveReplayer(
                events, transport, rate=1_000_000, batch_size=32, tracer=tracer
            ).run()
        assert report.events_emitted == 500
        assert receiver.counter.total == 500
        accounting = tracer.accounting()
        assert accounting["emitted"] == accounting["ingested"] == 500
        assert accounting["in_flight"] == 0
        assert accounting["closed"]
        assert any(span.name == "ingested" for span in tracer.spans)


class TestHarnessTracing:
    @pytest.fixture
    def stream(self):
        return StreamGenerator(UniformRules(), rounds=400, seed=7).generate()

    def _run(self, stream, **config):
        harness = TestHarness(
            InMemoryPlatform(),
            stream,
            HarnessConfig(rate=2000.0, level=1, trace=True, **config),
        )
        return harness.run()

    def test_every_emitted_event_has_a_matching_ingest_span(self, stream):
        result = self._run(stream)
        assert result.tracer is not None
        emitted_ids = {r.tags["event_id"] for r in result.log.spans("emitted")}
        ingested_ids = {r.tags["event_id"] for r in result.log.spans("ingested")}
        assert emitted_ids == ingested_ids
        assert len(emitted_ids) == result.events_emitted

    def test_accounting_closes_after_drain(self, stream):
        result = self._run(stream)
        accounting = result.tracer.accounting()
        assert accounting["emitted"] == result.events_emitted
        assert accounting["in_flight"] == 0
        assert accounting["closed"]

    def test_sampling_ratio_honoured_while_counts_stay_exact(self, stream):
        result = self._run(stream, trace_sample_every=7)
        emitted = result.events_emitted
        expected_spans = len([i for i in range(emitted) if i % 7 == 0])
        assert len(result.log.spans("emitted")) == expected_spans
        assert result.tracer.counts["emitted"] == emitted
        assert result.tracer.export_metadata()["sample_every"] == 7

    def test_processed_spans_come_from_the_platform(self, stream):
        result = self._run(stream)
        processed = result.log.spans("processed", category="inmem")
        assert processed
        assert result.tracer.counts["processed"] == result.events_processed

    def test_chrome_export_of_a_simulated_run_validates(self, stream, tmp_path):
        result = self._run(stream)
        path = tmp_path / "sim-trace.json"
        result.tracer.write_chrome_trace(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["accounting"]["closed"]

    def test_latency_profile_from_the_persisted_log(self, stream):
        result = self._run(stream)
        latencies = trace_latency_profile(result.log)
        assert len(latencies) == result.events_emitted
        assert all(value >= 0.0 for value in latencies)
        processed = trace_latency_profile(result.log, to_phase="processed")
        assert processed and all(value >= 0.0 for value in processed)

    def test_latency_profile_requires_spans(self):
        with pytest.raises(AnalysisError):
            trace_latency_profile(ResultLog([]))

    def test_untraced_run_has_no_tracer(self, stream):
        harness = TestHarness(
            InMemoryPlatform(), stream, HarnessConfig(rate=2000.0, level=1)
        )
        result = harness.run()
        assert result.tracer is None
        assert not result.log.spans()
