"""Per-layer spans for the traced run, recorded from the benchmark's side.

The wrappers below are installed into ``repro`` modules before ``run()``
is called and time calls into each layer's public entry points.  Forked
shard workers inherit them; each worker writes its spans to a file when
its ``replay_shard`` call returns, so worker-side spans reach the
parent.  Nothing here changes what the wrapped functions do.

Which end-to-end metric each per-layer metric should move:

* ``sharding.partition_s``, ``sharding.partition_bytes``,
  ``sharding.spawn_barrier_s``, ``sharding.shard_imbalance`` ->
  ``e2e_eps`` and ``first_event_s`` on sharded-shm (0 on classic-csv);
* ``witness.verify_s`` -> ``e2e_eps`` on sharded-shm;
* ``sharding.emit_loop_s``, ``sharding.join_s``, ``connectors.drain_s``
  -> ``e2e_eps`` on sharded-shm, ``achieved_ratio`` on paced-shm;
* ``connectors.arrival_batch_events_*``, ``shm.ring_backlog_slots_max``
  -> ``lag_p99_ms`` on paced-shm;
* ``codec.parse_us_per_event``, ``codec.format_us_per_event``,
  ``replayer.emit_us_per_event``, ``connectors.pipe_write_us_per_event``
  -> ``e2e_eps`` on classic-csv;
* ``binfmt.convert_us_per_event`` -> ``setup_s``;
* ``models.stream_build_s``, ``harness.run_s``, ``analysis.rank_error_s``
  -> ``e2e_eps`` on sim-chronograph.
"""

from __future__ import annotations

import json
import os
import time
from functools import wraps
from pathlib import Path


class SpanLog:
    """Spans ``(name, lane, start, end, count)`` on ``time.perf_counter``
    (CLOCK_MONOTONIC, so comparable across this machine's processes)."""

    def __init__(self, lane: str = "replay"):
        self.lane = lane
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.facts: dict[str, float] = {}

    def add(
        self, name: str, start: float, end: float, count: int = 0, lane=None
    ) -> None:
        self.spans.append((name, lane or self.lane, start, end, count))

    def wrap_call(self, function, name: str, count=None, lane=None):
        """``function`` timed per call; ``count(result, args)`` gives the
        number of events the call handled."""

        @wraps(function)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            self.add(
                name,
                start,
                time.perf_counter(),
                0 if count is None else count(result, args),
                lane,
            )
            return result

        return timed

    def wrap_iter(self, function, name: str, count=None, lane=None):
        """A generator function whose every ``next()`` is one span."""

        @wraps(function)
        def timed(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                self.add(
                    name,
                    start,
                    time.perf_counter(),
                    0 if count is None else count(item),
                    lane,
                )
                yield item

        return timed


def _batch_count(item) -> int:
    return getattr(item, "count", 0)


def install_sharded(log: SpanLog, spans_dir: Path) -> None:
    """Wrap the sharded path: partition (parent), and per worker the
    shard replay, witness verification, batch iteration and ring push."""
    from repro.core import codec, connectors, sharding, witness

    write_shards = sharding.write_shards

    def partition(*args, **kwargs):
        start = time.perf_counter()
        plan = write_shards(*args, **kwargs)
        log.add("sharding.partition", start, time.perf_counter())
        log.facts["partition_bytes"] = float(
            sum(os.path.getsize(path) for path in plan.paths)
        )
        mean = sum(plan.graph_events) / len(plan.graph_events)
        log.facts["shard_imbalance"] = max(plan.graph_events) / mean
        return plan

    sharding.write_shards = partition

    replay_shard = sharding.replay_shard

    def worker_replay(config, transport):
        # Runs in a forked worker: drop the parent's spans inherited
        # through fork and write this worker's own when it is done.
        log.spans = []
        log.lane = f"worker-{config.index}"
        start = time.perf_counter()
        try:
            return replay_shard(config, transport)
        finally:
            log.add("sharding.replay_shard", start, time.perf_counter())
            target = spans_dir / f"worker-{config.index}.json"
            target.write_text(json.dumps(log.spans), encoding="utf-8")

    sharding.replay_shard = worker_replay
    witness.preverify_shard = log.wrap_call(
        witness.preverify_shard, "witness.verify"
    )
    codec.iter_raw_batches = log.wrap_iter(
        codec.iter_raw_batches, "codec.iter_raw_batches", _batch_count
    )
    connectors.ShmTransport.flush = log.wrap_call(
        connectors.ShmTransport.flush, "shm.push"
    )


def install_classic(log: SpanLog) -> None:
    """Wrap the classic path: parse (reader thread), format and pipe
    write (emitter thread)."""
    from repro.core import codec, connectors

    codec.iter_parse_chunks = log.wrap_iter(
        codec.iter_parse_chunks, "codec.parse", len, lane="reader"
    )
    codec.format_lines = log.wrap_call(
        codec.format_lines,
        "codec.format",
        lambda result, args: len(args[0]),
        lane="emitter",
    )
    connectors.PipeTransport.send_many = log.wrap_call(
        connectors.PipeTransport.send_many,
        "connectors.pipe_write",
        lambda result, args: len(args[1]),
        lane="emitter",
    )


def install_sim(log: SpanLog) -> None:
    """Wrap the simulated Table-4 run: the harness run and the
    retrospective rank-error analysis."""
    from repro.experiments import fig3d

    harness = fig3d.TestHarness

    class TimedHarness(harness):
        __test__ = False

        def run(self):
            start = time.perf_counter()
            try:
                return super().run()
            finally:
                log.add("harness.run", start, time.perf_counter())

    fig3d.TestHarness = TimedHarness
    # Building the config lazily imports the sharding module: a one-off
    # cost the run pays in a fresh interpreter.
    fig3d.HarnessConfig = log.wrap_call(fig3d.HarnessConfig, "harness.config")
    fig3d.retrospective_rank_errors = log.wrap_call(
        fig3d.retrospective_rank_errors, "analysis.rank_errors"
    )


def busy(spans, name: str, lane: str | None = None) -> float:
    """Summed duration of the named spans (optionally on one lane)."""
    return sum(
        end - start
        for span_name, span_lane, start, end, __ in spans
        if span_name == name and (lane is None or span_lane == lane)
    )


def intervals(spans, name: str) -> list[tuple[float, float]]:
    return [
        (start, end) for span_name, __, start, end, __ in spans if span_name == name
    ]


def exclusive(
    spans: list[tuple[float, float]], cover: list[tuple[float, float]]
) -> float:
    """Total length of ``spans`` outside the union of ``cover``.

    Both lists hold ``(start, end)`` intervals; ``spans`` must not
    overlap one another (they come from one thread)."""
    merged: list[list[float]] = []
    for start, end in sorted(cover):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    index = 0
    for start, end in sorted(spans):
        length = end - start
        while index < len(merged) and merged[index][1] <= start:
            index += 1
        probe = index
        while probe < len(merged) and merged[probe][0] < end:
            length -= min(end, merged[probe][1]) - max(start, merged[probe][0])
            probe += 1
        total += length
    return total


def chrome_trace(spans, origin: float, metadata: dict) -> dict:
    """One Chrome trace of every process's spans, one row per lane,
    with timestamps relative to ``origin`` (the ``run()`` call); a span
    that starts where it ends becomes an instant."""
    from repro.core.tracing import Span, chrome_trace as build

    return build(
        [
            Span(
                name=name,
                category=lane,
                start=max(0.0, start - origin),
                duration=end - start,
                count=count,
            )
            for name, lane, start, end, count in spans
        ],
        metadata,
    )
