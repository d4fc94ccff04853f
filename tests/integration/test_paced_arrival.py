"""Paced delivery arrives paced, measured at real sinks.

A paced replay spends most of its time waiting for the next batch to
fall due.  Transports buffer sends and flush on count, so unless the
Pacer flushes before it waits, a slow paced stream reaches the sink in
``flush_every``-sized bursts: a 2,000 eps replay into a pipe arrives
as 512-event lumps a quarter second apart, a shm shard as 64-frame
lumps.  These tests read real sinks — an ``os.pipe`` read by another
interpreter and live :class:`~repro.core.connectors.ShmReceiver`
rings fed by other processes — and bound the size of each arrival and
the gap between arrivals, also through the tracing, chaos and retry
wrappers, which must pass the flush on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time

import pytest

from repro.core import binfmt
from repro.core.connectors import PipeTransport, ShmReceiver, ShmTransport
from repro.core.events import add_vertex, marker
from repro.core.replayer import LiveReplayer
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    RetryingTransport,
)
from repro.core.sharding import ShardedReplayer, WorkerConfig, replay_shard
from repro.core.stream import GraphStream
from repro.core.tracing import Tracer, TracingTransport

#: No arrival may come later than this after the previous one (or, for
#: the pipe, after the start): ~100 pacing intervals of the pipe run
#: and ~12 of a shm shard, far below one count-triggered burst.
GAP_BOUND = 0.050

PIPE_RATE = 2_000
PIPE_EVENTS = 1_000

WORKERS = 2
FRAME_RECORDS = 64
SHM_EVENTS = 12_800
#: 16k eps per shard: one 64-record frame every 4 ms, 100 frames each.
SHM_RATE = 32_000.0
#: A shard's typical arrival is one frame.  A stall of the producer or
#: of the drain thread on a loaded runner delivers the frames due
#: meanwhile together, so the largest arrival is bounded loosely: 16
#: frames is ~64 ms of schedule, past the gap bound, and a quarter of
#: the 64 frames the ShmTransport's count flush alone delivers at once.
MEDIAN_ARRIVAL_EVENTS = 2 * FRAME_RECORDS
MAX_ARRIVAL_EVENTS = 16 * FRAME_RECORDS


#: The pipe's sink, in its own interpreter as a real one would be: a
#: reader thread in the test process loses the GIL to an emitter whose
#: per-event write releases and retakes it faster than the reader
#: wakes, and then logs nothing until the replay ends.
#: ``time.perf_counter`` is ``CLOCK_MONOTONIC``, shared by both sides.
PIPE_READER = """
import json, os, time
print("ready", flush=True)
arrivals = []
while data := os.read(0, 1 << 16):
    arrivals.append((time.perf_counter(), data.count(b"\\n")))
print(json.dumps(arrivals))
"""


class ArrivalLog:
    """Stands in for a receiver's counter: forwards every count and
    logs each arrival's time and size."""

    def __init__(self, counter):
        self._counter = counter
        self.arrivals: list[tuple[float, int]] = []

    def record(self, count: int = 1) -> None:
        self.arrivals.append((time.perf_counter(), count))
        self._counter.record(count)

    @property
    def total(self) -> int:
        return self._counter.total


def _gaps(start: float | None, arrivals: list[tuple[float, int]]) -> list[float]:
    times = ([] if start is None else [start]) + [at for at, __ in arrivals]
    return [later - earlier for earlier, later in zip(times, times[1:])]


@pytest.fixture(scope="module")
def gtb1(tmp_path_factory):
    path = tmp_path_factory.mktemp("paced-arrival") / "stream.gtb"
    events = [add_vertex(i) for i in range(SHM_EVENTS)] + [marker("end")]
    binfmt.write_binary_stream(path, events, batch_records=FRAME_RECORDS)
    return str(path)


def _logged_receiver() -> tuple[ShmReceiver, ArrivalLog]:
    receiver = ShmReceiver(drain_timeout=10.0)
    log = ArrivalLog(receiver.counter)
    receiver.counter = log
    return receiver, log


def _assert_shard_paced(log: ArrivalLog, events: int) -> None:
    assert log.total == events
    sizes = [count for __, count in log.arrivals]
    assert statistics.median(sizes) <= MEDIAN_ARRIVAL_EVENTS
    assert max(sizes) <= MAX_ARRIVAL_EVENTS
    assert max(_gaps(None, log.arrivals)) <= GAP_BOUND


def test_live_replay_into_pipe_arrives_paced():
    read_fd, write_fd = os.pipe()
    reader = subprocess.Popen(
        [sys.executable, "-c", PIPE_READER],
        stdin=read_fd,
        stdout=subprocess.PIPE,
        text=True,
    )
    os.close(read_fd)
    try:
        assert reader.stdout.readline() == "ready\n"
        start = time.perf_counter()
        report = LiveReplayer(
            GraphStream([add_vertex(i) for i in range(PIPE_EVENTS)]),
            PipeTransport(write_fd),
            rate=PIPE_RATE,
            batch_size=1,
        ).run()
        output, __ = reader.communicate(timeout=10.0)
    finally:
        if reader.poll() is None:
            reader.kill()
            reader.communicate()
    arrivals = [tuple(arrival) for arrival in json.loads(output)]
    assert report.events_emitted == PIPE_EVENTS
    assert sum(count for __, count in arrivals) == PIPE_EVENTS
    assert arrivals[0][0] - start <= GAP_BOUND
    assert max(_gaps(start, arrivals)) <= GAP_BOUND


def test_sharded_decode_into_shm_arrives_paced(gtb1):
    pairs = [_logged_receiver() for __ in range(WORKERS)]
    try:
        for receiver, __ in pairs:
            receiver.start()
        report = ShardedReplayer(
            gtb1,
            [receiver.specs[0] for receiver, __ in pairs],
            rate=SHM_RATE,
            workers=WORKERS,
            emission="decode",
        ).run()
        for receiver, __ in pairs:
            receiver.join(10.0)
    finally:
        for receiver, __ in pairs:
            receiver.close()
    for receiver, __ in pairs:
        if receiver.error is not None:
            raise receiver.error
    assert report.events_emitted == SHM_EVENTS
    for __, log in pairs:
        _assert_shard_paced(log, SHM_EVENTS // WORKERS)


def _replay_wrapped_shard(wrap: str, ring: str, path: str, results) -> None:
    """Child process: replay shard 0 of 2 through one wrapper into
    ``ring`` and report the emitted count."""
    transport = ShmTransport(ring)
    if wrap == "tracing":
        transport = TracingTransport(transport, Tracer(sample_every=64))
    elif wrap == "chaos":
        transport = ChaosTransport(transport, ChaosConfig(seed=1))
    else:
        transport = RetryingTransport(transport)
    config = WorkerConfig(
        index=0,
        path=path,
        rate=SHM_RATE / WORKERS,
        emission="decode",
        view=(0, WORKERS),
    )
    results.put(replay_shard(config, transport).events_emitted)


@pytest.mark.parametrize("wrap", ["tracing", "chaos", "retry"])
def test_wrapped_shm_transport_arrives_paced(gtb1, wrap):
    # The shard runs in its own process, as a sharded worker does, so
    # its pacing spin cannot hold the GIL from the receiver's drain.
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    receiver, log = _logged_receiver()
    with receiver:
        child = context.Process(
            target=_replay_wrapped_shard,
            args=(wrap, receiver.name, gtb1, results),
        )
        child.start()
        child.join(30.0)
        assert child.exitcode == 0
        emitted = results.get(timeout=5.0)
    if receiver.error is not None:
        raise receiver.error
    assert emitted == SHM_EVENTS // WORKERS
    _assert_shard_paced(log, SHM_EVENTS // WORKERS)
