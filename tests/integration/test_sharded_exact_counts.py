"""Exact delivery counts of sharded replays into live shm receivers.

Every emission mode must deliver each graph event exactly once, for
CSV and GTB1 sources, round-robin and hash sharding, at more than one
worker count: emitted == received == the stream's graph-event count,
and every shard passes every marker exactly once.  Round-robin over a
GTB1 source reads frame views of the source instead of shard files, so
this matrix is what catches a view that some emission mode ignores
(which would emit every event once per worker).
"""

from __future__ import annotations

import os

import pytest

from repro.core import binfmt, codec
from repro.core.connectors import ShmReceiver
from repro.core.events import add_edge, add_vertex, marker, speed
from repro.core.sharding import ShardedReplayer

RATE = 5_000_000
GRAPH_EVENTS = 3000
MARKERS = ["m0", "m1", "m2", "m3", "m4", "end"]


def _events():
    out = [marker(MARKERS[0])]
    for i in range(GRAPH_EVENTS // 2):
        out.append(add_vertex(i, f"v{i}"))
        out.append(add_edge(i // 3, i, f"w={i}"))
        if i == 400:
            out.append(speed(2.0))
        if i and i % 300 == 0:
            out.append(marker(MARKERS[i // 300]))
    out.append(marker(MARKERS[-1]))
    return out


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exact-counts")
    events = _events()
    assert [e.label for e in events if hasattr(e, "label")] == MARKERS
    csv_path = tmp / "stream.csv"
    codec.write_stream_file(csv_path, events, format="csv")
    bin_path = tmp / "stream.gtb"
    # Small frames so every worker's view holds several graph frames.
    binfmt.write_binary_stream(bin_path, events, batch_records=64)
    return {"csv": str(csv_path), "gtb1": str(bin_path)}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shard_by", ["round-robin", "hash"])
@pytest.mark.parametrize("source", ["csv", "gtb1"])
@pytest.mark.parametrize("emission", ["events", "decode", "raw"])
def test_emitted_equals_received_equals_stream(
    streams, emission, source, shard_by, workers
):
    with ShmReceiver(max_producers=workers) as receiver:
        names = [spec.name for spec in receiver.specs]
        replayer = ShardedReplayer(
            streams[source],
            receiver.specs,
            rate=RATE,
            workers=workers,
            shard_by=shard_by,
            emission=emission,
            batch_size=64,
        )
        report = replayer.run()
    if receiver.error is not None:
        raise receiver.error
    assert report.events_emitted == GRAPH_EVENTS
    assert receiver.counter.total == GRAPH_EVENTS
    assert sum(shard.events_emitted for shard in report.shards) == GRAPH_EVENTS
    assert replayer.plan is not None
    assert replayer.plan.frame_views == (
        source == "gtb1" and shard_by == "round-robin"
    )
    assert [shard.events_emitted for shard in report.shards] == list(
        replayer.plan.graph_events
    )
    for shard in report.shards:
        assert [label for label, __ in shard.marker_times] == MARKERS
    assert not any(
        os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
    )
