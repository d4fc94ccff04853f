"""Frame views: round-robin shards of a GTB1 file without shard files.

Shard ``k`` of ``N`` is every graph frame whose ordinal is ``k`` modulo
``N`` plus every control frame, read straight from the source.  The
views must add up to the source, survive a missing footer, fail with a
typed, source-located error on corruption before anything is emitted,
and leave no file, directory or shm segment behind.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import pickle
import tempfile
from pathlib import Path

import pytest

from repro.core import binfmt, codec, sharding, witness
from repro.core.connectors import CallbackTransport, PipeSpec, ShmReceiver
from repro.core.events import GraphEvent, add_edge, add_vertex, marker, speed
from repro.core.sharding import (
    ShardedReplayer,
    WorkerConfig,
    replay_shard,
    write_shards,
)
from repro.errors import ConnectorError, ReplayError, StreamFormatError

FAST = 5_000_000
BATCH = 16


def _events(graph_pairs: int = 100):
    out = [marker("start")]
    for i in range(graph_pairs):
        out.append(add_vertex(i, f"p{i}"))
        out.append(add_edge(i, (i * 7) % graph_pairs, f"w={i}"))
        if i == graph_pairs // 2:
            out.append(speed(2.0))
            out.append(marker("mid"))
    out.append(marker("end"))
    return out


def _write(path, events=None):
    binfmt.write_binary_stream(
        path, _events() if events is None else events, batch_records=BATCH
    )
    return str(path)


def _view_events(path, view):
    return [
        event
        for chunk in codec.iter_parse_chunks(path, view=view)
        for event in chunk
    ]


def _graph_frame_offsets(path):
    return [
        offset
        for offset, __, kind in binfmt.read_frame_index(path)
        if kind == binfmt.FRAME_GRAPH
    ]


#: Where a decode shard comes from: a frame view of the source, an
#: entity-hash shard file, or the whole source (the 1-worker replay).
SOURCES = ["view", "hash", "whole-file"]

#: Each source under ``decode`` emission (which proves the shard before
#: emitting) and ``events`` emission (which parses while it emits).
FLIP_CASES = [
    pytest.param(source, "decode", id=source) for source in SOURCES
] + [pytest.param(source, "events", id=f"{source}-events") for source in SOURCES]


def _corrupt_shard(tmp_path, source):
    """Flip the first record tag of a shard's second graph frame.

    Returns the shard's decode-mode :class:`WorkerConfig`, the flipped
    byte's offset in the file it reads, and a sibling shard as
    ``(path, view)`` (``None`` for the whole file).
    """
    path = _write(tmp_path / "s.gtb")
    view = sibling = None
    if source == "view":
        view, sibling = (1, 2), (path, (0, 2))
    elif source == "hash":
        plan = write_shards(path, 2, tmp_path / "shards", shard_by="hash")
        path, sibling = plan.paths[1], (plan.paths[0], None)
    tag_at = _graph_frame_offsets(path)[1] + binfmt.FRAME_HEADER_SIZE
    data = bytearray(Path(path).read_bytes())
    data[tag_at] ^= 0x80  # unknown record tag
    Path(path).write_bytes(data)
    config = WorkerConfig(
        index=0 if source == "whole-file" else 1,
        path=path,
        rate=FAST,
        emission="decode",
        view=view,
    )
    return config, tag_at, sibling


class TestViewContents:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_union_is_source_and_controls_replicate(self, tmp_path, workers):
        path = _write(tmp_path / "s.gtb")
        source = _events()
        controls = [e for e in source if not isinstance(e, GraphEvent)]
        union = collections.Counter()
        plan = write_shards(path, workers, None)
        assert plan.frame_views and plan.paths == (path,) * workers
        for index in range(workers):
            events = _view_events(path, plan.view(index))
            graph = [e for e in events if isinstance(e, GraphEvent)]
            assert len(graph) == plan.graph_events[index]
            union.update(graph)
            assert [e for e in events if not isinstance(e, GraphEvent)] == (
                controls
            )
        assert union == collections.Counter(
            e for e in source if isinstance(e, GraphEvent)
        )
        assert plan.control_events == len(controls)

    def test_views_are_frame_granular_round_robin(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        frames = [
            bytes(item.data)
            for item in binfmt.iter_binary_batches(path)
            if isinstance(item, codec.RawBatch)
        ]
        for index in range(3):
            mine = [
                bytes(item.data)
                for item in binfmt.iter_binary_batches(path, (index, 3))
                if isinstance(item, codec.RawBatch)
            ]
            assert mine == frames[index::3]
        counts = write_shards(path, 3, None).graph_events
        assert max(counts) - min(counts) <= BATCH

    def test_footer_cut_gives_the_same_views(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        data = open(path, "rb").read()
        index_offset = binfmt._frames_end(data)
        cut = tmp_path / "cut.gtb"
        cut.write_bytes(data[:index_offset])
        assert binfmt.read_frame_index(str(cut)) is None
        for workers in (1, 2, 3, 4):
            cut_plan = write_shards(str(cut), workers, None)
            plan = write_shards(path, workers, None)
            assert cut_plan.graph_events == plan.graph_events
            assert cut_plan.control_events == plan.control_events
            for index in range(workers):
                assert _view_events(str(cut), (index, workers)) == (
                    _view_events(path, (index, workers))
                )

    def test_indexed_view_reads_no_other_frame(self, tmp_path, monkeypatch):
        """With an index a worker takes its own frames' offsets from it:
        no header walk, and no header read outside its own frames."""
        path = _write(tmp_path / "s.gtb")

        def no_walk(*args):
            raise AssertionError("indexed view walked the frame headers")

        monkeypatch.setattr(binfmt, "_walk_frames", no_walk)
        read_at = []
        header = binfmt._FRAME_HEADER

        class Recording:
            size = header.size

            @staticmethod
            def unpack_from(buffer, offset=0):
                read_at.append(offset)
                return header.unpack_from(buffer, offset)

        monkeypatch.setattr(binfmt, "_FRAME_HEADER", Recording)
        list(binfmt.iter_binary_batches(path, (1, 2)))
        index = binfmt.read_frame_index(path)
        graph = [o for o, __, kind in index if kind == binfmt.FRAME_GRAPH]
        control = [o for o, __, kind in index if kind == binfmt.FRAME_CONTROL]
        assert sorted(read_at) == sorted(graph[1::2] + control)

    def test_more_workers_than_graph_frames(self, tmp_path):
        events = [marker("a"), add_vertex(1), add_vertex(2), marker("b")]
        path = _write(tmp_path / "s.gtb", events)
        outs = [tmp_path / f"o{i}.gtb" for i in range(4)]
        replayer = ShardedReplayer(
            path,
            [PipeSpec(target=str(o)) for o in outs],
            rate=FAST,
            workers=4,
            emission="decode",
        )
        report = replayer.run()
        assert replayer.plan.graph_events == (2, 0, 0, 0)
        assert [s.events_emitted for s in report.shards] == [2, 0, 0, 0]
        for shard in report.shards:
            assert [label for label, __ in shard.marker_times] == ["a", "b"]

    def test_bad_views_are_rejected(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        for view in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(ValueError):
                list(binfmt.iter_binary_batches(path, view))
        csv_path = tmp_path / "s.csv"
        codec.write_stream_file(csv_path, _events(), format="csv")
        with pytest.raises(ValueError):
            list(codec.iter_raw_batches(csv_path, view=(0, 2)))
        with pytest.raises(ValueError):
            write_shards(str(csv_path), 2, None)

    def test_worker_config_with_view_pickles(self):
        config = WorkerConfig(index=1, path="s.gtb", rate=1.0, view=(1, 2))
        assert pickle.loads(pickle.dumps(config)) == config


class TestViewVerification:
    def test_views_verify_each_graph_frame_once(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        index = binfmt.read_frame_index(path)
        controls = sum(1 for __, __, k in index if k == binfmt.FRAME_CONTROL)
        graph_frames = len(index) - controls
        proofs = [witness.preverify_shard(path, view=(k, 3)) for k in range(3)]
        assert sum(frames - controls for frames, __ in proofs) == graph_frames
        assert sum(records - controls for __, records in proofs) == 200

    @pytest.mark.parametrize("source, emission", FLIP_CASES)
    def test_flipped_frame_fails_before_emission(
        self, tmp_path, source, emission
    ):
        config, tag_at, sibling = _corrupt_shard(tmp_path, source)
        config = dataclasses.replace(config, emission=emission)
        sent = []
        transport = CallbackTransport(lambda line: sent.append(line))
        if emission == "decode":
            with pytest.raises(StreamFormatError) as caught:
                replay_shard(config, transport)
            error = caught.value
            assert sent == []
        else:
            # The reader parses while the emitter sends, so frames
            # before the flip may go out; the cause is located.
            with pytest.raises(ReplayError) as caught:
                replay_shard(config, transport)
            error = caught.value.__cause__
            assert isinstance(error, StreamFormatError)
        assert error.byte_offset == tag_at
        assert config.path in str(error)
        if sibling is not None:
            # The sibling shard does not hold the flipped frame.
            assert witness.preverify_shard(*sibling)

    @pytest.mark.parametrize("source", SOURCES)
    def test_failed_proof_closes_the_transport(self, tmp_path, source):
        config, __, __ = _corrupt_shard(tmp_path, source)
        frame = binfmt.encode_graph_frame([add_vertex(1)])
        with ShmReceiver(slots=64, arena_bytes=1 << 16) as receiver:
            pipe = PipeSpec(target=str(tmp_path / "out.gtb"))
            for spec in (pipe, receiver.specs[0]):
                sender = spec.build()
                with pytest.raises(StreamFormatError):
                    replay_shard(config, sender)
                with pytest.raises(ConnectorError, match="closed"):
                    sender.send_frame(frame, 1, binary=True)
            # The ring is marked producer-closed: the drain ends.
            receiver.join(timeout=5.0)
        assert receiver.counter.total == 0

    def test_flipped_frame_in_sharded_replay_leaks_nothing(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        frame = _graph_frame_offsets(path)[1]
        tag_at = frame + binfmt.FRAME_HEADER_SIZE
        data = bytearray(open(path, "rb").read())
        data[tag_at] ^= 0x80
        open(path, "wb").write(data)
        worker0 = write_shards(path, 2, None).graph_events[0]
        with ShmReceiver(max_producers=2) as receiver:
            names = [spec.name for spec in receiver.specs]
            with pytest.raises(ReplayError) as caught:
                ShardedReplayer(
                    path, receiver.specs, rate=FAST, workers=2,
                    emission="decode",
                ).run()
        message = str(caught.value)
        assert "worker 1: StreamFormatError" in message
        assert f"byte offset {tag_at}" in message
        assert "worker 0" not in message
        assert receiver.counter.total == worker0
        assert not any(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
        )

    def test_lying_index_entry_is_a_typed_error(self, tmp_path):
        path = _write(tmp_path / "s.gtb")
        data = bytearray(open(path, "rb").read())
        entries_at = binfmt._frames_end(data) + len(binfmt.INDEX_MAGIC) + 4
        entry = binfmt._INDEX_ENTRY
        offset, count, kind = entry.unpack_from(data, entries_at)
        entry.pack_into(data, entries_at, offset, count + 1, kind)
        open(path, "wb").write(data)
        with pytest.raises(StreamFormatError) as caught:
            list(binfmt.iter_binary_batches(path, (0, 2)))
        assert caught.value.byte_offset == offset


class TestNoShardFiles:
    def test_two_worker_view_replay_creates_nothing(
        self, tmp_path, monkeypatch
    ):
        path = _write(tmp_path / "s.gtb")

        def no_temp_dir(*args, **kwargs):
            raise AssertionError("a view replay made a temporary directory")

        monkeypatch.setattr(tempfile, "mkdtemp", no_temp_dir)
        monkeypatch.setattr(sharding.tempfile, "mkdtemp", no_temp_dir)
        before = sorted(os.listdir(tmp_path))
        shard_dir = tmp_path / "never"
        with ShmReceiver(max_producers=2) as receiver:
            report = ShardedReplayer(
                path,
                receiver.specs,
                rate=FAST,
                workers=2,
                emission="decode",
                shard_dir=shard_dir,
            ).run()
        assert report.events_emitted == 200 == receiver.counter.total
        assert sorted(os.listdir(tmp_path)) == before


class TestLockstepWalk:
    """The numpy lockstep record walk must agree with the reference
    ``scan_view`` walk, on views and on the whole file: the same counts
    when clean, and a refusal (``None``) wherever ``scan_view``
    raises."""

    @pytest.mark.parametrize("batch", [4, 16, 256])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_counts_match_scan_view(self, tmp_path, batch, workers):
        path = str(tmp_path / "s.gtb")
        binfmt.write_binary_stream(path, _events(150), batch_records=batch)
        views = [(index, workers) for index in range(workers)]
        for view in views + [None]:
            assert witness._walk_view_vector(path, view) == (
                binfmt.scan_view(path, view)
            )

    @pytest.mark.parametrize(
        "corrupt",
        ["tag", "length-overrun", "length-short", "header-count"],
    )
    def test_refuses_where_scan_view_raises(self, tmp_path, corrupt):
        path = str(tmp_path / "s.gtb")
        binfmt.write_binary_stream(path, _events(150), batch_records=4)
        frame = _graph_frame_offsets(path)[20]
        record = frame + binfmt.FRAME_HEADER_SIZE
        data = bytearray(open(path, "rb").read())
        if corrupt == "tag":
            data[record] = 0xEE
        elif corrupt == "length-overrun":
            data[record + 1 : record + 5] = (1 << 20).to_bytes(4, "little")
        elif corrupt == "length-short":
            length = int.from_bytes(data[record + 1 : record + 5], "little")
            data[record + 1 : record + 5] = (length - 1).to_bytes(4, "little")
        else:
            data[frame + 1] += 1
        open(path, "wb").write(data)
        for view in ((0, 1), None):
            assert witness._walk_view_vector(path, view) is None
            with pytest.raises(StreamFormatError):
                binfmt.scan_view(path, view)
            with pytest.raises(StreamFormatError):
                witness.preverify_shard(path, view=view)
