"""Unit tests for the shared-memory SPSC ring and its flat slot stream.

The ring is validated, not trusted: every descriptor check that guards
a live consumer must raise a typed
:class:`~repro.errors.StreamFormatError` carrying the byte offset of
the offending descriptor, and the segment lifecycle must never leak a
``/dev/shm`` entry.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core import binfmt, shm
from repro.core.events import add_vertex
from repro.errors import ConnectorError, StreamFormatError


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def _frame(n_records: int, base: int = 0) -> bytes:
    return binfmt.encode_graph_frame(
        [add_vertex(base + i) for i in range(n_records)]
    )


@pytest.fixture
def ring():
    ring = shm.ShmRing.create(slots=16, arena_bytes=1 << 14)
    try:
        yield ring
    finally:
        ring.close()
        ring.unlink()


class TestRingRoundTrip:
    def test_push_pop_preserves_payload_count_kind(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        frames = [_frame(3, base=10 * i) for i in range(5)]
        for frame in frames:
            producer.push(frame, 3, shm.SLOT_FRAME)
        producer.push(b"a,b\nc,d\n", 2, shm.SLOT_RAW)
        assert producer.push_eof()

        slots = consumer.pop_available()
        assert [slot.kind for slot in slots] == (
            [shm.SLOT_FRAME] * 5 + [shm.SLOT_RAW, shm.SLOT_EOF]
        )
        assert [slot.count for slot in slots] == [3, 3, 3, 3, 3, 2, 0]
        for slot, frame in zip(slots, frames):
            assert bytes(slot.payload) == frame
            slot.payload.release()
        assert bytes(slots[5].payload) == b"a,b\nc,d\n"
        slots[5].payload.release()
        consumer.advance()
        assert consumer.finished
        assert consumer.producer_done()

    def test_wraparound_many_times(self, ring):
        # 16KB arena, ~700B slots: hundreds of pushes wrap repeatedly;
        # payload bytes must survive every wrap (including the padded
        # end-of-arena slots).
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        for i in range(300):
            payload = bytes([i & 0xFF]) * (600 + (i % 7) * 50)
            producer.push(payload, 1, shm.SLOT_RAW)
            (slot,) = consumer.pop_available()
            assert slot.seq == i
            assert bytes(slot.payload) == payload
            slot.payload.release()
            consumer.advance()

    def test_push_many_matches_push(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        items = [(_frame(2, base=i), 2) for i in range(12)]
        producer.push_many(items, shm.SLOT_FRAME)
        slots = consumer.pop_available()
        assert len(slots) == 12
        for slot in slots:
            assert bytes(slot.payload) == items[slot.seq][0]
            slot.payload.release()
        consumer.advance()

    def test_push_many_blocks_and_drains_full_ring(self, ring):
        # More slots than the ring holds: push_many must publish what it
        # wrote, wait for space, and finish once the consumer drains.
        import threading

        producer = shm.RingProducer(ring, stall_timeout=10.0)
        consumer = shm.RingConsumer(ring)
        items = [(b"x" * 64, 1)] * 100

        done = threading.Event()

        def produce():
            producer.push_many(items, shm.SLOT_RAW)
            producer.push_eof()
            done.set()

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        records = 0
        while True:
            consumed, counted, finished = consumer.drain_counts()
            consumer.advance()
            records += counted
            if finished:
                break
        thread.join(10.0)
        assert done.is_set()
        assert records == 100
        assert producer.wait_count >= 1


class TestRingBlocking:
    def test_stall_timeout_raises(self, ring):
        producer = shm.RingProducer(ring, stall_timeout=0.2)
        with pytest.raises(ConnectorError, match="stalled"):
            for __ in range(17):  # 16 slots: the 17th must block
                producer.push(b"x", 1, shm.SLOT_RAW)

    def test_consumer_closed_fails_fast(self, ring):
        producer = shm.RingProducer(ring, stall_timeout=30.0)
        for __ in range(16):
            producer.push(b"x", 1, shm.SLOT_RAW)
        ring.set_consumer_closed()
        with pytest.raises(ConnectorError, match="consumer is closed"):
            producer.push(b"x", 1, shm.SLOT_RAW)

    def test_push_many_to_closed_consumer_fails_with_room_left(self, ring):
        producer = shm.RingProducer(ring)
        ring.set_consumer_closed()
        with pytest.raises(ConnectorError, match="consumer is closed"):
            producer.push_many([(b"x", 1)], shm.SLOT_RAW)
        assert ring.head_seq() == 0

    def test_oversized_slot_rejected(self, ring):
        producer = shm.RingProducer(ring)
        with pytest.raises(ConnectorError, match="exceeds half"):
            producer.push(b"x" * ((1 << 13) + 1), 1, shm.SLOT_RAW)

    def test_push_eof_reports_failure(self, ring):
        # A free ring accepts the EOF slot even after the consumer
        # closed (no blocking, no check); a full ring must fail fast.
        producer = shm.RingProducer(ring)
        for __ in range(16):
            producer.push(b"x", 1, shm.SLOT_RAW)
        ring.set_consumer_closed()
        assert producer.push_eof(timeout=0.1) is False


class TestRingCorruption:
    def _poke_desc(self, ring, seq: int, field: int, value: int) -> int:
        """Overwrite one u32 field of slot ``seq``'s descriptor; returns
        the descriptor's byte offset."""
        desc_off = shm._DESC_OFF + (seq % ring.slots) * shm._DESC.size
        struct.pack_into("<I", ring._buf, desc_off + field * 4, value)
        return desc_off

    def test_unknown_kind_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push(b"x", 1, shm.SLOT_RAW)
        desc_off = self._poke_desc(ring, 0, 5, 99)
        with pytest.raises(StreamFormatError, match="unknown slot kind") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_sequence_mismatch_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push(b"x", 1, shm.SLOT_RAW)
        desc_off = self._poke_desc(ring, 0, 4, 7)
        with pytest.raises(StreamFormatError, match="sequence mismatch") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_corrupt_geometry_raises_with_offset(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push(b"abcd", 1, shm.SLOT_RAW)
        desc_off = self._poke_desc(ring, 0, 0, 4096)  # bogus arena offset
        with pytest.raises(StreamFormatError, match="corrupt geometry") as info:
            consumer.pop_available()
        assert info.value.byte_offset == desc_off

    def test_drain_counts_frame_count_mismatch(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push(_frame(3), 5, shm.SLOT_FRAME)  # descriptor lies
        with pytest.raises(StreamFormatError, match="disagrees"):
            consumer.drain_counts()

    def test_drain_counts_raw_line_mismatch(self, ring):
        producer = shm.RingProducer(ring)
        consumer = shm.RingConsumer(ring)
        producer.push(b"one\ntwo\n", 3, shm.SLOT_RAW)
        with pytest.raises(StreamFormatError, match="lines"):
            consumer.drain_counts()

    def test_vector_and_loop_paths_count_alike(self, ring):
        # 12 slots takes the vectorized drain (threshold 8); 4 the loop.
        for n in (12, 4):
            producer = shm.RingProducer(ring)
            consumer = shm.RingConsumer(ring)
            for i in range(n):
                producer.push(_frame(2, base=i), 2, shm.SLOT_FRAME)
            producer.push_eof()
            consumed, records, finished = consumer.drain_counts()
            consumer.advance()
            assert (consumed, records, finished) == (n + 1, 2 * n, True)


class TestRingLifecycle:
    def test_close_and_unlink_idempotent_and_reclaim(self):
        ring = shm.ShmRing.create(slots=16, arena_bytes=4096)
        name = ring.name
        assert _segment_exists(name)
        ring.close()
        ring.close()
        ring.unlink()
        ring.unlink()
        assert not _segment_exists(name)

    def test_attach_round_trip_and_owner_unlink(self):
        owner = shm.ShmRing.create(slots=16, arena_bytes=4096)
        try:
            peer = shm.ShmRing.attach(owner.name)
            producer = shm.RingProducer(peer)
            producer.push(b"hi\n", 1, shm.SLOT_RAW)
            consumer = shm.RingConsumer(owner)
            (slot,) = consumer.pop_available()
            assert bytes(slot.payload) == b"hi\n"
            slot.payload.release()
            consumer.advance()
            peer.close()
        finally:
            owner.close()
            owner.unlink()
        assert not _segment_exists(owner.name)

    def test_attach_unknown_name_raises(self):
        with pytest.raises(ConnectorError, match="cannot attach"):
            shm.ShmRing.attach("graphtides-no-such-segment")

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(ConnectorError, match="not a GTRB ring"):
                shm.ShmRing.attach(segment.name)
        finally:
            segment.close()
            segment.unlink()

    def test_create_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="power of two"):
            shm.ShmRing.create(slots=12)
        with pytest.raises(ValueError, match="positive"):
            shm.ShmRing.create(slots=16, arena_bytes=0)


class TestSlotStream:
    def _slots(self):
        return [
            (shm.SLOT_FRAME, 2, _frame(2)),
            (shm.SLOT_RAW, 2, b"a\nb\n"),
            (shm.SLOT_EOF, 0, b""),
        ]

    def test_round_trip(self):
        data = shm.dump_slot_stream(self._slots())
        assert data.startswith(shm.SLOT_STREAM_MAGIC)
        walked = [
            (kind, count, bytes(payload))
            for kind, count, payload in shm.iter_slot_stream(data)
        ]
        assert walked == [
            (kind, count, bytes(payload))
            for kind, count, payload in self._slots()
        ]
        assert shm.scan_slot_stream(data) == (3, 4)

    def test_bad_magic(self):
        with pytest.raises(StreamFormatError, match="GTRS magic") as info:
            list(shm.iter_slot_stream(b"NOPE" + b"\0" * 16))
        assert info.value.byte_offset == 0

    def test_truncated_header(self):
        data = shm.dump_slot_stream(self._slots())[: len(shm.SLOT_STREAM_MAGIC) + 7]
        with pytest.raises(StreamFormatError, match="truncated slot header") as info:
            list(shm.iter_slot_stream(data))
        assert info.value.byte_offset == len(shm.SLOT_STREAM_MAGIC)

    def test_payload_overrun_offset(self):
        data = bytearray(shm.dump_slot_stream(self._slots()))
        # First slot header starts right after the magic; field 1 = size.
        struct.pack_into("<I", data, len(shm.SLOT_STREAM_MAGIC) + 4, 1 << 24)
        with pytest.raises(StreamFormatError, match="overruns") as info:
            list(shm.iter_slot_stream(bytes(data)))
        assert info.value.byte_offset == len(shm.SLOT_STREAM_MAGIC)

    def test_sequence_mismatch(self):
        data = bytearray(shm.dump_slot_stream(self._slots()))
        struct.pack_into("<I", data, len(shm.SLOT_STREAM_MAGIC), 5)
        with pytest.raises(StreamFormatError, match="sequence mismatch"):
            list(shm.iter_slot_stream(bytes(data)))

    def test_unknown_kind(self):
        data = bytearray(shm.dump_slot_stream(self._slots()))
        data[len(shm.SLOT_STREAM_MAGIC) + 12] = 77
        with pytest.raises(StreamFormatError, match="unknown slot kind"):
            list(shm.iter_slot_stream(bytes(data)))

    def test_data_after_eof(self):
        data = shm.dump_slot_stream(self._slots()) + b"trailing"
        with pytest.raises(StreamFormatError, match="after the EOF"):
            list(shm.iter_slot_stream(data))

    def test_nonempty_eof(self):
        data = shm.dump_slot_stream(
            [(shm.SLOT_EOF, 1, b"")]
        )
        with pytest.raises(StreamFormatError, match="EOF slot must be empty"):
            list(shm.iter_slot_stream(data))

    def test_scan_catches_frame_payload_corruption(self):
        frame = bytearray(_frame(2))
        frame[binfmt.FRAME_HEADER_SIZE] = 0xEE  # first record's tag
        data = shm.dump_slot_stream(
            [(shm.SLOT_FRAME, 2, bytes(frame)), (shm.SLOT_EOF, 0, b"")]
        )
        with pytest.raises(StreamFormatError, match="corrupt frame payload"):
            shm.scan_slot_stream(data)

    def test_scan_catches_count_disagreement(self):
        data = shm.dump_slot_stream(
            [(shm.SLOT_FRAME, 9, _frame(2)), (shm.SLOT_EOF, 0, b"")]
        )
        with pytest.raises(StreamFormatError, match="header claims"):
            shm.scan_slot_stream(data)
