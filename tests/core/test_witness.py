"""Up-front shard proof tests: ``preverify_shard`` must accept exactly
what the per-frame walk accepts and reject corruption with a typed
error at the offending byte's file offset."""

from __future__ import annotations

import pytest

from repro.core import binfmt, witness
from repro.core.events import add_edge, add_vertex, marker
from repro.errors import StreamFormatError


def _events(n: int = 50):
    out = []
    for i in range(n):
        out.append(add_vertex(i))
        if i:
            out.append(add_edge(i - 1, i))
    out.append(marker("done"))
    return out


@pytest.fixture
def stream(tmp_path):
    """A binary stream file and the events it holds."""
    path = tmp_path / "shard.gtb"
    events = _events()
    binfmt.write_binary_stream(path, events, batch_records=16)
    return path, events


class TestPreverify:
    def test_clean_stream_verifies(self, stream):
        path, events = stream
        frames, records = witness.preverify_shard(path)
        assert records == len(events)
        assert frames == len(binfmt.read_frame_index(path))

    def test_missing_stream_raises(self, stream):
        path, __ = stream
        path.unlink()
        with pytest.raises(FileNotFoundError):
            witness.preverify_shard(path)


class TestStreamCorruption:
    """Byte corruption raises at the flipped byte's file offset."""

    def _flip(self, path, offset: int, value: int) -> None:
        data = bytearray(path.read_bytes())
        data[offset] = value
        path.write_bytes(bytes(data))

    def test_frame_kind_byte(self, stream):
        path, __ = stream
        self._flip(path, len(binfmt.MAGIC), 0xEF)
        with pytest.raises(StreamFormatError, match="frame kind") as info:
            witness.preverify_shard(path)
        assert info.value.byte_offset == len(binfmt.MAGIC)

    def test_frame_count_byte(self, stream):
        path, __ = stream
        self._flip(path, len(binfmt.MAGIC) + 1, 0xEF)
        with pytest.raises(StreamFormatError, match="promises") as info:
            witness.preverify_shard(path)
        assert info.value.byte_offset == len(binfmt.MAGIC) + 1

    def test_record_tag(self, stream):
        path, __ = stream
        first_record = len(binfmt.MAGIC) + binfmt.FRAME_HEADER_SIZE
        self._flip(path, first_record, 0xEE)
        with pytest.raises(StreamFormatError, match="record tag") as info:
            witness.preverify_shard(path)
        assert info.value.byte_offset == first_record

    def test_record_length_prefix(self, stream):
        path, __ = stream
        first_record = len(binfmt.MAGIC) + binfmt.FRAME_HEADER_SIZE
        self._flip(path, first_record + 1, 0xEF)
        frame = f"frame at byte offset {len(binfmt.MAGIC)}:"
        with pytest.raises(StreamFormatError, match=frame):
            witness.preverify_shard(path)


class TestCountVerifiedFrame:
    def test_reads_header_count(self):
        frame = binfmt.encode_graph_frame([add_vertex(i) for i in range(7)])
        assert witness.count_verified_frame(frame) == 7

    def test_truncated_frame(self):
        with pytest.raises(StreamFormatError, match="truncated"):
            witness.count_verified_frame(b"\x00\x01")
