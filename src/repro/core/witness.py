"""Up-front structural proof for binary stream shards.

``--emission decode`` makes every worker prove its shard well-formed
before emitting it.  Walking every record header inside the paced loop
(:func:`repro.core.binfmt.scan_frame`, ~0.13 µs per record of pure
interpreter time) would dominate the replay once the transport itself
is sub-microsecond (the shared-memory ring), so the proof happens once,
before the timed loop, and the loop afterwards only reads frame
headers:

* :func:`preverify_shard` walks the records of every graph frame of
  the shard in *lockstep*: one numpy step per record position across
  all frames at once, instead of one interpreter step per record.  It
  checks what ``scan_frame`` checks — every tag known, every length
  prefix inside its frame, each frame's records tiling its body and
  matching the header count — and decodes every control frame.
* Where the lockstep walk refuses, :func:`~repro.core.binfmt.scan_view`
  walks the same frames again and raises the typed
  :class:`~repro.errors.StreamFormatError` with the offending byte's
  offset in the file.  No frame is ever emitted before its proof.
* :func:`count_verified_frame` then reads each batch's record count
  from the (now proven) frame header — constant work per batch.

The same rule covers every binary decode shard: a whole file (a
1-worker replay or a shard file of its own) and a *frame view* of the
source (round-robin sharding, see :mod:`repro.core.sharding`), whose
worker verifies only its own frames, so N workers together verify each
graph frame once.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.core import binfmt
from repro.errors import StreamFormatError

__all__ = [
    "preverify_shard",
    "count_verified_frame",
]


def preverify_shard(
    path: str | Path, view: tuple[int, int] | None = None
) -> tuple[int, int]:
    """Prove a binary shard well-formed once, before replay.

    Returns ``(frames, records)``.  ``view=None`` is the whole file;
    ``view=(worker, workers)`` is that frame view of ``path`` and only
    its frames are verified.  A malformed frame raises
    :class:`~repro.errors.StreamFormatError` with the offending byte's
    offset in the file.
    """
    proof = _walk_view_vector(path, view)
    if proof is None:
        return binfmt.scan_view(path, view)
    return proof


#: Below this many unfinished frames the lockstep walk hands the rest
#: to ``scan_frame``: a numpy step costs the same for 8 frames as for
#: 800, so a few long frames must not drive the loop.
_LOCKSTEP_MIN_FRAMES = 8


def _walk_view_vector(
    path: str | Path, view: tuple[int, int] | None
) -> "tuple[int, int] | None":
    """:func:`~repro.core.binfmt.scan_view` with numpy: the record walk
    of all the shard's graph frames in lockstep, one numpy step per
    record position instead of one interpreter step per record.

    Returns ``None`` on the first disagreement, so the caller's
    ``scan_view`` reports it with its exact byte offset.
    """
    header_size = binfmt.RECORD_HEADER_SIZE
    mapped = binfmt._open_binary_view(path)
    data = lengths = None
    try:
        graph: list[tuple[int, int, int]] = []
        frames = 0
        for offset, kind, count, end in binfmt._frames(mapped, view):
            frames += 1
            if kind == binfmt.FRAME_GRAPH:
                graph.append((offset + binfmt.FRAME_HEADER_SIZE, count, end))
            else:
                binfmt.decode_event(mapped, offset + binfmt.FRAME_HEADER_SIZE)
        controls = frames - len(graph)
        if not graph:
            return frames, controls
        table = np.array(graph, np.int64)
        counts = table[:, 1]
        empty = table[:, 0] == table[:, 2]
        if (counts[empty] != 0).any():
            return None
        # Compact arrays of the frames still being walked: next record
        # position, frame end, frame number.
        position = table[~empty, 0]
        ends = table[~empty, 2]
        frame = np.nonzero(~empty)[0]
        data = np.frombuffer(mapped, np.uint8)
        # Every byte offset read as a little-endian u32 (unaligned and
        # overlapping): one gather reads each frame's next length prefix.
        lengths = np.ndarray(
            (len(data) - 3,), dtype="<u4", buffer=mapped, strides=(1,)
        )
        tag_ok = np.zeros(256, np.bool_)
        tag_ok[list(binfmt._KNOWN_TAGS)] = True
        records = 0
        step = 0
        while frame.size >= _LOCKSTEP_MIN_FRAMES:
            if (position + header_size > ends).any():
                return None
            if not tag_ok[data[position]].all():
                return None
            position += header_size + lengths[position + 1].astype(np.int64)
            step += 1
            done = position >= ends
            if done.any():
                # Every frame took one record per step, so a frame that
                # ends now holds ``step`` records.
                if (position[done] != ends[done]).any() or (
                    counts[frame[done]] != step
                ).any():
                    return None
                records += step * int(done.sum())
                keep = ~done
                position, ends, frame = position[keep], ends[keep], frame[keep]
        for index in frame.tolist():
            start = graph[index][0] - binfmt.FRAME_HEADER_SIZE
            records += binfmt.scan_frame(mapped[start : graph[index][2]])
        return frames, records + controls
    except StreamFormatError:
        return None
    finally:
        del data, lengths
        try:
            mapped.close()
        except BufferError:
            pass


_frame_header_unpack = binfmt._FRAME_HEADER.unpack_from


def count_verified_frame(frame) -> int:
    """Per-batch count for a verified shard: the frame header (already
    proven against the record walk) is read, not re-walked.  This is the
    decode-mode hot loop — one ``unpack_from`` per batch."""
    try:
        return _frame_header_unpack(frame, 0)[1]
    except struct.error:
        raise StreamFormatError(
            "truncated binary frame header", byte_offset=0
        ) from None
