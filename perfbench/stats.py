"""Pure measurement arithmetic: delivery lag, percentiles, accounting.

Kept free of process and I/O code so the benchmark's own tests can feed
it synthetic arrival logs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: A percentile is reported only if at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def shard_lags(
    arrivals: Iterable[tuple[float, int]], started_at: float, rate: float
) -> np.ndarray:
    """Per-event delivery lag (seconds) of one shard.

    ``arrivals`` is the shard's receiver log in arrival order: the time
    each receiver batch arrived and how many events it held.  The k-th
    event of the shard (0-based, in arrival order) is due at
    ``started_at + k / rate``; its lag is the arrival time of the batch
    holding it minus that due time.
    """
    chunks = []
    position = 0
    for arrived, count in arrivals:
        ranks = np.arange(position, position + count, dtype=np.float64)
        chunks.append(arrived - (started_at + ranks / rate))
        position += count
    if not chunks:
        return np.empty(0)
    return np.concatenate(chunks)


def completion_lags(
    due: Sequence[float], samples: Sequence[tuple[float, int]]
) -> np.ndarray:
    """Per-event lag from a sampled cumulative completion curve.

    ``samples`` are ``(time, completed_so_far)`` observations with both
    columns non-decreasing.  Event k counts as complete at the first
    sample whose count exceeds k; its lag is that time minus ``due[k]``.
    Events never seen complete are left out (the caller counts them).
    """
    times = np.asarray([time for time, __ in samples], dtype=np.float64)
    done = np.asarray([count for __, count in samples], dtype=np.int64)
    due_array = np.asarray(due, dtype=np.float64)
    index = np.searchsorted(done, np.arange(1, len(due_array) + 1), side="left")
    seen = index < len(times)
    return times[index[seen]] - due_array[seen]


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if not len(data):
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(q / 100.0 * len(data), 9)))
    return float(data[rank - 1])


def supported_percentile(samples: int) -> float:
    """The highest of p50/p90/p99/p99.9 with ``TAIL_SAMPLES`` samples
    beyond its nearest rank (0.0 when even the median is unsupported)."""
    best = 0.0
    for permille in (500, 900, 990, 999):
        rank = -(-permille * samples // 1000)
        if samples - rank >= TAIL_SAMPLES:
            best = permille / 10.0
    return best


def failed_events(expected: int, delivered: int) -> int:
    """Failed operations of one repetition whose other checks passed.

    An operation is one stream event: every event not delivered fails,
    and so does every duplicate delivery.
    """
    return min(expected, abs(expected - delivered))
