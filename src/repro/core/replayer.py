"""Live (wall-clock) graph stream replayer (paper section 5.1).

"The graph stream replayer ... is specifically designed for emitting a
stream of events with a uniform, yet tunable event rate.  Streaming is
decoupled from reading the stream graph file.  We use a multi-threaded
design to decouple both tasks and to ensure high throughput.  Emitting
stream events is handled by a dedicated thread that uses high precision
timestamps and busy-waiting for timeliness."

This implementation follows that design: a reader thread parses the
stream file into a bounded hand-off queue while the emitter thread
paces deliveries with a :class:`Pacer`.  The Pacer is the one
emission clock of every replay loop in the package (the sharded raw
and decode loops use it too): a token bucket on the unified trace
clock with a hybrid sleep/busy-wait, ``SPEED`` and ``PAUSE`` handling
at their stream position, and per-window egress rates so the actual
achieved rate can be analysed afterwards (the Figure 3a measurement).

Both sides of the hand-off are batched: the reader enqueues *chunks*
(lists of events) so the queue costs one put/get per ``read_chunk``
events rather than per event, and the emitter sends up to
``batch_size`` events per Pacer wakeup through
``Transport.send_many``.  ``batch_size=1`` reproduces the unbatched
per-event pacing exactly; larger batches trade per-event timing
granularity for a substantially higher saturation rate (see
``benchmarks/bench_codec_throughput.py``).  Control events always take
effect at their exact stream position: a pending batch is flushed
before any ``MARKER``/``SPEED``/``PAUSE`` is handled.

Resilience: the replayer checkpoints at every marker boundary.  When a
transport failure escapes the delivery layer (see
:mod:`repro.core.resilience`) and ``max_resumes`` allows it, the replay
*resumes* from the last checkpoint instead of dying: the source is
re-read, events up to the checkpoint are fast-forwarded without
emission, and events after it are re-emitted (at-least-once
redelivery, counted in the report).  Resume requires a re-iterable
source (file path, :class:`~repro.core.stream.GraphStream`, list).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.core import codec
from repro.core.connectors import Transport
from repro.core.events import (
    Event,
    GraphEvent,
    MarkerEvent,
    PauseEvent,
    SpeedEvent,
)
from repro.core.metrics import percentile
from repro.core.resilience import FaultCounters, collect_fault_counters
from repro.core.stream import GraphStream
from repro.core.tracing import TraceClock, Tracer, shared_clock
from repro.errors import ConnectorError, ReplayError

__all__ = ["LiveReplayer", "Pacer", "ReplayReport", "ReplayCheckpoint"]

_SENTINEL = object()


@dataclass(frozen=True, slots=True)
class ReplayCheckpoint:
    """A resume point taken at a marker boundary.

    ``position`` is the number of stream items fully handled before
    the checkpoint (the fast-forward distance on resume);
    ``speed_factor`` restores the rate state the markers were passed
    at; ``marker_count`` is how many marker timestamps were recorded,
    so a failed attempt's markers can be rolled back.
    """

    label: str
    position: int
    emitted: int
    speed_factor: float
    marker_count: int


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of a live replay.

    ``events_emitted`` counts every delivered emission, including
    re-emissions after a checkpoint resume; ``redeliveries`` counts the
    lines that may have reached the system under test more than once
    (transport-level unacknowledged resends plus checkpoint-rewind
    re-emissions), so ``events_emitted - redeliveries`` is the
    exactly-once floor.  The fault counters are zero for replays
    through plain transports.
    """

    events_emitted: int
    duration: float
    window_rates: tuple[float, ...]
    marker_times: tuple[tuple[str, float], ...]
    retries: int = 0
    redeliveries: int = 0
    breaker_openings: int = 0
    chaos_faults: int = 0
    resumes: int = 0
    checkpoints: int = 0
    #: Run start on the replay's :class:`~repro.core.tracing.TraceClock`
    #: — add it to the (run-relative) ``marker_times`` to place markers
    #: on the same epoch as probe and receiver records.
    started_at: float = 0.0

    @property
    def mean_rate(self) -> float:
        return self.events_emitted / self.duration if self.duration > 0 else 0.0

    def rate_percentile(self, q: float) -> float:
        """Percentile ``q`` of the per-window achieved rates.

        Falls back to the mean rate when the run was shorter than one
        measurement window.
        """
        if not self.window_rates:
            return self.mean_rate
        return percentile(self.window_rates, q)

    @property
    def p5_rate(self) -> float:
        """5th percentile of the per-window achieved rates."""
        return self.rate_percentile(5)

    @property
    def median_rate(self) -> float:
        """Median of the per-window achieved rates."""
        return self.rate_percentile(50)

    @property
    def p95_rate(self) -> float:
        """95th percentile of the per-window achieved rates."""
        return self.rate_percentile(95)


class Pacer:
    """The clock of one replay: a token bucket and its rate records.

    Events are due at ``rate`` events per second times the ``SPEED``
    factor in effect, and a batch is due with its last event, so no
    event is sent ahead of its time.  :meth:`pace` sleeps to about
    1 ms before the deadline and busy-waits the rest; a caller more
    than one window behind forfeits the debt, so a slow transport
    degrades the rate instead of bursting afterwards.  A replay loop
    calls ``pace(count)`` right before sending each batch, hands its
    control events to :meth:`marker` and :meth:`control`, and ends with
    :meth:`finish`.  ``window_rates`` gets one entry per closed window,
    ``marker_times`` are run-relative and ``start`` is the run start on
    ``clock``.

    ``flush`` is the loop's transport flush.  The Pacer calls it
    whenever it is about to wait (the next batch is not yet due, or a
    ``PAUSE`` sleeps), so no sent event sits in a producer buffer while
    the Pacer waits: paced events arrive paced, not in
    ``flush_every``-sized bursts.  (A loop blocked on its source, not
    on the Pacer, still holds its last sends until the next flush.)
    A flat-out run is never ahead of schedule and keeps pure
    count-based flushing, and a flush that makes the producer fall
    behind stops the extra flushes by itself.
    """

    #: Sleep when more than this far from the deadline; busy-wait below it.
    _SPIN_THRESHOLD = 0.0015

    @staticmethod
    def check(rate: float, window_seconds: float) -> None:
        """Reject a non-positive rate or window."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {window_seconds}"
            )

    def __init__(
        self,
        rate: float,
        window_seconds: float,
        clock: TraceClock,
        flush: Callable[[], None],
    ):
        self.check(rate, window_seconds)
        self._now = clock.now
        self._flush = flush
        self._rate = rate
        self._window_seconds = window_seconds
        self.speed_factor = 1.0
        self._interval = 1.0 / rate
        self.window_rates: list[float] = []
        self.marker_times: list[tuple[str, float]] = []
        self.start = self._now()
        self._next_emit = self._sent_at = self._window_start = self.start
        self._window_count = 0

    # hot-path
    def pace(self, count: int) -> None:
        """Block until the next batch, of ``count`` events, is due,
        flushing the transport first when there is time to wait.

        The previous batch is booked into its window here, once the
        caller comes back for the next one, so a batch whose send
        raised is never counted.
        """
        if self._sent_at - self._window_start >= self._window_seconds:
            self._close_window()
        now = self._now()
        # A batch is due with its last event, so no event leaves early.
        deadline = self._next_emit + (count - 1) * self._interval
        wait = deadline - now
        if wait > 0:
            # Ahead of schedule: deliver what the transport buffers
            # before waiting, then wait out whatever time is left.
            self._flush()
            now = self._now()
            wait = deadline - now
        if wait > 0:
            if wait > self._SPIN_THRESHOLD:
                # pacing sleep, bounded by the next emit slot
                time.sleep(wait - 0.001)  # repro-check: disable=HOT001
            clock = self._now
            while clock() < deadline:
                pass
            now = deadline
        elif -wait > self._window_seconds:
            deadline = now
        self._next_emit = deadline + self._interval
        self._window_count += count
        self._sent_at = now

    def _close_window(self) -> None:
        elapsed = self._sent_at - self._window_start
        self.window_rates.append(self._window_count / elapsed)
        self._window_start = self._sent_at
        self._window_count = 0

    def finish(self) -> float:
        """Book the last batch; returns the run's duration so far."""
        if self._sent_at - self._window_start >= self._window_seconds:
            self._close_window()
        return self._now() - self.start

    def marker(self, label: str) -> float:
        """Record a ``MARKER`` passed now; returns the clock time."""
        at = self._now()
        self.marker_times.append((label, at - self.start))
        return at

    def control(self, event: Event) -> None:
        """Apply a ``SPEED`` event (rescale the interval) or a ``PAUSE``
        event (flush, sleep, then restart the deadline)."""
        if isinstance(event, SpeedEvent):
            self.speed_factor = event.factor
            self._interval = 1.0 / (self._rate * event.factor)
        elif isinstance(event, PauseEvent):
            self._flush()
            # PAUSE events block by design
            time.sleep(event.seconds)  # repro-check: disable=HOT001
            self._next_emit = self._now()
        else:
            raise ReplayError(f"cannot replay {type(event).__name__}")

    def resume(self, speed_factor: float, marker_count: int) -> None:
        """Restart for a resumed attempt: keep closed windows, drop the
        open one (it holds the batch whose send failed) and the markers
        after the checkpoint, and restore the checkpoint's speed."""
        del self.marker_times[marker_count:]
        self.speed_factor = speed_factor
        self._interval = 1.0 / (self._rate * speed_factor)
        self._next_emit = self._sent_at = self._window_start = self._now()
        self._window_count = 0


class _ReaderThread:
    """One replay attempt's reader: thread + hand-off queue + stop flag.

    Each resume attempt gets a fresh instance, so a reader that is
    stuck in a slow source can never feed chunks into a later
    attempt's queue.
    """

    def __init__(
        self,
        source: GraphStream | str | Path | Iterable[Event],
        read_chunk: int,
        queue_capacity: int,
        trusted_parse: bool,
        tracer: Tracer | None = None,
        view: tuple[int, int] | None = None,
    ):
        self._source = source
        self._read_chunk = read_chunk
        self._trusted_parse = trusted_parse
        self._tracer = tracer
        self._view = view
        # The queue holds chunks, so express the event-denominated
        # capacity in chunk units (at least two so reader and emitter
        # can overlap).
        self.queue: queue.Queue[list[Event] | object] = queue.Queue(
            maxsize=max(2, queue_capacity // read_chunk)
        )
        self._stop = threading.Event()
        # guarded-by: the reader writes before exiting; readers of
        # `error` only look after join(), so the join edge orders it.
        self.error: Exception | None = None
        self._thread = threading.Thread(target=self._read_source, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _put(self, item: list[Event] | object) -> bool:
        """Enqueue ``item``, giving up when the emitter has stopped."""
        while not self._stop.is_set():
            try:
                self.queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    # hot-path
    def _read_source(self) -> None:
        try:
            if isinstance(self._source, (str, Path)):
                for chunk in codec.iter_parse_chunks(
                    self._source,
                    trusted=self._trusted_parse,
                    chunk_events=self._read_chunk,
                    tracer=self._tracer,
                    view=self._view,
                ):
                    if not self._put(chunk):
                        return
            else:
                buffer: list[Event] = []
                for event in self._source:
                    buffer.append(event)
                    if len(buffer) >= self._read_chunk:
                        if not self._put(buffer):
                            return
                        buffer = []
                if buffer:
                    self._put(buffer)
        except Exception as exc:  # surfaced on the emitter thread
            self.error = exc  # guarded-by: join() before error is read
        finally:
            self._put(_SENTINEL)

    def _drain_queue(self) -> None:
        try:
            while True:
                self.queue.get_nowait()
        except queue.Empty:
            pass

    def stop(self, join_timeout: float) -> bool:
        """Stop, drain and join; returns False when the thread leaked.

        A reader stuck inside a blocking source cannot be interrupted;
        after ``join_timeout`` it is abandoned (it is a daemon thread
        and its queue is attempt-local, so it cannot corrupt a resume).
        """
        self._stop.set()
        self._drain_queue()
        self._thread.join(timeout=join_timeout)
        if self._thread.is_alive():
            return False
        # One more drain: the reader may have enqueued its sentinel
        # between our drain and its exit.
        self._drain_queue()
        return True


class LiveReplayer:
    """Replays a stream over a transport at a tunable uniform rate.

    ``source`` is a :class:`GraphStream`, a path to a stream file, or
    any iterable of events.  File sources are parsed on a dedicated
    reader thread, decoupled from emission through a bounded queue of
    event chunks.

    ``batch_size`` is the token-bucket burst size: the emitter sends up
    to that many events per wakeup in a single ``send_many`` call.  The
    default of 1 matches the paper's per-event pacing; raising it (e.g.
    to 32-256) lifts the saturation rate at the cost of event timing
    being uniform only at batch granularity.  ``read_chunk`` is how
    many events the reader hands over per queue operation; it does not
    affect emission timing.

    ``max_resumes`` enables checkpoint resume: when a
    :class:`~repro.errors.ConnectorError` escapes the transport during
    emission, up to that many resumes restart delivery from the last
    marker checkpoint (requires a re-iterable source).
    ``transport_factory`` builds a replacement transport per resume
    (e.g. reconnecting TCP); without it the existing transport is
    reused.  ``resume_delay`` sleeps before each resume so a crashed
    system under test gets time to come back.

    ``clock`` is the unified :class:`~repro.core.tracing.TraceClock`
    the replay paces and stamps with (the process-wide shared clock by
    default, so replayer, receivers and live probes share one epoch).
    ``tracer`` enables per-event tracing: sampled ``encoded`` /
    ``emitted`` spans per batch, ``marker`` instants, and an exact
    ``emitted`` count for span accounting.  ``tracer=None`` (default)
    keeps the hot path untouched.

    ``view=(worker, workers)`` replays one frame view of a binary
    stream file (see :func:`repro.core.binfmt.iter_binary_batches`):
    the sharded replayer's ``events`` emission over a binary source.
    """

    def __init__(
        self,
        source: GraphStream | str | Path | Iterable[Event],
        transport: Transport,
        rate: float,
        window_seconds: float = 1.0,
        queue_capacity: int = 65536,
        batch_size: int = 1,
        read_chunk: int = 1024,
        wire_format: str = "csv",
        trusted_parse: bool = True,
        max_resumes: int = 0,
        resume_delay: float = 0.0,
        transport_factory: Callable[[], Transport] | None = None,
        reader_join_timeout: float = 5.0,
        clock: TraceClock | None = None,
        tracer: Tracer | None = None,
        view: tuple[int, int] | None = None,
    ):
        Pacer.check(rate, window_seconds)
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if read_chunk <= 0:
            raise ValueError(f"read_chunk must be positive, got {read_chunk}")
        if wire_format not in ("csv", "binary"):
            raise ValueError(
                f"unknown wire_format {wire_format!r}; "
                "expected 'csv' or 'binary'"
            )
        if max_resumes < 0:
            raise ValueError(f"max_resumes must be >= 0, got {max_resumes}")
        if resume_delay < 0:
            raise ValueError("resume_delay must be >= 0")
        if reader_join_timeout <= 0:
            raise ValueError("reader_join_timeout must be positive")
        if view is not None and not isinstance(source, (str, Path)):
            raise ValueError("a frame view needs a stream file source")
        self._source = source
        self._transport = transport
        self._base_rate = rate
        self._window_seconds = window_seconds
        self._batch_size = batch_size
        self._read_chunk = read_chunk
        self._wire_format = wire_format
        self._queue_capacity = queue_capacity
        self._trusted_parse = trusted_parse
        self._max_resumes = max_resumes
        self._resume_delay = resume_delay
        self._transport_factory = transport_factory
        self._reader_join_timeout = reader_join_timeout
        if tracer is not None and clock is None:
            clock = tracer.clock
        self._clock = clock if clock is not None else shared_clock()
        self._tracer = tracer
        self._view = view
        #: True when a reader thread could not be joined (stuck source).
        self.reader_leaked = False

    def _resumable(self) -> bool:
        """Resume needs a source that can be iterated again."""
        return isinstance(self._source, (str, Path, GraphStream, list, tuple))

    def _new_reader(self) -> _ReaderThread:
        return _ReaderThread(
            self._source,
            self._read_chunk,
            self._queue_capacity,
            self._trusted_parse,
            tracer=self._tracer,
            view=self._view,
        )

    # -- emission ----------------------------------------------------------

    # hot-path
    def run(self) -> ReplayReport:
        """Replay the whole stream; blocks until finished.

        Raises :class:`ReplayError` when the reader thread failed
        (malformed file) or :class:`ConnectorError` when the transport
        raised and the resume budget is spent.  The transport is closed
        and the reader thread stopped on every exit path.
        """
        batch_size = self._batch_size
        format_lines = codec.format_lines
        binary_wire = self._wire_format == "binary"
        if binary_wire:
            from repro.core.binfmt import encode_graph_frame
        # All pacing and stamping goes through the unified trace clock,
        # so replayer series share an epoch with receivers and probes.
        perf_counter = self._clock.now
        tracer = self._tracer

        # Totals surviving across resume attempts.
        emitted = 0
        resumes = 0
        resume_redeliveries = 0
        checkpoints = 0
        checkpoint = ReplayCheckpoint(
            label="", position=0, emitted=0, speed_factor=1.0, marker_count=0
        )

        # Sampling bookkeeping kept as plain ints so an unsampled traced
        # batch costs one integer comparison over the untraced path.
        # ``next_sample`` is the smallest multiple of the stride >= the
        # current position; exact counts are flushed to the tracer at
        # sampled batches and on every exit path.
        trace_step = tracer.sample_every if tracer is not None else 0
        next_sample = 0
        traced_counted = 0

        def flush_trace_counts() -> None:
            nonlocal traced_counted
            if tracer is not None and emitted > traced_counted:
                tracer.count("emitted", emitted - traced_counted)
                traced_counted = emitted

        # Flush whichever transport is current: a resume may have
        # replaced it through the transport factory.
        pacer = Pacer(
            self._base_rate,
            self._window_seconds,
            self._clock,
            flush=lambda: self._transport.flush(),
        )
        reader_error: Exception | None = None

        while True:
            transport = self._transport
            reader = self._new_reader()
            reader.start()

            position = 0
            resume_at = checkpoint.position
            emitted_since_checkpoint = 0
            pending: list[Event] = []

            def flush() -> None:
                """Wait for the batch's deadline, then burst the whole
                pending batch in one ``send_many``."""
                nonlocal emitted, emitted_since_checkpoint
                nonlocal next_sample, traced_counted
                if not pending:
                    return
                count = len(pending)
                pacer.pace(count)
                if tracer is None or emitted + count <= next_sample:
                    # Pending only ever holds graph events (control
                    # events flush before being handled), so a binary
                    # wire batch is exactly one graph frame.
                    if binary_wire:
                        transport.send_frame(
                            encode_graph_frame(pending), count, binary=True
                        )
                    else:
                        transport.send_many(format_lines(pending))
                else:
                    encode_start = perf_counter()
                    if binary_wire:
                        payload = encode_graph_frame(pending)
                    else:
                        payload = format_lines(pending)
                    encode_end = perf_counter()
                    tracer.record_span(
                        "encoded",
                        "replayer",
                        encode_start,
                        encode_end - encode_start,
                        event_id=emitted,
                        count=count,
                    )
                    if binary_wire:
                        transport.send_frame(payload, count, binary=True)
                    else:
                        transport.send_many(payload)
                    send_end = perf_counter()
                    tracer.record_span(
                        "emitted",
                        "replayer",
                        encode_start,
                        send_end - encode_start,
                        event_id=emitted,
                        count=count,
                    )
                    end_pos = emitted + count
                    next_sample = -(-end_pos // trace_step) * trace_step
                    tracer.count("emitted", end_pos - traced_counted)
                    traced_counted = end_pos
                pending.clear()
                emitted += count
                emitted_since_checkpoint += count

            failure: BaseException | None = None
            try:
                while True:
                    # bounded by reader progress: the reader thread
                    # always enqueues the sentinel (in its finally)
                    chunk = reader.queue.get()  # repro-check: disable=HOT001
                    if chunk is _SENTINEL:
                        break
                    for item in chunk:
                        if position < resume_at:
                            # Fast-forward to the checkpoint: already
                            # delivered before the resume, do not
                            # re-emit, re-pause, or re-record markers.
                            position += 1
                            continue
                        if isinstance(item, GraphEvent):
                            pending.append(item)
                            if len(pending) >= batch_size:
                                flush()
                        elif isinstance(item, MarkerEvent):
                            flush()
                            marker_at = pacer.marker(item.label)
                            if tracer is not None:
                                tracer.instant(
                                    "marker",
                                    "replayer",
                                    timestamp=marker_at,
                                    event_id=emitted,
                                    label=item.label,
                                )
                            checkpoints += 1
                            checkpoint = ReplayCheckpoint(
                                label=item.label,
                                position=position + 1,
                                emitted=emitted,
                                speed_factor=pacer.speed_factor,
                                marker_count=len(pacer.marker_times),
                            )
                            emitted_since_checkpoint = 0
                        else:
                            flush()
                            pacer.control(item)
                        position += 1
                flush()
            except ConnectorError as exc:
                failure = exc
                if not reader.stop(self._reader_join_timeout):
                    self.reader_leaked = True  # guarded-by: emitter-only
                if resumes >= self._max_resumes or not self._resumable():
                    flush_trace_counts()
                    self._close_transport(failure)
                    raise
                # Resume from the last checkpoint: events emitted after
                # it will be delivered again (at-least-once).
                resumes += 1
                resume_redeliveries += emitted_since_checkpoint
                if self._transport_factory is not None:
                    try:
                        transport.close()
                    except ConnectorError:
                        pass
                    self._transport = self._transport_factory()
                if self._resume_delay:
                    # configured reconnect backoff, off the steady path
                    time.sleep(self._resume_delay)  # repro-check: disable=HOT001
                pacer.resume(checkpoint.speed_factor, checkpoint.marker_count)
                continue
            except BaseException as exc:
                failure = exc
                if not reader.stop(self._reader_join_timeout):
                    self.reader_leaked = True  # guarded-by: emitter-only
                flush_trace_counts()
                self._close_transport(failure)
                raise
            else:
                flush_trace_counts()
                duration = pacer.finish()
                if not reader.stop(self._reader_join_timeout):
                    self.reader_leaked = True  # guarded-by: emitter-only
                reader_error = reader.error
                self._close_transport(None)
                break

        if reader_error is not None:
            raise ReplayError(
                f"stream source failed: {reader_error}"
            ) from reader_error
        counters: FaultCounters = collect_fault_counters(self._transport)
        return ReplayReport(
            events_emitted=emitted,
            duration=duration,
            window_rates=tuple(pacer.window_rates),
            marker_times=tuple(pacer.marker_times),
            retries=counters.retries,
            redeliveries=counters.redeliveries + resume_redeliveries,
            breaker_openings=counters.breaker_openings,
            chaos_faults=counters.chaos_faults,
            resumes=resumes,
            checkpoints=checkpoints,
            started_at=pacer.start,
        )

    def _close_transport(self, failure: BaseException | None) -> None:
        """Close the transport; swallow close errors only when already
        propagating a more interesting failure."""
        try:
            self._transport.close()
        except Exception:
            if failure is None:
                raise
