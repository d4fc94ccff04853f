"""Tests for the live (wall-clock) replayer and its transports.

These exercise real threads, pipes and sockets; rates are kept modest
so the tests stay fast and robust on loaded CI machines.
"""

import os
import time

import pytest

from repro.core.connectors import (
    CallbackTransport,
    PipeReceiver,
    PipeTransport,
    TcpReceiver,
    TcpTransport,
    WindowCounter,
)
from repro.core.events import add_vertex, marker, pause, speed
from repro.core.replayer import LiveReplayer, Pacer
from repro.core.sharding import WorkerConfig, replay_shard
from repro.core.stream import GraphStream
from repro.core.tracing import TraceClock
from repro.errors import ConnectorError, ReplayError


def _events(n):
    return [add_vertex(i) for i in range(n)]


#: The paced replay loops: the LiveReplayer, and the sharded raw and
#: decode loops over a stream file.
LOOPS = ["live", "raw", "decode"]


def _paced_replay(loop, tmp_path, items, rate):
    """Replay ``items`` at ``rate`` through ``loop``, one event per
    batch, into a discarding callback."""
    transport = CallbackTransport(lambda l: None)
    if loop == "live":
        return LiveReplayer(GraphStream(items), transport, rate=rate).run()
    path = tmp_path / "s.csv"
    GraphStream(items).write(path)
    config = WorkerConfig(
        index=0, path=str(path), rate=rate, emission=loop, batch_lines=1
    )
    return replay_shard(config, transport)


class TestCallbackReplay:
    def test_all_events_delivered(self):
        received = []
        replayer = LiveReplayer(
            GraphStream(_events(200)),
            CallbackTransport(received.append),
            rate=20_000,
        )
        report = replayer.run()
        assert report.events_emitted == 200
        assert len(received) == 200
        assert received[0] == "ADD_VERTEX,0,"

    @pytest.mark.parametrize("loop", LOOPS)
    def test_rate_is_respected(self, tmp_path, loop):
        report = _paced_replay(loop, tmp_path, _events(500), rate=1000)
        assert report.events_emitted == 500
        assert report.mean_rate == pytest.approx(1000, rel=0.15)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_speed_control_event(self, tmp_path, loop):
        events = _events(200)
        items = events[:100] + [speed(4.0)] + events[100:]
        report = _paced_replay(loop, tmp_path, items, rate=1000)
        # 100 @ 1000/s + 100 @ 4000/s = 0.125s total.
        assert report.duration == pytest.approx(0.125, rel=0.3)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_pause_control_event(self, tmp_path, loop):
        items = _events(10) + [pause(0.3)]
        report = _paced_replay(loop, tmp_path, items, rate=10_000)
        assert report.duration >= 0.3

    @pytest.mark.parametrize("loop", LOOPS)
    def test_marker_times_recorded(self, tmp_path, loop):
        events = _events(100)
        items = events[:50] + [marker("half")] + events[50:]
        report = _paced_replay(loop, tmp_path, items, rate=5000)
        assert len(report.marker_times) == 1
        label, at = report.marker_times[0]
        assert label == "half"
        assert at == pytest.approx(0.01, abs=0.05)

    def test_reader_error_surfaces(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ADD_VERTEX,1,\nNONSENSE\n")
        replayer = LiveReplayer(
            path, CallbackTransport(lambda l: None), rate=1000
        )
        with pytest.raises(ReplayError, match="stream source failed"):
            replayer.run()

    def test_file_source(self, tmp_path):
        path = tmp_path / "s.csv"
        GraphStream(_events(50)).write(path)
        received = []
        LiveReplayer(path, CallbackTransport(received.append), rate=50_000).run()
        assert len(received) == 50

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LiveReplayer(GraphStream(), CallbackTransport(lambda l: None), rate=0)

    def test_binary_source_file(self, tmp_path):
        # Format autodetection: a binary stream replays through the
        # same constructor with no flags.
        path = tmp_path / "s.gtb"
        GraphStream(_events(50)).write(path, format="binary")
        received = []
        LiveReplayer(path, CallbackTransport(received.append), rate=50_000).run()
        assert len(received) == 50
        assert received[0] == "ADD_VERTEX,0,"

    def test_binary_wire_format_through_default_transport(self):
        # An in-process transport (CallbackTransport) decodes each
        # frame back to CSV lines, so downstream consumers are
        # unaffected.
        received = []
        report = LiveReplayer(
            GraphStream(_events(100) + [marker("m")] + _events(100)),
            CallbackTransport(received.append),
            rate=1_000_000,
            wire_format="binary",
        ).run()
        assert report.events_emitted == 200
        assert len(received) == 200
        assert received[0] == "ADD_VERTEX,0,"
        assert [label for label, __ in report.marker_times] == ["m"]

    def test_invalid_wire_format(self):
        with pytest.raises(ValueError):
            LiveReplayer(
                GraphStream(),
                CallbackTransport(lambda l: None),
                rate=1,
                wire_format="morse",
            )


class _SteppingSource:
    """A fake time source that advances ``step`` seconds per read."""

    def __init__(self, step: float):
        self.now = 0.0
        self._step = step

    def __call__(self) -> float:
        self.now += self._step
        return self.now


class TestPacerSchedule:
    def test_batch_is_due_with_its_last_event(self):
        source = _SteppingSource(1e-5)
        pacer = Pacer(
            1000, 1.0, TraceClock(source=source, origin=0.0), lambda: None
        )
        pacer.pace(4)  # events 0-3: due with event 3, 3 ms in
        assert pacer.start + 0.003 <= source.now < pacer.start + 0.0031
        pacer.pace(1)  # event 4
        assert pacer.start + 0.004 <= source.now < pacer.start + 0.0041


class TestPacerFlush:
    """The Pacer flushes the transport before it waits, never when the
    loop is behind schedule."""

    def test_flat_out_never_flushes(self):
        flushes = []
        # Every clock read costs 1 us, more than a 256-event batch is
        # worth at 1e9 eps: the loop is never ahead of schedule.
        clock = TraceClock(source=_SteppingSource(1e-6), origin=0.0)
        pacer = Pacer(1e9, 1.0, clock, flush=lambda: flushes.append(1))
        for __ in range(10_000):
            pacer.pace(256)
        assert flushes == []

    def test_batch_not_yet_due_flushes_once_before_waiting(self):
        source = _SteppingSource(1e-5)
        flushed_at = []
        pacer = Pacer(
            1000,
            1.0,
            TraceClock(source=source, origin=0.0),
            flush=lambda: flushed_at.append(source.now),
        )
        pacer.pace(1)  # due at once
        assert flushed_at == []
        deadline = pacer.start + 0.001
        pacer.pace(1)  # due 1 ms after the start
        assert len(flushed_at) == 1
        assert flushed_at[0] < deadline <= source.now

    def test_pause_flushes_before_sleeping(self):
        flushed_at = []
        pacer = Pacer(
            1000,
            1.0,
            TraceClock(),
            flush=lambda: flushed_at.append(time.perf_counter()),
        )
        pacer.control(pause(0.02))
        slept = time.perf_counter() - flushed_at[0]
        assert len(flushed_at) == 1
        assert slept >= 0.02


class TestPipeTransport:
    def test_round_trip(self):
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        receiver.start()
        replayer = LiveReplayer(
            GraphStream(_events(300)), PipeTransport(write_fd), rate=50_000
        )
        report = replayer.run()
        receiver.join(5.0)
        assert receiver.counter.total == 300
        assert report.events_emitted == 300

    def test_closed_transport_rejects_send(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.close()
        os.close(read_fd)
        with pytest.raises(ConnectorError):
            transport.send_many(["x"])

    def test_double_close_is_safe(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.close()
        transport.close()
        os.close(read_fd)

    @pytest.mark.parametrize("method", ["send_many", "send_frame"])
    def test_broken_pipe_on_count_flush_is_connector_error(self, method):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd, flush_every=512)
        os.close(read_fd)
        # 512 events fit the write buffer; the count flush hits EPIPE.
        with pytest.raises(ConnectorError, match="pipe write failed"):
            if method == "send_many":
                transport.send_many(["ADD_VERTEX,1,"] * 512)
            else:
                transport.send_frame(
                    b"ADD_VERTEX,1,\n" * 512, 512, binary=False
                )
        transport.close()

    def test_broken_pipe_on_flush_is_connector_error(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.send_many(["ADD_VERTEX,1,"])
        os.close(read_fd)
        with pytest.raises(ConnectorError, match="pipe write failed"):
            transport.flush()
        transport.close()


class TestTcpTransport:
    def test_round_trip(self):
        receiver = TcpReceiver()
        receiver.start()
        transport = TcpTransport(receiver.host, receiver.port)
        replayer = LiveReplayer(
            GraphStream(_events(300)), transport, rate=50_000
        )
        report = replayer.run()
        receiver.join(5.0)
        assert receiver.counter.total == 300

    def test_connection_refused(self):
        with pytest.raises(ConnectorError, match="cannot connect"):
            TcpTransport("127.0.0.1", 1)  # port 1: nothing listens

    def test_flush_every_validation(self):
        with pytest.raises(ValueError):
            PipeTransport(os.pipe()[1], flush_every=0)


class TestWindowCounter:
    def test_total(self):
        counter = WindowCounter(window_seconds=10)
        counter.record(5)
        counter.record(3)
        assert counter.total == 8

    def test_rates_empty_before_window_elapses(self):
        counter = WindowCounter(window_seconds=100)
        counter.record(1)
        assert counter.rates() == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowCounter(window_seconds=0)
