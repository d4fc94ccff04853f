"""Connector shutdown paths: receivers that always stop, transports
that never strand file descriptors."""

from __future__ import annotations

import builtins
import io
import os
import socket
import time

import pytest

from repro.core import shm
from repro.core.connectors import (
    CallbackTransport,
    PipeReceiver,
    PipeSpec,
    PipeTransport,
    ShmSpec,
    ShmTransport,
    TcpReceiver,
    TcpTransport,
)
from repro.core.events import add_vertex
from repro.core.replayer import LiveReplayer
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    RetryPolicy,
    RetryingTransport,
)
from repro.core.sharding import ShardedReplayer, WorkerConfig, replay_shard
from repro.core.stream import GraphStream
from repro.core.tracing import Tracer, TracingTransport
from repro.errors import ConnectorError


class TestTcpReceiverShutdown:
    def test_close_without_client_does_not_hang(self):
        receiver = TcpReceiver()
        receiver.start()
        started = time.monotonic()
        receiver.close()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        receiver.join(1.0)

    def test_close_is_idempotent(self):
        receiver = TcpReceiver()
        receiver.start()
        receiver.close()
        receiver.close()

    def test_close_before_start(self):
        receiver = TcpReceiver()
        receiver.close()

    def test_context_manager_without_client(self):
        with TcpReceiver() as receiver:
            assert receiver.port > 0
        # Exit closed the server socket: the thread must be done.
        receiver.join(1.0)

    def test_context_manager_round_trip(self):
        with TcpReceiver() as receiver:
            transport = TcpTransport(receiver.host, receiver.port)
            report = LiveReplayer(
                GraphStream([add_vertex(i) for i in range(200)]),
                transport,
                rate=50_000,
            ).run()
            assert report.events_emitted == 200
        receiver.join(5.0)
        assert receiver.counter.total == 200


class TestPipeReceiverLifecycle:
    def test_owns_and_closes_raw_fd(self):
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        with receiver:
            with os.fdopen(write_fd, "w") as writer:
                writer.write("a,1,\nb,2,\n")
        # Context exit joined the thread and closed the owned file.
        assert receiver._file.closed
        assert receiver.counter.total == 2

    def test_does_not_close_borrowed_file_object(self):
        source = io.StringIO("x,1,\n")
        receiver = PipeReceiver(source)
        with receiver:
            pass
        assert not source.closed
        assert receiver.counter.total == 1

    def test_close_is_idempotent(self):
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        receiver = PipeReceiver(read_fd)
        receiver.start()
        receiver.join(5.0)
        receiver.close()
        receiver.close()

    def test_close_with_live_reader_does_not_deadlock(self):
        """close() under an actively blocked reader returns immediately
        (closing the buffered file there would deadlock); the writer's
        EOF is what ends the read loop."""
        read_fd, write_fd = os.pipe()
        receiver = PipeReceiver(read_fd)
        receiver.start()
        started = time.monotonic()
        receiver.close()
        assert time.monotonic() - started < 1.0
        assert not receiver._file.closed
        os.close(write_fd)  # EOF: reader exits, close can now finish
        receiver.join(5.0)
        receiver.close()
        assert receiver._file.closed


class TestTcpTransportClose:
    def test_close_closes_file_even_when_flush_fails(self):
        with TcpReceiver() as receiver:
            transport = TcpTransport(receiver.host, receiver.port)

            class ExplodingFlush:
                def __init__(self, inner):
                    self._inner = inner

                def flush(self):
                    raise OSError("peer gone")

                def __getattr__(self, name):
                    return getattr(self._inner, name)

            real_file = transport._file
            transport._file = ExplodingFlush(real_file)
            transport.close()
            assert real_file.closed
            # The raw socket fd is released too.
            with pytest.raises(OSError):
                transport._socket.getsockname()

    def test_double_close_is_safe(self):
        with TcpReceiver() as receiver:
            transport = TcpTransport(receiver.host, receiver.port)
            transport.close()
            transport.close()


class TestPipeTransportClose:
    def test_close_flush_failure_still_closes_owned_file(self):
        read_fd, write_fd = os.pipe()
        transport = PipeTransport(write_fd)
        transport.send_many(["x,1,"])
        os.close(read_fd)  # flush at close now hits a broken pipe
        transport.close()
        assert transport._file.closed


@pytest.fixture
def closed_consumer_ring():
    """A ring whose consumer has gone, its segment still linked."""
    ring = shm.ShmRing.create(slots=16, arena_bytes=1 << 14)
    ring.set_consumer_closed()
    try:
        yield ring
    finally:
        ring.close()
        ring.unlink()


class TestShmTransportClose:
    def test_close_raises_undelivered_flush_and_releases(
        self, closed_consumer_ring
    ):
        transport = ShmTransport(closed_consumer_ring.name)
        transport.send_many([f"ADD_VERTEX,{i}," for i in range(10)])
        with pytest.raises(ConnectorError, match="consumer is closed"):
            transport.close()
        # The producer side is still flagged closed and unmapped.
        assert closed_consumer_ring.producer_closed()
        assert transport._ring.closed
        assert closed_consumer_ring.head_seq() == 0
        transport.close()  # idempotent after the failure

    def test_one_worker_replay_reports_undelivered_events(
        self, tmp_path, closed_consumer_ring
    ):
        path = tmp_path / "s.gtb"
        GraphStream([add_vertex(i) for i in range(10)]).write(
            path, format="binary"
        )
        replayer = ShardedReplayer(
            str(path),
            ShmSpec(name=closed_consumer_ring.name),
            rate=1e9,
            workers=1,
            emission="decode",
        )
        with pytest.raises(ConnectorError, match="consumer is closed"):
            replayer.run()


class TestSendRaw:
    """CSV line runs as stored bytes: ``send_frame(..., binary=False)``."""

    def test_pipe_transport_writes_bytes_verbatim(self, tmp_path):
        out = tmp_path / "out.csv"
        transport = PipeSpec(target=str(out)).build()
        transport.send_frame(b"A,V,1\nA,V,2\n", 2, binary=False)
        # missing trailing newline
        transport.send_frame(b"A,V,3", 1, binary=False)
        transport.close()
        assert out.read_text() == "A,V,1\nA,V,2\nA,V,3\n"

    def test_pipe_transport_interleaves_with_text_sends(self, tmp_path):
        out = tmp_path / "out.csv"
        transport = PipeSpec(target=str(out)).build()
        transport.send_many(["A,V,1,"])
        transport.send_frame(b"A,V,2,\n", 1, binary=False)
        transport.send_many(["A,V,3,"])
        transport.close()
        assert out.read_text() == "A,V,1,\nA,V,2,\nA,V,3,\n"

    def test_tcp_transport_raw_round_trip(self):
        with TcpReceiver() as receiver:
            transport = TcpTransport(receiver.host, receiver.port)
            transport.send_frame(b"A,V,1,\nA,V,2,\n", 2, binary=False)
            transport.send_many(["A,V,3,"])
            transport.close()
        receiver.join(5.0)
        assert receiver.counter.total == 3

    def test_callback_transport_decodes_to_lines(self):
        sent: list[str] = []
        transport = CallbackTransport(sent.append)
        transport.send_frame(b"A,V,1,\nA,V,2,\n", 2, binary=False)
        transport.send_frame(b"A,V,3,", 1, binary=False)
        assert sent == ["A,V,1,", "A,V,2,", "A,V,3,"]

    def test_pipe_transport_without_buffer_decodes_to_lines(self):
        sink = io.StringIO()
        transport = PipeTransport(sink)
        transport.send_frame(b"A,V,1,\nA,V,2,", 2, binary=False)
        transport.close()
        assert sink.getvalue() == "A,V,1,\nA,V,2,\n"


def _chaos(inner):
    # Latency only: the chain is built but never fails a send.
    return ChaosTransport(
        inner, ChaosConfig(latency_probability=1.0, latency_seconds=0.0)
    )


def _retrying(inner):
    return RetryingTransport(inner, RetryPolicy())


def _tracing(inner):
    return TracingTransport(inner, Tracer())


class TestWrappedRawReplay:
    @pytest.mark.parametrize(
        "wrap", [_chaos, _retrying, _tracing], ids=["chaos", "retry", "trace"]
    )
    def test_wrappers_pass_stored_bytes_through(self, tmp_path, wrap):
        """A wrapper forwards a CSV run's bytes unchanged, even bytes
        that are not UTF-8: a raw replay into a file copies the file."""
        source = tmp_path / "in.csv"
        source.write_bytes(
            b"ADD_VERTEX,1,caf\xe9\nADD_VERTEX,2,\nADD_EDGE,1-2,\n"
        )
        out = tmp_path / "out.csv"
        config = WorkerConfig(
            index=0, path=str(source), rate=1e6, emission="raw"
        )
        report = replay_shard(
            config, wrap(PipeSpec(target=str(out)).build())
        )
        assert report.events_emitted == 3
        assert out.read_bytes() == source.read_bytes()


class TestTcpReceiverMultiConnection:
    def test_accepts_concurrent_clients(self):
        with TcpReceiver(max_connections=3) as receiver:
            transports = [
                TcpTransport(receiver.host, receiver.port) for _ in range(3)
            ]
            for offset, transport in enumerate(transports):
                transport.send_many(
                    f"A,V,{offset * 100 + i}," for i in range(150)
                )
            for transport in transports:
                transport.close()
        receiver.join(5.0)
        assert receiver.counter.total == 450

    def test_backlogged_connection_not_lost_on_close(self):
        """Clients whose connect handshake landed in the listen backlog
        (never accepted before stop) must still be drained."""
        for _ in range(3):  # race-prone: repeat a few times
            with TcpReceiver(max_connections=2) as receiver:
                transports = [
                    TcpTransport(receiver.host, receiver.port)
                    for _ in range(2)
                ]
                for transport in transports:
                    transport.send_many(["A,V,1,"])
                    transport.close()
            receiver.join(5.0)
            assert receiver.counter.total == 2

    def test_max_connections_validated(self):
        with pytest.raises(ValueError):
            TcpReceiver(max_connections=0)


class _FakeSock:
    """Connected-socket stand-in that records whether close() ran."""

    def __init__(self, fail_on: str):
        self.fail_on = fail_on
        self.closed = False

    def settimeout(self, value):
        if self.fail_on == "settimeout":
            raise OSError("settimeout exploded")

    def setsockopt(self, *args):
        if self.fail_on == "setsockopt":
            raise OSError("setsockopt exploded")

    def makefile(self, *args, **kwargs):
        if self.fail_on == "makefile":
            raise OSError("makefile exploded")
        return io.StringIO()

    def close(self):
        self.closed = True


class TestConstructorFailurePaths:
    """Acquisition error paths must not strand fds or threads — the
    regression suite for the RES001/RES002 findings on the connectors."""

    @pytest.mark.parametrize("fail_on", ["settimeout", "makefile"])
    def test_tcp_transport_closes_socket_when_configure_fails(
        self, monkeypatch, fail_on
    ):
        fake = _FakeSock(fail_on)
        monkeypatch.setattr(
            socket, "create_connection", lambda *a, **k: fake
        )
        with pytest.raises(ConnectorError):
            TcpTransport("localhost", 1)
        assert fake.closed

    def test_tcp_transport_connect_failure_raises_connector_error(self):
        # Port 1 on localhost is (nearly) always closed: connect refuses.
        with pytest.raises(ConnectorError):
            TcpTransport("127.0.0.1", 1)

    def test_pipe_spec_closes_handle_when_transport_rejects(
        self, tmp_path, monkeypatch
    ):
        opened = []
        real_open = builtins.open

        def spying_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(builtins, "open", spying_open)
        spec = PipeSpec(target=str(tmp_path / "out.csv"), flush_every=0)
        with pytest.raises(ValueError):
            spec.build()
        assert opened, "build() should have opened the target file"
        assert all(handle.closed for handle in opened)

    def test_tcp_receiver_closes_server_socket_when_bind_fails(
        self, monkeypatch
    ):
        created = []
        real_socket = socket.socket

        def spying_socket(*args, **kwargs):
            sock = real_socket(*args, **kwargs)
            created.append(sock)
            return sock

        monkeypatch.setattr(socket, "socket", spying_socket)
        with pytest.raises(OSError):
            TcpReceiver(host="definitely.invalid.host.example.")
        assert created, "constructor should have created a server socket"
        assert all(sock.fileno() == -1 for sock in created)
