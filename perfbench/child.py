"""One measurement step, run in its own interpreter.

``python3 -m perfbench.child <role> <spec.json>`` with ``src`` on the
path.  Each role writes its result as JSON to ``spec["out"]``; the
receiver also prints one ready line on stdout once it can take data.
Every measurement starts in a fresh interpreter, so no event list from
input generation is alive (and traversed by the garbage collector)
while a replay is timed, and runs cannot drift inside one process.

Roles:

* ``prepare`` -- generate the workload's stream, then time its set-up
  (CSV -> GTB1 conversion, or writing the CSV) several times;
* ``receive`` -- the live sink: shm rings or a pipe, outside the
  replaying process, logging every receiver batch's arrival time;
* ``replay`` -- one timed ``run()`` of the sharded or classic replayer;
* ``sim`` -- one set-up plus timed run of the simulated Table-4 run.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path

from perfbench import layers
from perfbench.workloads import Workload, build_events, chronograph_config

#: One run repeats its set-up at least this often and for at least this
#: long; the median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

#: Size of each shard's shm ring: big enough that a shard never waits on
#: a full ring at the benchmark's stream sizes (the receiver drains anyway).
RING_SLOTS = 4096
RING_ARENA_BYTES = 1 << 24

#: Sharded workloads emit with decode-in-worker, the README's fast path:
#: workers validate and count every GTB1 record, then send stored bytes.
SHARDED_EMISSION = "decode"

#: The classic replayer's token-bucket burst (events per wake-up).
CLASSIC_BATCH = 256

#: Receiver gives up when no producer shows progress for this long.
DRAIN_TIMEOUT = 60.0


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child (the shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _time_setup(step) -> list[float]:
    """Wall times of repeated ``step()`` calls."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
    return times


def prepare(spec: dict) -> dict:
    """Write the workload's input and time its set-up: the one-off stream
    preparation a user pays before replaying.

    * sharded: convert the CSV stream to GTB1 (``binfmt.convert_stream``);
    * classic: write the generated events as a CSV stream file;
    * sim: build the Table-4 stream (``fig3d.build_chronograph_stream``).
    """
    from repro.core import binfmt, codec
    from repro.core.events import GraphEvent, MarkerEvent

    workload = Workload(**spec["workload"])
    if workload.path == "sim":
        from repro.experiments import fig3d

        config = chronograph_config(workload, spec["seed"])
        stream = fig3d.build_chronograph_stream(config)
        return {
            "graph_events": sum(isinstance(event, GraphEvent) for event in stream),
            "markers": sum(isinstance(event, MarkerEvent) for event in stream),
            "setup_s": _time_setup(lambda: fig3d.build_chronograph_stream(config)),
        }
    csv_path = Path(spec["csv"])
    events = list(build_events(workload, spec["seed"]))
    graph_events = sum(isinstance(event, GraphEvent) for event in events)
    markers = sum(isinstance(event, MarkerEvent) for event in events)
    if workload.path == "classic":
        times = _time_setup(lambda: codec.write_stream_file(csv_path, events))
        del events
    else:
        codec.write_stream_file(csv_path, events)
        del events
        times = _time_setup(
            lambda: binfmt.convert_stream(csv_path, spec["gtb"], "binary")
        )
    return {"graph_events": graph_events, "markers": markers, "setup_s": times}


class ArrivalLog:
    """Stands in for a receiver's ``WindowCounter``: keeps its count and
    logs each receiver batch's arrival time and size."""

    def __init__(self, counter):
        self._counter = counter
        self.arrivals: list[tuple[float, int]] = []

    def record(self, count: int = 1) -> None:
        self.arrivals.append((time.perf_counter(), count))
        self._counter.record(count)

    @property
    def total(self) -> int:
        return self._counter.total


def _sample_backlog(names, stop: threading.Event, peak: list[int]) -> None:
    """Sample each ring's occupied slots (head minus tail sequence)."""
    from repro.core.shm import ShmRing

    rings = [ShmRing.attach(name) for name in names]
    try:
        while not stop.is_set():
            for ring in rings:
                backlog = ring.head_seq() - ring.tail_state()[0]
                if backlog > peak[0]:
                    peak[0] = backlog
            time.sleep(0.0005)
    finally:
        for ring in rings:
            ring.close()


def receive(spec: dict) -> dict:
    """Run the live sink until every producer finished its stream."""
    from repro.core.connectors import PipeReceiver, ShmReceiver

    if spec["kind"] == "pipe":
        receivers = [PipeReceiver(spec["fd"])]
    else:
        receivers = [
            ShmReceiver(
                slots=RING_SLOTS,
                arena_bytes=RING_ARENA_BYTES,
                drain_timeout=DRAIN_TIMEOUT,
            )
            for __ in range(spec["shards"])
        ]
    logs = []
    for receiver in receivers:
        log = ArrivalLog(receiver.counter)
        receiver.counter = log
        logs.append(log)
    names = [receiver.name for receiver in receivers if spec["kind"] == "shm"]
    stop = threading.Event()
    peak = [0]
    # Untraced repetitions get a sampler that does nothing, so no
    # polling thread competes with the drain threads.
    sampler = threading.Thread(  # repro-check: disable=RES002 -- joined in finally
        target=_sample_backlog if spec["trace"] and names else None,
        args=(names, stop, peak),
        daemon=True,
    )
    sampler.start()
    try:
        for receiver in receivers:
            receiver.start()
        print(json.dumps({"names": names}), flush=True)
        for receiver in receivers:
            receiver.join(timeout=DRAIN_TIMEOUT * 2)
    finally:
        stop.set()
        sampler.join(timeout=5.0)
        for receiver in receivers:
            receiver.close()
    errors = [
        f"{type(receiver.error).__name__}: {receiver.error}"
        for receiver in receivers
        if getattr(receiver, "error", None) is not None
    ]
    return {
        "arrivals": [log.arrivals for log in logs],
        "totals": [log.total for log in logs],
        "errors": errors,
        "ring_backlog_slots_max": peak[0],
    }


def replay(spec: dict) -> dict:
    """One timed ``run()`` of the workload's live replayer."""
    from repro.core.connectors import PipeTransport, ShmSpec
    from repro.core.replayer import LiveReplayer
    from repro.core.sharding import ShardedReplayer
    from repro.core.tracing import shared_clock

    workload = Workload(**spec["workload"])
    log = layers.SpanLog()
    spans_dir = Path(spec["spans_dir"])
    # Started alongside the receiver: wait until it is ready.
    ready = sys.stdin.readline()
    if not ready:
        raise SystemExit("receiver never became ready")
    names = json.loads(ready)["names"]
    if workload.path == "sharded":
        replayer = ShardedReplayer(
            spec["input"],
            [ShmSpec(name=name) for name in names],
            rate=workload.rate,
            workers=workload.workers,
            emission=SHARDED_EMISSION,
        )
        if spec["trace"]:
            layers.install_sharded(log, spans_dir)
    else:
        replayer = LiveReplayer(
            spec["input"],
            PipeTransport(spec["fd"]),
            rate=workload.rate,
            batch_size=CLASSIC_BATCH,
        )
        if spec["trace"]:
            layers.install_classic(log)
    # Created before run() so forked workers share its origin.
    clock = shared_clock()
    t0 = time.perf_counter()
    report = replayer.run()
    t_end = time.perf_counter()
    shards = getattr(report, "shards", (report,))
    worker_spans = []
    for path in sorted(spans_dir.glob("worker-*.json")):
        worker_spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return {
        "t0": t0,
        "t_end": t_end,
        "shards": [
            {
                "started_at": clock.origin + shard.started_at,
                "duration": shard.duration,
                "events_emitted": shard.events_emitted,
                "markers": len(shard.marker_times),
            }
            for shard in shards
        ],
        "peak_rss_mb": _peak_rss_mb(),
        "spans": log.spans + [tuple(span) for span in worker_spans],
        "facts": log.facts,
    }


def sim(spec: dict) -> dict:
    """Set up and run the scaled Table-4 Chronograph simulation."""
    from repro.core.events import GraphEvent, PauseEvent, SpeedEvent
    from repro.experiments import fig3d
    from repro.graph.builders import build_graph
    from repro.platforms.chronolike import ChronoLikePlatform

    workload = Workload(**spec["workload"])
    config = chronograph_config(workload, spec["seed"])
    log = layers.SpanLog()
    stream = fig3d.build_chronograph_stream(config)

    platforms = []

    class ObservedPlatform(ChronoLikePlatform):
        """Records, at every ingest, the wall time, and the simulated
        time with the platform's processed count."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ingest_walls: list[float] = []
            self.samples: list[tuple[float, int]] = []
            platforms.append(self)

        def ingest(self, event):
            self.ingest_walls.append(time.perf_counter())
            self.samples.append((self.sim.now, self.events_processed()))
            return super().ingest(event)

    fig3d.ChronoLikePlatform = ObservedPlatform
    if spec["trace"]:
        layers.install_sim(log)
    t0 = time.perf_counter()
    result = fig3d.run_chronograph(config, stream=stream)
    t_end = time.perf_counter()
    (platform,) = platforms
    reference, __ = build_graph(stream)
    samples = platform.samples + [
        (result.drained_time, platform.events_processed())
    ]
    due = []
    at = 0.0
    factor = 1.0
    # The simulated replayer's schedule: each graph event is offered one
    # interval (at the speed then in force) after the previous one;
    # PAUSE adds its seconds.
    for event in stream:
        if isinstance(event, GraphEvent):
            due.append(at)
            at += 1.0 / (config.base_rate * factor)
        elif isinstance(event, SpeedEvent):
            factor = event.factor
        elif isinstance(event, PauseEvent):
            at += event.seconds
    ingest_times = [at for at, __ in platform.samples]
    return {
        "t0": t0,
        "t_end": t_end,
        "ingest_walls": platform.ingest_walls,
        "graph_events": len(due),
        "ingested": platform.events_accepted(),
        "processed": platform.events_processed(),
        "graph_equal": platform.internal_probe("graph") == reference,
        "markers": sum(
            record.kind == "marker"
            and record.source == "replayer"
            and record.tags.get("label") != "replay-finished"
            for record in result.log
        ),
        "due": due,
        "samples": samples,
        "ingest_window": ingest_times[-1] - ingest_times[0],
        "due_window": due[-1] - due[0],
        "backlog_s": result.backlog_seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": log.spans,
    }


ROLES = {"prepare": prepare, "receive": receive, "replay": replay, "sim": sim}


def main(argv: list[str]) -> int:
    role, spec_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = ROLES[role](spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
