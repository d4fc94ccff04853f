"""GraphTides repository benchmark: replay throughput, pacing lag, set-up.

Run from the repository root::

    python3 perfbench/run.py --workload sharded-shm --seed 1 --seconds 10 --trace 0

The stream is generated from ``--seed`` (``perfbench/workloads.py``),
its set-up is timed, and then the workload is replayed again and again,
each time in fresh interpreters, for ``--seconds`` seconds.  Throughput
and lag are measured at the sink -- a live receiver in its own process,
or the simulated platform -- from the ``run()`` call until the sink
holds the last event.  Every repetition's output is checked: events
that never arrive (or arrive twice) count as failed, any other failed
check fails all of that repetition's events, and the run exits 1.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, each
a median over repetitions, or with ``--trace 1`` the per-layer metrics
of traced repetitions).  A traced run alternates untraced and traced
repetitions, reports the tracing overhead, and writes one Chrome trace
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import layers, stats  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

#: Repetitions a run makes at least and at most, however long they take.
MIN_REPS = 3
MAX_REPS = 60

#: Seconds one child process may take before it is killed.
CHILD_TIMEOUT = 60.0

#: Layer budget tolerance: the blocking-path layer times of a traced
#: repetition should sum to its wall time within this share; a larger
#: remainder is reported loudly on standard error.
BUDGET_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "e2e_eps": "1/s",
    "setup_s": "s",
    "first_event_s": "s",
    "achieved_ratio": "ratio",
    "lag_p50_ms": "ms",
    "lag_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "sharding.partition_s": "s",
    "sharding.partition_bytes": "bytes",
    "sharding.spawn_barrier_s": "s",
    "sharding.shard_imbalance": "ratio",
    "witness.verify_s": "s",
    "sharding.emit_loop_s": "s",
    "sharding.join_s": "s",
    "connectors.drain_s": "s",
    "connectors.arrival_batch_events_p50": "count",
    "connectors.arrival_batch_events_max": "count",
    "shm.ring_backlog_slots_max": "count",
    "shm.push_s": "s",
    "codec.iter_raw_batches_s": "s",
    "codec.parse_us_per_event": "us",
    "codec.format_us_per_event": "us",
    "replayer.emit_us_per_event": "us",
    "connectors.pipe_write_us_per_event": "us",
    "binfmt.convert_us_per_event": "us",
    "models.stream_build_s": "s",
    "harness.config_s": "s",
    "harness.run_s": "s",
    "analysis.rank_error_s": "s",
    "analysis.series_s": "s",
    "sim.achieved_ratio": "ratio",
    "platforms.processing_lag_p50_ms": "ms",
    "platforms.processing_lag_p99_ms": "ms",
    "platforms.backlog_s": "s",
    "lag.samples": "count",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_share": "ratio",
}


class CheckFailed(Exception):
    """An output check of one repetition failed.

    ``failed`` is how many of its events count as failed; ``None`` (a
    check other than the delivered count, or a child that raised) fails
    all of them.
    """

    def __init__(self, message: str, failed: int | None = None):
        super().__init__(message)
        self.failed = failed


class Bench:
    """One benchmark run: a work directory, its children, its results."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
        self.counter = 0

    def _spec(self, role: str, **fields) -> tuple[Path, Path]:
        self.counter += 1
        out = self.work / f"{role}-{self.counter}.out.json"
        spec = self.work / f"{role}-{self.counter}.spec.json"
        spec.write_text(json.dumps(dict(fields, out=str(out))), encoding="utf-8")
        return spec, out

    def _popen(self, role: str, spec: Path, **kwargs) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", role, str(spec)],
            cwd=ROOT,
            env=self.env,
            **kwargs,
        )

    @staticmethod
    def _finish(process: subprocess.Popen, role: str) -> None:
        try:
            code = process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise CheckFailed(f"{role} child timed out") from None
        if code != 0:
            raise CheckFailed(f"{role} child exited with code {code}")

    @staticmethod
    def _read(out: Path) -> dict:
        return json.loads(out.read_text(encoding="utf-8"))

    def run_child(self, role: str, **fields) -> dict:
        spec, out = self._spec(role, **fields)
        self._finish(self._popen(role, spec), role)
        return self._read(out)

    # -- live replays ------------------------------------------------------

    def live_rep(self, input_path: Path, traced: bool) -> tuple[dict, dict]:
        """One live repetition: receiver and replayer start together (their
        interpreter start-ups overlap); the replayer's ``run()`` waits until
        the receiver is ready and has sent its ring names."""
        workload = self.workload
        shm = workload.path == "sharded"
        spans_dir = self.work / f"spans-{self.counter}"
        spans_dir.mkdir()
        read_fd = write_fd = None
        if not shm:
            read_fd, write_fd = os.pipe()
        receiver = replayer = None
        try:
            recv_spec, recv_out = self._spec(
                "receive",
                kind="shm" if shm else "pipe",
                shards=workload.workers,
                fd=read_fd,
                trace=traced,
            )
            rep_spec, rep_out = self._spec(
                "replay",
                workload=asdict(workload),
                input=str(input_path),
                fd=write_fd,
                trace=traced,
                spans_dir=str(spans_dir),
            )
            receiver = self._popen(
                "receive",
                recv_spec,
                stdout=subprocess.PIPE,
                pass_fds=() if shm else (read_fd,),
            )
            replayer = self._popen(
                "replay",
                rep_spec,
                stdin=subprocess.PIPE,
                pass_fds=() if shm else (write_fd,),
            )
            if not shm:
                # The children hold their own ends now; the receiver sees
                # EOF once the replayer closes its copy.
                os.close(read_fd)
                os.close(write_fd)
                read_fd = write_fd = None
            ready = receiver.stdout.readline()
            if not ready:
                raise CheckFailed("receiver exited before it was ready")
            replayer.stdin.write(ready)
            replayer.stdin.close()
            self._finish(replayer, "replay")
            self._finish(receiver, "receive")
            return self._read(rep_out), self._read(recv_out)
        finally:
            for fd in (read_fd, write_fd):
                if fd is not None:
                    os.close(fd)
            for process in (replayer, receiver):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait()
            if receiver is not None:
                receiver.stdout.close()
            if replayer is not None and not replayer.stdin.closed:
                replayer.stdin.close()


def check_lag_support(samples: int) -> None:
    """The reported tail (p99) needs ``stats.TAIL_SAMPLES`` samples
    beyond it."""
    if stats.supported_percentile(samples) < 99.0:
        raise CheckFailed(f"{samples} lag samples cannot support a p99")


def live_metrics(workload: Workload, inputs: dict, rep: dict, sink: dict) -> dict:
    """End-to-end metrics of one live repetition; raises CheckFailed."""
    expected = inputs["graph_events"]
    if sink["errors"]:
        raise CheckFailed("receiver failed: " + "; ".join(sink["errors"]))
    received = sum(sink["totals"])
    logged = sum(count for arrivals in sink["arrivals"] for __, count in arrivals)
    if received != expected or logged != expected:
        raise CheckFailed(
            f"receiver counted {received} events (logged {logged}), "
            f"stream holds {expected}",
            stats.failed_events(expected, received),
        )
    shards = rep["shards"]
    if sum(shard["events_emitted"] for shard in shards) != expected:
        raise CheckFailed("replayer emitted count differs from the stream")
    for index, shard in enumerate(shards):
        if shard["markers"] != inputs["markers"]:
            raise CheckFailed(
                f"shard {index} passed {shard['markers']} markers, "
                f"stream holds {inputs['markers']}"
            )
    arrivals = [entry for log in sink["arrivals"] for entry in log]
    first = min(at for at, __ in arrivals)
    last = max(at for at, __ in arrivals)
    t0 = rep["t0"]
    started = min(shard["started_at"] for shard in shards)
    shard_rate = workload.rate / workload.workers
    lags = []
    for shard, log in zip(shards, sink["arrivals"]):
        lags.extend(stats.shard_lags(log, shard["started_at"], shard_rate))
    check_lag_support(len(lags))
    return {
        "e2e_eps": expected / (last - t0),
        "first_event_s": first - t0,
        "achieved_ratio": expected / (last - started) / workload.rate,
        "lag_p50_ms": stats.percentile(lags, 50.0) * 1e3,
        "lag_p99_ms": stats.percentile(lags, 99.0) * 1e3,
        "peak_rss_mb": rep["peak_rss_mb"],
        "lag_samples": len(lags),
        "last": last,
    }


def live_layers(
    workload: Workload, inputs: dict, rep: dict, sink: dict, e2e: dict
) -> dict:
    """Per-layer metrics of one traced live repetition."""
    spans = rep["spans"]
    t0 = rep["t0"]
    wall = e2e["last"] - t0
    shards = rep["shards"]
    ends = [shard["started_at"] + shard["duration"] for shard in shards]
    started = min(shard["started_at"] for shard in shards)
    events = inputs["graph_events"]
    batches = sorted(count for log in sink["arrivals"] for __, count in log)
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out["connectors.arrival_batch_events_p50"] = stats.percentile(batches, 50.0)
    out["connectors.arrival_batch_events_max"] = float(batches[-1])
    out["connectors.drain_s"] = e2e["last"] - max(ends)
    out["shm.ring_backlog_slots_max"] = float(sink["ring_backlog_slots_max"])
    out["lag.samples"] = float(e2e["lag_samples"])
    out["trace.wall_s"] = wall
    if workload.path == "sharded":
        partition = [s for s in spans if s[0] == "sharding.partition"]
        if not partition:
            raise CheckFailed("traced run recorded no partition span")
        partition_end = partition[0][3]
        out["sharding.partition_s"] = partition[0][3] - partition[0][2]
        out["sharding.partition_bytes"] = rep["facts"]["partition_bytes"]
        out["sharding.shard_imbalance"] = rep["facts"]["shard_imbalance"]
        out["sharding.spawn_barrier_s"] = started - partition_end
        out["sharding.emit_loop_s"] = max(ends) - started
        out["sharding.join_s"] = rep["t_end"] - max(ends)
        lanes = {span[1] for span in spans if span[1].startswith("worker-")}
        out["witness.verify_s"] = max(
            layers.busy(spans, "witness.verify", lane) for lane in lanes
        )
        out["shm.push_s"] = max(
            layers.busy(spans, "shm.push", lane) for lane in lanes
        )
        out["codec.iter_raw_batches_s"] = max(
            layers.busy(spans, "codec.iter_raw_batches", lane) for lane in lanes
        )
        # Blocking path: partition -> spawn + barrier -> slowest shard's
        # emit loop -> drain; the rest of the wall time is unaccounted.
        accounted = (
            out["sharding.partition_s"]
            + out["sharding.spawn_barrier_s"]
            + out["sharding.emit_loop_s"]
            + out["connectors.drain_s"]
        )
    else:
        (shard,) = shards
        parse = layers.busy(spans, "codec.parse")
        fmt = layers.busy(spans, "codec.format")
        write = layers.busy(spans, "connectors.pipe_write")
        out["codec.parse_us_per_event"] = parse / events * 1e6
        out["codec.format_us_per_event"] = fmt / events * 1e6
        out["connectors.pipe_write_us_per_event"] = write / events * 1e6
        out["replayer.emit_us_per_event"] = shard["duration"] / events * 1e6
        # The reader thread parses while the emitter formats and writes;
        # parsing adds to the blocking path only where the emitter is
        # in neither call (a blocked pipe write releases the GIL).
        emitter = layers.intervals(spans, "codec.format") + layers.intervals(
            spans, "connectors.pipe_write"
        )
        parse_alone = layers.exclusive(layers.intervals(spans, "codec.parse"), emitter)
        # Blocking path: start-up -> parse (not overlapped) + format +
        # write -> drain; what is left is the replayer's own pacing and
        # hand-off time, which no wrapper sees.
        accounted = (
            (shard["started_at"] - t0)
            + parse_alone
            + fmt
            + write
            + out["connectors.drain_s"]
        )
    out["trace.unaccounted_s"] = wall - accounted
    out["trace.unaccounted_share"] = (wall - accounted) / wall
    return out


def sim_metrics(workload: Workload, inputs: dict, result: dict) -> dict:
    """End-to-end metrics of one simulated repetition; raises CheckFailed.

    In wall-clock terms the simulation runs flat out with the platform's
    ingest as its sink, so every event is due at the ``run()`` call and
    its lag is the wall time until the platform ingests it.
    """
    expected = inputs["graph_events"]
    if result["graph_events"] != expected:
        raise CheckFailed("simulated stream differs from the prepared one")
    if result["ingested"] != expected or result["processed"] != expected:
        raise CheckFailed(
            f"platform ingested {result['ingested']} and processed "
            f"{result['processed']} events, stream holds {expected}",
            stats.failed_events(expected, result["processed"]),
        )
    if not result["graph_equal"]:
        raise CheckFailed("platform graph differs from build_graph(stream)")
    if result["markers"] != inputs["markers"]:
        raise CheckFailed(
            f"replayer passed {result['markers']} markers, "
            f"stream holds {inputs['markers']}"
        )
    t0 = result["t0"]
    walls = result["ingest_walls"]
    lags = [at - t0 for at in walls]
    check_lag_support(len(lags))
    return {
        "e2e_eps": expected / (result["t_end"] - t0),
        "first_event_s": walls[0] - t0,
        "achieved_ratio": expected / (walls[-1] - t0) / workload.rate,
        "lag_p50_ms": stats.percentile(lags, 50.0) * 1e3,
        "lag_p99_ms": stats.percentile(lags, 99.0) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "lag_samples": len(lags),
    }


def sim_layers(result: dict, e2e: dict) -> dict:
    """Per-layer metrics of one traced simulated repetition, including
    the simulated-time view of the Table-4 run (deterministic per seed)."""
    spans = result["spans"]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    harness = [s for s in spans if s[0] == "harness.run"]
    analysis = [s for s in spans if s[0] == "analysis.rank_errors"]
    if not harness or not analysis:
        raise CheckFailed("traced run recorded no harness/analysis span")
    processing = stats.completion_lags(result["due"], result["samples"])
    if len(processing) != result["graph_events"]:
        raise CheckFailed("not every event was seen processed")
    wall = result["t_end"] - result["t0"]
    out["harness.run_s"] = harness[0][3] - harness[0][2]
    out["harness.config_s"] = layers.busy(spans, "harness.config")
    # Retrospective reference (build_graph + exact PageRank) and the
    # rank errors: from the harness returning to the errors computed.
    out["analysis.rank_error_s"] = analysis[0][3] - harness[0][3]
    # Then the Fig 3d series are cut out of the result log.
    out["analysis.series_s"] = result["t_end"] - analysis[0][3]
    out["sim.achieved_ratio"] = result["due_window"] / result["ingest_window"]
    out["platforms.processing_lag_p50_ms"] = stats.percentile(processing, 50.0) * 1e3
    out["platforms.processing_lag_p99_ms"] = stats.percentile(processing, 99.0) * 1e3
    out["platforms.backlog_s"] = result["backlog_s"]
    out["lag.samples"] = float(e2e["lag_samples"])
    out["trace.wall_s"] = wall
    accounted = (
        out["harness.config_s"]
        + out["harness.run_s"]
        + out["analysis.rank_error_s"]
        + out["analysis.series_s"]
    )
    out["trace.unaccounted_s"] = wall - accounted
    out["trace.unaccounted_share"] = (wall - accounted) / wall
    return out


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
):
    """Prepare the inputs, then repeat the workload for ``seconds``.

    Returns the untraced and traced repetitions' metrics, the set-up
    times, the last traced repetition's spans with their origin, the
    attempted and failed operation counts, and the failed checks.
    """
    bench = Bench(workload, work)
    csv_path = work / "stream.csv"
    gtb_path = work / "stream.gtb"
    inputs = bench.run_child(
        "prepare",
        workload=asdict(workload),
        seed=seed,
        csv=str(csv_path),
        gtb=str(gtb_path),
    )
    setup = inputs["setup_s"]
    input_path = csv_path if workload.path == "classic" else gtb_path

    untraced: list[dict] = []
    traced: list[dict] = []
    last_trace = None
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + seconds
    index = 0
    while index < MAX_REPS and (
        index < MIN_REPS * (2 if trace else 1) or time.monotonic() < deadline
    ):
        tracing = trace and index % 2 == 1
        index += 1
        expected = inputs["graph_events"]
        try:
            if workload.path == "sim":
                result = bench.run_child(
                    "sim", workload=asdict(workload), seed=seed, trace=tracing
                )
                e2e = sim_metrics(workload, inputs, result)
                per_layer = sim_layers(result, e2e) if tracing else None
                spans, origin = result["spans"], result["t0"]
            else:
                rep, sink = bench.live_rep(input_path, tracing)
                e2e = live_metrics(workload, inputs, rep, sink)
                per_layer = (
                    live_layers(workload, inputs, rep, sink, e2e)
                    if tracing
                    else None
                )
                spans, origin = rep["spans"], rep["t0"]
                if tracing:
                    spans += [
                        ("arrival", f"receiver-{shard}", at, at, count)
                        for shard, log in enumerate(sink["arrivals"])
                        for at, count in log
                    ]
        except CheckFailed as problem:
            problems.append(f"repetition {index}: {problem}")
            attempted += max(expected, 1)
            failed += max(expected, 1) if problem.failed is None else problem.failed
            continue
        attempted += expected
        if tracing:
            if workload.path == "sharded":
                per_layer["binfmt.convert_us_per_event"] = (
                    statistics.median(setup) / expected * 1e6
                )
            elif workload.path == "sim":
                per_layer["models.stream_build_s"] = statistics.median(setup)
            traced.append({"e2e": e2e, "layers": per_layer})
            last_trace = (spans, origin)
        else:
            untraced.append(e2e)
    return untraced, traced, setup, last_trace, attempted, failed, problems


def summarise(untraced, traced, setup, trace: bool) -> dict:
    """The result's ``metrics``: medians over repetitions, each with its
    unit -- end-to-end metrics, or with ``trace`` the per-layer ones."""
    if not trace:
        metrics = {
            name: statistics.median([rep[name] for rep in untraced])
            for name in END_TO_END_UNITS
            if name != "setup_s"
        }
        metrics["setup_s"] = statistics.median(setup)
        return {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    metrics = {
        name: statistics.median([rep["layers"][name] for rep in traced])
        for name in PER_LAYER_UNITS
    }
    traced_eps = statistics.median([rep["e2e"]["e2e_eps"] for rep in traced])
    plain_eps = statistics.median([rep["e2e_eps"] for rep in untraced])
    metrics["trace.overhead_share"] = 1.0 - traced_eps / plain_eps
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        untraced, traced, setup, last_trace, attempted, failed, problems = (
            run_benchmark(workload, args.seed, args.seconds, trace, work)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not untraced or (trace and not traced):
        for problem in problems:
            print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    metrics = summarise(untraced, traced, setup, trace)
    if trace:
        trace_problems = write_trace(out_dir, workload, args.seed, last_trace, metrics)
        problems.extend(trace_problems)
    for name, metric in metrics.items():
        print(
            f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}",
            file=sys.stderr,
        )
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def write_trace(
    out_dir: Path, workload: Workload, seed: int, last_trace, metrics
) -> list[str]:
    """Write the last traced repetition's Chrome trace and check it."""
    from repro.core.tracing import validate_chrome_trace

    spans, origin = last_trace
    payload = layers.chrome_trace(
        spans,
        origin,
        {
            "workload": workload.name,
            "seed": seed,
            "layers": {name: metric["value"] for name, metric in metrics.items()},
        },
    )
    path = out_dir / f"trace-{workload.name}-{seed}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"chrome trace: {path.relative_to(ROOT)}", file=sys.stderr)
    problems = [f"chrome trace: {p}" for p in validate_chrome_trace(payload)]
    share = metrics["trace.unaccounted_share"]["value"]
    if abs(share) > BUDGET_TOLERANCE:
        print(
            f"LAYER BUDGET: {share:.1%} of the wall time is unaccounted "
            f"(tolerance {BUDGET_TOLERANCE:.0%})",
            file=sys.stderr,
        )
    overhead = metrics["trace.overhead_share"]["value"]
    print(f"tracing overhead: {overhead:+.1%} of untraced e2e_eps", file=sys.stderr)
    return problems


if __name__ == "__main__":
    sys.exit(main())
