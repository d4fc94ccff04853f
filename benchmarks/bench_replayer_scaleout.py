"""Replayer scale-out: sharded multi-process replay vs. the single
process (the Figure 3a sweep extended to 1/2/4 workers), across the
stream-format × emission-mode grid.

Measures the aggregate sustained emission rate of
:class:`repro.core.sharding.ShardedReplayer` over a stream *file* —
the realistic Fig 3a setup, where decoding the file is part of the
replayer's work — for every combination of:

* **format** — the same event stream as ``csv`` (the paper's line
  format) and as the ``GTB1`` length-prefixed ``binary`` format;
  shards keep the source format, so the format axis measures decode
  cost end to end;
* **emission** — ``events`` (each worker runs the classic
  :class:`LiveReplayer`: parse → pace → encode → send; 1 worker is
  exactly the original single-process engine, the baseline every
  speedup is against), ``decode`` (workers decode their shard's byte
  runs locally, then emit the stored bytes verbatim — events-mode
  semantics without the re-encode), and ``raw`` (zero-copy byte runs
  straight to the transport, the upper bound);
* **workers** — 1/2/4 processes.

Interpreting the numbers: ``decode_scaling_4w`` is the tentpole
headline — the events-semantics pipeline at 4 workers (binary
decode-in-worker) against the classic 1-worker CSV events baseline.
``decode_vs_raw_4w`` compares decode-in-worker with the classic raw
mode (CSV byte runs — the raw emission benchmarked before the format
axis existed) at the same worker count: decode must land within 2x of
it, i.e. validating every record costs at most one CSV-raw.  Binary
raw is reported separately as ``binary_raw_ceiling_eps``; it is an
index-trusting memcpy to the transport, and no per-record loop — not
even a header walk — can sit within 2x of a memcpy in pure Python.
On a single-core machine (see ``machine.cpu_count``) the gains come
from the cheaper decode path — worker processes only time-slice one
core; on a multi-core machine process parallelism compounds with
them.  The per-mode ``speedup_by_workers`` series separates the two
effects.

Results are written to ``BENCH_replayer_scaleout.json`` (same schema
family as ``BENCH_pipeline.json``) so the perf trajectory is tracked.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_replayer_scaleout.py
    PYTHONPATH=src python benchmarks/bench_replayer_scaleout.py --smoke

``--smoke`` shrinks the workload and the worker matrix so the run
finishes in a few seconds (the CI guard); the full run takes ~2 min.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_codec_throughput import (  # noqa: E402
    UNREACHABLE_RATE,
    build_events,
    write_snapshot,
)

from repro.core import binfmt, codec  # noqa: E402
from repro.core.connectors import (  # noqa: E402
    PipeReceiver,
    PipeSpec,
    ShmReceiver,
    TcpReceiver,
    TcpSpec,
)
from repro.core.sharding import ShardedReplayer  # noqa: E402
from repro.perfdb.provenance import machine_info  # noqa: E402
from repro.perfdb.schema import SCHEMA_VERSION  # noqa: E402

FORMATS = ("csv", "binary")
EMISSIONS = ("events", "decode", "raw")
TRANSPORTS = ("pipe", "tcp", "shm")


def _saturation(
    path: str,
    workers: int,
    emission: str,
    rate: float = UNREACHABLE_RATE,
    batch_size: int = 256,
) -> tuple[float, list[float]]:
    """Aggregate and per-shard mean rates of one sharded replay."""
    replayer = ShardedReplayer(
        path,
        PipeSpec(target=os.devnull),
        rate=rate,
        workers=workers,
        emission=emission,
        batch_size=batch_size,
    )
    report = replayer.run()
    return report.mean_rate, list(report.per_shard_rates)


def bench_saturation(
    paths: dict[str, str], worker_counts: tuple[int, ...], repeats: int
) -> dict:
    """Flat-out aggregate rate per (format, emission, workers)."""
    by_format: dict[str, dict] = {}
    for fmt in FORMATS:
        by_mode: dict[str, dict] = {}
        for emission in EMISSIONS:
            by_workers = {}
            for workers in worker_counts:
                best = 0.0
                shards: list[float] = []
                samples: list[float] = []
                for __ in range(repeats):
                    aggregate, per_shard = _saturation(
                        paths[fmt], workers, emission
                    )
                    samples.append(aggregate)
                    if aggregate > best:
                        best = aggregate
                        shards = per_shard
                by_workers[str(workers)] = {
                    "aggregate_eps": best,
                    "per_shard_eps": shards,
                    # Per-repeat aggregates for the perfdb interval test.
                    "samples_eps": samples,
                }
            baseline = by_workers[str(worker_counts[0])]["aggregate_eps"]
            by_mode[emission] = {
                "by_workers": by_workers,
                "speedup_by_workers": {
                    key: value["aggregate_eps"] / baseline if baseline else 0.0
                    for key, value in by_workers.items()
                },
            }
        by_format[fmt] = by_mode
    return by_format


def _transport_run(
    path: str, workers: int, transport: str, batch_size: int = 256
) -> tuple[float, int]:
    """One decode-mode sharded replay through a LIVE receiver.

    Unlike :func:`_saturation` (which writes to ``/dev/null`` to
    isolate the workers), every byte here crosses a real transport to a
    counting receiver, so the aggregate reflects end-to-end delivery
    cost.  Returns ``(aggregate_eps, receiver_total)``; the receiver's
    independently re-derived count is the delivery proof the transports
    are compared on.
    """

    def replay(specs) -> float:
        report = ShardedReplayer(
            path,
            specs,
            rate=UNREACHABLE_RATE,
            workers=workers,
            emission="decode",
            stream_format="binary",
            batch_size=batch_size,
        ).run()
        return report.mean_rate

    if transport == "pipe":
        pairs = [os.pipe() for __ in range(workers)]
        receivers = [PipeReceiver(read_fd) for read_fd, __ in pairs]
        for receiver in receivers:
            receiver.start()
        try:
            aggregate = replay(
                tuple(PipeSpec(target=write_fd) for __, write_fd in pairs)
            )
        finally:
            for __, write_fd in pairs:
                try:
                    os.close(write_fd)
                except OSError:
                    pass
            for receiver in receivers:
                receiver.join(timeout=30.0)
                receiver.close()
        return aggregate, sum(r.counter.total for r in receivers)
    if transport == "tcp":
        with TcpReceiver(max_connections=workers) as receiver:
            aggregate = replay(TcpSpec(port=receiver.port))
        return aggregate, receiver.counter.total
    if transport == "shm":
        with ShmReceiver(max_producers=workers) as receiver:
            aggregate = replay(receiver.specs)
        if receiver.error is not None:
            raise receiver.error
        return aggregate, receiver.counter.total
    raise ValueError(f"unknown transport {transport!r}")


def bench_transports(
    binary_path: str, worker_counts: tuple[int, ...], repeats: int
) -> dict:
    """Delivered decode-mode rate per transport per worker count.

    Best-of-repeats, like :func:`bench_saturation`: on a time-sliced
    single-CPU runner the scheduler noise between repeats dwarfs the
    transport difference, and the best repeat is the one where the
    measured configuration — not a context-switch storm — set the pace.
    Every repeat asserts the receiver delivered the full stream, so a
    transport can never win by dropping events.
    """
    by_transport: dict[str, dict] = {}
    delivered_reference: int | None = None
    for transport in TRANSPORTS:
        by_workers = {}
        for workers in worker_counts:
            best = 0.0
            samples: list[float] = []
            delivered = 0
            for __ in range(repeats):
                aggregate, total = _transport_run(
                    binary_path, workers, transport
                )
                if delivered_reference is None:
                    delivered_reference = total
                elif total != delivered_reference:
                    raise RuntimeError(
                        f"{transport} delivered {total} events, expected "
                        f"{delivered_reference}"
                    )
                delivered = total
                samples.append(aggregate)
                best = max(best, aggregate)
            by_workers[str(workers)] = {
                "aggregate_eps": best,
                "samples_eps": samples,
                "delivered": delivered,
            }
        by_transport[transport] = {"by_workers": by_workers}
    return {
        "emission": "decode",
        "batch_size": 256,
        "by_transport": by_transport,
    }


def bench_sweep(
    paths: dict[str, str],
    worker_counts: tuple[int, ...],
    targets: tuple[int, ...],
) -> dict:
    """Fig 3a extended: achieved vs. target rate per worker count.

    The 1-worker series is the classic CSV events path — the original
    Fig 3a curve.  Multi-worker points use binary decode-in-worker,
    the scale-out engine's fast configuration that still decodes every
    event (events-mode semantics).
    """
    series = {}
    for workers in worker_counts:
        fmt, emission = (
            ("csv", "events") if workers == 1 else ("binary", "decode")
        )
        achieved = []
        for target in targets:
            aggregate, __ = _saturation(
                paths[fmt], workers, emission, rate=float(target)
            )
            achieved.append(aggregate)
        series[str(workers)] = {
            "format": fmt,
            "emission": emission,
            "achieved_eps": achieved,
        }
    return {"target_rates": list(targets), "by_workers": series}


def run_suite(
    event_count: int,
    worker_counts: tuple[int, ...],
    targets: tuple[int, ...],
    repeats: int,
    tmp_dir: Path,
) -> dict:
    events = build_events(event_count)
    paths = {
        "csv": tmp_dir / "bench_scaleout_stream.csv",
        "binary": tmp_dir / "bench_scaleout_stream.gtb",
    }
    codec.write_stream_file(paths["csv"], events)
    binfmt.write_binary_stream(paths["binary"], events)
    path_strs = {fmt: str(path) for fmt, path in paths.items()}
    try:
        saturation = bench_saturation(path_strs, worker_counts, repeats)
        transports = bench_transports(
            path_strs["binary"], worker_counts, repeats
        )
        sweep = bench_sweep(path_strs, worker_counts, targets)
    finally:
        for path in paths.values():
            path.unlink(missing_ok=True)

    most = str(worker_counts[-1])
    # Transport headline at ONE worker: a single producer/consumer pair
    # is the SPSC ring's design point and the only cell where the bench
    # measures transport cost rather than core time-slicing — at 4
    # workers on the 1-CPU runner, 4 producers plus the receiver's
    # drain threads contend for one core and every transport converges
    # on scheduler throughput.  The full grid stays in
    # transports.by_transport for the oversubscribed cells.
    one = str(worker_counts[0])
    shm_eps = transports["by_transport"]["shm"]["by_workers"][one][
        "aggregate_eps"
    ]
    pipe_eps = transports["by_transport"]["pipe"]["by_workers"][one][
        "aggregate_eps"
    ]
    baseline_eps = saturation["csv"]["events"]["by_workers"]["1"][
        "aggregate_eps"
    ]
    decode_eps = saturation["binary"]["decode"]["by_workers"][most][
        "aggregate_eps"
    ]
    raw_eps = saturation["csv"]["raw"]["by_workers"][most]["aggregate_eps"]
    binary_raw_eps = saturation["binary"]["raw"]["by_workers"][most][
        "aggregate_eps"
    ]
    return {
        "benchmark": "replayer_scaleout",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "event_count": event_count,
            "formats": list(FORMATS),
            "emissions": list(EMISSIONS),
            "worker_counts": list(worker_counts),
            "target_rates": list(targets),
            "repeats": repeats,
            "batch_size": 256,
            "transports": list(TRANSPORTS),
        },
        "machine": machine_info(),
        "saturation": saturation,
        "transports": transports,
        "sweep": sweep,
        # Delivered decode-mode rates through LIVE receivers for one
        # producer/consumer pair, and the shared-memory ring's edge
        # over the pipe baseline (the zero-copy transport's acceptance
        # gate is >= 1.5x).
        "shm_delivered_eps": shm_eps,
        "pipe_delivered_eps": pipe_eps,
        "shm_vs_pipe_delivered": shm_eps / pipe_eps if pipe_eps else 0.0,
        # Baseline: the classic single-process CSV events replay —
        # what "1 worker" meant before the binary format existed.
        "baseline_1w_events_eps": baseline_eps,
        # Tentpole headline: events-semantics replay (every event
        # decoded) at the widest worker count, binary decode-in-worker,
        # vs. that baseline.
        "decode_4w_eps": decode_eps,
        "decode_scaling_4w": decode_eps / baseline_eps if baseline_eps else 0.0,
        # How close decode-in-worker gets to the classic raw mode (CSV
        # byte runs) at the same worker count — the "within 2x of raw"
        # gate (>= 0.5 means validating every record costs at most one
        # CSV-raw).
        "decode_vs_raw_4w": decode_eps / raw_eps if raw_eps else 0.0,
        # The binary zero-copy path: frame counts trusted from the
        # index, no per-record work at all.  Informational ceiling.
        "binary_raw_ceiling_eps": binary_raw_eps,
        # Continuity with earlier records: the fastest scale-out config
        # at the widest worker count vs. the same baseline.
        "best_scaleout_eps": binary_raw_eps,
        "speedup_4w": binary_raw_eps / baseline_eps if baseline_eps else 0.0,
    }


def print_summary(results: dict) -> None:
    machine = results["machine"]
    print(
        f"\nreplayer scale-out — {results['config']['event_count']} events, "
        f"python {machine['python']}, {machine['cpu_count']} cpu(s)"
    )
    saturation = results["saturation"]
    header = f"{'format/workers':<16}" + "".join(
        f"{emission:>16}" for emission in results["config"]["emissions"]
    )
    print(header)
    for fmt in results["config"]["formats"]:
        for workers in results["config"]["worker_counts"]:
            key = str(workers)
            row = f"{fmt + '/' + key:<16}"
            for emission in results["config"]["emissions"]:
                eps = saturation[fmt][emission]["by_workers"][key][
                    "aggregate_eps"
                ]
                row += f"{eps:>14,.0f}/s"
            print(row)
    most = results["config"]["worker_counts"][-1]
    print(
        f"decode-in-worker headline ({most} workers binary decode vs "
        f"1 worker csv events): {results['decode_scaling_4w']:.2f}x"
    )
    print(
        f"decode vs classic raw (csv byte runs) at {most} workers: "
        f"{results['decode_vs_raw_4w']:.2f}x"
    )
    print(
        f"raw headline ({most} workers binary raw vs 1 worker events): "
        f"{results['speedup_4w']:.2f}x "
        f"(zero-copy ceiling {results['binary_raw_ceiling_eps']:,.0f}/s)"
    )
    transports = results["transports"]["by_transport"]
    print("delivered decode-mode rate through live receivers:")
    for transport in results["config"]["transports"]:
        row = f"  {transport:<5}"
        for workers in results["config"]["worker_counts"]:
            eps = transports[transport]["by_workers"][str(workers)][
                "aggregate_eps"
            ]
            row += f"  {workers}w {eps:>12,.0f}/s"
        print(row)
    print(
        "shm vs pipe delivered (1 producer/consumer pair): "
        f"{results['shm_vs_pipe_delivered']:.2f}x"
    )
    sweep = results["sweep"]
    print("fig 3a sweep (achieved/target):")
    for workers, series in sweep["by_workers"].items():
        points = ", ".join(
            f"{achieved / target:.2f}@{target:,}"
            for target, achieved in zip(
                sweep["target_rates"], series["achieved_eps"]
            )
        )
        print(
            f"  {workers} worker(s) "
            f"[{series['format']}/{series['emission']}]: {points}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--events", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers", default="1,2,4",
        help="comma-separated worker counts (first is the baseline)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="result JSON path ('-' to skip writing; full runs default "
        "to BENCH_replayer_scaleout.json, smoke runs only write when "
        "-o is given)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, 1-and-2-worker matrix: finishes in seconds",
    )
    args = parser.parse_args(argv)

    event_count = 20_000 if args.smoke else args.events
    repeats = 1 if args.smoke else args.repeats
    worker_counts = tuple(int(w) for w in args.workers.split(","))
    if args.smoke:
        worker_counts = (1, 2)
        targets = (50_000, 1_000_000)
    else:
        targets = (100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000)

    results = run_suite(
        event_count,
        worker_counts,
        targets,
        repeats,
        Path(os.environ.get("TMPDIR", "/tmp")),
    )
    results["smoke"] = args.smoke
    print_summary(results)

    write_snapshot(
        results, args.output, args.smoke, "BENCH_replayer_scaleout.json"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
