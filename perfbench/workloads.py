"""The benchmark's workloads: what each one runs, at what size, and why.

Every workload is built from ``repro.gen.snb`` with the seed as its only
varying input, so the same seed gives byte-identical stream files.  The
reason each workload exists sits next to its definition (``why``); the
end-to-end metrics each layer should move are listed in ``layers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: "Flat out": a target rate the replayer's pacing never reaches, so the
#: pipeline runs as fast as its slowest layer allows.
FLAT_OUT_EPS = 1e9

#: MARKER events per live stream, at evenly spaced fixed positions.
MARKERS = 11


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``path`` selects the pipeline: ``"sharded"`` (ShardedReplayer over
    shm rings), ``"classic"`` (one LiveReplayer into a pipe) or
    ``"sim"`` (the simulated Table-4 Chronograph run).
    """

    name: str
    why: str
    path: str
    events: int = 0
    workers: int = 1
    rate: float = FLAT_OUT_EPS
    sim_scale: float = 0.0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sharded-shm",
            why=(
                "README fast path (GTB1, 2 workers, decode emission, shm, flat "
                "out): partition, spawn, witness verify and the shm ring do "
                "the work; the codec does almost none"
            ),
            path="sharded",
            events=240_000,
            workers=2,
        ),
        Workload(
            name="classic-csv",
            why=(
                "paper Fig 3a replayer (CSV, 1 worker, events emission into a "
                "pipe, flat out): codec parse/format and the pacer do the "
                "work; bypasses partition, spawn, witness and shm"
            ),
            path="classic",
            events=120_000,
        ),
        Workload(
            name="paced-shm",
            # The 64-slot x 256-record ShmTransport flush currently delivers
            # each shard in ~16k-event bursts, which sets this workload's
            # lag (~131 ms per burst at 125k eps per shard).  Fixing that
            # burst is a later performance change, not part of the
            # benchmark.
            why=(
                "sharded-shm open-loop at 250k eps, well below its ceiling: "
                "scored by achieved ratio and lag, so bigger batches or longer "
                "consumer naps show up as a loss"
            ),
            path="sharded",
            events=240_000,
            workers=2,
            rate=250_000.0,
        ),
        Workload(
            name="sim-chronograph",
            why=(
                "Table-4 Chronograph run (fig3d.run_chronograph, scale 0.02): "
                "the only workload that runs the sim kernel, platforms, "
                "pagerank and the harness"
            ),
            path="sim",
            sim_scale=0.02,
        ),
    )
}


def build_events(workload: Workload, seed: int):
    """The workload's SNB-like graph events with ``MARKERS`` MARKER
    events at evenly spaced positions that do not depend on the seed."""
    from repro.core.events import marker
    from repro.gen.snb import SnbConfig, snb_stream

    every = max(1, workload.events // (MARKERS + 1))
    for index, event in enumerate(
        snb_stream(SnbConfig(total_events=workload.events, seed=seed))
    ):
        if index and index % every == 0:
            yield marker(f"m{index // every}")
        yield event


def chronograph_config(workload: Workload, seed: int):
    """The scaled Table-4 configuration for ``seed``."""
    from dataclasses import replace

    from repro.experiments.configs import ChronographExperimentConfig

    return replace(
        ChronographExperimentConfig().scaled(workload.sim_scale), seed=seed
    )
