"""Seed-stability of the resilience layer (the determinism contract).

Same seed → byte-identical fault sequences, delivered lines, and retry
delays; and the ``repro check`` determinism rules hold on the module
itself even with their scope restriction removed (all wall-clock use is
injected, never called directly).
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.check.determinism import DETERMINISM_RULES
from repro.check.framework import run_check
from repro.core.connectors import CallbackTransport
from repro.core.resilience import (
    ChaosConfig,
    ChaosTransport,
    RetryPolicy,
    RetryingTransport,
)

pytestmark = pytest.mark.chaos

RESILIENCE_PATH = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "core" / "resilience.py"
)

CHAOS = dict(
    send_failure_probability=0.05,
    reset_probability=0.02,
    partial_batch_probability=0.05,
    latency_probability=0.1,
)


def _send_csv_run(transport, lines):
    run = "".join(f"{line}\n" for line in lines).encode("utf-8")
    transport.send_frame(run, len(lines), binary=False)


def _chaos_run(seed: int, csv_runs: bool = False):
    """One fixed workload through a chaos+retry chain; returns artifacts.

    ``csv_runs`` sends each batch as stored CSV bytes
    (``send_frame(..., binary=False)``) instead of text lines.
    """
    received: list[str] = []
    chaos = ChaosTransport(
        CallbackTransport(received.append),
        ChaosConfig(seed=seed, **CHAOS),
        sleep=lambda _: None,
    )
    transport = RetryingTransport(
        chaos,
        RetryPolicy(max_attempts=20, base_delay=0.0, seed=seed),
        sleep=lambda _: None,
    )
    lines = [f"line-{i}" for i in range(1500)]
    for i in range(0, len(lines), 30):
        if csv_runs:
            _send_csv_run(transport, lines[i : i + 30])
        else:
            transport.send_many(lines[i : i + 30])
    return tuple(chaos.trace), tuple(received), chaos.stats


def test_same_seed_identical_fault_sequence_and_delivery():
    trace_a, received_a, stats_a = _chaos_run(seed=99)
    trace_b, received_b, stats_b = _chaos_run(seed=99)
    assert trace_a == trace_b
    assert received_a == received_b
    assert stats_a == stats_b
    assert stats_a.total_faults > 0
    # A CSV byte run draws, cuts and resumes exactly like a line batch.
    assert _chaos_run(seed=99, csv_runs=True) == (trace_a, received_a, stats_a)


def test_different_seed_different_fault_sequence():
    trace_a, __, __ = _chaos_run(seed=1)
    trace_b, __, __ = _chaos_run(seed=2)
    assert trace_a != trace_b


def test_trace_independent_of_batch_contents():
    """The draw count per operation is fixed, so the fault sequence is a
    pure function of (seed, operation index), not of what is sent."""

    def trace_for(width: int):
        chaos = ChaosTransport(
            CallbackTransport(lambda line: None),
            ChaosConfig(seed=7, **CHAOS),
            sleep=lambda _: None,
        )
        for i in range(50):
            try:
                chaos.send_many([f"x{i}-{j}" for j in range(width)])
            except Exception:
                pass
        return [kind for __, kind in chaos.trace if kind != "partial"]

    # Partial faults depend on batch_len > 1; everything else must align
    # between wide and narrow batches.
    wide = trace_for(8)
    chaos = ChaosTransport(
        CallbackTransport(lambda line: None),
        ChaosConfig(seed=7, **CHAOS),
        sleep=lambda _: None,
    )
    for i in range(50):
        try:
            chaos.send_many([f"y{i}"])
        except Exception:
            pass
    narrow = [
        kind if kind != "partial" else "substituted"
        for __, kind in chaos.trace
    ]
    # With width=1 the partial slot falls through to latency/ok, so only
    # compare the operations where the wide run did not draw a partial.
    wide_full = ChaosTransport(
        CallbackTransport(lambda line: None),
        ChaosConfig(seed=7, **CHAOS),
        sleep=lambda _: None,
    )
    for i in range(50):
        try:
            wide_full.send_many([f"z{i}-{j}" for j in range(8)])
        except Exception:
            pass
    for (op, wide_kind), narrow_kind in zip(wide_full.trace, narrow):
        if wide_kind in ("reset", "send_failure"):
            assert narrow_kind == wide_kind, f"operation {op} diverged"


def test_retry_delays_are_seed_stable():
    policy = RetryPolicy(base_delay=0.01, jitter=0.3, seed=5)
    delays_a = [
        policy.delay(attempt, random.Random(policy.seed))
        for attempt in range(1, 8)
    ]
    delays_b = [
        policy.delay(attempt, random.Random(policy.seed))
        for attempt in range(1, 8)
    ]
    assert delays_a == delays_b


def test_determinism_rules_pass_even_unscoped():
    """All wall-clock use in the module is injectable, never called."""
    rules = []
    for rule_type in DETERMINISM_RULES:
        rule = rule_type()
        rule.scope = ()  # widen DETERMINISM_SCOPE to cover core/
        rules.append(rule)
    result = run_check([RESILIENCE_PATH], rules=rules)
    assert result.violations == [], "\n".join(
        violation.render() for violation in result.violations
    )
    assert result.files_checked == 1
