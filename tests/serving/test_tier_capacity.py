"""Tier capacity: 4-worker scaling and hedged tail latency.

The only tests that compare wall-clock durations (TESTING.md).  Each
boots real tiers, drives one seeded workload through two of them and
compares the two runs.  Below 4 usable CPUs the workers share cores and
neither ratio says anything about the tier, so both tests skip there;
CI runs them on a 4-vCPU runner and fails the step unless both pass.

- **Scaling.** 300 requests of 4000 nnz over 24 connections, at 1 and
  at 4 workers: 4-worker throughput at least 2.5x the 1-worker figure,
  p99 under 2 s in both runs, no request lost to a worker death.
- **Tail.** 300 requests of 800 nnz over 12 connections to 3 workers,
  ``w0`` slowed by 50 ms on 30% of its requests; hedging is the tier's
  only tail remedy.  Hedged p99 at most 0.6x unhedged, an unhedged p99
  of at least 20 ms (the injection made a tail), at least one hedge,
  hedges within the token bucket, and every conservation law in both
  runs.

p99 is ``np.percentile`` (linear) over client-observed latencies.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.formats.io import matrix_market_string
from repro.serving.drill import (
    audit_tier_conservation,
    synthetic_frozen_selector,
)
from repro.serving.frontend import ServingTier, TierConfig, drive_tier

CPUS = len(os.sched_getaffinity(0))

pytestmark = pytest.mark.skipif(
    CPUS < 4, reason=f"tier capacity needs 4 usable CPUs, found {CPUS}"
)

#: Worker flags: a generous queue and no deadline, so the runs measure
#: compute, not admission shedding.
WORKER_ARGS = ("--queue-size", "256", "--deadline", "0")


def _matrix_text(index: int, seed: int, nnz: int) -> str:
    """A matrix heavy enough that extraction dominates routing."""
    rng = np.random.default_rng(seed * 7_654_321 + index)
    n = max(64, int(np.sqrt(nnz * 4)))
    flat = rng.choice(n * n, size=min(nnz, n * n), replace=False)
    rows, cols = np.divmod(flat, n)
    vals = rng.uniform(0.5, 2.0, size=len(flat))
    return matrix_market_string(COOMatrix((n, n), rows, cols, vals))


def _workload(
    n_requests: int, seed: int, nnz: int, n_unique: int = 32
) -> list[str]:
    """Predict lines cycling over distinct matrices and client ids."""
    pool = [_matrix_text(i, seed, nnz) for i in range(n_unique)]
    return [
        json.dumps(
            {
                "id": f"b{i}",
                "op": "predict",
                "client": f"tenant-{i % (n_unique * 2)}",
                "mtx": pool[i % n_unique],
            }
        )
        for i in range(n_requests)
    ]


def _timed_run(
    tmp_path, name: str, lines: list[str], connections: int, warm: int,
    **config,
) -> dict:
    """Boot a tier, warm it on ``lines[:warm]``, then time all of ``lines``."""
    run_dir = tmp_path / name
    run_dir.mkdir()
    model_path = str(run_dir / "selector.npz")
    synthetic_frozen_selector(seed=0).save(model_path)
    tier = ServingTier(
        TierConfig(
            model_path=model_path,
            run_dir=str(run_dir),
            worker_args=WORKER_ARGS,
            boot_timeout_seconds=120.0,
            **config,
        )
    )
    front = str(run_dir / "front.sock")

    async def scenario() -> tuple[list, list[float], float, int]:
        task = asyncio.ensure_future(tier.run_socket(front))
        while not os.path.exists(front):
            if task.done():
                task.result()
            await asyncio.sleep(0.05)
        try:
            await drive_tier(front, lines[:warm], connections)
            hedges_before = tier.n_hedges
            latencies: list[float] = []
            start = time.perf_counter()
            pairs = await drive_tier(
                front, lines, connections, latencies=latencies
            )
            elapsed = time.perf_counter() - start
        finally:
            reader, writer = await asyncio.open_unix_connection(front)
            writer.write(b'{"id":"__s","op":"shutdown"}\n')
            await writer.drain()
            await reader.readline()
            writer.close()
            await asyncio.wait_for(task, timeout=60.0)
        return pairs, latencies, elapsed, tier.n_hedges - hedges_before

    pairs, latencies, elapsed, hedges = asyncio.run(scenario())
    assert [response["status"] for _, response in pairs] == ["ok"] * len(lines)
    return {
        "rps": len(lines) / elapsed,
        "p99_ms": float(np.percentile(np.array(latencies) * 1e3, 99)),
        "hedges": hedges,
        "routed": tier.n_routed,
        "worker_lost": tier.n_worker_lost,
        "violations": audit_tier_conservation(tier, lines[:warm] + lines),
    }


def test_four_workers_scale_throughput(tmp_path):
    lines = _workload(300, seed=0, nnz=4000)
    runs = {
        workers: _timed_run(
            tmp_path,
            f"w{workers}",
            lines,
            connections=24,
            warm=max(24, 2 * workers),
            workers=workers,
        )
        for workers in (1, 4)
    }
    assert runs[4]["rps"] >= 2.5 * runs[1]["rps"], runs
    for run in runs.values():
        assert run["p99_ms"] < 2000.0, runs
        assert run["worker_lost"] == 0, runs


def test_hedging_cuts_the_slow_worker_tail(tmp_path):
    lines = _workload(300, seed=3, nnz=800)
    budget = 0.4
    slow = {"w0": {"REPRO_FAULTS": "latency=0.3,delay=0.05,seed=7"}}
    common = dict(
        connections=12, warm=6, workers=3, worker_env=slow
    )
    unhedged = _timed_run(
        tmp_path, "unhedged", lines, hedge_ms=None, hedge_budget=0.0, **common
    )
    hedged = _timed_run(
        tmp_path, "hedged", lines, hedge_ms=25.0, hedge_budget=budget, **common
    )
    assert hedged["p99_ms"] <= 0.6 * unhedged["p99_ms"], (unhedged, hedged)
    assert unhedged["p99_ms"] >= 20.0, unhedged
    assert hedged["hedges"] >= 1, hedged
    # The token bucket's burst (ServingTier: 32 tokens per unit budget).
    burst = max(1.0, 32.0 * budget)
    assert hedged["hedges"] <= budget * hedged["routed"] + burst, hedged
    assert unhedged["violations"] == [] and hedged["violations"] == []
