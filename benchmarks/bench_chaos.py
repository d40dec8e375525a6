"""Write BENCH_chaos.json: fault-injected recovery identity check.

The fault-tolerance contract (see docs/architecture.md) is *recovery
identity*: a sharded run that loses a worker mid-run and retries from
its last checkpoint must be bit-identical — output count, total output,
per-side drop ledger — to the fault-free run of the same spec.  This
benchmark exercises that contract end to end with a seeded
:class:`~repro.runtime.FaultPlan`:

* EXACT and PROB sharded runs, fault-free, at ``workers`` processes
  (the baseline truth);
* the same specs with a seeded worker kill plus checkpoint/retry, at
  both one worker (supervised-serial path) and ``workers`` processes
  (pooled path) — each must match the fault-free result exactly;
* a degrade leg: retries exhausted on one shard with ``degrade=True``
  must merge the survivors and report a ``lost_output`` that exactly
  reconciles the output deficit (EXACT makes the forgone output
  computable).

Wall-clocks are recorded but advisory; the gate in
``benchmarks/regression.py`` trips only on identity or reconciliation
drift.

Run:  python benchmarks/regression.py [--write] chaos
Or:   make bench-gate
"""

from __future__ import annotations

import os
import sys
import time

from dataclasses import replace

from repro.api import RunSpec, build_pair, run
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.runtime import Fault, FaultPlan

SEED = 0
FAULT_SEED = 7
CHECKPOINT_EVERY = 16


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _fingerprint(result) -> dict:
    """The identity-gated view of one run."""
    return {
        "output": result.output_count,
        "total_output": result.total_output_count,
        "drops": result.drop_breakdown().as_dict(),
    }


def build_chaos_snapshot(scale_name: str, shards: int, workers: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    mismatches = []
    recovered = {}
    baseline = {}
    seconds = {}

    # One seeded kill somewhere in the grid; `attempts=1` means the
    # fault fires on the first attempt only, so one retry recovers.
    plan = FaultPlan.seeded(FAULT_SEED, cells=shards, ticks=length)

    for algorithm in ("EXACT", "PROB"):
        spec = RunSpec(
            algorithm=algorithm, window=window, memory=memory,
            length=length, domain=DEFAULT_DOMAIN, seed=SEED, shards=shards,
        )
        pair = build_pair(spec)
        clean, clean_seconds = _timed(lambda: run(spec, pair=pair, workers=workers))
        baseline[algorithm] = _fingerprint(clean)
        seconds[f"{algorithm.lower()}_clean"] = round(clean_seconds, 4)

        faulty_spec = replace(
            spec, max_retries=2, checkpoint_every=CHECKPOINT_EVERY,
        )
        for label, n_workers in (("serial", 1), ("pooled", workers)):
            result, wall = _timed(
                lambda: run(
                    faulty_spec, pair=pair, workers=n_workers, fault_plan=plan
                )
            )
            recovered[f"{algorithm.lower()}_{label}"] = _fingerprint(result)
            seconds[f"{algorithm.lower()}_{label}"] = round(wall, 4)
            if _fingerprint(result) != baseline[algorithm]:
                mismatches.append(
                    f"{algorithm} {label} recovered run differs from "
                    f"fault-free: {_fingerprint(result)} != "
                    f"{baseline[algorithm]}"
                )

    # Degrade leg: a shard that fails on every attempt, with retries
    # exhausted, must be reported — and the report must reconcile.
    exact_spec = RunSpec(
        algorithm="EXACT", window=window, memory=memory,
        length=length, domain=DEFAULT_DOMAIN, seed=SEED, shards=shards,
        max_retries=0, degrade=True,
    )
    pair = build_pair(exact_spec)
    lost_cell = plan.faults[0].cell
    stubborn = FaultPlan(
        (Fault("kill", cell=lost_cell, tick=plan.faults[0].tick,
               attempts=1_000_000),)
    )
    degraded = run(exact_spec, pair=pair, workers=workers, fault_plan=stubborn)
    reconciles = (
        degraded.lost_shards == (lost_cell,)
        and degraded.lost_output is not None
        and degraded.output_count + degraded.lost_output
        == baseline["EXACT"]["output"]
    )
    if not reconciles:
        mismatches.append(
            f"degrade: output {degraded.output_count} + lost "
            f"{degraded.lost_output} does not reconcile to fault-free "
            f"{baseline['EXACT']['output']} "
            f"(lost_shards={degraded.lost_shards})"
        )

    return {
        "benchmark": "chaos_recovery",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seed": SEED,
        },
        "parameters": {
            "window": window,
            "memory": memory,
            "shards": shards,
            "workers": workers,
            "fault_seed": FAULT_SEED,
            "checkpoint_every": CHECKPOINT_EVERY,
            "killed_cell": lost_cell,
            "killed_tick": plan.faults[0].tick,
            "cpu_count": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "seconds": seconds,
        "recovery_identical": not mismatches,
        "mismatches": mismatches,
        "counts": {
            "exact_output": baseline["EXACT"]["output"],
            "prob_sharded_output": baseline["PROB"]["output"],
            "degraded_output": degraded.output_count,
            "lost_output": degraded.lost_output,
        },
    }
