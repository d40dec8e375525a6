"""Write BENCH_shard.json: sharded-execution wall-clock + identity check.

Runs the same EXACT workload three ways — unsharded on the fast-CPU
engine, sharded (``shards`` cells) serially, and sharded fanned over
``workers`` processes — and records all three wall-clocks plus the
part that gates: whether the sharded runs reproduced the unsharded
result **exactly** (output count, total output, and the per-side drop
ledger — the partition layer's EXACT guarantee is identity, not
approximation).  A PROB row exercises the approximation variant: its
sharded output legitimately differs from unsharded, so only serial ==
parallel determinism is checked there.

Speedup is advisory: per-shard runs pay the async engine's per-tick
batch overhead plus fork/pickle tax, so small workloads or few-core
machines can legitimately be slower sharded.  The gate in
``benchmarks/regression.py`` trips only on identity/determinism drift
or a pathological (more than 25x unsharded) sharded slowdown.

Run:  python benchmarks/regression.py [--write] shard
Or:   make bench-gate
"""

from __future__ import annotations

import os
import sys
import time

from repro.api import RunSpec, build_pair, run_join
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory

SEED = 0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def build_shard_snapshot(scale_name: str, shards: int, workers: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    base_spec = RunSpec(
        algorithm="EXACT", window=window, memory=memory,
        length=length, domain=DEFAULT_DOMAIN, seed=SEED,
    )
    pair = build_pair(base_spec)
    sharded_spec = RunSpec(
        algorithm="EXACT", window=window, memory=memory,
        length=length, domain=DEFAULT_DOMAIN, seed=SEED, shards=shards,
    )

    unsharded, unsharded_seconds = _timed(
        lambda: run_join(base_spec, pair=pair)
    )
    serial, serial_seconds = _timed(
        lambda: run_join(sharded_spec, pair=pair, workers=1)
    )
    parallel, parallel_seconds = _timed(
        lambda: run_join(sharded_spec, pair=pair, workers=workers)
    )

    mismatches = []
    for label, result in (("serial", serial), ("parallel", parallel)):
        if result.output_count != unsharded.output_count:
            mismatches.append(
                f"EXACT {label} shards={shards}: output "
                f"{result.output_count} != unsharded {unsharded.output_count}"
            )
        if result.total_output_count != unsharded.total_output_count:
            mismatches.append(
                f"EXACT {label} shards={shards}: total output "
                f"{result.total_output_count} != unsharded "
                f"{unsharded.total_output_count}"
            )
        if result.drop_breakdown() != unsharded.drop_breakdown():
            mismatches.append(
                f"EXACT {label} shards={shards}: drop ledger "
                f"{result.drop_breakdown()} != unsharded "
                f"{unsharded.drop_breakdown()}"
            )

    # The approximation variant: sharded PROB differs from unsharded by
    # design, but serial and parallel shard execution must agree bitwise.
    prob_spec = RunSpec(
        algorithm="PROB", window=window, memory=memory,
        length=length, domain=DEFAULT_DOMAIN, seed=SEED, shards=shards,
    )
    prob_serial = run_join(prob_spec, pair=pair, workers=1)
    prob_parallel = run_join(prob_spec, pair=pair, workers=workers)
    if prob_serial.output_count != prob_parallel.output_count:
        mismatches.append(
            f"PROB shards={shards}: serial {prob_serial.output_count} "
            f"!= parallel {prob_parallel.output_count}"
        )
    if prob_serial.drop_counts != prob_parallel.drop_counts:
        mismatches.append(
            f"PROB shards={shards}: serial and parallel drop ledgers differ"
        )

    return {
        "benchmark": "shard_execution",
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
            "cpu_count": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "unsharded_seconds": round(unsharded_seconds, 4),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup_vs_unsharded": round(unsharded_seconds / parallel_seconds, 3),
        "exact_identical": not mismatches,
        "mismatches": mismatches,
        "counts": {
            "exact_output": unsharded.output_count,
            "exact_total_output": unsharded.total_output_count,
            "prob_sharded_output": prob_serial.output_count,
        },
    }
