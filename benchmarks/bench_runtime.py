"""Write BENCH_runtime.json: parallel-runtime wall-clock + equality check.

Times the same run-cell grid — every algorithm x seed combination of the
Figure-3 configuration at ``ci`` scale — twice through
:func:`repro.experiments.sweep._seed_outputs`, the seed-sweep loop
behind ``sweep_seeds``, ``sweep_specs`` and the variance study: once
serially and once
fanned out over :mod:`repro.runtime` worker processes.  Records both
wall-clocks, the speedup ratio, and — the part that gates — whether the
two paths produced **identical** per-cell output counts.

The determinism contract is strict (parallel must equal serial exactly);
the speedup is advisory.  Worker processes pay a real fork + pickle tax,
so on small grids or few-core machines ``workers=2`` can legitimately be
*slower* than serial — the gate in ``benchmarks/regression.py`` only
trips when the parallel path is pathologically slow (more than
5x the serial wall-clock) or when outputs drift.

Run:  python benchmarks/regression.py [--write] runtime
Or:   make bench-gate
"""

from __future__ import annotations

import os
import sys
import time

from repro.api import RunSpec
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.experiments.sweep import _seed_outputs
from repro.streams import zipf_pair

ALGORITHMS = ("RAND", "PROB", "PROBV", "LIFE")
SEEDS = (0, 1, 2)


def build_runtime_snapshot(scale_name: str, workers: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    def sweep(workers: int) -> dict:
        seeded = [
            (
                RunSpec(window=window, memory=memory, seed=seed),
                zipf_pair(length, DEFAULT_DOMAIN, 1.0, seed=seed),
            )
            for seed in SEEDS
        ]
        return _seed_outputs(ALGORITHMS, seeded, workers=workers)

    start = time.perf_counter()
    serial = sweep(1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = sweep(workers)
    parallel_seconds = time.perf_counter() - start

    mismatches = []
    for name in ALGORITHMS:
        for seed, serial_count, parallel_count in zip(
            SEEDS, serial[name], parallel[name]
        ):
            if serial_count != parallel_count:
                mismatches.append(
                    f"{name}(seed={seed}): serial {serial_count} "
                    f"!= parallel {parallel_count}"
                )

    return {
        "benchmark": "runtime_parallel",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seeds": list(SEEDS),
        },
        "parameters": {
            "window": window,
            "memory": memory,
            "algorithms": list(ALGORITHMS),
            "workers": workers,
            "cpu_count": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "outputs_match": not mismatches,
        "mismatches": mismatches,
        "counts": [
            {"seed": seed, **{name: serial[name][index] for name in ALGORITHMS}}
            for index, seed in enumerate(SEEDS)
        ],
    }
