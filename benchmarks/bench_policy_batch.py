"""Write BENCH_policy.json: policy-lane throughput + strict identity.

The columnar micro-batch path now covers the shedding policies: RAND,
PROB, and LIFE runs with static probability tables take vectorized
chunk lanes (``repro.core.batched_policies``) instead of the per-tuple
hot loop, and ``run()`` takes them by default.  This benchmark times
the three policies both ways on the ``ci``-scale workload of
``BENCH_engine.json`` (n=2000, w=100) — the lane against the per-tuple
fast loop ``JoinEngine._run_fast``, called directly through
``bench_batch.run_fast`` — with the timings interleaved per round (see
``snapshot._interleaved_best``), and records:

* per-policy per-tuple and batched throughputs plus their ratio — the
  regression gate holds PROB and LIFE to the ``>= 2.0x`` floor the
  policy lanes exist to clear (RAND clears far more; its ratio is
  recorded but not gated, the fixed floor keeps the gate independent
  of how silly-fast the trivial policy gets);
* the part that gates strictly: whether every batched run reproduced
  the fast loop's result **bit-identically** — output count, total
  output, drop ledger, survival departures, and metrics totals —
  across RAND/PROB/LIFE, both allocation modes (PROBV/LIFEV/RANDV),
  batch sizes {1, 7, 64, whole}, and sharded runs (shards don't take
  the pair lanes, so ``batch_size`` must be invisible there).

The committed ``BENCH_policy.json`` at the repository root is the
reference point; ``make bench-gate`` rebuilds the snapshot and fails on
identity drift, deterministic-count drift, or a speedup below the
floor.

Run:  python benchmarks/regression.py [--write] policy
Or:   make bench-gate
"""

from __future__ import annotations

import sys

from bench_batch import _check_identity, run_fast  # sibling module
from snapshot import _interleaved_best  # sibling module

from repro.api import RunSpec, build_pair, run
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.streams.batches import DEFAULT_BATCH_SIZE, HAVE_NUMPY

SEED = 0
#: Policies the regression gate's speedup floor holds (RAND is advisory).
ENFORCED_POLICIES = ("PROB", "LIFE")
#: Policies timed head-to-head.
TIMED_POLICIES = ("RAND", "PROB", "LIFE")
#: Every lane-covered policy spec, both allocation modes.
IDENTITY_POLICIES = ("RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")
#: Chunk sizes the identity sweep crosses (plus the whole stream).
IDENTITY_BATCH_SIZES = (1, 7, 64, DEFAULT_BATCH_SIZE)


def build_policy_snapshot(scale_name: str, repeats: int, seed: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    def spec(algorithm, **overrides):
        return RunSpec(
            algorithm=algorithm, window=window, memory=memory,
            length=length, domain=DEFAULT_DOMAIN, seed=seed, **overrides,
        )

    pair = build_pair(spec("EXACT"))

    mismatches: list[str] = []
    counts: dict = {}
    policies = []

    # -- throughput: per-tuple vs batched, interleaved per policy ------
    for name in TIMED_POLICIES:
        run_fast(spec(name), pair)  # warm up outside the timed rounds
        run(spec(name, batch_size=DEFAULT_BATCH_SIZE), pair=pair)
        best, results = _interleaved_best(repeats, {
            "serial": lambda: run_fast(spec(name), pair),
            "batched": lambda: run(
                spec(name, batch_size=DEFAULT_BATCH_SIZE), pair=pair
            ),
        })
        serial_seconds, batched_seconds = best["serial"], best["batched"]
        speedup = serial_seconds / batched_seconds
        baseline = results["serial"]
        _check_identity(
            mismatches, f"{name} batch={DEFAULT_BATCH_SIZE}",
            results["batched"], baseline,
        )
        counts[f"{name.lower()}_output"] = baseline.output_count
        counts[f"{name.lower()}_total_output"] = baseline.total_output_count
        policies.append({
            "policy": name,
            "serial_ktuples_per_second": round(length / serial_seconds / 1000, 2),
            "batched_ktuples_per_second": round(length / batched_seconds / 1000, 2),
            "serial_seconds": round(serial_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
            "floor_enforced": name in ENFORCED_POLICIES,
        })

    # -- identity sweep: all lanes x chunk sizes, metrics + survival ---
    for name in IDENTITY_POLICIES:
        baseline = run_fast(spec(name, metrics=True), pair)
        for batch_size in IDENTITY_BATCH_SIZES:
            batched = run(spec(name, metrics=True, batch_size=batch_size), pair=pair)
            label = f"{name} batch={batch_size}"
            _check_identity(mismatches, label, batched, baseline, metrics=True)
            if (
                batched.r_departures != baseline.r_departures
                or batched.s_departures != baseline.s_departures
            ):
                mismatches.append(f"{label}: survival departures differ")

    # -- sharded identity: batch_size must be invisible under shards ---
    for name in ("PROB", "LIFE"):
        sharded_baseline = run(spec(name, shards=4), pair=pair)
        sharded_batched = run(spec(name, shards=4, batch_size=64), pair=pair)
        _check_identity(
            mismatches, f"{name} shards=4 batch=64",
            sharded_batched, sharded_baseline,
        )

    return {
        "benchmark": "policy_batch_throughput",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seed": seed,
        },
        "parameters": {
            "window": window,
            "memory": memory,
            "repeats": repeats,
            "batch_size": DEFAULT_BATCH_SIZE,
        },
        "python": sys.version.split()[0],
        "numpy": HAVE_NUMPY,
        "policies": policies,
        "batched_identical": not mismatches,
        "mismatches": mismatches,
        "counts": counts,
    }
