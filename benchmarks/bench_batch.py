"""Write BENCH_batch.json: columnar-batch throughput + identity check.

Runs the EXACT workload of ``BENCH_engine.json`` (``ci`` scale: n=2000,
w=100) two ways on the fast-CPU engine — through the per-tuple fast
loop (``JoinEngine._run_fast``, called directly: ``run()`` takes the
lanes by default) and through the columnar micro-batch lane — with the
timings interleaved per round (see ``snapshot._interleaved_best``), and
records:

* the per-tuple and batched throughputs plus their ratio (``speedup``),
  the number the regression gate holds to the ``>= 1.5x`` floor the
  batched lane exists to clear;
* the part that gates strictly: whether every batched run reproduced
  the fast loop's result **bit-identically** — output count, total
  output, drop ledger, survival departures, and metrics totals for
  EXACT across batch sizes; output/ledger for each shedding policy
  (RAND/PROB/LIFE take the vectorized lanes of
  ``repro.core.batched_policies`` — gated separately by
  ``bench_policy_batch.py`` — while ARM has no lane and runs the fast
  loop, and either route must be invisible); sharded EXACT with
  ``batch_size`` set.

The committed ``BENCH_batch.json`` at the repository root is the
reference point; ``make bench-gate`` rebuilds the snapshot and fails on
identity drift, deterministic-count drift, or a speedup below the
floor.

Run:  python benchmarks/regression.py [--write] batch
Or:   make bench-gate
"""

from __future__ import annotations

import sys

from snapshot import _interleaved_best  # sibling module

from repro.api import RunSpec, _policy_for, build_pair, run
from repro.core.engine import EngineConfig, JoinEngine
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.obs import MetricsRegistry
from repro.streams.batches import DEFAULT_BATCH_SIZE, HAVE_NUMPY

SEED = 0
#: Chunk sizes the identity sweep crosses (plus the whole stream).
IDENTITY_BATCH_SIZES = (1, 7, 64, DEFAULT_BATCH_SIZE)
#: Shedding policies whose runs ``batch_size`` must not change: the
#: static-table ones take the vectorized policy lanes (timed and floor-
#: gated by ``bench_policy_batch.py``); ARM has no lane and falls back.
SHEDDING_POLICIES = ("RAND", "PROB", "PROBV", "LIFE", "ARM")


def run_fast(spec: RunSpec, pair):
    """``spec`` over ``pair`` through the per-tuple fast loop.

    ``run(spec)`` sends every lane-eligible run to its lane, so the
    serial side of the speedup rows and of the identity checks calls
    ``JoinEngine._run_fast`` directly, with the policy and the metrics
    registry ``run()`` would build.
    """
    config = EngineConfig(
        window=spec.window,
        memory=spec.effective_memory,
        variable=spec.variable,
        warmup=spec.warmup,
    )
    registry = MetricsRegistry() if spec.metrics else None
    engine = JoinEngine(
        config, policy=_policy_for(spec, pair, None), metrics=registry
    )
    return engine._run_fast(pair, registry)


def _comparable_metrics(snapshot):
    """Metrics snapshot minus wall-clock phases (timing is not identity)."""
    if snapshot is None:
        return None
    return {k: v for k, v in snapshot.items() if k != "phases"}


def _check_identity(mismatches, label, batched, baseline, *, metrics=False):
    if batched.output_count != baseline.output_count:
        mismatches.append(
            f"{label}: output {batched.output_count} "
            f"!= per-tuple {baseline.output_count}"
        )
    if batched.total_output_count != baseline.total_output_count:
        mismatches.append(
            f"{label}: total output {batched.total_output_count} "
            f"!= per-tuple {baseline.total_output_count}"
        )
    if batched.drop_counts != baseline.drop_counts:
        mismatches.append(
            f"{label}: drop ledger {batched.drop_counts} "
            f"!= per-tuple {baseline.drop_counts}"
        )
    if metrics and _comparable_metrics(batched.metrics) != _comparable_metrics(
        baseline.metrics
    ):
        mismatches.append(f"{label}: metrics totals differ from per-tuple")


def build_batch_snapshot(scale_name: str, repeats: int, seed: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    def spec(algorithm="EXACT", **overrides):
        return RunSpec(
            algorithm=algorithm, window=window, memory=memory,
            length=length, domain=DEFAULT_DOMAIN, seed=seed, **overrides,
        )

    pair = build_pair(spec())

    # -- throughput: per-tuple vs batched EXACT, interleaved ------------
    run_fast(spec(), pair)  # warm up allocator/caches outside timing
    run(spec(batch_size=DEFAULT_BATCH_SIZE), pair=pair)
    best, results = _interleaved_best(repeats, {
        "serial": lambda: run_fast(spec(), pair),
        "batched": lambda: run(
            spec(batch_size=DEFAULT_BATCH_SIZE), pair=pair
        ),
    })
    serial_seconds, batched_seconds = best["serial"], best["batched"]
    serial_ktps = length / serial_seconds / 1000
    batched_ktps = length / batched_seconds / 1000
    speedup = serial_seconds / batched_seconds

    mismatches: list[str] = []
    baseline = results["serial"]
    _check_identity(
        mismatches, f"EXACT batch={DEFAULT_BATCH_SIZE}",
        results["batched"], baseline,
    )
    if results["batched"].r_departures != baseline.r_departures or (
        results["batched"].s_departures != baseline.s_departures
    ):
        mismatches.append(
            f"EXACT batch={DEFAULT_BATCH_SIZE}: survival departures differ"
        )

    # -- identity sweep: EXACT across chunk sizes, with metrics --------
    exact_metrics = run_fast(spec(metrics=True), pair)
    for batch_size in IDENTITY_BATCH_SIZES:
        batched = run(spec(metrics=True, batch_size=batch_size), pair=pair)
        _check_identity(
            mismatches, f"EXACT batch={batch_size}",
            batched, exact_metrics, metrics=True,
        )

    # -- policy identity: every shedding policy, two chunk sizes -------
    for name in SHEDDING_POLICIES:
        policy_baseline = run_fast(spec(name), pair)
        for batch_size in (7, DEFAULT_BATCH_SIZE):
            batched = run(spec(name, batch_size=batch_size), pair=pair)
            _check_identity(
                mismatches, f"{name} batch={batch_size}",
                batched, policy_baseline,
            )

    # -- sharded identity: batch_size must be invisible under shards ---
    sharded_baseline = run(spec(shards=4), pair=pair)
    sharded_batched = run(spec(shards=4, batch_size=64), pair=pair)
    _check_identity(
        mismatches, "EXACT shards=4 batch=64",
        sharded_batched, sharded_baseline,
    )
    if sharded_baseline.output_count != baseline.output_count:
        mismatches.append(
            f"EXACT shards=4: output {sharded_baseline.output_count} "
            f"!= unsharded {baseline.output_count}"
        )

    return {
        "benchmark": "batch_throughput",
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
        "serial_ktuples_per_second": round(serial_ktps, 2),
        "batched_ktuples_per_second": round(batched_ktps, 2),
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "batched_identical": not mismatches,
        "mismatches": mismatches,
        "counts": {
            "exact_output": baseline.output_count,
            "exact_total_output": baseline.total_output_count,
        },
    }
