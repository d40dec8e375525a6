"""Write BENCH_engine.json: an engine-throughput snapshot at a fixed scale.

Runs the fast-CPU engine once per policy on the ``ci``-scale workload
(a 2,000-tuple Zipf(1.0) pair, window 100, M = w/2), records throughput
with instrumentation disabled, repeats the run with a
:class:`~repro.obs.MetricsRegistry` attached and again with a
:class:`~repro.obs.Tracer` to measure both observability
overheads, and dumps everything — including a trimmed metrics snapshot
of the PROB run — as one JSON document.

Overheads are same-lane comparisons: the metrics overhead compares two
default-path runs (both take the columnar lane, or both the fast loop
for ARM), and the trace overhead compares the traced run against
an untraced run *forced onto the same kernel-driven tick loop*
(``force_general=True``) — a tracer disables the lanes and the fast
loop, so comparing against the default path's time would report the
lane difference (hundreds of percent) rather than the cost of tracing.

``run(pair)`` is ``run_stream(PairSource(pair))``, and it takes the
columnar lanes by default (ARM runs the per-tuple fast loop), so the
kt/s rows read several times their pre-lane baselines and a drop row
can only fail on a real slowdown.  Before each policy is timed, the
snapshot asserts that the *incremental* source path (the one unbounded
sources take) reproduces the kernel loop bit-for-bit on the same
workload — output, total, and drop ledger.

The committed ``BENCH_engine.json`` at the repository root is the
reference point: ``make bench-gate`` (see ``benchmarks/regression.py``)
rebuilds the snapshot and diffs the throughput/overhead numbers against
it with tolerance bands; ``--write engine`` regenerates it.

Run:  python benchmarks/regression.py [--write] engine
Or:   make bench-gate
"""

from __future__ import annotations

import sys
import time

from repro.experiments import estimators_for, run_algorithm
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.streams import zipf_pair
from repro.streams.sources import PairSource

POLICIES = ("EXACT", "RAND", "PROB", "PROBV", "LIFE", "ARM")


def _interleaved_best(repeats: int, variants):
    """Best elapsed seconds (and last result) per variant, interleaved.

    ``variants`` maps a name to a zero-argument callable.  Each repeat
    round runs every variant once, back to back, before the next round
    starts; the per-variant minimum is taken across rounds.  Interleaving
    matters on shared/noisy machines: a load spike during round *k* slows
    every variant's round-*k* sample alike, so min-over-rounds removes it
    from all of them instead of inflating whichever variant happened to
    own that wall-clock slice.  Overhead percentages computed from these
    minima are differences of same-condition bests, not of runs taken
    minutes apart.
    """
    best = {name: float("inf") for name in variants}
    results = {name: None for name in variants}
    for _ in range(repeats):
        for name, func in variants.items():
            start = time.perf_counter()
            results[name] = func()
            best[name] = min(best[name], time.perf_counter() - start)
    return best, results


def _trim_snapshot(snapshot: dict) -> dict:
    """Counters, gauges, and phases only — series are too bulky to commit."""
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "phases": [
            {**entry, "seconds": round(entry["seconds"], 6)}
            for entry in snapshot["phases"]
        ],
    }


def build_snapshot(scale_name: str, repeats: int, seed: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)
    pair = zipf_pair(length, DEFAULT_DOMAIN, 1.0, seed=seed)
    estimators = estimators_for(pair)

    policies = []
    for name in POLICIES:
        # The timed lane is run(pair), the default path.  Before
        # timing, pin the *incremental* source path (forced with until=)
        # to the kernel loop's result on this exact workload: the
        # streaming identity contract, asserted where a divergence would
        # silently skew the numbers being committed.  These two runs
        # double as the allocator/cache warmup outside the timed rounds.
        reference = run_algorithm(
            name, pair, window, memory, estimators=estimators, seed=seed,
            force_general=True,
        )
        incremental = run_algorithm(
            name, pair, window, memory, estimators=estimators, seed=seed,
            source=PairSource(pair), until=length,
        )
        if (
            incremental.output_count != reference.output_count
            or incremental.total_output_count != reference.total_output_count
            or dict(incremental.drop_counts) != dict(reference.drop_counts)
        ):
            raise AssertionError(
                f"{name}: incremental source path diverged from the "
                f"kernel loop (output {incremental.output_count} vs "
                f"{reference.output_count}, total "
                f"{incremental.total_output_count} vs "
                f"{reference.total_output_count}, drops "
                f"{dict(incremental.drop_counts)} vs "
                f"{dict(reference.drop_counts)})"
            )
        best, results = _interleaved_best(repeats, {
            "plain": lambda: run_algorithm(
                name, pair, window, memory,
                estimators=estimators, seed=seed,
            ),
            "timed": lambda: run_algorithm(
                name, pair, window, memory,
                estimators=estimators, seed=seed, metrics=MetricsRegistry(),
            ),
            # A tracer forces the kernel tick loop, so comparing a
            # traced run against the default-path "plain" leg measures
            # lane difference, not tracing cost (it reported +370% for
            # EXACT).  Pin the trace comparison to the same execution
            # lane: an untraced run forced onto the kernel loop.
            "general": lambda: run_algorithm(
                name, pair, window, memory,
                estimators=estimators, seed=seed, force_general=True,
            ),
            "traced": lambda: run_algorithm(
                name, pair, window, memory,
                estimators=estimators, seed=seed,
                trace=Tracer(RingBufferSink(1 << 20)),
            ),
        })
        plain_seconds, timed_seconds, general_seconds, traced_seconds = (
            best["plain"], best["timed"], best["general"], best["traced"]
        )
        result, timed_result = results["plain"], results["timed"]
        entry = {
            "policy": name,
            "output_count": result.output_count,
            "ktuples_per_second": round(length / plain_seconds / 1000, 2),
            "seconds": round(plain_seconds, 4),
            "metrics_overhead_pct": round(
                100 * (timed_seconds - plain_seconds) / plain_seconds, 1
            ),
            "general_lane_ktuples_per_second": round(
                length / general_seconds / 1000, 2
            ),
            "trace_overhead_pct": round(
                100 * (traced_seconds - general_seconds) / general_seconds, 1
            ),
        }
        if name == "PROB":
            entry["metrics"] = _trim_snapshot(timed_result.metrics)
        policies.append(entry)

    return {
        "benchmark": "engine_throughput",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seed": seed,
        },
        "parameters": {"window": window, "memory": memory, "repeats": repeats},
        "python": sys.version.split()[0],
        "policies": policies,
    }
