"""Write BENCH_soak.json: bounded-memory soak of the incremental path.

The source refactor's claim is that the engine stack can consume an
*unbounded* stream in memory bounded by the window/budget — never by
stream length.  This soak drives millions of ticks from an unbounded
generator source through the two incremental lanes and asserts, with
``tracemalloc`` telling the truth, that live memory is **flat**:

* the streaming EXACT lane (``repro.core.batched.exact_stream_counts``
  — two count dicts plus two expiry deques) over ``ticks`` ticks
  (2,000,000 in the committed baseline);
* the full policy engine path (``JoinEngine.run_stream`` running PROB
  with a live EWMA estimator) over ``policy_ticks`` ticks
  (200,000) — the per-tuple kernel, policy heap, and online statistics
  must all hold window/domain-bounded state too.

Live memory is sampled at evenly spaced checkpoints; the first
checkpoint is warmup (dicts and deques reach their steady-state
footprint inside one window), and every later sample must stay within
``slack_pct`` (5%) plus ``slack_kib`` (64 KiB) of it.  A leak that scales with ticks — a forgotten per-arrival list, a
materialized output, an unbounded queue — blows through that band
within one checkpoint interval.

Output counts are recorded too: the soak is deterministic, so the
regression gate (``benchmarks/regression.py``) re-runs it and fails on
*any* drift, memory or semantics.

The gate reads ``ticks``, ``policy_ticks`` and the slack band from
the committed baseline's ``parameters``.

Run:  python benchmarks/regression.py [--write] soak
Or:   make soak
"""

from __future__ import annotations

import time
import tracemalloc

from repro.api import RunSpec, run
from repro.core.batched import exact_stream_counts
from repro.streams.sources import ZipfSource

SEED = 0
DOMAIN = 50
SKEW = 1.0
WINDOW = 100
CHECKPOINTS = 8


def _flatness(samples: list[tuple[int, int]], *, slack_pct: float,
              slack_kib: float) -> tuple[bool, str]:
    """Whether post-warmup live memory stayed inside the band."""
    if len(samples) < 3:
        return False, f"only {len(samples)} checkpoints; need >= 3"
    baseline = samples[1][1]  # samples[0] is warmup
    ceiling = baseline * (1 + slack_pct / 100) + slack_kib * 1024
    worst_tick, worst = max(samples[1:], key=lambda s: s[1])
    if worst > ceiling:
        return False, (
            f"live memory grew from {baseline / 1024:.1f} KiB to "
            f"{worst / 1024:.1f} KiB at tick {worst_tick} "
            f"(ceiling {ceiling / 1024:.1f} KiB) — the incremental path "
            "is accumulating per-tick state"
        )
    return True, ""


def soak_exact_lane(ticks: int, *, slack_pct: float, slack_kib: float) -> dict:
    """Millions of ticks through the streaming EXACT count lane."""
    source = ZipfSource(DOMAIN, SKEW, seed=SEED)  # unbounded
    every = max(1, ticks // CHECKPOINTS)
    samples: list[tuple[int, int]] = []

    def on_progress(t, output, total, arrivals, expired_r, expired_s):
        samples.append((t, tracemalloc.get_traced_memory()[0]))

    tracemalloc.start()
    start = time.perf_counter()
    output, total, arrivals, _, _, seen = exact_stream_counts(
        iter(source), WINDOW, 2 * WINDOW,
        capacity=2 * WINDOW, variable=False,
        until=ticks, on_progress=on_progress, progress_every=every,
    )
    seconds = time.perf_counter() - start
    tracemalloc.stop()

    flat, why = _flatness(samples, slack_pct=slack_pct, slack_kib=slack_kib)
    return {
        "ticks": seen,
        "output": output,
        "total_output": total,
        "arrivals": arrivals,
        "seconds": round(seconds, 3),
        "ktuples_per_second": round(seen / seconds / 1000, 2),
        "memory_kib": [round(b / 1024, 1) for _, b in samples],
        "flat": flat,
        "mismatch": why,
    }


def soak_policy_path(ticks: int, *, slack_pct: float, slack_kib: float) -> dict:
    """The full engine path: PROB + live EWMA over an unbounded source."""
    spec = RunSpec(
        algorithm="PROB", window=WINDOW, memory=WINDOW // 2, seed=SEED,
        source=ZipfSource(DOMAIN, SKEW, seed=SEED), duration=ticks,
        estimator="ewma",
    )
    every = max(1, ticks // CHECKPOINTS)
    samples: list[tuple[int, int]] = []
    seen = {"t": 0}

    def on_summary(summary):
        seen["t"] += every
        samples.append((seen["t"], tracemalloc.get_traced_memory()[0]))

    tracemalloc.start()
    start = time.perf_counter()
    result = run(spec, on_summary=on_summary, on_summary_every=every)
    seconds = time.perf_counter() - start
    tracemalloc.stop()

    flat, why = _flatness(samples, slack_pct=slack_pct, slack_kib=slack_kib)
    return {
        "ticks": result.length,
        "output": result.output_count,
        "seconds": round(seconds, 3),
        "ktuples_per_second": round(result.length / seconds / 1000, 2),
        "memory_kib": [round(b / 1024, 1) for _, b in samples],
        "flat": flat,
        "mismatch": why,
    }


def build_soak_snapshot(ticks: int, policy_ticks: int, *,
                        slack_pct: float, slack_kib: float) -> dict:
    if ticks < 3 * CHECKPOINTS:
        raise ValueError(f"soak ticks must be at least {3 * CHECKPOINTS}")
    exact = soak_exact_lane(ticks, slack_pct=slack_pct, slack_kib=slack_kib)
    policy = soak_policy_path(policy_ticks, slack_pct=slack_pct,
                              slack_kib=slack_kib)
    mismatches = [
        f"{lane}: {leg['mismatch']}"
        for lane, leg in (("exact", exact), ("policy", policy))
        if not leg["flat"]
    ]
    return {
        "benchmark": "soak",
        "parameters": {
            "ticks": ticks,
            "policy_ticks": policy_ticks,
            "window": WINDOW,
            "domain": DOMAIN,
            "skew": SKEW,
            "seed": SEED,
            "checkpoints": CHECKPOINTS,
            "slack_pct": slack_pct,
            "slack_kib": slack_kib,
        },
        "exact": exact,
        "policy": policy,
        "counts": {
            "exact_output": exact["output"],
            "exact_total_output": exact["total_output"],
            "policy_output": policy["output"],
        },
        "flat_memory": not mismatches,
        "mismatches": mismatches,
    }
