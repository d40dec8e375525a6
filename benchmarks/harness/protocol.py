"""The measurement protocol for one workload, untraced or traced.

Closed loop in one process: the engines run in virtual ticks and pull
the next tick only after finishing the current one, so throughput at a
stated input size is the rate a user gets.  Each of the workload's five
runs gets one untimed warm-up at a tenth of its ticks; then timed rounds,
each making every run once, repeat until the time budget is spent (at
least :data:`MIN_ROUNDS`).  Before each call the harness collects
garbage and keeps the collector off during the call; calls are timed
with ``perf_counter`` and ``process_time``.  A metric is the median over
rounds.  Each untraced round also times the set-up in a fresh process.

The traced variant adds one traced call per policy after the untimed
rounds (see :mod:`tracing`) and reports per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import gc
import pickle
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import tracing
import workloads as wl

HARNESS = Path(__file__).resolve().parent
SRC = HARNESS.parents[1] / "src"

MIN_ROUNDS = 3
#: Fewest fresh processes timed for ``setup_s`` (one is timed per round).
SETUP_PROBES = 5
#: Largest gap allowed between a traced call's wall time and the sum of
#: its spans' self times.
SELF_SUM_TOLERANCE = 0.05

END_TO_END = {
    "setup_s": "s",
    "exact_ktps": "ktps",
    "rand_ktps": "ktps",
    "prob_ktps": "ktps",
    "life_ktps": "ktps",
    "metrics_ktps": "ktps",
    "rand_recall": "ratio",
    "prob_recall": "ratio",
    "life_recall": "ratio",
    "peak_rss_mib": "MiB",
}


def _per_layer_units() -> dict:
    units = {}
    for policy in wl.POLICIES:
        units.update((f"{policy}.{m}", "s") for m in tracing.SELF_TIME)
        units.update(
            (f"{policy}.{m}", "count") for m in (*tracing.ITEMS, *tracing.CALLS)
        )
        units.update(
            (f"{policy}.ledger.{reason}", "count")
            for reason in ("rejected", "evicted", "expired")
        )
        units[f"{policy}.ledger.evict_waste"] = "ratio"
    units.update(
        {
            "streams.generate_s": "s",
            "stats.table_s": "s",
            "partition.skew": "ratio",
            "runtime.spinup_s": "s",
            "runtime.pickle_bytes": "bytes",
            "runtime.pickle_s": "s",
            "obs.overhead_pct": "%",
            "harness.trace_overhead_pct": "%",
        }
    )
    return units


PER_LAYER = _per_layer_units()

# Runs in a fresh interpreter: argv = [src, harness, workload, seed, smoke].
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build_inputs(
    workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), sys.argv[5] == "1"
)
print(time.perf_counter() - start)
"""


def summary(values) -> dict:
    """n, median, min, max and quartiles of a sample."""
    values = sorted(values)
    if not values:
        return {"n": 0}
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": values[0],
        "max": values[-1],
        "q1": q1,
        "q3": q3,
    }


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """``import repro.api`` plus building the inputs, in a fresh process."""
    done = subprocess.run(
        [
            sys.executable, "-c", _SETUP_PROBE,
            str(SRC), str(HARNESS), name, str(seed), "1" if smoke else "0",
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


def measure(
    name: str,
    *,
    seed: int = 0,
    seconds: float = 20.0,
    traced: bool = False,
    smoke: bool = False,
) -> dict:
    """Measure one workload; returns its report (see README.md)."""
    workload = wl.WORKLOADS[name]
    lengths = wl.run_lengths(workload, smoke)
    inputs = wl.build_inputs(workload, seed, smoke)
    exact = wl.exact_outputs(
        workload, inputs, [n for pair in lengths.values() for n in pair]
    )
    ledger = wl.Ledger(workload, exact)

    def attempt(kind, ticks, **options):
        """One checked call: ``(wall_s, cpu_s, passed)``, or None if it raised."""
        gc.collect()
        gc.disable()
        try:
            wall = time.perf_counter()
            cpu = time.process_time()
            result = wl.call(workload, inputs, kind, ticks, seed, **options)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
        except Exception as exc:  # noqa: BLE001 - a failed call is counted
            ledger.record(kind, ticks, error=exc)
            return None
        finally:
            gc.enable()
        return wall, cpu, ledger.record(kind, ticks, wl.fingerprint(result))

    for kind in wl.KINDS:
        attempt(kind, lengths[kind][1])
    if workload.shards > 1:
        # Recorded first, unsharded EXACT is the reference that sharded
        # EXACT must reproduce.
        attempt("exact", lengths["exact"][0], shards=1)

    walls: dict = {kind: [] for kind in wl.KINDS}
    cpus: dict = {kind: [] for kind in wl.KINDS}
    # Set-up is probed once a round, so that its samples span the run
    # like the rounds' do; a smoke run makes exactly one round.
    setup: list = []
    if smoke:
        min_rounds, budget, probes = 1, 0.0, 1
    else:
        min_rounds, budget, probes = MIN_ROUNDS, seconds, SETUP_PROBES
    rounds = 0
    started = time.perf_counter()
    while not ledger.failed and (
        rounds < min_rounds or time.perf_counter() - started < budget
    ):
        if not traced:
            setup.append(probe_setup(name, seed, smoke))
        for kind in wl.KINDS:
            timing = attempt(kind, lengths[kind][0])
            if timing is not None:
                walls[kind].append(timing[0])
                cpus[kind].append(timing[1])
        rounds += 1
    while not traced and len(setup) < probes:
        setup.append(probe_setup(name, seed, smoke))

    report = {
        "workload": name,
        "rounds": rounds,
        "runs": {
            kind: {
                "ticks": lengths[kind][0],
                "warmup_ticks": lengths[kind][1],
                "exact_output": exact[lengths[kind][0]],
                "fingerprint": ledger.references.get((kind, lengths[kind][0])),
                "wall_s": walls[kind],
                "cpu_s": cpus[kind],
            }
            for kind in wl.KINDS
        },
    }
    if traced:
        metrics, report["trace"] = _trace(
            workload, inputs, lengths, seed, attempt, ledger, walls
        )
        units = PER_LAYER
    else:
        metrics, report["stats"] = _end_to_end(lengths, ledger, exact, walls, setup)
        units = END_TO_END
    report["metrics"] = {
        metric: {"value": metrics.get(metric), "unit": unit}
        for metric, unit in units.items()
    }
    report.update(
        correct=ledger.failed == 0,
        attempted=ledger.attempted,
        failed=ledger.failed,
        error_rate=ledger.error_rate,
        errors=ledger.errors[:20],
    )
    return report


def _end_to_end(lengths, ledger, exact, walls, setup):
    stats = {
        f"{kind}_ktps": summary(
            2 * lengths[kind][0] / wall / 1e3 for wall in walls[kind]
        )
        for kind in wl.KINDS
    }
    stats["setup_s"] = summary(setup)
    metrics = {name: s.get("median") for name, s in stats.items()}
    for kind in ("rand", "prob", "life"):
        ticks = lengths[kind][0]
        reference = ledger.references.get((kind, ticks))
        if reference is not None and exact[ticks]:
            metrics[f"{kind}_recall"] = reference[0] / exact[ticks]
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return metrics, stats


def _ledger_metrics(fp, ticks) -> dict:
    if fp is None:
        return {}
    _output, _total, rejected, evicted, expired, lost = fp
    admitted = 2 * ticks - rejected - lost
    return {
        "ledger.rejected": rejected,
        "ledger.evicted": evicted,
        "ledger.expired": expired,
        "ledger.evict_waste": evicted / admitted if admitted else 0.0,
    }


def _shard_costs(workload, inputs, ticks, seed) -> dict:
    """What the sharded path pays besides the join: pool spin-up, cell
    pickling, and how unevenly the hash partition spreads arrivals."""
    from repro.core.partition import plan_shards, shard_input_counts
    from repro.runtime.cells import ShardCell

    pair = inputs.pairs[ticks]
    spec = workload.spec("prob", seed, ticks)
    plan = plan_shards(spec.memory, spec.shards)
    start = time.perf_counter()
    blobs = [
        pickle.dumps(ShardCell(spec, pair, shard, budget))
        for shard, budget in enumerate(plan.budgets)
    ]
    pickle_s = time.perf_counter() - start
    arrivals = [
        sum(shard_input_counts(pair, shard, spec.shards))
        for shard in range(spec.shards)
    ]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workload.workers) as pool:
        list(pool.map(abs, range(workload.workers)))
    return {
        "runtime.spinup_s": time.perf_counter() - start,
        "runtime.pickle_bytes": sum(len(blob) for blob in blobs),
        "runtime.pickle_s": pickle_s,
        "partition.skew": max(arrivals) / (sum(arrivals) / len(arrivals)),
    }


def _trace(workload, inputs, lengths, seed, attempt, ledger, walls):
    """One traced call per policy: per-layer metrics and the span tables.

    A sharded workload is traced twice per policy: as measured (``pool``,
    ``workers`` processes, tracing only the supervisor's spans) and
    in-process (``cells``, ``workers=1``), which shows the layers inside
    each shard.  Its per-layer metrics come from ``cells``, except
    ``runtime.map_s``, which only the pool pass measures, and its trace
    overhead compares the pool pass with the untraced runs.
    """
    metrics = {
        "streams.generate_s": inputs.generate_s,
        "stats.table_s": inputs.table_s,
        "partition.skew": 0.0,
        "runtime.spinup_s": 0.0,
        "runtime.pickle_bytes": 0,
        "runtime.pickle_s": 0.0,
    }
    if workload.shards > 1:
        metrics.update(
            _shard_costs(workload, inputs, lengths["prob"][0], seed)
        )
    everything = tuple(tracing.SPANS)
    passes = [("run", {}, everything)]
    if workload.shards > 1:
        passes = [
            ("pool", {}, tracing.SUPERVISOR_SPANS),
            ("cells", {"workers": 1}, everything),
        ]

    recorder = tracing.SpanRecorder(keep=("runtime.cell",))
    detail: dict = {}
    traced_wall = 0.0
    for kind in wl.POLICIES:
        ticks = lengths[kind][0]
        detail[kind] = {}
        layers: dict = {}
        for label, options, names in passes:
            recorder.reset()
            if workload.stream:
                options = {
                    **options,
                    "source": tracing.TimedSource(inputs.source, recorder),
                }
            with tracing.install(recorder, names):
                timing = attempt(kind, ticks, **options)
            if timing is None:
                continue
            wall, _cpu, passed = timing
            self_sum = recorder.self_sum()
            if passed and abs(wall - self_sum) > SELF_SUM_TOLERANCE * wall:
                ledger.fail(
                    f"{kind} trace ({label}): span self times sum to "
                    f"{self_sum:.4f}s of {wall:.4f}s"
                )
            if label != "cells":
                traced_wall += wall
            map_s = layers.get("runtime.map_s", 0.0)
            layers = recorder.layer_metrics()
            if label == "cells":
                layers["runtime.map_s"] = map_s
            detail[kind][label] = {
                "wall_s": wall,
                "self_sum_s": self_sum,
                "cell_s": recorder.durations.get("runtime.cell", []),
                "spans": recorder.rows(),
            }
        layers.update(_ledger_metrics(ledger.references.get((kind, ticks)), ticks))
        metrics.update((f"{kind}.{m}", v) for m, v in layers.items())

    if all(walls.values()):
        median = {kind: statistics.median(walls[kind]) for kind in wl.KINDS}
        per_tick = {kind: median[kind] / lengths[kind][0] for kind in wl.KINDS}
        metrics["obs.overhead_pct"] = (per_tick["metrics"] / per_tick["prob"] - 1) * 100
        untraced = sum(median[kind] for kind in wl.POLICIES)
        metrics["harness.trace_overhead_pct"] = (traced_wall / untraced - 1) * 100
    return metrics, detail
