"""Perf-regression gate: rebuild each committed BENCH_*.json and compare.

One table drives every gate.  Each entry of ``GATES`` names its
committed baseline file, a ``rebuild`` that calls the snapshot builder
with arguments read from the baseline (its scale, seed and
``parameters``), and a tuple of rows ``(path, kind, bound)``.  A path is
a dotted key into the snapshot, flattened so that the ``policies`` list
is keyed by ``policy`` and runtime's ``counts`` list by ``seed``
(``policies.PROB.output_count``, ``counts.0.RAND``); it may carry
``fnmatch`` wildcards.  The kinds:

* ``identical`` — the fresh flag is true; otherwise the snapshot's
  ``mismatches`` are the failure.  Determinism gets no noise band.
* ``exact`` — the count equals the baseline's.  The engines are
  deterministic, so any drift is a semantics change, and a count present
  on one side only fails too.
* ``drop`` — throughput is at least baseline x (1 - ``--tolerance``).
* ``slack`` — overhead is at most base + max(bound, |base|) percentage
  points.  A ratio of two noisy timings spreads with its magnitude, so
  the row trips when instrumentation cost roughly doubles.  A baseline
  without the field (older snapshots) skips the row.
* ``floor`` — the fresh speedup is at least the bound.  Both sides of
  the ratio come from the same interleaved rounds, so no baseline is
  needed; entries marked ``floor_enforced: false`` are advisory.
* ``max_ratio`` — the fresh wall-clock ratio ``a/b`` is at most the
  bound.  Speedup is advisory (a runner may have one core), but a
  pool-startup or pickling pathology still trips.

Gains never fail a row; only regressions do.  ``--write`` stores the
fresh snapshots over the baselines and checks each one against itself,
which leaves only the rows that need no baseline.  Exit status: 0 pass,
1 fail, 2 bad invocation or unreadable baseline.  A baseline that lacks
a builder argument raises ``KeyError`` rather than guessing one.

Run:  python benchmarks/regression.py [--tolerance 0.2] [--write] [GATE ...]
Or:   make bench-gate   (every gate)      make soak   (the soak gate)
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `make install`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_batch import build_batch_snapshot  # noqa: E402 - sibling module
from bench_chaos import build_chaos_snapshot  # noqa: E402 - sibling module
from bench_policy_batch import build_policy_snapshot  # noqa: E402 - sibling module
from bench_runtime import build_runtime_snapshot  # noqa: E402 - sibling module
from bench_shard import build_shard_snapshot  # noqa: E402 - sibling module
from bench_soak import build_soak_snapshot  # noqa: E402 - sibling module
from bench_telemetry import build_obs_snapshot  # noqa: E402 - sibling module
from snapshot import build_snapshot  # noqa: E402 - sibling module

#: throughput may drop at most this fraction below baseline (CI passes 0.5)
DEFAULT_TOLERANCE = 0.20
#: the faulted telemetry leg's Chrome trace, uploaded by CI
TIMELINE = REPO_ROOT / "benchmarks" / "results" / "timeline.json"


def _scale(baseline: dict) -> str:
    return baseline["scale"]


def _seed(baseline: dict) -> int:
    return baseline["workload"]["seed"]


def _param(baseline: dict, name: str):
    return baseline["parameters"][name]


def _counts(*names: str) -> tuple:
    return tuple((f"counts.{name}", "exact", None) for name in names)


class Gate(NamedTuple):
    baseline: str
    rebuild: Callable[[dict], dict]
    rows: tuple


GATES = {
    "engine": Gate(
        "BENCH_engine.json",
        lambda b: build_snapshot(_scale(b), _param(b, "repeats"), _seed(b)),
        (
            ("policies.*.output_count", "exact", None),
            ("policies.*.ktuples_per_second", "drop", None),
            ("policies.*.metrics_overhead_pct", "slack", 20.0),
            ("policies.*.trace_overhead_pct", "slack", 20.0),
        ),
    ),
    "runtime": Gate(
        "BENCH_runtime.json",
        lambda b: build_runtime_snapshot(_scale(b), _param(b, "workers")),
        (
            ("outputs_match", "identical", None),
            ("counts.*", "exact", None),
            ("parallel_seconds/serial_seconds", "max_ratio", 5.0),
        ),
    ),
    "shard": Gate(
        "BENCH_shard.json",
        lambda b: build_shard_snapshot(
            _scale(b), _param(b, "shards"), _param(b, "workers")
        ),
        (
            ("exact_identical", "identical", None),
            *_counts("exact_output", "exact_total_output", "prob_sharded_output"),
            # per-shard async ticks and the pool tax make sharding slower
            # at ci scale; this catches pathologies only
            ("parallel_seconds/unsharded_seconds", "max_ratio", 25.0),
        ),
    ),
    "chaos": Gate(
        "BENCH_chaos.json",
        lambda b: build_chaos_snapshot(
            _scale(b), _param(b, "shards"), _param(b, "workers")
        ),
        (
            ("recovery_identical", "identical", None),
            *_counts("exact_output", "prob_sharded_output",
                     "degraded_output", "lost_output"),
        ),
    ),
    "batch": Gate(
        "BENCH_batch.json",
        lambda b: build_batch_snapshot(
            _scale(b), _param(b, "repeats"), _seed(b)
        ),
        (
            ("batched_identical", "identical", None),
            *_counts("exact_output", "exact_total_output"),
            ("speedup", "floor", 1.5),
        ),
    ),
    "policy": Gate(
        "BENCH_policy.json",
        lambda b: build_policy_snapshot(
            _scale(b), _param(b, "repeats"), _seed(b)
        ),
        (
            ("batched_identical", "identical", None),
            ("counts.*", "exact", None),
            ("policies.*.speedup", "floor", 2.0),
        ),
    ),
    "obs": Gate(
        "BENCH_obs.json",
        lambda b: build_obs_snapshot(
            _scale(b), _param(b, "shards"), _param(b, "workers"),
            _param(b, "rounds"), _param(b, "limit_pct"), TIMELINE,
        ),
        (
            # the CPU-overhead budget is folded into the identity flag
            ("telemetry_identical", "identical", None),
            *_counts("exact_output", "exact_total_output", "heartbeats"),
        ),
    ),
    "soak": Gate(
        "BENCH_soak.json",
        lambda b: build_soak_snapshot(
            _param(b, "ticks"), _param(b, "policy_ticks"),
            slack_pct=_param(b, "slack_pct"),
            slack_kib=_param(b, "slack_kib"),
        ),
        (
            ("flat_memory", "identical", None),
            *_counts("exact_output", "exact_total_output", "policy_output"),
        ),
    ),
}


class Check(NamedTuple):
    gate: str
    path: str
    base: object
    fresh: object
    failure: Optional[str]


def _keyed(items: list) -> Optional[dict]:
    """A list of entries keyed by ``policy`` or ``seed``, as a dict."""
    for key in ("policy", "seed"):
        if items and all(isinstance(e, dict) and key in e for e in items):
            return {
                str(e[key]): {k: v for k, v in e.items() if k != key}
                for e in items
            }
    return None


def flatten(node: dict, prefix: str = "") -> dict:
    """Dotted path -> leaf value; keyed lists become dicts."""
    flat = {}
    for key, value in node.items():
        if isinstance(value, list):
            value = _keyed(value) or value
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _ratio(flat: dict, path: str) -> Optional[float]:
    num, den = path.split("/")
    try:
        return flat[num] / flat[den]
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def _failure(kind, bound, base, fresh, tolerance, mismatches):
    """Why one value fails its row, or None."""
    if kind == "identical":
        if fresh is True:
            return None
        return "is false" + "".join(f"; {line}" for line in mismatches)
    if fresh is None:
        return "missing from fresh snapshot"
    if kind == "floor":
        return None if fresh >= bound else f"below the {bound:.1f}x floor"
    if kind == "max_ratio":
        return None if fresh <= bound else f"over the {bound:.0f}x maximum"
    if base is None:  # a new policy needs a baseline; new timings do not
        return "missing from baseline (rewrite it with --write)" \
            if kind == "exact" else None
    if kind == "exact":
        return None if fresh == base else (
            f"changed {base} -> {fresh} "
            "(deterministic; this is a semantics change)"
        )
    if kind == "drop":
        if fresh >= base * (1.0 - tolerance):
            return None
        return (f"{100 * (1 - fresh / base):.1f}% below baseline "
                f"(tolerance {100 * tolerance:.0f}%)")
    slack = max(bound, abs(base))  # kind == "slack"
    return None if fresh <= base + slack else f"grew past {slack:.0f} points"


def evaluate(name: str, baseline: dict, fresh: dict,
             tolerance: float = DEFAULT_TOLERANCE) -> list[Check]:
    """One :class:`Check` per row and matched path of gate ``name``."""
    gate = GATES[name]
    base, new = flatten(baseline), flatten(fresh)
    checks = []
    for pattern, kind, bound in gate.rows:
        if "/" in pattern:
            values = [(pattern, _ratio(base, pattern), _ratio(new, pattern))]
        else:
            values = [
                (path, base.get(path), new.get(path))
                for path in sorted(fnmatch.filter(base.keys() | new.keys(),
                                                  pattern))
            ]
        for path, b, f in values:
            # a sibling ``floor_enforced: false`` marks an advisory speedup
            entry = path.rpartition(".")[0]
            enforced = f"{entry}.floor_enforced" if entry else "floor_enforced"
            if kind == "floor" and False in (base.get(enforced),
                                             new.get(enforced)):
                continue
            failure = _failure(kind, bound, b, f, tolerance,
                               fresh.get("mismatches", []))
            checks.append(Check(name, path, b, f, failure))
    return checks


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_checks(checks: list[Check]) -> str:
    """One line per check: gate, path, baseline, fresh, verdict."""
    rows = [("gate", "path", "baseline", "fresh", "verdict")] + [
        (c.gate, c.path, _fmt(c.base), _fmt(c.fresh),
         f"FAIL {c.failure}" if c.failure else "ok")
        for c in checks
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join([*(cell.ljust(w) for cell, w in zip(row, widths)), row[4]])
        for row in rows
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "gates", nargs="*", metavar="GATE",
        help=f"gates to run (default: all of {', '.join(GATES)})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max fractional throughput drop (default 0.20)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="write the fresh snapshots over the committed baselines",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - GATES.keys())
    if unknown:
        parser.error(f"unknown gate(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(GATES)}")

    checks: list[Check] = []
    for name in args.gates or GATES:
        path = REPO_ROOT / GATES[name].baseline
        try:
            baseline = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {path}: {error}", file=sys.stderr)
            return 2
        print(f"bench-gate: rebuilding {name} from {path.name} ...", flush=True)
        fresh = GATES[name].rebuild(baseline)
        if args.write:
            path.write_text(json.dumps(fresh, indent=2) + "\n")
            print(f"  written to {path}")
            baseline = fresh
        checks += evaluate(name, baseline, fresh, args.tolerance)

    print()
    print(format_checks(checks))
    failed = [c for c in checks if c.failure]
    if failed:
        print(f"\nbench-gate FAILED ({len(failed)} of {len(checks)} rows)")
        return 1
    print(f"\nbench-gate OK ({len(checks)} rows, "
          f"tolerance {100 * args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
