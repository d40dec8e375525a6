#!/usr/bin/env python3
"""Compare two sets of benchmark reports, workload by workload.

Usage (from the repository root)::

    python3 benchmarks/harness/compare.py A.json [A.json ...] -- B.json [B.json ...]

Side A is the parent, side B the change.  Each file is a report written
by ``run.py --out`` and counts as one run of every workload it holds.
The metrics, their direction and their bounds come from BENCHMARK.json.

For each workload and end-to-end metric the tool prints both sides'
medians and quartiles and a verdict:

* ``unresolved`` -- either side's spread (the distance between its
  quartiles, as a share of A's median) exceeds the bound, and not every
  B run reads better than every A run;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- at least ten runs a side, paired in order; B wins at
  least nine tenths of the pairs and the medians differ by more than
  A's spread, or every B run reads better than every A run;
* ``unchanged`` -- otherwise.

A side with a single run takes its spread from the quartiles of that
run's rounds.  The exit status is 1 if any verdict is ``worse`` or the
share of failed calls rose on any workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths) -> dict:
    """``workload -> [report, ...]`` over the given result files."""
    runs: dict = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        if document.get("trace"):
            raise SystemExit(f"{path}: a traced report has no end-to-end metrics")
        for name, report in document["workloads"].items():
            runs.setdefault(name, []).append(report)
    return runs


def side(reports: list, metric: str) -> tuple:
    """``(values, q1, median, q3)`` of one metric over a side's runs."""
    values = [report["metrics"][metric]["value"] for report in reports]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return values, q1, statistics.median(values), q3
    stats = reports[0].get("stats", {}).get(metric)
    if stats and stats.get("n", 0) > 1:
        return values, stats["q1"], values[0], stats["q3"]
    return values, values[0], values[0], values[0]


def verdict(a: tuple, b: tuple, bound: float, higher_is_better: bool) -> str:
    a_values, a_q1, a_median, a_q3 = a
    b_values, b_q1, b_median, b_q3 = b
    sign = 1 if higher_is_better else -1

    def better(x, y):
        return sign * (x - y) > 0

    pairs = list(zip(a_values, b_values))
    # A gain needs at least ten pairs of runs.
    gain = "improved" if len(pairs) >= 10 else "unchanged"
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_median)
    if spread > bound:
        if all(better(b_v, a_v) for a_v in a_values for b_v in b_values):
            return gain
        return "unresolved"
    if sign * (b_median - a_median) / abs(a_median) < -bound:
        return "worse"
    wins = sum(better(b_v, a_v) for a_v, b_v in pairs)
    if wins >= 0.9 * len(pairs) and sign * (b_median - a_median) > a_q3 - a_q1:
        return gain
    return "unchanged"


def _quartiles(summary: tuple) -> str:
    _values, q1, median, q3 = summary
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def error_rate(reports: list) -> float:
    attempted = sum(report["attempted"] for report in reports)
    return sum(report["failed"] for report in reports) / attempted


def compare(a_paths, b_paths, benchmark: dict) -> int:
    a_runs = load(a_paths)
    b_runs = load(b_paths)
    status = 0
    print(
        f"{'workload':13s} {'metric':13s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict"
    )
    for name in a_runs:
        if name not in b_runs:
            print(f"{name:13s} missing from B")
            continue
        for metric in benchmark["end_to_end"]:
            a = side(a_runs[name], metric["name"])
            b = side(b_runs[name], metric["name"])
            outcome = verdict(a, b, metric["bound"], metric["better"] == "higher")
            status |= outcome == "worse"
            print(
                f"{name:13s} {metric['name']:13s} {_quartiles(a):>30s} "
                f"{_quartiles(b):>30s} {(b[2] - a[2]) / abs(a[2]):+8.2%}  {outcome}"
            )
        a_errors = error_rate(a_runs[name])
        b_errors = error_rate(b_runs[name])
        rose = b_errors > a_errors
        status |= rose
        print(
            f"{name:13s} {'error_rate':13s} {a_errors:>30.4g} {b_errors:>30.4g}"
            f" {'':8s}  {'rose' if rose else 'held'}"
        )
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("error: give at least one report on each side of --", file=sys.stderr)
        return 2
    return compare(a_paths, b_paths, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main())
