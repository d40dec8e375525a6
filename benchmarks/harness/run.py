#!/usr/bin/env python3
"""End-to-end benchmark of the sliding-window join, one workload at a time.

Usage (from the repository root)::

    python3 benchmarks/harness/run.py [--workload W] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--smoke]

Without ``--workload`` every workload runs, each in a fresh process.
``--trace 0`` (default) prints the end-to-end metrics; ``--trace 1``
makes the traced run and prints the per-layer metrics instead.  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit status is 1 if any call failed its
correctness check, 2 if the program under test is missing.  ``--out``
writes the full report (samples, quartiles, fingerprints, span tables).
``--smoke`` shrinks every run for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed budget per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])
    return args


def document(reports: list, args: argparse.Namespace) -> dict:
    return {
        "benchmark": "benchmarks/harness",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {report["workload"]: report for report in reports},
    }


def result_line(reports: list) -> dict:
    """The last output line; metric names carry the workload when
    several workloads ran."""
    prefix = len(reports) > 1
    metrics = {}
    for report in reports:
        for name, metric in report["metrics"].items():
            metrics[f"{report['workload']}.{name}" if prefix else name] = metric
    return {
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }


def print_report(report: dict) -> None:
    print(
        f"# {report['workload']}: {report['rounds']} rounds, "
        f"{report['failed']}/{report['attempted']} calls failed"
    )
    for error in report["errors"]:
        print(f"#   {error}")
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {metric['unit']}")


def run_all(args: argparse.Namespace, names) -> list:
    """Each workload in a fresh process, one at a time."""
    reports = []
    for name in names:
        part = args.out.with_name(f"{args.out.name}.{name}.part") if args.out else None
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if part is not None:
            command += ["--out", str(part)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        if part is not None:
            reports.append(json.loads(part.read_text())["workloads"][name])
            part.unlink()
        else:
            reports.append(dict(json.loads(lines[-1]), workload=name))
    return reports


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"error: {SRC / 'repro'} not found; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import protocol
    from workloads import WORKLOADS

    if args.workload is None:
        reports = run_all(args, WORKLOADS)
    else:
        if args.workload not in WORKLOADS:
            print(
                f"error: unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        report = protocol.measure(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            smoke=args.smoke,
        )
        print_report(report)
        reports = [report]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document(reports, args), indent=1) + "\n")
    line = result_line(reports)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
