"""Semantic load smoothing with an archive (day/night processing).

The paper's retail scenario: during peak load the join sheds tuples and
produces an approximate result in real time; everything is also written
to an archive.  At night, the system revisits the *incomplete* tuples
(the Archive-metric population), fetches their partners from the archive,
and emits exactly the missing output — the final result is exact, load
was deferred rather than lost.

Run:  python examples/archive_smoothing.py [--memory-fraction F]
"""

from __future__ import annotations

import argparse

from repro import RunSpec, archive_metric, refine_from_archive, run, zipf_pair


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=3000)
    parser.add_argument("--window", type=int, default=150)
    parser.add_argument(
        "--memory-fraction", type=float, default=0.25,
        help="daytime memory as a fraction of the window",
    )
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    window = args.window
    memory = max(2, int(window * args.memory_fraction) // 2 * 2)
    pair = zipf_pair(args.length, domain_size=50, skew=1.0, seed=args.seed)

    print("DAY MODE (peak load, shedding with PROB)")
    day = run(
        RunSpec(algorithm="PROB", window=window, memory=memory, materialize=True),
        pair=pair,
    )
    exact = run(
        RunSpec(algorithm="EXACT", window=window, materialize=True), pair=pair
    )
    print(f"  produced {day.output_count} of {exact.output_count} result tuples "
          f"({100 * day.output_count / max(exact.output_count, 1):.1f}%) "
          f"with M={memory} (exact needs {2 * window})")

    report = archive_metric(
        pair, day.r_departures, day.s_departures, window, count_from=day.warmup
    )
    print(f"  Archive-metric: {report.arm} incomplete tuples "
          f"({100 * report.incomplete_fraction:.1f}% of arrivals) "
          f"[R: {report.incomplete_r}, S: {report.incomplete_s}]")

    print("\nNIGHT MODE (refining from the archive)")
    night = refine_from_archive(pair, day)
    print(f"  recovered {night.missing_count} missing result tuples")
    print(f"  archive work: {night.archive_reads} tuple reads for "
          f"{night.incomplete_tuples} incomplete tuples")

    combined = day.output_count + night.missing_count
    print("\nVERIFICATION")
    print(f"  day output + night refinement = {combined}")
    print(f"  exact join size               = {exact.output_count}")
    status = "exact result recovered" if combined == exact.output_count else "MISMATCH!"
    print(f"  => {status}")

    produced = {(p.r_arrival, p.s_arrival) for p in day.pairs}
    missing = {(p.r_arrival, p.s_arrival) for p in night.missing_pairs}
    expected = {(p.r_arrival, p.s_arrival) for p in exact.pairs}
    assert produced | missing == expected and produced.isdisjoint(missing)
    print("  pair-level check passed: day ∪ night = exact, disjoint")


if __name__ == "__main__":
    main()
