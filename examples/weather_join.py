"""Weather-sensor stream join (the paper's Section 4.5 scenario).

Joins two "years" of synthetic cloud reports on their 10-degree grid
cell to pair up readings from sensors in the same region at nearby
times, comparing random shedding with PROB and PROBV under a memory
budget, and showing PROBV's memory split staying near 50/50.

Run:  python examples/weather_join.py [--length N]
"""

from __future__ import annotations

import argparse

from repro import RunSpec, run, weather_pair
from repro.experiments import estimators_for
from repro.streams import GridCell, weather_records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=20_000, help="reports per year")
    parser.add_argument("--window", type=int, default=500)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    window = args.window
    warmup = 2 * window
    memory = window  # 50% of what an exact join needs
    pair = weather_pair(args.length, seed=args.seed)
    estimators = estimators_for(pair)

    print(f"joining two years of {len(pair)} cloud reports on grid cell")
    print(f"window {window}, memory {memory} (exact needs {2 * window})\n")

    exact = run(RunSpec(algorithm="EXACT", window=window, warmup=warmup), pair=pair)
    print(f"{'algorithm':<8} {'matched pairs':>14} {'% of exact':>11}")
    print("-" * 36)
    for name in ("RAND", "PROB", "PROBV"):
        spec = RunSpec(
            algorithm=name, window=window, memory=memory, warmup=warmup,
            seed=args.seed,
        )
        result = run(spec, pair=pair, estimators=estimators)
        fraction = 100 * result.output_count / max(exact.output_count, 1)
        print(f"{name:<8} {result.output_count:>14} {fraction:>10.1f}%")
    print(f"{'EXACT':<8} {exact.output_count:>14} {100.0:>10.1f}%")

    # Figure 8: PROBV's memory allocation stays near 50/50 because the two
    # years' report distributions are nearly identical.
    probv = run(
        RunSpec(
            algorithm="PROBV", window=window, memory=memory, warmup=warmup,
            track_shares=True, share_sample_every=max(1, len(pair) // 10),
        ),
        pair=pair,
        estimators=estimators,
    )
    print("\nPROBV memory split over time (R share):")
    for t, fraction in probv.share_fraction_r():
        bar = "#" * int(round(40 * fraction))
        print(f"  t={t:>7}  {fraction:5.2f}  {bar}")

    # Materialise a few concrete matches with full payload records.
    sample = run(
        RunSpec(
            algorithm="PROB", window=window, memory=memory, warmup=warmup,
            materialize=True,
        ),
        pair=pair.prefix(3 * window),
        estimators=estimators,
    )
    year1 = list(weather_records(pair.r[: 3 * window], seed=args.seed))
    year2 = list(weather_records(pair.s[: 3 * window], seed=args.seed + 1))
    print(f"\nsample matched reports ({min(len(sample.pairs), 3)} of {len(sample.pairs)}):")
    for match in sample.pairs[:3]:
        cell = GridCell(int(match.key))
        a = year1[match.r_arrival]
        b = year2[match.s_arrival]
        print(
            f"  cell ({cell.latitude:+05.1f}, {cell.longitude:+06.1f}): "
            f"1985 t={match.r_arrival} cover={a['cloud_cover_octas']}/8  <->  "
            f"1986 t={match.s_arrival} cover={b['cloud_cover_octas']}/8"
        )


if __name__ == "__main__":
    main()
