"""Memory provisioning with the OPT value curve.

The paper's introduction motivates load shedding with the impossibility
of sizing a stream system for peak load.  The flip side is a sizing
question this library can answer exactly: given a recorded (or forecast)
workload, how much join memory buys how much of the result?  OPT-offline
over a memory grid yields the concave value curve; its marginal values
show where additional memory stops paying.

Run:  python examples/memory_provisioning.py [--target 0.9]
"""

from __future__ import annotations

import argparse

from repro import RunSpec, run, zipf_pair
from repro.core.offline import memory_value_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=1600)
    parser.add_argument("--window", type=int, default=80)
    parser.add_argument("--skew", type=float, default=1.0)
    parser.add_argument(
        "--target", type=float, default=0.9,
        help="fraction of the exact result to provision for",
    )
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    window = args.window
    pair = zipf_pair(args.length, domain_size=50, skew=args.skew, seed=args.seed)
    memories = [max(2, int(window * f) // 2 * 2) for f in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]

    print(f"workload: {pair.name}, w={window} (exact join needs M={2 * window})\n")
    curve = memory_value_curve(pair, window, memories)
    marginals = curve.marginal_values()

    print(f"{'M':>5} {'OPT output':>11} {'% of exact':>11} {'marginal/slot':>14}")
    print("-" * 45)
    for index, point in enumerate(curve.points):
        marginal = f"{marginals[index - 1]:.2f}" if index else ""
        print(
            f"{point.memory:>5} {point.output:>11} "
            f"{100 * point.fraction_of_exact:>10.1f}% {marginal:>14}"
        )

    budget = curve.smallest_budget_reaching(args.target)
    if budget is None:
        print(f"\nno measured budget reaches {100 * args.target:.0f}% of exact")
        return
    print(
        f"\nsmallest measured budget reaching {100 * args.target:.0f}% of the "
        f"exact result: M = {budget} ({100 * budget / (2 * window):.0f}% of the "
        f"exact join's requirement)"
    )

    # How close does the online heuristic come at that budget?
    prob = run(
        RunSpec(algorithm="PROB", window=window, memory=budget, seed=args.seed),
        pair=pair,
    )
    opt_at_budget = next(p.output for p in curve.points if p.memory == budget)
    print(
        f"at M = {budget}, online PROB achieves {prob.output_count} "
        f"({100 * prob.output_count / max(opt_at_budget, 1):.1f}% of OPT's "
        f"{opt_at_budget}) — the paper's 'PROB tracks OPT' in provisioning terms."
    )


if __name__ == "__main__":
    main()
