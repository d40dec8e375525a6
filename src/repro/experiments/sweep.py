"""Multi-seed sweeps with mean/deviation aggregation.

The paper's figures are single runs; a reproduction should also show
that its conclusions are stable under the generators' randomness.  This
module reruns an algorithm suite across seeds and aggregates the output
counts, and provides a stability check used by the variance study:
the ordering of two algorithms across all seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .. import api
from ..streams.tuples import StreamPair
from .config import DEFAULT_DOMAIN, Scale, current_scale, even_memory


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of one algorithm's outputs across seeds."""

    mean: float
    std: float
    minimum: int
    maximum: int
    runs: int

    @classmethod
    def of(cls, values: Sequence[int]) -> "Aggregate":
        if not values:
            raise ValueError("cannot aggregate zero runs")
        n = len(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / n
        return cls(
            mean=mean,
            std=math.sqrt(variance),
            minimum=min(values),
            maximum=max(values),
            runs=n,
        )


def sweep_seeds(
    algorithms: Sequence[str],
    pair_factory: Callable[[int], StreamPair],
    window: int,
    memory: int,
    *,
    seeds: Sequence[int],
    warmup: Optional[int] = None,
    workers: Optional[int] = None,
) -> dict[str, Aggregate]:
    """Run the suite once per seed; aggregate outputs per algorithm.

    ``pair_factory(seed)`` builds the workload, so both the data and the
    randomised policies vary together, exactly like independent repeats
    of the paper's experiment.

    ``workers`` fans the runs out over worker processes (see
    :mod:`repro.runtime`).  The factory runs in the parent either way —
    it may be a lambda, and shipping the generated pair guarantees
    workers see byte-identical inputs — so aggregates are identical to
    the serial sweep.
    """
    base = api.RunSpec(window=window, memory=memory, warmup=warmup)
    outputs = _seed_outputs(
        algorithms,
        [(replace(base, seed=seed), pair_factory(seed)) for seed in seeds],
        workers=workers,
    )
    return {name: Aggregate.of(values) for name, values in outputs.items()}


def sweep_specs(
    algorithms: Sequence[str],
    base_spec: api.RunSpec,
    *,
    seeds: Sequence[int],
    workers: Optional[int] = None,
) -> dict[str, Aggregate]:
    """Seed sweep over a full :class:`~repro.api.RunSpec`.

    The sweep honours the whole spec surface — sharded execution,
    checkpointing, retries, graceful degradation — with the same flags
    the ``run`` and ``compare`` verbs take; each seed's workload is
    ``build_pair`` of the seeded spec.  A sharded spec's shards run
    inside the worker that runs its cell (the grid is already fanned
    out).
    """
    seeded = []
    for seed in seeds:
        spec = replace(base_spec, seed=seed)
        seeded.append((spec, api.build_pair(spec)))
    outputs = _seed_outputs(algorithms, seeded, workers=workers)
    return {name: Aggregate.of(values) for name, values in outputs.items()}


def _seed_outputs(
    algorithms: Sequence[str],
    seeded: Sequence[tuple[api.RunSpec, StreamPair]],
    *,
    workers: Optional[int] = None,
) -> dict[str, list[int]]:
    """``{algorithm: [output per seed]}`` over ``(seeded spec, pair)``s.

    The one seed-sweep loop: one :class:`~repro.runtime.SpecCell` per
    ``(seed, algorithm)``, fanned out by :func:`~repro.runtime.parallel_map`
    (a plain loop for one worker).
    """
    from ..runtime import SpecCell, parallel_map, run_spec_cell

    if not seeded:
        raise ValueError("need at least one seed")
    cells = [
        SpecCell(replace(spec, algorithm=name, variable=None), pair)
        for spec, pair in seeded
        for name in algorithms
    ]
    results = iter(
        parallel_map(
            run_spec_cell,
            cells,
            workers=workers,
            labels=[cell.label for cell in cells],
        )
    )
    outputs: dict[str, list[int]] = {name: [] for name in algorithms}
    for _seeded in seeded:
        for name in algorithms:
            outputs[name].append(next(results).output_count)
    return outputs


def dominance_count(
    winner: str,
    loser: str,
    algorithms_outputs: dict[str, Aggregate],
    raw: Optional[dict[str, list[int]]] = None,
) -> Optional[int]:
    """How many seeds ``winner`` beat ``loser`` on (needs raw outputs)."""
    if raw is None:
        return None
    return sum(1 for a, b in zip(raw[winner], raw[loser]) if a > b)


def variance_study(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = ("RAND", "FIFO", "LIFE", "PROB", "OPT"),
    workers: Optional[int] = None,
) -> TableData:
    """Seed-to-seed stability of the Figure 3 configuration.

    The absolute join size varies strongly between seeds (the random
    value permutations sometimes align the two streams' hot values), so
    each run is normalised by its own seed's EXACT join size; the table
    reports the mean ± std of those *fractions*, plus whether PROB beat
    RAND on every seed (it should — the paper's conclusion is not a
    lucky draw).  ``seeds`` defaults to the five seeds from ``seed`` on.
    """
    from ..streams.generators import zipf_pair
    from ..streams.tuples import exact_join_size
    from .figures import TableData  # figures registers this study

    scale = scale or current_scale()
    seeds = tuple(range(seed, seed + 5)) if seeds is None else seeds
    window = scale.window
    memory = even_memory(window, 0.5)

    def factory(seed: int) -> StreamPair:
        return zipf_pair(scale.stream_length, DEFAULT_DOMAIN, 1.0, seed=seed)

    base = api.RunSpec(window=window, memory=memory)
    seeded = [(replace(base, seed=seed), factory(seed)) for seed in seeds]
    raw = _seed_outputs(algorithms, seeded, workers=workers)
    exacts = [
        max(exact_join_size(pair, window, count_from=2 * window), 1)
        for _spec, pair in seeded
    ]
    fractions = {
        name: [count / exact for count, exact in zip(raw[name], exacts)]
        for name in algorithms
    }

    rows: list[list] = []
    for name in algorithms:
        values = fractions[name]
        n = len(values)
        mean = sum(values) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
        rows.append([name, round(mean, 4), round(std, 4), round(min(values), 4),
                     round(max(values), 4)])
    prob_wins = sum(1 for p, r in zip(raw["PROB"], raw["RAND"]) if p > r)
    rows.append(["PROB>RAND", prob_wins, "", f"of {len(seeds)}", "seeds"])

    return TableData(
        table_id="variance_study",
        title=(
            f"Seed stability (fraction of EXACT), Zipf(1.0), w={window}, "
            f"M={memory}, {len(seeds)} seeds"
        ),
        columns=["algorithm", "mean frac", "std", "min", "max"],
        rows=rows,
        params={"window": window, "memory": memory, "seeds": list(seeds)},
        expectation=(
            "PROB beats RAND on every seed; OPT dominates everything; "
            "fraction-of-EXACT deviations are small relative to the gaps."
        ),
    )
