"""The benchmark's four workloads, their inputs, and the correctness oracle.

Every workload makes five runs through the public :func:`repro.api.run`
entry point: EXACT, RAND, PROB, LIFE, and PROB again with
``metrics=True`` (the throughput users get with observability on).  The
inputs are made from the seed; the program sees only those inputs.

Every call is checked.  Its fingerprint (output, total output, drop
ledger by reason) must equal the reference fingerprint of its run, and
each reference must first pass the paper's definitions: EXACT output
equals the exact sliding-window join size, the ledger balances within
the memory budget, and no policy outputs more than EXACT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro import api
from repro.experiments.runner import estimators_for
from repro.streams import zipf_pair
from repro.streams.sources import DriftingZipfSource, take_pair
from repro.streams.tuples import StreamPair, exact_join_size

#: The five runs of every workload, in the order a round makes them.
KINDS = ("exact", "rand", "prob", "life", "metrics")
#: The runs that get a per-layer trace (``metrics`` is PROB again).
POLICIES = ("exact", "rand", "prob", "life")
ALGORITHMS = {
    "exact": "EXACT",
    "rand": "RAND",
    "prob": "PROB",
    "life": "LIFE",
    "metrics": "PROB",
}

#: Seed of the rank-to-value mapping, i.e. which keys are frequent (in
#: which phase, for the drifting source).  It is part of a workload, like
#: its domain and skew; ``--seed`` draws the arrivals.  When the mapping
#: came from the seed too, PROB/LIFE recall moved by up to 40% between
#: seeds, far more than any regression bound could absorb.
SCHEDULE_SEED = 0

PAIR_DOMAIN = 50
DRIFT_DOMAIN = 1000
DRIFT_PHASE = 5000
SKEW = 1.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the five runs made on it (README.md says
    why each workload is in the benchmark)."""

    name: str
    window: int
    memory: int
    #: Input ticks of each run (both sides arrive every tick).
    ticks: dict
    batch_size: Optional[int] = None
    shards: int = 1
    workers: Optional[int] = None
    #: Runs over a pull-based source instead of a materialized pair.
    stream: bool = False
    #: Online estimator per run (source runs only; default ``oracle``).
    estimators: dict = field(default_factory=dict)

    def spec(self, kind: str, seed: int, ticks: int, source=None) -> api.RunSpec:
        return api.RunSpec(
            algorithm=ALGORITHMS[kind],
            window=self.window,
            memory=self.memory,
            seed=seed,
            batch_size=self.batch_size,
            shards=self.shards,
            metrics=kind == "metrics",
            estimator=self.estimators.get(kind, "oracle"),
            source=source,
            duration=ticks if source is not None else None,
        )


def _same_ticks(ticks: int) -> dict:
    return dict.fromkeys(KINDS, ticks)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="pair_batch",
            window=100,
            memory=50,
            ticks=_same_ticks(200_000),
            batch_size=1024,
        ),
        Workload(
            name="pair_tuple",
            window=100,
            memory=50,
            ticks=_same_ticks(100_000),
        ),
        Workload(
            name="stream_drift",
            window=1000,
            memory=100,
            ticks={
                "exact": 100_000,
                "rand": 60_000,
                "prob": 30_000,
                "life": 8_000,
                "metrics": 30_000,
            },
            stream=True,
            estimators={"prob": "ewma", "life": "countmin", "metrics": "ewma"},
        ),
        Workload(
            name="shard_pool",
            window=100,
            memory=50,
            # Sharded EXACT is mostly pool start-up and pickling at 120k
            # ticks, which made its time vary by 25% between rounds, so
            # its input is longer; the policy runs are shorter, so that a
            # run makes about six rounds.
            ticks=dict(_same_ticks(80_000), exact=240_000),
            shards=4,
            workers=2,
        ),
    )
}


class DriftSource(DriftingZipfSource):
    """:class:`DriftingZipfSource` with the workload's fixed phase schedule.

    Which keys are frequent in each phase comes from
    :data:`SCHEDULE_SEED`; the seed given to the constructor draws only
    the arrivals.
    """

    def phase_distributions(self, phase: int):
        schedule = DriftingZipfSource(
            self.domain_size,
            self.skew,
            phase_length=self.phase_length,
            seed=SCHEDULE_SEED,
        )
        return schedule.phase_distributions(phase)


def zipf_input(ticks: int, seed: int) -> StreamPair:
    """An uncorrelated Zipf pair with the workload's fixed key ranking."""
    template = zipf_pair(0, PAIR_DOMAIN, SKEW, seed=SCHEDULE_SEED)
    rng = np.random.default_rng(seed)
    metadata = template.metadata
    return StreamPair(
        r=metadata["r_distribution"].sample(ticks, rng).tolist(),
        s=metadata["s_distribution"].sample(ticks, rng).tolist(),
        name=f"{template.name}[seed={seed}]",
        metadata=dict(metadata),
    )


@dataclass
class Inputs:
    """Everything a workload's runs read, built before any timing."""

    #: Pair workloads: the input of each run length (shorter runs use
    #: prefixes of the longest).
    pairs: dict
    #: Pair workloads: the oracle frequency tables fed to PROB/LIFE.
    estimators: Optional[dict]
    #: Source workloads: the source every run pulls from.
    source: Optional[DriftSource]
    generate_s: float
    table_s: float


def run_lengths(workload: Workload, smoke: bool = False) -> dict:
    """``kind -> (timed ticks, warm-up ticks)``; warm-ups run a tenth.

    ``smoke`` shrinks every run for the self-test, never below three
    windows, so that every run emits output.
    """
    lengths = {}
    for kind, ticks in workload.ticks.items():
        if smoke:
            ticks = max(ticks // 20, 3 * workload.window)
        lengths[kind] = (ticks, max(1, ticks // 10))
    return lengths


def build_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Generate the workload's inputs (this is what ``setup_s`` times)."""
    lengths = {n for pair in run_lengths(workload, smoke).values() for n in pair}
    start = time.perf_counter()
    pairs: dict = {}
    source = None
    if workload.stream:
        source = DriftSource(
            DRIFT_DOMAIN, SKEW, phase_length=DRIFT_PHASE, seed=seed
        )
    else:
        longest = max(lengths)
        pair = zipf_input(longest, seed)
        pairs = {
            n: pair if n == longest else pair.prefix(n) for n in sorted(lengths)
        }
    generated = time.perf_counter()
    estimators = None if workload.stream else estimators_for(pairs[max(lengths)])
    tabled = time.perf_counter()
    return Inputs(
        pairs=pairs,
        estimators=estimators,
        source=source,
        generate_s=generated - start,
        table_s=tabled - generated,
    )


def call(
    workload: Workload,
    inputs: Inputs,
    kind: str,
    ticks: int,
    seed: int,
    *,
    source=None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
):
    """One run through the public entry point.

    ``source`` substitutes the workload's source (the traced run passes
    a timing proxy), ``workers`` the workload's worker count, and
    ``shards`` its shard count.
    """
    if workload.stream:
        spec = workload.spec(kind, seed, ticks, source or inputs.source)
        return api.run(spec)
    spec = workload.spec(kind, seed, ticks)
    if shards is not None:
        spec = replace(spec, shards=shards)
    if spec.shards > 1:
        return api.run(
            spec,
            pair=inputs.pairs[ticks],
            workers=workload.workers if workers is None else workers,
        )
    return api.run(spec, pair=inputs.pairs[ticks], estimators=inputs.estimators)


def exact_outputs(workload: Workload, inputs: Inputs, lengths) -> dict:
    """``ticks -> exact join size`` of each run length's input, by the
    paper's definition (:func:`repro.streams.tuples.exact_join_size`)."""
    warmup = 2 * workload.window
    outputs = {}
    for n in sorted(set(lengths)):
        pair = take_pair(inputs.source, n) if workload.stream else inputs.pairs[n]
        outputs[n] = exact_join_size(pair, workload.window, count_from=warmup)
    return outputs


def fingerprint(result) -> tuple:
    """What a call must reproduce: output, total output, drop ledger."""
    drops = result.drop_breakdown()
    return (
        result.output_count,
        result.total_output_count,
        drops.rejected,
        drops.evicted,
        drops.expired,
        drops.lost,
    )


def reference_problems(
    workload: Workload, kind: str, ticks: int, fp: tuple, exact: int
) -> list:
    """How a reference fingerprint breaks the paper's definitions."""
    output, _total, rejected, evicted, expired, lost = fp
    budget = 2 * workload.window if kind == "exact" else workload.memory
    resident = 2 * ticks - rejected - evicted - expired - lost
    problems = []
    if not 0 <= resident <= budget:
        problems.append(
            f"ledger does not balance: {resident} tuples left resident "
            f"of {2 * ticks} arrivals, budget {budget}"
        )
    if kind == "exact" and output != exact:
        problems.append(f"EXACT output {output} != exact join size {exact}")
    if output > exact:
        problems.append(f"output {output} exceeds the exact join size {exact}")
    return problems


class Ledger:
    """Counts every call and every failed call of one workload.

    A call fails if it raised, or if its fingerprint differs from the
    reference of its run (its kind at its length).  The reference is the
    first fingerprint recorded for the run and must pass
    :func:`reference_problems`; the ``metrics`` run's reference must also
    equal PROB's.  If a reference fails, every call of that run fails.
    """

    def __init__(self, workload: Workload, exact: dict) -> None:
        self.workload = workload
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        self.references: dict = {}
        self.errors: list = []
        self._broken: set = set()

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, kind: str, ticks: int, fp=None, error=None) -> bool:
        """Account one call; returns whether it passed."""
        self.attempted += 1
        key = (kind, ticks)
        if error is not None:
            return self.fail(f"{kind}@{ticks} raised {error!r}")
        reference = self.references.get(key)
        if reference is None:
            self.references[key] = fp
            problems = reference_problems(
                self.workload, kind, ticks, fp, self.exact[ticks]
            )
            prob = self.references.get(("prob", ticks))
            if kind == "metrics" and prob is not None and fp != prob:
                problems.append(f"metrics=True changed the result: {fp} != {prob}")
            if problems:
                self._broken.add(key)
                self.errors.extend(f"{kind}@{ticks}: {p}" for p in problems)
        elif fp != reference:
            return self.fail(f"{kind}@{ticks} fingerprint {fp} != {reference}")
        if key in self._broken:
            return self.fail(None)
        return True

    def fail(self, message: Optional[str]) -> bool:
        """Count the last recorded call as failed."""
        self.failed += 1
        if message is not None:
            self.errors.append(message)
        return False
