"""Uniform runner for every algorithm of the evaluation.

Maps the paper's algorithm names (EXACT, RAND, PROB, LIFE, their
variable-allocation ``...V`` versions, OPT/OPTV, and the ARM extension)
onto engine/policy/solver configurations, wiring the statistics module
exactly as the paper does: the true generating distribution for synthetic
data, the offline frequency table for recorded/real data.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.engine import EngineConfig, JoinEngine, RunResult
from ..core.offline.opt import OptResult, solve_opt
from ..core.policies import make_policy_spec
from ..stats.frequency import (
    FrequencyEstimator,
    OnlineFrequencyCounter,
    StaticFrequencyTable,
)
from ..streams.tuples import StreamPair

#: Algorithms with a fixed / variable allocation pair.
FIXED_ALGORITHMS = ("RAND", "PROB", "LIFE", "ARM", "FIFO")
VARIABLE_ALGORITHMS = tuple(f"{name}V" for name in FIXED_ALGORITHMS)
ALL_ALGORITHMS = ("EXACT", "OPT", "OPTV") + FIXED_ALGORITHMS + VARIABLE_ALGORITHMS

AnyResult = Union[RunResult, OptResult]


def estimators_for(pair: StreamPair) -> dict[str, FrequencyEstimator]:
    """The statistics module for a stream pair, as the paper built it.

    Synthetic pairs carry their true generating distributions in
    ``metadata`` (``r_distribution``/``s_distribution`` objects or
    ``r_probabilities``/``s_probabilities`` arrays); otherwise an offline
    frequency scan of the streams is used — the paper's procedure for the
    real-life dataset ("the frequency table of the data values in the
    dataset was used", not updated during the run).

    An *empty* side (legal: a run over zero ticks) has no frequencies to
    tabulate; it gets a zero-knowledge counter whose probabilities are
    all 0.0, so policies over empty streams construct and run cleanly
    instead of tripping ``StaticFrequencyTable``'s empty-input guard.
    """
    metadata = pair.metadata
    if "r_distribution" in metadata and "s_distribution" in metadata:
        return {
            "R": StaticFrequencyTable.from_array(
                metadata["r_distribution"].probabilities()
            ),
            "S": StaticFrequencyTable.from_array(
                metadata["s_distribution"].probabilities()
            ),
        }
    if "r_probabilities" in metadata and "s_probabilities" in metadata:
        return {
            "R": StaticFrequencyTable.from_array(metadata["r_probabilities"]),
            "S": StaticFrequencyTable.from_array(metadata["s_probabilities"]),
        }
    return {
        "R": StaticFrequencyTable.from_stream(pair.r)
        if len(pair.r) else OnlineFrequencyCounter(),
        "S": StaticFrequencyTable.from_stream(pair.s)
        if len(pair.s) else OnlineFrequencyCounter(),
    }


def _policy_for(
    name: str,
    estimators: dict[str, StaticFrequencyTable],
    window: int,
    seed: int,
):
    """Back-compat alias for :func:`repro.core.policies.make_policy_spec`.

    Kept because figure generators and older call sites build policy
    specs through it; new code should use ``make_policy_spec`` directly.
    """
    return make_policy_spec(name, estimators=estimators, window=window, seed=seed)


def run_algorithm(
    name: str,
    pair: StreamPair,
    window: int,
    memory: int,
    *,
    seed: int = 0,
    warmup: Optional[int] = None,
    estimators: Optional[dict] = None,
    materialize: bool = False,
    track_shares: bool = False,
    share_sample_every: int = 1,
    track_survival: bool = False,
    metrics=None,
    trace=None,
    source=None,
    until: Optional[int] = None,
    batch_size: Optional[int] = None,
    force_general: bool = False,
) -> AnyResult:
    """Run one named algorithm and return its result.

    ``name`` is one of :data:`ALL_ALGORITHMS`.  ``memory`` is ignored for
    EXACT (which always gets ``2 * window``).  ``metrics`` is an optional
    :class:`~repro.obs.MetricsRegistry`; engine runs attach its snapshot
    to the result, OPT solves feed the flow-solver counters.  ``trace``
    is an optional :class:`~repro.obs.Tracer`; engine runs attach the
    collected lifecycle events as ``result.trace``.  OPT/OPTV are batch
    solves with no tuple lifecycle, so ``trace`` is ignored there.

    ``source`` switches the engine-backed algorithms to
    :meth:`~repro.core.engine.JoinEngine.run_stream` over that
    :class:`~repro.streams.sources.Source` (``pair`` still supplies the
    estimator defaults); ``until`` bounds the streamed run and forces
    the incremental lane even for a plain ``PairSource`` — the pair of
    them lets callers pin ``run_stream(PairSource(pair), until=n)``
    against the pair fast path.  OPT/OPTV are offline solves over the
    full materialized pair and reject ``source``.

    ``batch_size`` sets the chunk size of the engines' columnar
    micro-batch lanes, which eligible configurations take by default
    (``None`` means the default chunk size; see
    :attr:`~repro.core.engine.EngineConfig.batch_size`);
    ``force_general`` pins the run to the kernel-driven tick loop, on
    the pair and the source path alike, which lets tests pin the lanes
    to it and benchmarks compare instrumented and plain runs on the same
    execution lane.  Both are ignored by OPT/OPTV.
    """
    if until is not None and source is None:
        raise ValueError("until= requires source=")
    if name == "EXACT":
        config = EngineConfig(
            window=window,
            memory=2 * window,
            warmup=warmup,
            materialize=materialize,
            track_shares=track_shares,
            share_sample_every=share_sample_every,
            track_survival=track_survival,
            batch_size=batch_size,
            force_general=force_general,
        )
        engine = JoinEngine(config, policy=None, metrics=metrics, trace=trace)
        if source is not None:
            return engine.run_stream(source, until=until)
        return engine.run(pair)

    if name in ("OPT", "OPTV"):
        if source is not None:
            raise ValueError(
                f"{name} is an offline solve over the materialized pair; "
                "it cannot consume a source"
            )
        count_from = warmup if warmup is not None else 2 * window
        return solve_opt(
            pair,
            window,
            memory,
            variable=name.endswith("V"),
            count_from=count_from,
            metrics=metrics,
        )

    if name not in FIXED_ALGORITHMS + VARIABLE_ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {ALL_ALGORITHMS}")

    if estimators is None:
        estimators = estimators_for(pair)
    config = EngineConfig(
        window=window,
        memory=memory,
        variable=name.endswith("V"),
        warmup=warmup,
        materialize=materialize,
        track_shares=track_shares,
        share_sample_every=share_sample_every,
        track_survival=track_survival,
        batch_size=batch_size,
        force_general=force_general,
    )
    policy = make_policy_spec(name, estimators=estimators, window=window, seed=seed)
    engine = JoinEngine(config, policy=policy, metrics=metrics, trace=trace)
    if source is not None:
        return engine.run_stream(source, until=until)
    return engine.run(pair)


def run_suite(
    algorithms,
    pair: StreamPair,
    window: int,
    memory: int,
    *,
    seed: int = 0,
    warmup: Optional[int] = None,
    workers: Optional[int] = None,
    **kwargs,
) -> dict[str, AnyResult]:
    """Run several algorithms on identical inputs; estimators are shared.

    ``workers`` fans the algorithms out over worker processes (see
    :mod:`repro.runtime`) with identical results.  A shared ``metrics``
    registry is handled by merging worker snapshots back into it; a
    shared ``trace`` tracer cannot cross process boundaries, so traced
    suites always run serially.
    """
    from ..runtime import (
        AlgorithmCell,
        parallel_map,
        resolve_workers,
        run_algorithm_cell,
    )

    metrics = kwargs.get("metrics")
    if (
        resolve_workers(workers) <= 1
        or len(algorithms) <= 1
        or kwargs.get("trace") is not None
    ):
        estimators = estimators_for(pair)
        results: dict[str, AnyResult] = {}
        for name in algorithms:
            results[name] = run_algorithm(
                name,
                pair,
                window,
                memory,
                seed=seed,
                warmup=warmup,
                estimators=estimators,
                **kwargs,
            )
        return results

    cell_kwargs = {k: v for k, v in kwargs.items() if k != "metrics"}
    with_metrics = metrics is not None and getattr(metrics, "enabled", True)
    cells = [
        AlgorithmCell(
            name,
            pair,
            window,
            memory,
            seed=seed,
            warmup=warmup,
            with_metrics=with_metrics,
            kwargs=cell_kwargs,
        )
        for name in algorithms
    ]
    outputs = parallel_map(
        run_algorithm_cell,
        cells,
        workers=workers,
        labels=[cell.label for cell in cells],
    )
    if with_metrics:
        for result in outputs:
            snapshot = getattr(result, "metrics", None)
            if snapshot:
                metrics.merge_snapshot(snapshot)
    return dict(zip(algorithms, outputs))


def output_counts(results: dict[str, AnyResult]) -> dict[str, int]:
    """Extract the headline metric from a suite's results."""
    return {name: result.output_count for name, result in results.items()}
