"""Unified public run API.

One :class:`RunSpec` describes a complete experiment — workload, join
parameters, which engine simulates it, fault-tolerance posture, and
whether to collect metrics — and one entry point consumes it:

* :func:`run` — run the spec end to end: OPT/OPTV dispatch to the
  offline bound, ``shards > 1`` to the fault-tolerant sharded runtime,
  everything else to the selected engine.  All paths share the unified
  result surface (``output_count``,
  :meth:`~repro.core.results.BaseRunResult.drop_breakdown`,
  :meth:`~repro.core.results.BaseRunResult.summary`, an attached
  ``metrics`` snapshot when requested);
* :func:`compare` — run several specs on one shared workload;
* :func:`optimal_offline` — the OPT/OPTV offline bound for the spec.

:func:`run_join` and :func:`run_sharded` remain as thin deprecated
aliases of :func:`run` (see DESIGN.md for the deprecation policy).

Example::

    from repro.api import RunSpec, run, optimal_offline

    spec = RunSpec(algorithm="PROB", window=100, memory=50, length=2000)
    result = run(spec)
    bound = optimal_offline(spec)
    print(result.output_count / bound.output_count)

The CLI (``repro run`` / ``repro compare``) and the example scripts are
thin layers over these functions.
"""

from __future__ import annotations

import tempfile
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from .core.engine import EngineConfig, JoinEngine
from .core.offline.opt import OptResult, solve_opt
from .core.policies import make_policy_spec
from .core.results import SCHEMA_VERSION
from .core.slowcpu import SlowCpuConfig, SlowCpuEngine
from .experiments.runner import ALL_ALGORITHMS, estimators_for
from .obs import MetricsRegistry, RingBufferSink, Tracer
from .stats.countmin import CountMinSketch
from .stats.ewma import EwmaFrequencyEstimator
from .stats.frequency import StaticFrequencyTable
from .stats.spacesaving import SpaceSaving
from .streams import StreamPair, uniform_pair, weather_pair, zipf_pair
from .streams.sources import PairSource

__all__ = [
    "ENGINES",
    "ESTIMATORS",
    "WORKLOADS",
    "RunSpec",
    "attribute_run",
    "build_pair",
    "compare",
    "optimal_offline",
    "run",
    "run_join",
    "run_sharded",
]

ENGINES = ("fast", "async", "slowcpu")
WORKLOADS = ("zipf", "uniform", "weather")
#: Statistics modules feeding PROB/LIFE: the paper's static oracle table
#: plus the online bounded-memory estimators (updated as streams flow).
ESTIMATORS = ("oracle", "ewma", "countmin", "spacesaving")
#: Algorithms whose policies consume a statistics module at all.
_ESTIMATOR_ALGORITHMS = ("PROB", "PROBV", "LIFE", "LIFEV", "ARM", "ARMV")


@dataclass(frozen=True)
class RunSpec:
    """Everything one run needs, in one place.

    Workload fields (``workload`` .. ``correlation``) describe the input
    streams; join fields (``window`` .. ``warmup``) the operator; the
    ``engine`` field selects the simulator (``"fast"`` — the paper's
    integrated fast-CPU model, ``"async"`` — bursty per-tick batches,
    ``"slowcpu"`` — the modular queue-fronted model, which also uses the
    ``service_per_tick`` / ``queue_capacity`` / ``queue_policy`` knobs).
    ``metrics=True`` collects an observability snapshot into the result;
    ``trace=True`` records the full tuple lifecycle (arrive / admit /
    evict / expire / join_output / drop) into ``result.trace`` via a
    bounded ring buffer of ``trace_capacity`` events.  Both default off
    and cost nothing when off (the engines collapse them to ``None``).

    ``batch_size=N`` (fast engine only) sets the chunk size of the
    columnar micro-batch lanes, which the fast engine takes by default
    (``None`` means ``repro.streams.batches.DEFAULT_BATCH_SIZE``, 1024):
    the workload is encoded into struct-of-arrays chunks and eligible
    runs execute chunk-at-a-time — EXACT via count arithmetic, and
    RAND/PROB/LIFE with static probability tables via the vectorized
    policy lanes (``repro.core.batched_policies``).  The dispatch is
    adaptive: any option that needs tuple granularity (``trace=True``,
    ARM/FIFO or estimator-updating policies, schedules) takes a
    per-tuple loop, and results are bit-identical either way — output,
    drop ledger, survival, and metrics.  Sharded runs batch natively per
    tick regardless of this knob (see ``docs/architecture.md``,
    "Batched execution").

    ``shards=N`` (fast engine only) hash-partitions the key domain into
    ``N`` independent sub-joins executed via
    :mod:`repro.core.partition` and merged deterministically: EXACT is
    provably identical to the unsharded run, the shedding policies
    become a documented approximation variant whose result depends on
    ``N`` but never on the worker count.  ``shard_weighted=True`` splits
    the memory budget by per-shard arrival mass instead of evenly.

    Fault tolerance (sharded runs only — an unsharded run has no cells
    to supervise): ``max_retries`` re-runs a failed shard with
    exponential backoff; ``timeout_s`` bounds one attempt's wall clock
    (enforced when shards run in worker processes); ``checkpoint_every=k``
    checkpoints each shard's join state every ``k`` ticks so a retry
    resumes instead of replaying from tick 0 (``checkpoint_dir`` persists
    the checkpoints at a caller-chosen path, e.g. to resume across
    processes; the default is a run-private temp directory);
    ``degrade=True`` merges the surviving shards when a shard exhausts
    its retries and attributes the loss under the ``lost_shard`` drop
    reason instead of failing the run.

    ``source=`` replaces the workload fields with a pull-based
    :class:`~repro.streams.sources.Source` (generator, replay, or
    adapted pair): the run consumes it *incrementally* through the
    engines' ``run_stream`` path, so memory stays bounded by the
    window/budget — never by stream length.  ``duration=N`` bounds the
    run at ``N`` ticks (mandatory for unbounded sources).  Incompatible
    with the materialized-pair-only machinery: the slow-CPU engine, the
    OPT bound, and the checkpoint / degrade / weighted-shard fault knobs
    (plain sharding, retries, telemetry, and the columnar ``batch_size``
    lanes all work — unit-rate sources are chunked incrementally, so
    memory stays bounded even when batched).

    ``estimator=`` picks the statistics module feeding PROB/LIFE:
    ``"oracle"`` (default) is the paper's static table (true generating
    distribution, or an offline frequency scan); ``"ewma"``,
    ``"countmin"``, and ``"spacesaving"`` are *online* bounded-memory
    estimators updated from the live arrivals — the paper's "any online
    histogram or sketch could substitute" remark, realised.  For a
    drifting source the oracle is deliberately *stale* (phase-0
    distributions), which is exactly what the online estimators beat.
    ``estimator_alpha`` tunes the EWMA smoothing factor (default
    ``2 / (window + 1)``).

    ``telemetry=True`` (sharded runs only) arms the cross-process
    telemetry plane: the supervisor records task-lifecycle spans
    (submit / retry / timeout / finish / merge / degrade), every worker
    attempt spools start/heartbeat/checkpoint/fault events back through
    crash-safe JSONL files, and the merged global timeline lands on
    ``result.timeline`` (see :mod:`repro.obs.spans`).  ``heartbeat_every``
    sets the tick interval between worker heartbeats; ``telemetry_dir``
    keeps the spool files at a caller-chosen path (default: a
    run-private temp directory, deleted after the merge).
    """

    algorithm: str = "PROB"
    window: int = 100
    memory: int = 50
    warmup: Optional[int] = None
    variable: Optional[bool] = None  # default: inferred from a trailing "V"
    seed: int = 0

    workload: str = "zipf"
    length: int = 2000
    domain: int = 50
    skew: float = 1.0
    skew_s: Optional[float] = None
    correlation: str = "uncorrelated"

    source: Optional[object] = None
    duration: Optional[int] = None
    estimator: str = "oracle"
    estimator_alpha: Optional[float] = None

    engine: str = "fast"
    batch_size: Optional[int] = None
    service_per_tick: int = 2
    queue_capacity: int = 64
    queue_policy: str = "tail"

    metrics: bool = False
    trace: bool = False
    trace_capacity: int = 1 << 20

    shards: int = 1
    shard_weighted: bool = False

    max_retries: int = 0
    timeout_s: Optional[float] = None
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    degrade: bool = False

    telemetry: bool = False
    telemetry_dir: Optional[str] = None
    heartbeat_every: int = 16

    def __post_init__(self) -> None:
        name = self.algorithm.upper()
        if name != self.algorithm:
            object.__setattr__(self, "algorithm", name)
        if name not in ALL_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALL_ALGORITHMS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if self.variable is None:
            object.__setattr__(self, "variable", name.endswith("V") and name != "V")
        if self.batch_size is not None:
            if self.batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
            if self.engine != "fast":
                raise ValueError(
                    "batch_size applies to the fast-CPU engine (the async "
                    "engine batches natively per tick; the slow-CPU model "
                    f"sheds at the queue), got engine={self.engine!r}"
                )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1:
            if name in ("OPT", "OPTV"):
                raise ValueError("the offline OPT bound cannot be sharded")
            if self.engine != "fast":
                raise ValueError(
                    "sharded execution only applies to the fast-CPU model "
                    f"(engine='fast'), got engine={self.engine!r}"
                )
            if self.trace:
                raise ValueError(
                    "tracing is not supported with sharded execution "
                    "(per-shard event streams have no global order)"
                )
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if self.estimator != "oracle" and name not in (
            "PROB", "PROBV", "LIFE", "LIFEV"
        ):
            raise ValueError(
                "online estimators drive the PROB/LIFE heuristics only; "
                f"got estimator={self.estimator!r} with algorithm={name!r}"
            )
        if self.estimator_alpha is not None:
            if self.estimator != "ewma":
                raise ValueError("estimator_alpha applies to estimator='ewma'")
            if not 0.0 < self.estimator_alpha <= 1.0:
                raise ValueError(
                    f"estimator_alpha must be in (0, 1], got {self.estimator_alpha}"
                )
        if self.duration is not None:
            if self.source is None:
                raise ValueError("duration requires a source")
            if self.duration < 1:
                raise ValueError(f"duration must be >= 1, got {self.duration}")
        if self.source is not None:
            if name in ("OPT", "OPTV"):
                raise ValueError(
                    "the offline OPT bound needs the materialized pair; "
                    "it cannot consume a source"
                )
            if self.engine == "slowcpu":
                raise ValueError(
                    "sources run on the fast/async engines "
                    "(the slow-CPU model replays materialized pairs)"
                )
            for knob, is_set in (
                ("shard_weighted", self.shard_weighted),
                ("checkpoint_every", self.checkpoint_every is not None),
                ("degrade", self.degrade),
            ):
                if is_set:
                    raise ValueError(
                        f"{knob} needs a full pass over the materialized "
                        "pair and cannot be combined with a source"
                    )
            # An unbounded source also needs duration=N *or* a stop()
            # callback; that check lives in run(), which sees both.
        # Fault-tolerance knobs: the one shared validator every surface
        # (API, CLI run/compare/sweep) funnels through.
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_dir is not None and self.checkpoint_every is None:
            raise ValueError("checkpoint_dir requires checkpoint_every")
        if self.heartbeat_every < 1:
            raise ValueError(
                f"heartbeat_every must be >= 1, got {self.heartbeat_every}"
            )
        if self.telemetry_dir is not None and not self.telemetry:
            raise ValueError("telemetry_dir requires telemetry")
        if self.shards < 2:
            for knob, is_set in (
                ("max_retries", self.max_retries != 0),
                ("timeout_s", self.timeout_s is not None),
                ("checkpoint_every", self.checkpoint_every is not None),
                ("degrade", self.degrade),
                ("telemetry", self.telemetry),
            ):
                if is_set:
                    raise ValueError(
                        f"{knob} requires sharded execution (shards > 1); "
                        "an unsharded run has no cells to supervise"
                    )

    @property
    def effective_warmup(self) -> int:
        return self.warmup if self.warmup is not None else 2 * self.window

    @property
    def effective_memory(self) -> int:
        """EXACT always gets the lossless budget of ``2 * window``."""
        return 2 * self.window if self.algorithm == "EXACT" else self.memory


def build_pair(spec: RunSpec) -> StreamPair:
    """Generate the spec's input streams."""
    if spec.workload == "weather":
        return weather_pair(spec.length, seed=spec.seed)
    if spec.workload == "uniform":
        return uniform_pair(spec.length, spec.domain, seed=spec.seed)
    return zipf_pair(
        spec.length,
        spec.domain,
        spec.skew,
        skew_s=spec.skew_s,
        correlation=spec.correlation,
        seed=spec.seed,
    )


def _registry_for(spec: RunSpec) -> Optional[MetricsRegistry]:
    return MetricsRegistry() if spec.metrics else None


def _tracer_for(spec: RunSpec) -> Optional[Tracer]:
    return Tracer(RingBufferSink(spec.trace_capacity)) if spec.trace else None


def _online_estimators(spec: RunSpec) -> dict:
    """Fresh per-side online estimators for ``spec.estimator``.

    Sizing: the EWMA smoothing defaults to ``2 / (window + 1)`` (an
    effective history of about one window); the Count-Min sketch is
    sized for 1% additive error at 99% confidence; Space-Saving tracks
    enough counters to rank everything the memory budget could retain.
    """
    if spec.estimator == "ewma":
        alpha = (
            spec.estimator_alpha
            if spec.estimator_alpha is not None
            else 2.0 / (spec.window + 1)
        )
        make = lambda: EwmaFrequencyEstimator(alpha)
    elif spec.estimator == "countmin":
        make = lambda: CountMinSketch.from_error_bounds(
            0.01, 0.01, seed=spec.seed, conservative=True
        )
    else:  # spacesaving
        make = lambda: SpaceSaving(max(64, 2 * spec.memory))
    return {"R": make(), "S": make()}


def _source_estimators(source) -> dict:
    """The *oracle* statistics module for a source.

    A :class:`~repro.streams.sources.PairSource` defers to the pair's
    own metadata; generator sources expose their true generating
    distributions.  A drifting source yields its *phase-0* tables — a
    deliberately stale oracle, the baseline the online estimators beat.
    Sources with unknown statistics (replays, custom feeds) have no
    oracle; pick an online estimator for those.
    """
    if isinstance(source, PairSource):
        return estimators_for(source.pair)
    if hasattr(source, "phase_distributions"):
        dist_r, dist_s = source.phase_distributions(0)
    elif hasattr(source, "distributions"):
        dist_r, dist_s = source.distributions()
    else:
        raise ValueError(
            "estimator='oracle' needs a source with known distributions "
            "(a PairSource or a generator source); use an online "
            "estimator ('ewma', 'countmin', 'spacesaving') for replay "
            "or custom sources"
        )
    return {
        "R": StaticFrequencyTable.from_array(dist_r.probabilities()),
        "S": StaticFrequencyTable.from_array(dist_s.probabilities()),
    }


def _policy_for(spec: RunSpec, pair: Optional[StreamPair], estimators: Optional[dict]):
    if spec.algorithm == "EXACT":
        return None
    if spec.estimator != "oracle":
        estimators = _online_estimators(spec)
    elif estimators is None and spec.algorithm in _ESTIMATOR_ALGORITHMS:
        estimators = (
            estimators_for(pair) if pair is not None
            else _source_estimators(spec.source)
        )
    return make_policy_spec(
        spec.algorithm,
        variable=spec.variable,
        estimators=estimators,
        window=spec.window,
        seed=spec.seed,
    )


def run(
    spec: RunSpec,
    *,
    pair: Optional[StreamPair] = None,
    estimators: Optional[dict] = None,
    workers: Optional[int] = None,
    fault_plan=None,
    emit=None,
    on_summary=None,
    on_summary_every: Optional[int] = None,
    stop=None,
):
    """Run the spec end to end and return the engine's result.

    The one public entry point: dispatches on the spec itself.  OPT and
    OPTV delegate to :func:`optimal_offline` — the offline bound has no
    engine to speak of, but sharing the entry point keeps comparison
    loops uniform.  A spec with ``shards > 1`` runs on the fault-tolerant
    sharded runtime; ``workers`` then fans the shards over worker
    processes (ignored otherwise — a single unsharded run is serial) and
    ``fault_plan`` arms deterministic fault injection (see
    :mod:`repro.runtime.faults`; tests and the chaos benchmark only).

    ``pair`` overrides the generated workload (so several specs can share
    one input); ``estimators`` overrides the statistics module.

    Streaming hooks (``repro serve`` is a thin layer over these):
    ``emit(result_tuple)`` receives each join output as produced
    (bounded-memory alternative to materializing); ``on_summary`` gets a
    rolling :class:`~repro.core.results.RunSummary` every
    ``on_summary_every`` ticks; ``stop()`` is polled per tick for
    cooperative shutdown.  They apply to single-engine runs only — a
    sharded merge has no global event order.
    """
    if spec.algorithm in ("OPT", "OPTV"):
        return optimal_offline(spec, pair=pair)
    streaming = (emit, on_summary, on_summary_every, stop) != (None, None, None, None)
    if spec.shards > 1:
        if streaming:
            raise ValueError(
                "emit/on_summary/stop need a single engine run; a sharded "
                "merge has no global event order"
            )
        return _run_sharded(spec, pair=pair, workers=workers, fault_plan=fault_plan)

    source = spec.source
    if source is None:
        if pair is None:
            pair = build_pair(spec)
    elif pair is not None:
        raise ValueError("pass either spec.source or pair=, not both")
    elif (
        spec.duration is None
        and stop is None
        and getattr(source, "length", None) is None
    ):
        raise ValueError(
            "an unbounded source needs duration=N or a stop() callback "
            "to bound the run"
        )
    registry = _registry_for(spec)
    tracer = _tracer_for(spec)
    policy = _policy_for(spec, pair, estimators)
    stream_kwargs = dict(
        until=spec.duration,
        emit=emit,
        on_summary=on_summary,
        on_summary_every=on_summary_every,
        stop=stop,
    )

    if spec.engine == "fast":
        config = EngineConfig(
            window=spec.window,
            memory=spec.effective_memory,
            variable=spec.variable,
            warmup=spec.warmup,
            batch_size=spec.batch_size,
        )
        engine = JoinEngine(config, policy=policy, metrics=registry, trace=tracer)
        return engine.run_stream(
            source if source is not None else PairSource(pair), **stream_kwargs
        )

    if spec.engine == "async":
        config = AsyncEngineConfig(
            window=spec.window,
            memory=spec.effective_memory,
            variable=spec.variable,
            warmup=spec.warmup,
        )
        engine = AsyncJoinEngine(config, policy=policy, metrics=registry, trace=tracer)
        return engine.run_stream(
            source if source is not None else PairSource(pair), **stream_kwargs
        )

    if streaming:
        raise ValueError(
            "emit/on_summary/stop need the fast or async engine "
            f"(run_stream), got engine={spec.engine!r}"
        )
    config = SlowCpuConfig(
        window=spec.window,
        memory=spec.effective_memory,
        service_per_tick=spec.service_per_tick,
        queue_capacity=spec.queue_capacity,
        queue_policy=spec.queue_policy,
        variable=spec.variable,
        warmup=spec.warmup,
        seed=spec.seed,
    )
    if estimators is None and spec.queue_policy == "prob":
        estimators = estimators_for(pair)
    engine = SlowCpuEngine(
        config, policy=policy, estimators=estimators, metrics=registry, trace=tracer
    )
    ticks = len(pair)
    schedule = [1] * ticks
    return engine.run(pair.r, pair.s, schedule, list(schedule))


def run_join(
    spec: RunSpec,
    *,
    pair: Optional[StreamPair] = None,
    estimators: Optional[dict] = None,
    workers: Optional[int] = None,
):
    """Deprecated alias of :func:`run` (kept for one release cycle)."""
    warnings.warn(
        "run_join() is deprecated; use repro.api.run()",
        DeprecationWarning,
        stacklevel=2,
    )
    return run(spec, pair=pair, estimators=estimators, workers=workers)


def run_sharded(
    spec: RunSpec,
    *,
    pair: Optional[StreamPair] = None,
    workers: Optional[int] = None,
):
    """Deprecated alias of :func:`run` for ``shards > 1`` specs."""
    warnings.warn(
        "run_sharded() is deprecated; use repro.api.run()",
        DeprecationWarning,
        stacklevel=2,
    )
    if spec.shards < 2:
        raise ValueError(f"run_sharded needs shards >= 2, got {spec.shards}")
    return _run_sharded(spec, pair=pair, workers=workers)


def _shard_fingerprint(
    spec: RunSpec, pair: StreamPair, shard: int, budget: int
) -> str:
    """Identity of one shard's computation, for checkpoint validation.

    Everything that changes the shard's tick-by-tick evolution is in
    here; a checkpoint whose fingerprint mismatches is silently ignored
    (replaying from tick 0 is always correct).
    """
    return "|".join(
        (
            f"schema={SCHEMA_VERSION}",
            f"alg={spec.algorithm}",
            f"w={spec.window}",
            f"m={budget}",
            f"seed={spec.seed}",
            f"len={len(pair)}",
            f"shard={shard}/{spec.shards}",
            f"var={int(bool(spec.variable))}",
            f"warmup={spec.effective_warmup}",
            f"metrics={int(spec.metrics)}",
        )
    )


def _run_join_shard(spec: RunSpec, pair: StreamPair, shard: int, budget: int):
    """Run one shard of a sharded spec (worker entry helper).

    The shard sees only the arrivals whose key hashes to it, at their
    original global ticks (empty ticks elsewhere), executed on the
    asynchronous engine in time-window mode — which makes the shard's
    window, expiry, and warmup semantics identical to the synchronous
    fast-CPU engine's.  The statistics module is built from the *full*
    pair (the same tables the unsharded run would use); policy RNGs seed
    from ``(spec.seed, shard)`` so results never depend on worker
    scheduling.

    With ``checkpoint_every`` set, the engine state is checkpointed to
    ``checkpoint_dir`` every ``k`` ticks and a fresh invocation (a retry
    in a new worker, or a re-run after a crash) resumes from the last
    valid checkpoint.  Under an armed fault context (see
    :mod:`repro.runtime.faults`) the same per-tick hook fires injected
    faults, so a kill lands mid-run with real join state at stake.
    """
    from .core.partition import shard_batches, shard_seed, shard_source
    from .obs import telemetry
    from .runtime import faults

    shard_spec = replace(spec, seed=shard_seed(spec.seed, shard))
    policy = _policy_for(shard_spec, pair, None)
    config = AsyncEngineConfig(
        window=spec.window,
        memory=budget,
        variable=spec.variable,
        warmup=spec.warmup,
    )
    engine = AsyncJoinEngine(config, policy=policy, metrics=_registry_for(spec))

    store = None
    resume = None
    every = spec.checkpoint_every
    key = f"shard-{shard}"
    fingerprint = None
    if every is not None and spec.checkpoint_dir is not None:
        from .runtime.checkpoint import CheckpointStore

        fingerprint = _shard_fingerprint(spec, pair, shard, budget)
        store = CheckpointStore(spec.checkpoint_dir)
        resume = store.load(key, fingerprint=fingerprint)

    on_tick = None
    on_tick_every = 1
    if store is not None or faults.is_active() or telemetry.is_active():
        if store is None and not faults.is_active():
            # Pure-telemetry runs only need the hook on heartbeat ticks;
            # checkpoints and fault injection need every tick.
            on_tick_every = spec.heartbeat_every

        def on_tick(running_engine, t):
            # Faults fire first: a kill at tick T never checkpoints T,
            # so the retry resumes strictly before the failure point.
            try:
                faults.maybe_inject(t)
            except faults.InjectedFault:
                # Record the fault span (and harden the spool) before
                # the exception unwinds the attempt.
                telemetry.record_fault(t)
                raise
            telemetry.maybe_heartbeat(t, running_engine.progress)
            if store is not None and (t + 1) % every == 0:
                store.save(
                    key, running_engine.checkpoint(), fingerprint=fingerprint
                )

    if spec.source is not None:
        # Checkpoints are validated out with sources, so no store/resume
        # here; retries simply restart the (deterministic) shard source.
        return engine.run_stream(
            shard_source(spec.source, shard, spec.shards),
            until=spec.duration,
            on_tick=on_tick,
            on_tick_every=on_tick_every,
        )

    r_batches, s_batches = shard_batches(pair, shard, spec.shards)
    result = engine.run(
        r_batches, s_batches, resume=resume,
        on_tick=on_tick, on_tick_every=on_tick_every,
    )
    if store is not None:
        store.clear(key)
    return result


def _run_sharded(
    spec: RunSpec,
    *,
    pair: Optional[StreamPair] = None,
    workers: Optional[int] = None,
    fault_plan=None,
):
    """Run a ``shards > 1`` spec: plan, fan out (supervised), merge.

    Returns a :class:`~repro.core.partition.ShardedRunResult`; the merge
    is deterministic and the per-shard runs self-seeded, so the result
    is a pure function of the spec — ``workers=4`` returns exactly what
    the serial run returns, and a retried shard returns exactly what an
    undisturbed one would have.  On retry exhaustion with
    ``degrade=True`` the surviving shards merge and the lost shards'
    inputs (plus, for EXACT, their exactly-known forgone output) are
    attributed; without it the shard's :class:`~repro.runtime.CellError`
    propagates.
    """
    from .core.partition import (
        merge_shard_results,
        plan_shards,
        shard_exact_output,
        shard_input_counts,
        shard_weights,
    )
    from .runtime import CellError, RetryPolicy, ShardCell, parallel_map, run_shard_cell

    if spec.source is not None:
        if pair is not None:
            raise ValueError("pass either spec.source or pair=, not both")
        length = (
            spec.duration if spec.duration is not None else spec.source.length
        )
        if length is None:
            raise ValueError(
                "a sharded run over an unbounded source needs duration=N "
                "(the merge reports a definite length)"
            )
    else:
        if pair is None:
            pair = build_pair(spec)
        length = len(pair)
    lossless = 2 * spec.window if spec.algorithm == "EXACT" else None
    weights = (
        shard_weights(pair, spec.shards)
        if spec.shard_weighted and lossless is None
        else None
    )
    plan = plan_shards(
        spec.memory, spec.shards, lossless_budget=lossless, weights=weights
    )

    retry = None
    if spec.max_retries or spec.timeout_s is not None:
        retry = RetryPolicy(max_retries=spec.max_retries, timeout_s=spec.timeout_s)

    supervised = (
        retry is not None or fault_plan is not None or spec.degrade
        or spec.telemetry
    )
    session = None
    teldir = None
    tmpdir = None
    cell_spec = spec
    attempts: list = []
    try:
        if spec.telemetry:
            from .obs.telemetry import TelemetrySession

            if spec.telemetry_dir is None:
                # Spools are a run-private channel unless the caller
                # wants to keep them (same policy as checkpoints).
                teldir = tempfile.TemporaryDirectory(prefix="repro-tel-")
            session = TelemetrySession(
                spec.telemetry_dir if teldir is None else teldir.name,
                heartbeat_every=spec.heartbeat_every,
            )
        try:
            if spec.checkpoint_every is not None and spec.checkpoint_dir is None:
                # Retries run in fresh worker processes; a run-private temp
                # directory is the simplest state channel between attempts.
                tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
                cell_spec = replace(spec, checkpoint_dir=tmpdir.name)
            cells = [
                ShardCell(cell_spec, pair, shard, budget)
                for shard, budget in enumerate(plan.budgets)
            ]
            results = parallel_map(
                run_shard_cell,
                cells,
                workers=workers,
                labels=[cell.label for cell in cells],
                retry=retry,
                fault_plan=fault_plan,
                return_errors=spec.degrade,
                attempts_out=attempts,
                telemetry=session,
            )
        finally:
            if tmpdir is not None:
                tmpdir.cleanup()

        lost = tuple(
            index for index, result in enumerate(results)
            if isinstance(result, CellError)
        )
        merge_kwargs: dict = {}
        if supervised:
            merge_kwargs["attempts"] = attempts
        if lost:
            merge_kwargs["lost"] = lost
            merge_kwargs["lost_inputs"] = [
                shard_input_counts(pair, shard, spec.shards) for shard in lost
            ]
            if spec.algorithm == "EXACT":
                merge_kwargs["lost_output"] = sum(
                    shard_exact_output(
                        pair, shard, spec.shards, spec.window,
                        count_from=spec.effective_warmup,
                    )
                    for shard in lost
                )
        timeline = None
        if session is not None:
            from .obs.spans import SPAN_DEGRADE, SPAN_MERGE

            if lost:
                session.spans.emit(
                    SPAN_DEGRADE, data={"lost": [int(s) for s in lost]}
                )
            session.spans.emit(
                SPAN_MERGE,
                data={"shards": plan.shards, "survivors": plan.shards - len(lost)},
            )
            timeline = session.merged_timeline()
    finally:
        if teldir is not None:
            teldir.cleanup()

    merged = merge_shard_results(
        results,
        plan,
        length=length,
        window=spec.window,
        memory=spec.effective_memory,
        warmup=spec.effective_warmup,
        **merge_kwargs,
    )
    merged.timeline = timeline
    return merged


def optimal_offline(spec: RunSpec, *, pair: Optional[StreamPair] = None) -> OptResult:
    """The spec's OPT/OPTV offline bound (Section 3.2 min-cost flow).

    ``spec.algorithm`` need not be "OPT" — any spec can ask for its
    offline bound; ``spec.variable`` picks OPT vs OPTV.
    """
    if pair is None:
        pair = build_pair(spec)
    return solve_opt(
        pair,
        spec.window,
        spec.memory,
        variable=bool(spec.variable),
        count_from=spec.effective_warmup,
        metrics=_registry_for(spec),
    )


def compare(
    specs: Sequence[Union[RunSpec, str]],
    *,
    pair: Optional[StreamPair] = None,
    workers: Optional[int] = None,
) -> dict:
    """Run several specs against one shared workload.

    ``specs`` may mix :class:`RunSpec` instances and plain algorithm
    names; names inherit every other field from the first full spec in
    the sequence (or the defaults).  The shared input is ``pair`` if
    given, else the first spec's workload.  Returns ``{label: result}``
    in input order; duplicate algorithms get ``#2``, ``#3``, ... labels.

    ``workers`` fans the specs out over worker processes (see
    :mod:`repro.runtime`); results are identical to the serial run in
    value and order.
    """
    from .runtime import SpecCell, parallel_map, resolve_workers, run_spec_cell

    if not specs:
        raise ValueError("compare() needs at least one spec")
    template = next(
        (spec for spec in specs if isinstance(spec, RunSpec)), RunSpec()
    )
    resolved = [
        spec
        if isinstance(spec, RunSpec)
        else replace(template, algorithm=spec, variable=None)
        for spec in specs
    ]
    if pair is None:
        pair = build_pair(resolved[0])

    labels: list[str] = []
    for spec in resolved:
        label = spec.algorithm
        suffix = 2
        while label in labels:
            label = f"{spec.algorithm}#{suffix}"
            suffix += 1
        labels.append(label)

    if resolve_workers(workers) <= 1:
        estimators = estimators_for(pair)
        return {
            label: run(spec, pair=pair, estimators=estimators)
            for label, spec in zip(labels, resolved)
        }

    cells = [SpecCell(spec, pair) for spec in resolved]
    outputs = parallel_map(
        run_spec_cell,
        cells,
        workers=workers,
        labels=[cell.label for cell in cells],
    )
    return dict(zip(labels, outputs))


def attribute_run(spec: RunSpec, *, pair: Optional[StreamPair] = None):
    """Run the spec with tracing on and attribute every lost output.

    Returns an :class:`~repro.obs.AttributionReport` whose ledger
    reconciles exactly with ``EXACT − observed`` output counts — the
    fast-CPU engine's shedding semantics make the decomposition exact,
    so only ``engine="fast"`` specs are accepted (the queue-fronted
    engines shed at the queue, outside the exact-replay model).
    """
    from .obs import attribute_trace
    from .streams.tuples import exact_join_size

    if spec.engine != "fast":
        raise ValueError(
            "attribute_run needs the fast-CPU engine (exact attribution "
            f"semantics); got engine={spec.engine!r}"
        )
    if spec.algorithm in ("OPT", "OPTV"):
        raise ValueError("attribute_run cannot trace the offline OPT bound")
    if pair is None:
        pair = build_pair(spec)
    traced = replace(spec, trace=True) if not spec.trace else spec
    result = run(traced, pair=pair)
    exact = exact_join_size(pair, spec.window, count_from=spec.effective_warmup)
    return attribute_trace(
        result.trace,
        pair,
        spec.window,
        warmup=spec.effective_warmup,
        policy=spec.algorithm,
        exact_output=exact,
        observed_output=result.output_count,
    )
