"""Fast-CPU integrated-model join engine (Section 2.1).

Simulates the paper's processing model: at every time unit one tuple
arrives on each stream, is joined against the resident tuples of the
other stream (plus its simultaneous counterpart), and is then offered to
the join memory, whose eviction policy may shed it or displace a
resident.  The engine produces the output counts the paper's figures
plot, plus the per-tuple survival records the Archive-metric needs and
the memory-share trace of Figure 8.

Timing within one tick ``t``
----------------------------
1. tuples with ``arrival <= t - w`` expire;
2. ``r(t)`` and ``s(t)`` arrive; the statistics module observes both
   arrivals (each live estimator once);
3. probes: ``r(t)`` matches resident S-tuples, ``s(t)`` matches resident
   R-tuples, and ``(r(t), s(t))`` is emitted if their keys agree (the
   flow graph's "top path" — a new tuple is *always* seen by the join);
4. admissions: first ``r(t)``, then ``s(t)``; a full memory asks the
   policy for a victim (``None`` = drop the newcomer).

Because probes precede admissions, a tuple evicted at time ``t`` has
already produced its matches with the time-``t`` arrivals; its survival
record therefore covers probe events ``arrival + 1 .. t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs import Timer, active_or_none
from ..obs.trace import (
    EVENT_ARRIVE,
    EVENT_JOIN_OUTPUT,
    REASON_SIMULTANEOUS,
    TraceEvent,
    tracing_or_none,
)
from ..streams.sources import PairSource, Source, as_source, bounded_events
from ..streams.tuples import JoinResultTuple, StreamPair
from .kernel import JoinKernel
from .memory import JoinMemory, TupleRecord
from .policies import SidePolicies, resolve_policy_spec
from .policies.base import EvictionPolicy, arrival_observers
from .results import (
    DROP_REJECTED,
    BaseRunResult,
    DropBreakdown,
    RunSummary,
    side_drop_counts,
)

#: Accepted policy specs: ``None`` / ``EvictionPolicy`` /
#: :class:`~repro.core.policies.SidePolicies` — see
#: :func:`repro.core.policies.resolve_policy_spec`.
PolicySpec = Union[None, EvictionPolicy, SidePolicies]


class CapacityExceededError(RuntimeError):
    """Raised when a policy-less (exact) run overflows its memory."""


def _as_schedule(schedule):
    """A memory/window schedule as ``t -> value``: callables pass
    through, sequences are indexed by tick."""
    if schedule is None or callable(schedule):
        return schedule
    return schedule.__getitem__


@dataclass
class EngineConfig:
    """Configuration of one engine run.

    Attributes
    ----------
    window:
        Window size ``w`` in time units.
    memory:
        Total memory budget ``M`` in tuples (the paper varies it as
        ``0.1w .. 1.5w``; ``2w`` guarantees the exact result).
    variable:
        Variable memory allocation (one shared pool; PROBV/RANDV/OPTV)
        instead of the fixed M/2 + M/2 split.
    warmup:
        Ticks before output counting starts; defaults to ``2 * window``
        (the paper's choice, so startup effects don't pollute counts).
    count_simultaneous:
        Count the always-produced pair ``(r(t), s(t))`` when keys match.
    materialize:
        Collect the actual post-warmup output pairs (costs memory; used
        by metrics and small-scale tests).
    track_shares:
        Record ``(t, resident R-tuples, resident S-tuples)`` each
        ``share_sample_every`` ticks (Figure 8).
    track_survival:
        Record per-tuple departure times (needed by the Archive-metric
        and by OPT cross-validation).
    memory_schedule:
        Optional time-varying budget: a callable ``t -> M(t)`` or a
        sequence indexed by tick.  ``memory`` is the initial budget; when
        the budget shrinks, the policy sheds its weakest residents (the
        paper, Section 3.3: PROB/LIFE "can easily deal with varying
        memory and window sizes").
    window_schedule:
        Optional time-varying window: a callable ``t -> w(t)`` or a
        sequence indexed by tick (the other half of the same Section 3.3
        claim).  ``window`` is the initial size.  At tick ``t`` tuples
        older than ``t - w(t)`` expire, i.e. a pair is in the join iff
        the earlier tuple is within the window *in force when the later
        one arrives*.  Survival tracking is unsupported in this mode
        (per-tuple lifetimes become schedule-dependent); LIFE's
        priorities use the initial window as its lifetime scale.
    metrics_sample_every:
        Tick cadence of the occupancy/memory-share series of an
        instrumented run, in every loop and lane; ``None`` picks
        ``max(1, window // 8)``.  Everything else is flushed into
        counters once at the end of the run, keeping the instrumented
        run within a few percent of the uninstrumented one.
    batch_size:
        Enable the columnar micro-batch fast path with this chunk size
        (``None``, the default, keeps the per-tuple loops).  Batching is
        *adaptive*: it engages only for configurations it can reproduce
        bit-identically at chunk granularity — the EXACT count-only
        lane (no policy, lossless budget) and the vectorized policy
        lanes for RAND, PROB, and LIFE with static probability tables
        (fixed or variable allocation) — and silently falls back to the
        per-tuple loops whenever a tracer, schedule, validation hook,
        arrival observer (online estimators), or an uncovered policy
        (ARM, FIFO) needs tuple granularity.  Results are bit-identical
        either way.
    force_general:
        Route a pair run through the kernel-driven tick loop even when
        the fast loop would apply (benchmarking only: lets overhead
        comparisons pin both sides to the same execution lane).
    validate:
        Run per-tick invariant checks (tests only; slow).
    """

    window: int
    memory: int
    variable: bool = False
    warmup: Optional[int] = None
    count_simultaneous: bool = True
    materialize: bool = False
    track_shares: bool = False
    share_sample_every: int = 1
    track_survival: bool = True
    memory_schedule: Optional[object] = None
    window_schedule: Optional[object] = None
    metrics_sample_every: Optional[int] = None
    batch_size: Optional[int] = None
    force_general: bool = False
    validate: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.warmup is None:
            self.warmup = 2 * self.window
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")
        if self.share_sample_every <= 0:
            raise ValueError("share_sample_every must be positive")
        if self.metrics_sample_every is not None and self.metrics_sample_every <= 0:
            raise ValueError("metrics_sample_every must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window_schedule is not None and self.track_survival:
            raise ValueError(
                "track_survival is not supported with a window_schedule "
                "(per-tuple lifetimes become schedule-dependent)"
            )


@dataclass
class RunResult(BaseRunResult):
    """Everything one engine run produces.

    ``output_count`` is the post-warmup output size — the quantity every
    figure of the paper plots.  ``r_departures[i]`` / ``s_departures[i]``
    give the last probe-event time the tuple arriving at ``i`` was present
    for (see module docstring); ``None`` when survival tracking is off.
    ``metrics`` is the attached observability snapshot when the engine
    ran with a :class:`~repro.obs.MetricsRegistry`.
    """

    output_count: int
    total_output_count: int
    length: int
    window: int
    memory: int
    warmup: int
    policy_name: str
    pairs: Optional[list[JoinResultTuple]] = None
    r_departures: Optional[list[int]] = None
    s_departures: Optional[list[int]] = None
    shares: Optional[list[tuple[int, int, int]]] = None
    drop_counts: dict = field(default_factory=dict)
    metrics: Optional[dict] = None
    trace: Optional[list] = None

    engine_kind = "fast"

    def drop_breakdown(self) -> DropBreakdown:
        return DropBreakdown.from_side_counts(self.drop_counts)

    def share_fraction_r(self) -> list[tuple[int, float]]:
        """Fraction of resident tuples belonging to R over time."""
        if self.shares is None:
            raise ValueError("run was not configured with track_shares")
        return [
            (t, (r / (r + s)) if (r + s) else 0.5) for t, r, s in self.shares
        ]


class JoinEngine:
    """Drives one sliding-window join run under a shedding policy.

    Parameters
    ----------
    config:
        Run configuration.
    policy:
        * ``None`` — no shedding; the memory must never overflow (use
          ``memory >= 2 * window`` — the EXACT reference);
        * a single :class:`EvictionPolicy` — governs the shared pool
          (requires ``config.variable``);
        * :class:`~repro.core.policies.SidePolicies` — one independent
          policy per side (requires fixed allocation).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        run records probe/admission/drop counters, sampled occupancy
        and memory-share series, and the run's wall-clock time, and the
        snapshot is attached to the result.  ``None`` (the default)
        keeps the hot path uninstrumented.
    trace:
        Optional :class:`~repro.obs.trace.Tracer`; when given, the run
        emits the full per-tuple event lifecycle (arrive / admit /
        evict / expire / join_output / drop) into the tracer's sink and
        the buffered events (if the sink retains them) are attached to
        the result.  ``None`` (the default) keeps tracing entirely off
        the hot path.
    """

    def __init__(
        self,
        config: EngineConfig,
        policy: PolicySpec = None,
        *,
        metrics=None,
        trace=None,
    ) -> None:
        self.config = config
        self.memory = JoinMemory(config.memory, variable=config.variable)
        self.metrics = metrics
        self.trace = trace
        self._kernel = None  # live only while the kernel loop executes

        resolved = resolve_policy_spec(policy, self.memory, variable=config.variable)
        self._policy_r = resolved.r
        self._policy_s = resolved.s
        self._policies = resolved.instances
        # Only policies that actually override observe_arrival (and have
        # not declared themselves uninterested via `observes_arrivals`)
        # are called per tick, and a fixed-allocation pair reading one
        # estimator mapping is called once.
        self._observers = arrival_observers(resolved.instances)
        if resolved.name == "NONE":
            self.policy_name = "EXACT" if config.memory >= 2 * config.window else "NONE"
        else:
            self.policy_name = resolved.name

    # ------------------------------------------------------------------
    def run(self, pair: StreamPair) -> RunResult:
        """Process a finite stream pair and return the run's results.

        Implemented as ``run_stream(PairSource(pair))``: the pair is one
        particular source, and :meth:`run_stream` routes a plain
        ``PairSource`` with no streaming options to the pair path
        (:meth:`_run_pair`), which adds survival records and the other
        per-arrival features — a regression test pins the two paths to
        each other.
        """
        return self.run_stream(PairSource(pair))

    # ------------------------------------------------------------------
    def run_stream(
        self,
        source: Union[Source, StreamPair],
        *,
        until: Optional[int] = None,
        emit=None,
        on_summary=None,
        on_summary_every: Optional[int] = None,
        stop=None,
    ) -> RunResult:
        """Consume a pull-based source and return the run's results.

        ``source`` is anything satisfying the
        :class:`~repro.streams.sources.Source` protocol (or a
        :class:`StreamPair`, adapted automatically).  A plain
        :class:`~repro.streams.sources.PairSource` with none of the
        streaming options takes the pair path (:meth:`_run_pair`);
        everything else runs the *incremental* path, whose working state
        is bounded by the window/memory budget — never by stream length
        — so unbounded sources are safe.

        Parameters
        ----------
        until:
            Process at most this many ticks (required, together with
            ``stop``, for unbounded sources).
        emit:
            Join-result sink: ``emit(JoinResultTuple)`` is called for
            every post-warmup output pair instead of materializing an
            output list.
        on_summary / on_summary_every:
            Rolling progress: ``on_summary(summary)`` receives an
            engine-agnostic :class:`~repro.core.results.RunSummary` of
            the counters so far after every ``on_summary_every`` ticks
            (default 4096 when only the callback is given).
        stop:
            Cooperative shutdown: a ``() -> bool`` callable polled each
            tick; a truthy return ends the run cleanly (``repro serve``
            wires SIGINT here).

        The incremental path keeps the synchronous tick semantics,
        generalized to per-tick batches: expiry, then all probes of the
        tick (against resident state, plus the same-tick cross pairs the
        top path contributes), then admissions R-batch-first.  Survival
        tracking and the pair-only features (``materialize``,
        ``track_shares``, schedules) are unsupported here — they hold
        per-arrival state, which an unbounded stream forbids.

        A unit-rate source reaches a columnar lane only when
        ``config.batch_size`` is set and no ``emit``, ``on_summary``,
        metrics, tracer or ``validate`` is active (``stop`` is fine);
        the policy lanes also need frozen static tables, so live
        estimators take the kernel loop.  That is why RAND, which needs
        no estimator, still runs per tick under ``repro serve`` — it
        always passes ``on_summary`` (and ``stop``) — and on a source
        run without ``batch_size``.
        """
        source = as_source(source)
        if until is not None and until < 0:
            raise ValueError(f"until must be non-negative, got {until}")
        if on_summary_every is not None and on_summary_every <= 0:
            raise ValueError(
                f"on_summary_every must be positive, got {on_summary_every}"
            )
        streaming = (
            until is not None
            or emit is not None
            or on_summary is not None
            or stop is not None
        )
        if isinstance(source, PairSource) and not streaming:
            return self._run_pair(source.pair)

        config = self.config
        unsupported = [
            name
            for name, active in (
                ("materialize", config.materialize),
                ("track_shares", config.track_shares),
                ("memory_schedule", config.memory_schedule is not None),
                ("window_schedule", config.window_schedule is not None),
            )
            if active
        ]
        if unsupported:
            raise ValueError(
                f"{', '.join(unsupported)} not supported on the incremental "
                "source path (they hold per-arrival state); run the "
                "materialized pair path instead"
            )
        if source.length is None and until is None and stop is None:
            raise ValueError(
                "unbounded source: pass until= and/or stop= to bound the run"
            )
        stride = on_summary_every or 4096

        obs = active_or_none(self.metrics)
        tracer = tracing_or_none(self.trace)
        if (
            obs is None
            and tracer is None
            and emit is None
            and not config.validate
            and self._policy_r is None
            and self._policy_s is None
            and not self._observers
        ):
            return self._run_exact_stream(source, until, stop, on_summary, stride)
        if (
            obs is None
            and tracer is None
            and emit is None
            and on_summary is None
            and not config.validate
            and config.batch_size is not None
            and getattr(source, "unit_rate", False)
        ):
            kind = self._policy_lane_kind()
            if kind is not None:
                return self._run_policy_batched(
                    self._chunks_from_source(source, until, stop, config.batch_size),
                    kind,
                )
        return self._run_kernel(
            source,
            obs,
            tracer,
            until=until,
            emit=emit,
            on_summary=on_summary,
            stride=stride,
            stop=stop,
        )

    # ------------------------------------------------------------------
    def _run_pair(self, pair: StreamPair) -> RunResult:
        """The materialized pair path (see :meth:`run`).

        Dispatches to one of two loops with identical semantics (a
        regression test pins them to each other):

        * the *fast loop* (:meth:`_run_fast`) — the throughput path,
          with probes and admissions inlined, counters batched into
          plain ints, and (if a metrics registry is attached)
          instrumentation reduced to end-of-run flushes plus sampled
          occupancy series;
        * the *kernel loop* (:meth:`_run_kernel`, the same loop the
          source path runs) — tracing, time-varying budgets/windows,
          result materialisation, share tracking, and per-tick
          invariant checks all run here.

        With ``config.batch_size`` set, eligible configurations take the
        *columnar batched lanes* instead (:meth:`_run_exact_batched` for
        policy-less lossless runs, :meth:`_run_policy_batched` for
        RAND/PROB/LIFE with static probability tables); see
        :attr:`EngineConfig.batch_size` for the fallback matrix.
        """
        config = self.config
        obs = active_or_none(self.metrics)
        tracer = tracing_or_none(self.trace)
        if (
            tracer is None
            and config.memory_schedule is None
            and config.window_schedule is None
            and not config.materialize
            and not config.track_shares
            and not config.validate
            and not config.force_general
        ):
            if config.batch_size is not None:
                if (
                    self._policy_r is None
                    and self._policy_s is None
                    and not self._observers
                    and self.memory.capacity >= 2 * config.window
                ):
                    return self._run_exact_batched(pair, obs)
                kind = self._policy_lane_kind()
                if kind is not None:
                    from ..streams.batches import encode_chunks

                    return self._run_policy_batched(
                        encode_chunks(pair, config.batch_size),
                        kind,
                        length=len(pair),
                        obs=obs,
                    )
            return self._run_fast(pair, obs)
        return self._run_kernel(PairSource(pair), obs, tracer, pair_length=len(pair))

    # ------------------------------------------------------------------
    def _run_fast(self, pair: StreamPair, obs) -> RunResult:
        """The inlined hot loop (see :meth:`run`).

        Every per-tick attribute lookup is hoisted into a local, probes
        read the per-key alive counters directly, admissions are inlined
        (including the eviction contest), and drop tallies are plain
        ints flushed into the result's ledger once at the end.
        """
        config = self.config
        memory = self.memory
        window = config.window
        warmup = config.warmup
        assert warmup is not None

        length = len(pair)
        r_keys = pair.r
        s_keys = pair.s

        track_survival = config.track_survival
        r_departures: Optional[list[int]] = [0] * length if track_survival else None
        s_departures: Optional[list[int]] = [0] * length if track_survival else None

        mem_r = memory.r
        mem_s = memory.s
        r_slots = mem_r._slots
        s_slots = mem_s._slots
        r_counts = mem_r._key_counts
        s_counts = mem_s._key_counts
        r_by_arrival = mem_r._by_arrival
        s_by_arrival = mem_s._by_arrival
        r_add = mem_r.add
        s_add = mem_s.add
        r_expire = mem_r.expire_until
        s_expire = mem_s.expire_until

        policy_r = self._policy_r
        policy_s = self._policy_s
        observers = self._observers
        variable = memory.variable
        capacity = memory.capacity
        half = capacity // 2
        count_sim = config.count_simultaneous

        output = 0
        total_output = 0
        simultaneous_total = 0
        rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0

        timed = obs is not None
        if timed:
            run_timer = Timer()
            run_timer.start()
            sample, sample_every = self._occupancy_sampler(obs)
        else:
            sample_every = 0

        for t in range(length):
            # 1. expiry ------------------------------------------------
            horizon = t - window
            if r_by_arrival and r_by_arrival[0].arrival <= horizon:
                for record in r_expire(horizon):
                    exp_r += 1
                    if policy_r is not None:
                        policy_r.on_remove(record, t, expired=True)
                    if track_survival:
                        r_departures[record.arrival] = record.arrival + window - 1
            if s_by_arrival and s_by_arrival[0].arrival <= horizon:
                for record in s_expire(horizon):
                    exp_s += 1
                    if policy_s is not None:
                        policy_s.on_remove(record, t, expired=True)
                    if track_survival:
                        s_departures[record.arrival] = record.arrival + window - 1

            r_key = r_keys[t]
            s_key = s_keys[t]

            # 2. statistics hooks --------------------------------------
            for policy in observers:
                policy.observe_arrival("R", r_key, t)
                policy.observe_arrival("S", s_key, t)

            # 3. probes ------------------------------------------------
            matched = s_counts.get(r_key, 0) + r_counts.get(s_key, 0)
            if count_sim and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # 4. admissions: R first, then S ---------------------------
            record = TupleRecord("R", t, r_key)
            if (
                (len(r_slots) + len(s_slots) < capacity)
                if variable
                else (len(r_slots) < half)
            ):
                r_add(record)
                if policy_r is not None:
                    policy_r.on_admit(record, t)
            elif policy_r is None:
                raise CapacityExceededError(
                    f"memory overflow at t={t} with no shedding policy "
                    f"(capacity {config.memory}, window {config.window})"
                )
            else:
                victim = policy_r.choose_victim(record, t)
                if victim is None:
                    rej_r += 1
                    if track_survival:
                        r_departures[t] = t
                else:
                    if not victim.alive:
                        raise RuntimeError(
                            f"policy {policy_r.name} returned a non-resident "
                            f"victim {victim!r}"
                        )
                    if victim.stream == "R":
                        mem_r.remove(victim)
                        ev_r += 1
                        policy_r.on_remove(victim, t, expired=False)
                        if track_survival:
                            r_departures[victim.arrival] = t
                    else:
                        mem_s.remove(victim)
                        ev_s += 1
                        policy_s.on_remove(victim, t, expired=False)
                        if track_survival:
                            s_departures[victim.arrival] = t
                    r_add(record)
                    policy_r.on_admit(record, t)

            record = TupleRecord("S", t, s_key)
            if (
                (len(r_slots) + len(s_slots) < capacity)
                if variable
                else (len(s_slots) < half)
            ):
                s_add(record)
                if policy_s is not None:
                    policy_s.on_admit(record, t)
            elif policy_s is None:
                raise CapacityExceededError(
                    f"memory overflow at t={t} with no shedding policy "
                    f"(capacity {config.memory}, window {config.window})"
                )
            else:
                victim = policy_s.choose_victim(record, t)
                if victim is None:
                    rej_s += 1
                    if track_survival:
                        s_departures[t] = t
                else:
                    if not victim.alive:
                        raise RuntimeError(
                            f"policy {policy_s.name} returned a non-resident "
                            f"victim {victim!r}"
                        )
                    if victim.stream == "R":
                        mem_r.remove(victim)
                        ev_r += 1
                        policy_r.on_remove(victim, t, expired=False)
                        if track_survival:
                            r_departures[victim.arrival] = t
                    else:
                        mem_s.remove(victim)
                        ev_s += 1
                        policy_s.on_remove(victim, t, expired=False)
                        if track_survival:
                            s_departures[victim.arrival] = t
                    s_add(record)
                    policy_s.on_admit(record, t)

            if sample_every and not t % sample_every:
                sample(t, len(r_slots), len(s_slots))

        # Tuples still resident at stream end would have served their
        # full window; record the counterfactual natural departure.
        if track_survival:
            for side in (mem_r, mem_s):
                for record in side.records():
                    self._set_departure(
                        r_departures, s_departures, record, record.arrival + window - 1
                    )

        drop_counts = side_drop_counts(
            rejected=(rej_r, rej_s), evicted=(ev_r, ev_s), expired=(exp_r, exp_s)
        )
        snapshot = None
        if timed:
            snapshot = self._finish_metrics(
                obs, run_timer, (length, length), total_output,
                simultaneous_total, output, drop_counts,
            )
        return self._result(
            output, total_output, length, drop_counts,
            r_departures=r_departures, s_departures=s_departures, metrics=snapshot,
        )

    # ------------------------------------------------------------------
    def _run_exact_batched(self, pair: StreamPair, obs) -> RunResult:
        """The columnar EXACT count lane (see :meth:`run`).

        Replaces per-match iteration with dictionary count arithmetic
        over struct-of-arrays chunks (:mod:`repro.core.batched`).  Only
        dispatched when the run is provably lossless (no policy,
        ``capacity >= 2 * window``), which makes every result field
        analytic: drop ledger, survival records, and occupancy series
        are synthesised in closed form and match the per-tuple loop
        bit for bit.
        """
        from ..streams.batches import encode_chunks
        from .batched import exact_chunk_counts

        config = self.config
        window = config.window
        length = len(pair)

        timed = obs is not None
        if timed:
            run_timer = Timer()
            run_timer.start()

        output, total_output, simultaneous_total, _ = exact_chunk_counts(
            encode_chunks(pair, config.batch_size),
            window,
            config.warmup,
            count_simultaneous=config.count_simultaneous,
        )

        # EXACT never rejects or evicts; each side expires exactly the
        # arrivals older than the final window.
        expired = max(0, length - window)
        drop_counts = side_drop_counts(expired=(expired, expired))
        # Every tuple serves its full window: natural departure at
        # arrival + w - 1, for the expired and the end-resident alike.
        r_departures = s_departures = None
        if config.track_survival:
            r_departures = [arrival + window - 1 for arrival in range(length)]
            s_departures = list(r_departures)

        snapshot = None
        if timed:
            # After tick t's admissions each side holds min(t+1, window)
            # residents — the same samples the per-tuple loop records.
            sample, sample_every = self._occupancy_sampler(obs)
            for t in range(0, length, sample_every):
                size = min(t + 1, window)
                sample(t, size, size)
            resident = min(length, window)
            snapshot = self._finish_metrics(
                obs, run_timer, (length, length), total_output,
                simultaneous_total, output, drop_counts,
                final_occupancy=(resident, resident),
            )
        return self._result(
            output, total_output, length, drop_counts,
            r_departures=r_departures, s_departures=s_departures, metrics=snapshot,
        )

    # ------------------------------------------------------------------
    def _policy_lane_kind(self) -> Optional[str]:
        """Which vectorized policy lane covers this engine's wiring.

        ``None`` means the per-tuple loops must run (uncovered policy
        type, online estimators, arrival observers, …); see
        :func:`repro.core.batched.lane_kind_for_policies`.
        """
        from .batched import lane_kind_for_policies

        return lane_kind_for_policies(
            self._policy_r,
            self._policy_s,
            variable=self.memory.variable,
            observers=self._observers,
        )

    # ------------------------------------------------------------------
    def _run_policy_batched(
        self, chunks, kind: str, *, length: Optional[int] = None, obs=None
    ) -> RunResult:
        """The columnar policy lanes (see :meth:`run` and :meth:`run_stream`).

        RAND/PROB/LIFE runs with static probability tables collapse to
        flat per-chunk state (count dicts, key rings, priority heaps,
        per-key aggregate cells) — no :class:`TupleRecord` allocation,
        no policy method dispatch — fed the policies' own state: RAND's
        generators, PROB/LIFE's static partner-probability tables (see
        :mod:`repro.core.batched_policies`).  Output, drop ledger,
        survival departures, and metrics are bit-identical to
        :meth:`_run_fast`; ``benchmarks/bench_policy_batch.py`` pins the
        contract.

        ``chunks`` is ``encode_chunks(pair, …)`` on the pair path, which
        passes the pair's ``length`` (survival records) and its metrics
        registry ``obs`` (occupancy sampling), or
        :meth:`_chunks_from_source` for a unit-rate source, whose
        working state stays ``O(window + batch_size)``.
        """
        from .batched import life_chunk_run, prob_chunk_run, rand_chunk_run

        config = self.config
        memory = self.memory
        window = config.window

        r_departures = s_departures = None
        if length is not None and config.track_survival:
            # Natural departures cover the expired and the end-resident;
            # the lane overwrites only the rejected (t) and the evicted
            # (eviction tick) — same arrays the per-tuple loop builds.
            r_departures = [arrival + window - 1 for arrival in range(length)]
            s_departures = list(r_departures)

        sampler = None
        sample_every = 0
        if obs is not None:
            run_timer = Timer()
            run_timer.start()
            sampler, sample_every = self._occupancy_sampler(obs)

        common = dict(
            capacity=memory.capacity,
            variable=memory.variable,
            count_simultaneous=config.count_simultaneous,
            r_departures=r_departures,
            s_departures=s_departures,
            sampler=sampler,
            sample_every=sample_every,
        )
        if kind == "rand":
            totals = rand_chunk_run(
                chunks,
                window,
                config.warmup,
                rng_r=self._policy_r._rng,
                rng_s=None if memory.variable else self._policy_s._rng,
                **common,
            )
        else:
            # A shared pool wires one instance to both sides, so each
            # side's table comes from its own policy either way.
            lane = prob_chunk_run if kind == "prob" else life_chunk_run
            totals = lane(
                chunks,
                window,
                config.warmup,
                probs_r=self._policy_r._partner_probs["R"],
                probs_s=self._policy_s._partner_probs["S"],
                **common,
            )

        drop_counts = side_drop_counts(
            rejected=(totals.rej_r, totals.rej_s),
            evicted=(totals.ev_r, totals.ev_s),
            expired=(totals.exp_r, totals.exp_s),
        )
        snapshot = None
        if obs is not None:
            snapshot = self._finish_metrics(
                obs, run_timer, (totals.length, totals.length),
                totals.total_output, totals.simultaneous_total, totals.output,
                drop_counts, final_occupancy=(totals.r_size, totals.s_size),
            )
        return self._result(
            totals.output, totals.total_output, totals.length, drop_counts,
            r_departures=r_departures, s_departures=s_departures, metrics=snapshot,
        )

    # ------------------------------------------------------------------
    def _chunks_from_source(self, source, until, stop, batch_size):
        """Re-chunk a unit-rate source into :class:`StreamChunk` columns.

        Bounds the ticks by ``until``/``stop`` exactly as
        :meth:`_run_kernel` does and emits a chunk every ``batch_size``
        ticks plus the remainder.
        """
        from ..streams.batches import StreamChunk, _encode_column

        buf_r: list = []
        buf_s: list = []
        start = 0
        for r_batch, s_batch in bounded_events(iter(source), until, stop):
            buf_r.append(r_batch[0])
            buf_s.append(s_batch[0])
            if len(buf_r) >= batch_size:
                yield StreamChunk(start, _encode_column(buf_r), _encode_column(buf_s))
                start += len(buf_r)
                buf_r = []
                buf_s = []
        if buf_r:
            yield StreamChunk(start, _encode_column(buf_r), _encode_column(buf_s))

    # ------------------------------------------------------------------
    def _run_exact_stream(
        self, source, until, stop, on_summary, stride
    ) -> RunResult:
        """The count-only EXACT lane of the incremental path.

        Policy-less, uninstrumented source runs reduce to the dictionary
        count arithmetic of :func:`repro.core.batched.exact_stream_counts`
        — bounded working state, no record allocation.  This is what
        ``make soak`` drives for millions of ticks.
        """
        from .batched import exact_stream_counts

        config = self.config

        on_progress = None
        if on_summary is not None:
            policy_name = self.policy_name

            def on_progress(t, output, total_output, arrivals, exp_r, exp_s):
                on_summary(RunSummary(
                    engine="fast",
                    policy_name=policy_name,
                    output_count=output,
                    drops=DropBreakdown(expired=exp_r + exp_s),
                ))

        output, total_output, _, expired_r, expired_s, ticks = exact_stream_counts(
            iter(source),
            config.window,
            config.warmup,
            capacity=self.memory.capacity,
            variable=self.memory.variable,
            count_simultaneous=config.count_simultaneous,
            overflow_error=CapacityExceededError,
            until=until,
            stop=stop,
            on_progress=on_progress,
            progress_every=stride if on_summary is not None else 0,
        )
        return self._result(
            output, total_output, ticks,
            side_drop_counts(expired=(expired_r, expired_s)),
        )

    # ------------------------------------------------------------------
    def _run_kernel(
        self,
        source,
        obs,
        tracer,
        *,
        pair_length: Optional[int] = None,
        until: Optional[int] = None,
        emit=None,
        on_summary=None,
        stride: int = 4096,
        stop=None,
    ) -> RunResult:
        """The kernel-driven tick loop of both the pair and source paths.

        Synchronous tick semantics generalized to arrival batches: per
        tick — expire, observe both batches, probe *both* batches
        against resident state plus the same-tick cross pairs (the top
        path: a new tuple is always seen by the join), then admit the R
        batch and the S batch through the kernel's eviction contests.
        On one-arrival-per-side ticks this is exactly the per-tick body
        of :meth:`_run_fast`.  Expiry, probes, admissions, and all their
        drop/notify/trace bookkeeping run through a
        :class:`~repro.core.kernel.JoinKernel`; the loop keeps only what
        is engine-specific.

        ``pair_length`` marks a run over a finite pair (:meth:`_run_pair`)
        and enables the features that hold per-arrival state: survival
        records, materialisation (an ``emit`` into the result's
        ``pairs``), share tracking, and the time-varying memory/window
        schedules.  Without it, output pairs go to ``emit``, progress
        goes to ``on_summary``, and the only growing structure is the
        (sampled) metrics series of an instrumented run.
        """
        config = self.config
        memory = self.memory
        window = config.window
        warmup = config.warmup
        assert warmup is not None
        count_sim = config.count_simultaneous
        validate = config.validate

        kernel = JoinKernel(
            memory,
            self._policy_r,
            self._policy_s,
            tracer=tracer,
            overflow_error=CapacityExceededError,
        )
        self._kernel = kernel
        drop_counts = kernel.drop_counts
        expire = kernel.expire
        observe_batch = kernel.observe_batch
        probe_batch = kernel.probe_batch
        insert = kernel.insert
        tracing = tracer is not None
        mem_r = memory.r
        mem_s = memory.s

        r_departures = s_departures = None
        pairs = shares = schedule = window_schedule = None
        if pair_length is not None:
            if config.track_survival:
                r_departures = [0] * pair_length
                s_departures = [0] * pair_length
            if config.materialize:
                pairs = []
                emit = pairs.append
            if config.track_shares:
                shares = []
            schedule = _as_schedule(config.memory_schedule)
            window_schedule = _as_schedule(config.window_schedule)
        survival = r_departures is not None
        set_departure = self._set_departure

        timed = obs is not None
        if timed:
            run_timer = Timer()
            run_timer.start()
            sample, sample_every = self._occupancy_sampler(obs)
        else:
            sample_every = 0

        output = 0
        total_output = 0
        simultaneous_total = 0
        arrivals_r = 0
        arrivals_s = 0

        t = -1
        for t, (r_batch, s_batch) in enumerate(
            bounded_events(iter(source), until, stop)
        ):
            # 0. budget / window change (time-varying resources) --------
            if schedule is not None:
                target = int(schedule(t))
                if target != memory.capacity:
                    memory.resize(target)
                    # Budget victims were last present for the previous
                    # tick's probes, so their record ends at t - 1.
                    for victim in kernel.shed_surplus(t):
                        if survival:
                            set_departure(r_departures, s_departures, victim, t - 1)
            if window_schedule is not None:
                window = int(window_schedule(t))
                if window <= 0:
                    raise ValueError(f"window schedule produced {window} at t={t}")

            # 1. expiry ------------------------------------------------
            expired = expire(t - window, t)
            if survival:
                for record in expired:
                    set_departure(
                        r_departures, s_departures, record, record.arrival + window - 1
                    )

            # 2. statistics hooks --------------------------------------
            arrivals_r += len(r_batch)
            arrivals_s += len(s_batch)
            observe_batch("R", r_batch, t)
            observe_batch("S", s_batch, t)
            if tracing:
                for key in r_batch:
                    tracer.emit(TraceEvent(t, "R", key, EVENT_ARRIVE, t))
                for key in s_batch:
                    tracer.emit(TraceEvent(t, "S", key, EVENT_ARRIVE, t))

            # 3. probes (before any same-tick admission) ---------------
            matches = probe_batch("R", r_batch, t) + probe_batch("S", s_batch, t)
            cross = 0
            if count_sim and r_batch and s_batch:
                if len(r_batch) == 1 and len(s_batch) == 1:
                    cross = 1 if r_batch[0] == s_batch[0] else 0
                else:
                    tick_counts: dict = {}
                    for key in r_batch:
                        tick_counts[key] = tick_counts.get(key, 0) + 1
                    cross = sum(tick_counts.get(key, 0) for key in s_batch)
                simultaneous_total += cross
            total_output += matches + cross
            if t >= warmup:
                output += matches + cross
                if emit is not None:
                    for key in r_batch:
                        for partner in mem_s.matches(key):
                            emit(JoinResultTuple(t, partner.arrival, key))
                    for key in s_batch:
                        for partner in mem_r.matches(key):
                            emit(JoinResultTuple(partner.arrival, t, key))
                    if cross:
                        for key in s_batch:
                            for r_key in r_batch:
                                if r_key == key:
                                    emit(JoinResultTuple(t, t, key))
            if tracing and cross:
                # The kernel credited the resident partners; the
                # same-tick pairs have none, so the engine emits them.
                for key in s_batch:
                    for r_key in r_batch:
                        if r_key == key:
                            tracer.emit(TraceEvent(
                                t, "R", key, EVENT_JOIN_OUTPUT, t,
                                None, REASON_SIMULTANEOUS,
                            ))

            # 4. admissions: R batch first, then S ---------------------
            if survival:
                for stream, batch in (("R", r_batch), ("S", s_batch)):
                    for key in batch:
                        record = TupleRecord(stream, t, key)
                        admitted, victim = insert(record, t)
                        if not admitted:
                            # A rejected tuple was only present for its
                            # own arrival's probes.
                            set_departure(r_departures, s_departures, record, t)
                        elif victim is not None:
                            set_departure(r_departures, s_departures, victim, t)
            else:
                for key in r_batch:
                    insert(TupleRecord("R", t, key), t)
                for key in s_batch:
                    insert(TupleRecord("S", t, key), t)

            if shares is not None and t % config.share_sample_every == 0:
                shares.append((t, mem_r.size, mem_s.size))
            if sample_every and not t % sample_every:
                sample(t, mem_r.size, mem_s.size)
            if validate:
                self._check_invariants(t, window)

            if on_summary is not None and (t + 1) % stride == 0:
                on_summary(RunSummary(
                    engine="fast",
                    policy_name=self.policy_name,
                    output_count=output,
                    drops=DropBreakdown.from_side_counts(drop_counts),
                ))

        # Tuples still resident at stream end would have served their full
        # window; record the counterfactual natural departure.
        if survival:
            for side in (mem_r, mem_s):
                for record in side.records():
                    set_departure(
                        r_departures, s_departures, record, record.arrival + window - 1
                    )

        snapshot = None
        if timed:
            snapshot = self._finish_metrics(
                obs, run_timer, (arrivals_r, arrivals_s), total_output,
                simultaneous_total, output, drop_counts,
            )
        trace_events = tracer.collect() if tracing else None
        self._kernel = None

        return self._result(
            output, total_output, t + 1, drop_counts,
            window=window,
            pairs=pairs,
            r_departures=r_departures,
            s_departures=s_departures,
            shares=shares,
            metrics=snapshot,
            trace=trace_events,
        )

    # ------------------------------------------------------------------
    def _result(
        self, output: int, total_output: int, length: int, drop_counts: dict,
        *, window: Optional[int] = None, **detail,
    ) -> RunResult:
        """Assemble a :class:`RunResult`; ``window`` overrides the
        configured one (a window schedule ends on its last value) and
        ``detail`` fills the optional fields (``pairs``, departures,
        ``shares``, ``metrics``, ``trace``)."""
        config = self.config
        return RunResult(
            output_count=output,
            total_output_count=total_output,
            length=length,
            window=config.window if window is None else window,
            memory=config.memory,
            warmup=config.warmup,
            policy_name=self.policy_name,
            drop_counts=drop_counts,
            **detail,
        )

    def _occupancy_sampler(self, obs):
        """``(sample, every)``: ``sample(t, r_size, s_size)`` appends one
        point to the occupancy and R-share series, which every loop
        calls each ``every`` ticks (``metrics_sample_every``)."""
        occupancy_r = obs.series("engine.occupancy", side="R")
        occupancy_s = obs.series("engine.occupancy", side="S")
        share_series = obs.series("engine.memory_share", side="R")

        def sample(t, r_size, s_size):
            occupancy_r.append(t, r_size)
            occupancy_s.append(t, s_size)
            total = r_size + s_size
            share_series.append(t, (r_size / total) if total else 0.5)

        config = self.config
        return sample, config.metrics_sample_every or max(1, config.window // 8)

    def _finish_metrics(
        self,
        obs,
        run_timer: Timer,
        arrivals: tuple,
        total_output: int,
        simultaneous_total: int,
        output: int,
        drop_counts: dict,
        *,
        final_occupancy: Optional[tuple] = None,
    ) -> dict:
        """End-of-run counter/gauge flush shared by every loop; returns
        the registry snapshot.

        ``arrivals`` is the ``(R, S)`` arrival count.
        ``final_occupancy`` overrides the end-of-run ``(R, S)`` gauge
        for lanes that never populate the join memory (the count-only
        EXACT lane computes residency analytically, the policy lanes
        track it themselves).
        """
        run_timer.stop()
        obs.counter("engine.probes").inc(arrivals[0] + arrivals[1])
        obs.counter("engine.matches").inc(total_output)
        obs.counter("engine.simultaneous").inc(simultaneous_total)
        obs.counter("engine.output").inc(output)
        for index, side in enumerate(("R", "S")):
            arrived = arrivals[index]
            obs.counter("engine.arrivals", side=side).inc(arrived)
            obs.counter("engine.admissions", side=side).inc(
                arrived - drop_counts[side][DROP_REJECTED]
            )
            for reason, count in drop_counts[side].items():
                obs.counter("engine.drops", side=side, reason=reason).inc(count)
            if final_occupancy is None:
                occupancy = self.memory.side(side).size
            else:
                occupancy = final_occupancy[index]
            obs.gauge("engine.final_occupancy", side=side).set(occupancy)
        obs.record_phase("engine/run", run_timer.seconds)
        return obs.snapshot()

    # ------------------------------------------------------------------
    @staticmethod
    def _set_departure(
        r_departures: Optional[list[int]],
        s_departures: Optional[list[int]],
        record: TupleRecord,
        departure: int,
    ) -> None:
        target = r_departures if record.stream == "R" else s_departures
        if target is not None:
            target[record.arrival] = departure

    def _check_invariants(self, now: int, window: int) -> None:
        """Per-tick structural checks (``validate``); ``window`` is the
        window in force at ``now``, which a schedule may have moved."""
        memory = self.memory
        if memory.variable:
            if memory.total_size > memory.capacity:
                raise AssertionError(
                    f"t={now}: pool holds {memory.total_size} > M={memory.capacity}"
                )
        else:
            half = memory.capacity // 2
            if memory.r.size > half or memory.s.size > half:
                raise AssertionError(
                    f"t={now}: sides hold {memory.r.size}/{memory.s.size} > M/2={half}"
                )
        for side in (memory.r, memory.s):
            for record in side.records():
                if not record.alive:
                    raise AssertionError(f"t={now}: dead record in slot array")
                if record.arrival <= now - window:
                    raise AssertionError(f"t={now}: expired record {record!r} resident")
