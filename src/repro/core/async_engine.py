"""Asynchronous-arrival join engine (paper Section 1's generalisation).

The paper's analysis assumes one tuple per stream per time unit but notes
the techniques "can be generalized to windows defined in terms of the
number of tuples and to asynchronous tuple arrival".  This engine
implements that generalisation for the fast-CPU integrated model: any
number of tuples (including zero) may arrive on each stream per tick.

Semantics
---------
* arrivals of one tick are processed in order — the R batch, then the S
  batch; each tuple probes the opposite memory *when processed*, so a
  same-tick pair is found when the later-processed partner probes (no
  separate "top path" is needed);
* ``window_mode="time"``: the pair ``(r, s)`` requires ``|t_r - t_s| <
  w`` in ticks, exactly as the synchronous engine;
* ``window_mode="count"``: each stream's window is its last ``w``
  tuples — a tuple expires when ``w`` further tuples of its *own* stream
  have arrived.  Priorities that depend on remaining *time* (LIFE, ARM)
  are not meaningful here, so count mode accepts only RAND/PROB-style
  policies (enforced at configuration time);
* ``window_mode="landmark"``: tuples accumulate from the most recent
  landmark (every ``landmark_every`` ticks, e.g. "since the top of the
  hour") and the whole state resets at each landmark — the third window
  style Section 1 lists.  Remaining lifetime is again not meaningful to
  a per-tuple priority, so the same policy restriction applies.

Output is counted per processing tick against the usual warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence, Union

from ..obs import Timer, active_or_none
from ..obs.trace import (
    EVENT_ARRIVE,
    REASON_WINDOW,
    TraceEvent,
    tracing_or_none,
)
from ..streams.sources import Source, as_source, bounded_events
from ..streams.tuples import JoinResultTuple, StreamPair
from .engine import PolicySpec
from .kernel import JoinKernel
from .memory import JoinMemory, TupleRecord
from .policies import resolve_policy_spec
from .policies.life import LifePolicy
from .results import BaseRunResult, DropBreakdown, RunSummary, side_drop_counts

WINDOW_MODES = ("time", "count", "landmark")


@dataclass
class AsyncEngineConfig:
    """Configuration of an asynchronous-arrival run.

    In ``"landmark"`` mode ``window`` is ignored for expiry and
    ``landmark_every`` sets the reset period (state clears at every tick
    that is a positive multiple of it).
    """

    window: int
    memory: int
    variable: bool = False
    warmup: Optional[int] = None  # in ticks
    window_mode: str = "time"
    landmark_every: Optional[int] = None
    validate: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(
                f"window_mode must be one of {WINDOW_MODES}, got {self.window_mode!r}"
            )
        if self.window_mode == "landmark":
            if self.landmark_every is None or self.landmark_every <= 0:
                raise ValueError("landmark mode needs a positive landmark_every")
        elif self.landmark_every is not None:
            raise ValueError("landmark_every only applies to landmark mode")
        if self.warmup is None:
            self.warmup = 2 * self.window
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")


@dataclass
class AsyncRunResult(BaseRunResult):
    """Counters of one asynchronous run."""

    output_count: int
    total_output_count: int
    ticks: int
    arrivals: int
    policy_name: str
    drop_counts: dict = field(default_factory=dict)
    metrics: Optional[dict] = None
    trace: Optional[list] = None

    engine_kind = "async"

    def drop_breakdown(self) -> DropBreakdown:
        return DropBreakdown.from_side_counts(self.drop_counts)


class AsyncJoinEngine:
    """Fast-CPU integrated model with bursty / idle ticks.

    Policies are wired exactly as for
    :class:`~repro.core.engine.JoinEngine` (``None`` / single instance /
    per-side dict).
    """

    def __init__(
        self,
        config: AsyncEngineConfig,
        policy: PolicySpec = None,
        *,
        metrics=None,
        trace=None,
    ) -> None:
        self.config = config
        self.memory = JoinMemory(config.memory, variable=config.variable)
        self.metrics = metrics
        self.trace = trace

        resolved = resolve_policy_spec(policy, self.memory, variable=config.variable)
        self._policy_r = resolved.r
        self._policy_s = resolved.s
        self._policies = resolved.instances
        self.policy_name = resolved.name
        self._kernel = None
        self._obs = None
        self._tracing = False
        self._tick_state = None

        if config.window_mode in ("count", "landmark"):
            from .policies.arm import ArmAwarePolicy

            for bound in self._policies:
                if isinstance(bound, (LifePolicy, ArmAwarePolicy)):
                    raise ValueError(
                        f"{config.window_mode}-based windows have no fixed "
                        "per-tuple lifetime; time-based priorities (LIFE, "
                        "ARM) do not apply"
                    )

    # ------------------------------------------------------------------
    def run(
        self,
        r_batches: Sequence[Sequence],
        s_batches: Sequence[Sequence],
        *,
        resume: Optional[dict] = None,
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """Process per-tick arrival batches.

        ``r_batches[t]`` is the (possibly empty) sequence of R join keys
        arriving at tick ``t``; likewise for S.  Both sequences must
        cover the same number of ticks.

        ``on_tick(engine, t)`` fires after each tick's batches complete
        (and after its metrics were recorded); inside the callback
        :meth:`checkpoint` captures a resumable snapshot of the run.
        ``on_tick_every=N`` fires it only on ticks where
        ``t % N == 0`` — a hook that samples (telemetry heartbeats)
        costs one modulo on the skipped ticks instead of a Python call.
        ``resume`` takes such a snapshot and continues from the tick
        after it — the finished run is bit-identical (counts, ledger,
        metrics totals) to one that was never interrupted.
        """
        if len(r_batches) != len(s_batches):
            raise ValueError("batch sequences must cover the same number of ticks")
        if on_tick_every < 1:
            raise ValueError(f"on_tick_every must be >= 1, got {on_tick_every}")
        events = zip(r_batches, s_batches)
        # Sharded EXACT execution lands in the count-only lane: every
        # shard is a policy-less time-mode run over mostly-empty ticks.
        if resume is None and on_tick is None and self._counts_only():
            return self._run_exact(events)
        start_tick = 0
        if resume is not None:
            start_tick = resume["tick"] + 1
            events = islice(events, start_tick, None)
        return self._run_ticks(
            events,
            start_tick=start_tick,
            resume=resume,
            on_tick=on_tick,
            on_tick_every=on_tick_every,
        )

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
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """Consume a pull-based source with asynchronous semantics.

        The source-path analogue of :meth:`run`: per-tick ``(r_keys,
        s_keys)`` events come from any
        :class:`~repro.streams.sources.Source` (a :class:`StreamPair` is
        adapted automatically) instead of materialized batch lists, and
        working state stays bounded by the window/memory budget, so
        unbounded sources are safe.  Both methods drive the same tick
        loop, so an event stream equal to the batch lists produces
        bit-identical results (counts, ledger, metrics totals).

        ``until`` bounds the tick count and ``stop()`` is polled each
        tick (either is required for an unbounded source); ``emit`` is a
        per-pair sink for post-warmup output; ``on_summary`` receives a
        rolling :class:`~repro.core.results.RunSummary` every
        ``on_summary_every`` ticks (default 4096).  ``on_tick`` works as
        in :meth:`run` (telemetry heartbeats; :meth:`progress` is valid
        inside), but checkpoint/resume stays with :meth:`run` — an
        interrupted source run is re-run from the start (sources are
        restartable by contract).
        """
        source = as_source(source)
        if until is not None and until < 0:
            raise ValueError(f"until must be non-negative, got {until}")
        if on_summary_every is not None and on_summary_every <= 0:
            raise ValueError(
                f"on_summary_every must be positive, got {on_summary_every}"
            )
        if on_tick_every < 1:
            raise ValueError(f"on_tick_every must be >= 1, got {on_tick_every}")
        if source.length is None and until is None and stop is None:
            raise ValueError(
                "unbounded source: pass until= and/or stop= to bound the run"
            )
        stride = on_summary_every or 4096
        if on_tick is None and emit is None and self._counts_only():
            return self._run_exact(iter(source), until, stop, on_summary, stride)
        return self._run_ticks(
            iter(source),
            until=until,
            emit=emit,
            on_summary=on_summary,
            stride=stride,
            stop=stop,
            on_tick=on_tick,
            on_tick_every=on_tick_every,
        )

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------
    def _run_ticks(
        self,
        events,
        *,
        start_tick: int = 0,
        resume: Optional[dict] = None,
        until: Optional[int] = None,
        emit=None,
        on_summary=None,
        stride: int = 4096,
        stop=None,
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """The kernel-driven tick loop behind :meth:`run` and :meth:`run_stream`.

        ``events`` yields the ``(r_keys, s_keys)`` batches of the ticks
        from ``start_tick`` on (past a resumed checkpoint, ``resume``
        holds the state to restore).
        """
        config = self.config
        memory = self.memory
        window = config.window
        warmup = config.warmup
        assert warmup is not None
        count_mode = config.window_mode == "count"
        landmark_mode = config.window_mode == "landmark"

        output = 0
        total_output = 0
        arrivals = 0
        sequence = {"R": 0, "S": 0}  # per-stream tuple counters (count mode)

        obs = active_or_none(self.metrics)
        tracer = tracing_or_none(self.trace)
        kernel = JoinKernel(memory, self._policy_r, self._policy_s, tracer=tracer)
        drop_counts = kernel.drop_counts
        # Expiry reason names the window style that aged the tuple out.
        expire_reason = (
            REASON_WINDOW if config.window_mode == "time" else config.window_mode
        )
        tracing = tracer is not None
        timed = obs is not None
        self._kernel = kernel
        self._obs = obs
        self._tracing = tracing
        self._tick_state = None

        if resume is not None:
            if tracing:
                raise ValueError(
                    "cannot resume a traced run (pre-failure events are gone)"
                )
            output = resume["output"]
            total_output = resume["total_output"]
            arrivals = resume["arrivals"]
            sequence = dict(resume["sequence"])
            restored = kernel.restore(resume["kernel"])
            self._restore_policies(resume["policies"], restored)
            if timed and resume.get("metrics"):
                # Merge the checkpoint-time snapshot *before* grabbing
                # instrument handles: merge_snapshot get-or-creates the
                # same objects the handles below will extend.
                obs.merge_snapshot(resume["metrics"])

        if timed:
            run_timer = Timer()
            run_timer.start()
            occupancy_r = obs.series("engine.occupancy", side="R")
            occupancy_s = obs.series("engine.occupancy", side="S")
            batch_size = obs.histogram("async.batch_size")

        # The hook fires where t % on_tick_every == 0, tracked as a
        # next-tick pointer: one int compare per tick instead of a
        # modulo, and -1 (never matches) when there is no hook at all.
        # The first grid tick at or after start_tick keeps it resume-safe.
        hook_next = -1
        if on_tick is not None:
            hook_next = start_tick + (-start_tick % on_tick_every)

        # Untraced sides take the kernel's batch operations (bulk probe
        # over the per-key group index; bulk insert with one capacity
        # check per chunk when no policy is attached, else per-tuple
        # contests inside :meth:`JoinKernel.insert_batch`).  Bulk probes
        # read the *opposite* memory, so hoisting them above the batch's
        # insertions is exact as long as those insertions cannot touch
        # the opposite side: fixed-allocation victims are own-side, but
        # a shared pool (variable) or an arrival-observing estimator
        # would make probe results order-dependent — those stay
        # per-tuple, as do tracers (event order), count-mode windows
        # (expiry interleaves inside the batch), and ``emit`` (it needs
        # per-pair results).
        batch_ops = (
            not tracing
            and not count_mode
            and emit is None
            and (
                (self._policy_r is None and self._policy_s is None)
                or (not memory.variable and not kernel.observers)
            )
        )

        t = start_tick - 1
        for t, (r_event, s_event) in enumerate(
            bounded_events(events, until, stop), start_tick
        ):
            if landmark_mode:
                if t > 0 and t % config.landmark_every == 0:
                    # A new landmark: the whole window state resets.
                    kernel.expire(t, t, reason=expire_reason)
            elif not count_mode:
                kernel.expire(t - window, t, reason=expire_reason)

            for stream, batch in (("R", r_event), ("S", s_event)):
                if batch_ops:
                    if batch:
                        arrivals += len(batch)
                        kernel.observe_batch(stream, batch, t)
                        matches = kernel.probe_batch(stream, batch, t)
                        total_output += matches
                        if t >= warmup:
                            output += matches
                        kernel.insert_batch(stream, batch, t)
                    continue
                for key in batch:
                    arrivals += 1
                    kernel.observe(stream, key, t)
                    if tracing:
                        tracer.emit(TraceEvent(t, stream, key, EVENT_ARRIVE, t))

                    matches = kernel.probe(stream, key, t)
                    total_output += matches
                    if t >= warmup:
                        output += matches
                        if emit is not None and matches:
                            for partner in memory.other_side(stream).matches(key):
                                if stream == "R":
                                    emit(JoinResultTuple(t, partner.arrival, key))
                                else:
                                    emit(JoinResultTuple(partner.arrival, t, key))

                    if count_mode:
                        # The tuple's own arrival pushes the count window.
                        sequence[stream] += 1
                        kernel.expire(
                            sequence[stream] - window, t,
                            reason=expire_reason, side=stream,
                        )
                        record = TupleRecord(stream, sequence[stream], key)
                    else:
                        record = TupleRecord(stream, t, key)
                    kernel.insert(record, t)

            if timed:
                batch_size.observe(len(r_event) + len(s_event))
                occupancy_r.append(t, memory.r.size)
                occupancy_s.append(t, memory.s.size)

            if config.validate:
                self._check_invariants(t)

            if on_summary is not None and (t + 1) % stride == 0:
                on_summary(RunSummary(
                    engine="async",
                    policy_name=self.policy_name,
                    output_count=output,
                    drops=DropBreakdown.from_side_counts(drop_counts),
                ))

            if t == hook_next:
                hook_next = t + on_tick_every
                # `sequence` is stored by reference: the state is only
                # valid inside the hook call, before the next mutation,
                # so checkpoint() copies it lazily on demand.
                self._tick_state = (t, output, total_output, arrivals, sequence)
                on_tick(self, t)

        self._tick_state = None
        snapshot = None
        if timed:
            run_timer.stop()
            obs.counter("engine.matches").inc(total_output)
            obs.counter("engine.output").inc(output)
            obs.counter("async.arrivals").inc(arrivals)
            for side in ("R", "S"):
                for reason, count in drop_counts[side].items():
                    obs.counter("engine.drops", side=side, reason=reason).inc(count)
            obs.record_phase("engine/run", run_timer.seconds)
            snapshot = obs.snapshot()

        return AsyncRunResult(
            output_count=output,
            total_output_count=total_output,
            ticks=t + 1,
            arrivals=arrivals,
            policy_name=self.policy_name,
            drop_counts=drop_counts,
            metrics=snapshot,
            trace=tracer.collect() if tracing else None,
        )

    # ------------------------------------------------------------------
    # the count-only EXACT lane
    # ------------------------------------------------------------------
    def _counts_only(self) -> bool:
        """Whether a run reduces to count arithmetic: no policy, a time
        window, no validation, metrics, or tracer (the callers add their
        own per-tick hooks to the check)."""
        return (
            self._policy_r is None
            and self._policy_s is None
            and self.config.window_mode == "time"
            and not self.config.validate
            and active_or_none(self.metrics) is None
            and tracing_or_none(self.trace) is None
        )

    def _run_exact(
        self, events, until=None, stop=None, on_summary=None, stride=4096
    ) -> AsyncRunResult:
        """Dictionary count arithmetic for policy-less time-window runs.

        Dispatched from :meth:`run` and :meth:`run_stream` when nothing
        needs per-tuple state (see :meth:`_counts_only`); runs
        :func:`repro.core.batched.exact_stream_counts`, which removes the
        kernel, record allocation, and memory maintenance from the
        sharding hot path and keeps bounded state for arbitrarily long
        streams, while staying bit-identical (a regression gate pins it
        to the kernel path).
        """
        from .batched import exact_stream_counts

        config = self.config
        self._kernel = None
        self._obs = None
        self._tracing = False
        self._tick_state = None

        on_progress = None
        if on_summary is not None:
            policy_name = self.policy_name

            def on_progress(t, output, total_output, arrivals, exp_r, exp_s):
                on_summary(RunSummary(
                    engine="async",
                    policy_name=policy_name,
                    output_count=output,
                    drops=DropBreakdown(expired=exp_r + exp_s),
                ))

        output, total_output, arrivals, expired_r, expired_s, ticks = (
            exact_stream_counts(
                events,
                config.window,
                config.warmup,
                capacity=self.memory.capacity,
                variable=self.memory.variable,
                until=until,
                stop=stop,
                on_progress=on_progress,
                progress_every=stride if on_summary is not None else 0,
            )
        )
        return AsyncRunResult(
            output_count=output,
            total_output_count=total_output,
            ticks=ticks,
            arrivals=arrivals,
            policy_name=self.policy_name,
            drop_counts=side_drop_counts(expired=(expired_r, expired_s)),
        )

    # ------------------------------------------------------------------
    # live progress
    # ------------------------------------------------------------------
    def progress(self) -> dict:
        """Live run counters, valid inside an ``on_tick`` callback.

        The telemetry heartbeat payload: current tick, produced output
        (counted and total), arrivals so far, resident-tuple occupancy,
        and the kernel's cumulative drop total.  Cheap by design — a
        handful of attribute reads, no snapshotting.
        """
        if self._tick_state is None:
            raise RuntimeError(
                "progress() is only valid inside an on_tick callback"
            )
        t, output, total_output, arrivals, _ = self._tick_state
        drops = 0
        if self._kernel is not None:
            for reasons in self._kernel.drop_counts.values():
                drops += sum(reasons.values())
        return {
            "tick": t,
            "output": output,
            "total_output": total_output,
            "arrivals": arrivals,
            "occupancy": self.memory.r.size + self.memory.s.size,
            "drops": drops,
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Resumable snapshot of the run, valid inside an ``on_tick`` hook.

        Only time-based windows checkpoint: count/landmark modes stamp
        per-stream sequence numbers as arrivals, which breaks the
        cross-side admission-order merge the restore path relies on, and
        sharded runs (the checkpoint consumers) are always time-mode.
        Traced runs refuse too — the events emitted before a failure
        would be lost or duplicated on resume.
        """
        if self.config.window_mode != "time":
            raise ValueError(
                "checkpointing requires time-based windows, got "
                f"window_mode={self.config.window_mode!r}"
            )
        if self._tracing:
            raise ValueError("cannot checkpoint a traced run")
        if self._tick_state is None:
            raise RuntimeError(
                "checkpoint() is only valid inside an on_tick callback"
            )
        from .results import SCHEMA_VERSION

        t, output, total_output, arrivals, sequence = self._tick_state
        return {
            "schema_version": SCHEMA_VERSION,
            "tick": t,
            "output": output,
            "total_output": total_output,
            "arrivals": arrivals,
            "sequence": dict(sequence),
            "kernel": self._kernel.snapshot(),
            "policies": [p.snapshot_state() for p in self._policies],
            "metrics": self._obs.snapshot() if self._obs is not None else None,
        }

    def _restore_policies(self, states, records) -> None:
        """Hand each policy its snapshot plus the residents it governs."""
        if len(states) != len(self._policies):
            raise ValueError(
                f"checkpoint has {len(states)} policy states for "
                f"{len(self._policies)} policies"
            )
        for policy, state in zip(self._policies, states):
            if policy is self._policy_r and policy is self._policy_s:
                governed = records  # shared pool: both sides, merged order
            elif policy is self._policy_r:
                governed = [r for r in records if r.stream == "R"]
            else:
                governed = [r for r in records if r.stream == "S"]
            policy.restore_state(state, governed)

    # ------------------------------------------------------------------
    def _check_invariants(self, now: int) -> None:
        memory = self.memory
        if memory.variable:
            if memory.total_size > memory.capacity:
                raise AssertionError(f"tick {now}: pool exceeds budget")
        else:
            half = memory.capacity // 2
            if memory.r.size > half or memory.s.size > half:
                raise AssertionError(f"tick {now}: a side exceeds its budget")

