"""The shared join-kernel core every engine composes.

The four execution models — the fast-CPU integrated
:class:`~repro.core.engine.JoinEngine`, the bursty-arrival
:class:`~repro.core.async_engine.AsyncJoinEngine`, the queue-fronted
:class:`~repro.core.slowcpu.SlowCpuEngine`, and the shared-queue
:class:`~repro.core.multiquery.SharedQueueSystem` — all drive the same
per-tuple state machine: *expire* what aged out of the window, *probe*
the opposite side for matches, then *insert* the newcomer (which may
*evict* a resident or reject the newcomer outright).  Historically each
engine re-implemented that bookkeeping (policy notifications, the
per-side drop ledger, trace emission), and the copies drifted.

:class:`JoinKernel` owns the mechanism once:

* ``observe``   — broadcast an arrival to the policies that consume it;
* ``expire``    — window expiry with ledger/notify/trace bookkeeping;
* ``probe``     — match counting plus ``join_output`` trace credit;
* ``insert``    — the admission contest: admit, displace a victim, or
  reject, with every side effect accounted;
* ``shed_surplus`` — evict down to a shrunken budget (time-varying
  memory, paper Section 3.3.1).

Engines keep what is genuinely theirs: output counting and warmup
(which differ per processing model), survival records (fast engine
only), queue management (modular engines), and the inlined fast loop of
:meth:`~repro.core.engine.JoinEngine._run_fast`, which bypasses the
kernel entirely for throughput — a regression test pins it to the
kernel-driven tick loop (``JoinEngine._run_kernel``).

Every kernel instance carries one per-side drop ledger in the shape of
:func:`~repro.core.results.empty_side_drop_counts`; engines read
``kernel.drop_counts`` (or the :meth:`JoinKernel.drops` breakdown) when
assembling results, so the reason/field names cannot drift between
engines again.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..obs.trace import (
    EVENT_ADMIT,
    EVENT_DROP,
    EVENT_EVICT,
    EVENT_EXPIRE,
    EVENT_JOIN_OUTPUT,
    REASON_BUDGET,
    REASON_DISPLACED,
    REASON_REJECTED,
    REASON_WINDOW,
    TraceEvent,
)
from .memory import JoinMemory, TupleRecord
from .policies.base import EvictionPolicy, arrival_observers
from .results import (
    DROP_EVICTED,
    DROP_EXPIRED,
    DROP_REJECTED,
    DropBreakdown,
    empty_side_drop_counts,
)

__all__ = ["JoinKernel"]


class JoinKernel:
    """One join memory plus its policies, driven through narrow hooks.

    Parameters
    ----------
    memory:
        The :class:`~repro.core.memory.JoinMemory` under management.
    policy_r / policy_s:
        Per-side eviction policies (the same instance twice for a
        variable shared pool, ``None`` for no shedding — the EXACT
        configuration, where overflow raises ``overflow_error``).
    tracer:
        Optional live tracer (already collapsed via
        :func:`~repro.obs.trace.tracing_or_none`); ``None`` keeps every
        emission off the hot path.
    tag:
        Optional query label stamped on every trace event (the
        multi-query system names its operators this way).
    overflow_error:
        Exception type raised when a policy-less memory overflows
        (engines keep their historical types, e.g.
        :class:`~repro.core.engine.CapacityExceededError`).
    """

    __slots__ = (
        "memory",
        "policy_r",
        "policy_s",
        "observers",
        "tracer",
        "tag",
        "overflow_error",
        "drop_counts",
    )

    def __init__(
        self,
        memory: JoinMemory,
        policy_r: Optional[EvictionPolicy],
        policy_s: Optional[EvictionPolicy],
        *,
        tracer=None,
        tag: Optional[str] = None,
        overflow_error: type = RuntimeError,
    ) -> None:
        self.memory = memory
        self.policy_r = policy_r
        self.policy_s = policy_s
        self.observers = arrival_observers((policy_r, policy_s))
        self.tracer = tracer
        self.tag = tag
        self.overflow_error = overflow_error
        self.drop_counts = empty_side_drop_counts()

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def policy_for(self, stream: str) -> Optional[EvictionPolicy]:
        return self.policy_r if stream == "R" else self.policy_s

    def drops(self) -> DropBreakdown:
        """The ledger collapsed across sides (for result assembly)."""
        return DropBreakdown.from_side_counts(self.drop_counts)

    def side_drops(self, stream: str, reason: str) -> int:
        return self.drop_counts[stream][reason]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialisable join state: memory contents plus the drop ledger."""
        return {
            "memory": self.memory.snapshot(),
            "drops": {
                side: dict(reasons) for side, reasons in self.drop_counts.items()
            },
        }

    def restore(self, state: dict) -> list[TupleRecord]:
        """Rebuild from :meth:`snapshot`; returns records in admission order.

        The drop ledger is updated *in place* — engines alias
        ``kernel.drop_counts`` into their result assembly, so rebinding
        the dict would silently decouple the two.  The returned list
        merges both sides into global admission order (stable by arrival,
        R before S on ties — the engines process each tick's R batch
        first), which is what shared-pool policies need to rebuild their
        structures.
        """
        r_records, s_records = self.memory.restore(state["memory"])
        for side, reasons in self.drop_counts.items():
            saved = state["drops"].get(side, {})
            for reason in reasons:
                reasons[reason] = saved.get(reason, 0)
        merged: list[TupleRecord] = []
        i = j = 0
        while i < len(r_records) and j < len(s_records):
            if r_records[i].arrival <= s_records[j].arrival:
                merged.append(r_records[i])
                i += 1
            else:
                merged.append(s_records[j])
                j += 1
        merged.extend(r_records[i:])
        merged.extend(s_records[j:])
        return merged

    # ------------------------------------------------------------------
    # the hooks
    # ------------------------------------------------------------------
    def observe(self, stream: str, key, now: int) -> None:
        """Announce one arrival to every policy that consumes arrivals."""
        for policy in self.observers:
            policy.observe_arrival(stream, key, now)

    def observe_batch(self, stream: str, keys, now: int) -> None:
        """Announce a same-tick arrival batch (policy-major order).

        Equivalent to :meth:`observe` per key for the single-observer
        case; with several observers the broadcast is policy-major
        (each observer sees the whole batch in arrival order), which no
        shipped policy distinguishes from key-major.
        """
        for policy in self.observers:
            observe = policy.observe_arrival
            for key in keys:
                observe(stream, key, now)

    def expire(
        self,
        horizon: int,
        now: int,
        *,
        reason: str = REASON_WINDOW,
        side: Optional[str] = None,
    ) -> list[TupleRecord]:
        """Expire residents with ``arrival <= horizon`` and account them.

        ``side`` restricts expiry to one stream memory (count-based
        windows age each stream by its own tuple counter); the default
        sweeps both sides.  Returns the expired records so callers can
        do engine-specific bookkeeping (survival records).
        """
        source = self.memory if side is None else self.memory.side(side)
        expired = source.expire_until(horizon)
        if expired:
            self.retire(expired, now, reason=reason)
        return expired

    def retire(
        self, records: Iterable[TupleRecord], now: int, *, reason: str = REASON_WINDOW
    ) -> None:
        """Ledger/notify/trace bookkeeping for already-expired records."""
        drop_counts = self.drop_counts
        tracer = self.tracer
        for record in records:
            policy = self.policy_r if record.stream == "R" else self.policy_s
            if policy is not None:
                policy.on_remove(record, now, expired=True)
            drop_counts[record.stream][DROP_EXPIRED] += 1
            if tracer is not None:
                tracer.emit(TraceEvent(
                    now, record.stream, record.key, EVENT_EXPIRE,
                    record.arrival, record.priority, reason, self.tag,
                ))

    def probe(self, stream: str, key, now: int) -> int:
        """Matches of ``key`` against the opposite side's residents.

        Join output is credited to the *resident* partner in the trace —
        the tuple whose retention earned the pair; the probing newcomer
        is implicit (opposite stream, at ``now``).
        """
        other = self.memory.other_side(stream)
        matches = other.match_count(key)
        tracer = self.tracer
        if tracer is not None and matches:
            for partner in other.matches(key):
                tracer.emit(TraceEvent(
                    now, partner.stream, key, EVENT_JOIN_OUTPUT,
                    partner.arrival, partner.priority, None, self.tag,
                ))
        return matches

    def probe_batch(self, stream: str, keys, now: int) -> int:
        """Total matches of a same-tick probe batch (bulk :meth:`probe`).

        Within one side's batch no probe can see another batch member's
        insertion (probes read the *opposite* side), so summing per-key
        counts over the whole batch is exact.  Without a tracer this is
        one bulk dict sweep over the per-key group index; with one, it
        falls back to per-key probes so join-output credit events keep
        their order.
        """
        if self.tracer is not None:
            total = 0
            for key in keys:
                total += self.probe(stream, key, now)
            return total
        return self.memory.other_side(stream).match_total(keys)

    def insert_batch(
        self, stream: str, keys, now: int
    ) -> list[tuple[bool, Optional[TupleRecord]]]:
        """Offer a same-tick batch of newcomers to the memory.

        Policy-less sides take the bulk lane: one capacity check for the
        whole chunk, then :meth:`StreamMemory.add_batch`.  If the chunk
        does not fit, the tuples that do fit are admitted first and the
        overflow raises at exactly the tuple where the per-tuple path
        would have raised (same error type and message).  Sides with a
        policy, or traced runs, fall back to per-tuple :meth:`insert` —
        eviction contests and event order are inherently sequential.
        """
        memory = self.memory
        policy = self.policy_r if stream == "R" else self.policy_s
        if policy is None and self.tracer is None:
            side = memory.side(stream)
            count = len(keys)
            free = (
                memory.capacity - memory.total_size
                if memory.variable
                else memory.capacity // 2 - side.size
            )
            if free < count:
                if free > 0:
                    side.add_batch(
                        [TupleRecord(stream, now, key) for key in keys[:free]]
                    )
                raise self.overflow_error(
                    f"memory overflow at t={now} with no shedding policy "
                    f"(capacity {memory.capacity})"
                )
            records = [TupleRecord(stream, now, key) for key in keys]
            side.add_batch(records)
            return [(True, None) for _ in records]
        outcomes = []
        for key in keys:
            outcomes.append(self.insert(TupleRecord(stream, now, key), now))
        return outcomes

    def insert(
        self, record: TupleRecord, now: int
    ) -> tuple[bool, Optional[TupleRecord]]:
        """Offer ``record`` to the memory; run the eviction contest.

        Returns ``(admitted, victim)``:

        * ``(True, None)``   — admitted into free space;
        * ``(True, victim)`` — admitted after displacing ``victim``;
        * ``(False, None)``  — rejected (the newcomer was the weakest).

        All ledger counts, policy notifications, and trace events are
        emitted here; callers only need the outcome for engine-specific
        accounting (survival records, scalar counters).
        """
        memory = self.memory
        stream = record.stream
        policy = self.policy_r if stream == "R" else self.policy_s
        tracer = self.tracer

        if not memory.needs_eviction(stream):
            memory.admit(record)
            if policy is not None:
                policy.on_admit(record, now)
            if tracer is not None:
                tracer.emit(TraceEvent(
                    now, stream, record.key, EVENT_ADMIT,
                    record.arrival, record.priority, None, self.tag,
                ))
            return True, None

        if policy is None:
            raise self.overflow_error(
                f"memory overflow at t={now} with no shedding policy "
                f"(capacity {memory.capacity})"
            )

        victim = policy.choose_victim(record, now)
        if victim is None:
            self.drop_counts[stream][DROP_REJECTED] += 1
            if tracer is not None:
                tracer.emit(TraceEvent(
                    now, stream, record.key, EVENT_DROP,
                    record.arrival, record.priority, REASON_REJECTED, self.tag,
                ))
            return False, None

        if not victim.alive:
            raise RuntimeError(
                f"policy {policy.name} returned a non-resident victim {victim!r}"
            )
        memory.remove(victim)
        victim_policy = self.policy_r if victim.stream == "R" else self.policy_s
        (victim_policy or policy).on_remove(victim, now, expired=False)
        self.drop_counts[victim.stream][DROP_EVICTED] += 1
        if tracer is not None:
            tracer.emit(TraceEvent(
                now, victim.stream, victim.key, EVENT_EVICT,
                victim.arrival, victim.priority, REASON_DISPLACED, self.tag,
            ))

        memory.admit(record)
        policy.on_admit(record, now)
        if tracer is not None:
            tracer.emit(TraceEvent(
                now, stream, record.key, EVENT_ADMIT,
                record.arrival, record.priority, None, self.tag,
            ))
        return True, victim

    def shed_surplus(
        self, now: int, *, on_departure: Optional[Callable] = None
    ) -> list[TupleRecord]:
        """Evict residents until the (shrunk) budget is respected.

        Used when a time-varying memory schedule lowers the budget;
        victims were last present for the previous tick's probes, so
        ``on_departure(victim)`` (if given) should record ``now - 1``.
        """
        memory = self.memory
        victims: list[TupleRecord] = []
        streams = ("R",) if memory.variable else ("R", "S")
        for stream in streams:
            policy = self.policy_for(stream)
            while memory.surplus(stream) > 0:
                if policy is None:
                    raise self.overflow_error(
                        f"budget shrank below contents at t={now} with no policy"
                    )
                victim = policy.weakest_resident(stream, now)
                if victim is None:  # pragma: no cover - surplus implies residents
                    raise RuntimeError("surplus reported but no resident found")
                memory.remove(victim)
                victim_policy = self.policy_for(victim.stream) or policy
                victim_policy.on_remove(victim, now, expired=False)
                self.drop_counts[victim.stream][DROP_EVICTED] += 1
                if self.tracer is not None:
                    # Budget sheds happen *before* tick `now`'s probes.
                    self.tracer.emit(TraceEvent(
                        now, victim.stream, victim.key, EVENT_EVICT,
                        victim.arrival, victim.priority, REASON_BUDGET, self.tag,
                    ))
                if on_departure is not None:
                    on_departure(victim)
                victims.append(victim)
        return victims
