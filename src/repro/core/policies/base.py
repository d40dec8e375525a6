"""Eviction-policy interface for semantic load shedding.

A policy decides, when the join memory is full and a new tuple arrives,
whether to reject the newcomer or which resident tuple to displace.  The
engine drives the protocol:

1. every arrival is announced via :meth:`EvictionPolicy.observe_arrival`
   (statistics maintenance — both streams, regardless of side; policies
   that read one shared estimator mapping are announced to once, see
   :func:`arrival_observers`);
2. if the newcomer's side has room it is admitted and
   :meth:`EvictionPolicy.on_admit` fires;
3. otherwise :meth:`EvictionPolicy.choose_victim` returns a resident
   tuple to evict (the engine then fires ``on_remove`` for the victim and
   ``on_admit`` for the newcomer) or ``None`` to drop the newcomer;
4. expiring tuples fire :meth:`EvictionPolicy.on_remove` too.

With fixed allocation the engine instantiates one policy per stream side;
with variable allocation a single policy instance governs the shared pool
and may return victims from either side.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ...stats.frequency import FrequencyEstimator, StaticFrequencyTable
from ..memory import JoinMemory, TupleRecord


class EvictionPolicy(ABC):
    """Base class for join-memory admission/eviction strategies."""

    #: Human-readable policy name, set by subclasses ("RAND", "PROB", ...).
    name: str = "?"

    #: Whether this policy consumes :meth:`observe_arrival` broadcasts.
    #: Engines skip the per-arrival call for policies that leave this
    #: False (or don't override ``observe_arrival`` at all) — the hot
    #: path must not pay for a no-op notification.  Instances may
    #: override the class value (PROB and LIFE over static tables set it
    #: False even though their class overrides ``observe_arrival``).
    observes_arrivals: bool = True

    def __init__(self) -> None:
        self._memory: Optional[JoinMemory] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, memory: JoinMemory) -> None:
        """Attach the policy to the join memory it governs.

        Called once by the engine before the run starts; policies must not
        be shared across concurrent runs.
        """
        if self._memory is not None and self._memory is not memory:
            raise RuntimeError(f"{self.name} policy is already bound to another memory")
        self._memory = memory

    @property
    def memory(self) -> JoinMemory:
        if self._memory is None:
            raise RuntimeError(f"{self.name} policy used before bind()")
        return self._memory

    # ------------------------------------------------------------------
    # notifications (optional overrides)
    # ------------------------------------------------------------------
    def observe_arrival(self, stream: str, key: Hashable, now: int) -> None:
        """Called for *every* arrival on both streams (statistics hook)."""

    def on_admit(self, record: TupleRecord, now: int) -> None:
        """Called after a tuple is admitted to memory."""

    def on_remove(self, record: TupleRecord, now: int, *, expired: bool) -> None:
        """Called after a tuple leaves memory (eviction or expiry)."""

    # ------------------------------------------------------------------
    # checkpointing (optional overrides)
    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Private state for checkpoint/restore, returned live.

        The engine deep-copies every policy's state in one call, so
        objects two policies share (a fixed-allocation pair's estimator
        mapping) are stored once and restored shared; a policy must not
        copy its own state.  Stateless policies (FIFO, PROB and LIFE over
        static tables — everything they need lives in the memory
        structures) return ``None``.  Stateful policies must return
        enough to make a restored run bit-identical to an uninterrupted
        one: RAND captures its RNG state, PROB and LIFE their live
        estimators (PROB's heap is rebuilt from the resident records),
        ARM its arrival trackers.
        """
        return None

    def restore_state(self, state, records: Sequence[TupleRecord]) -> None:
        """Rebuild private state after the memory was restored.

        ``state`` is this policy's own copy of what
        :meth:`snapshot_state` returned; keep it without copying.
        ``records`` are the resident tuples this policy governs, in
        admission order, freshly rebuilt by
        :meth:`~repro.core.memory.StreamMemory.restore` — any internal
        structure referencing record objects (PROB's heap) must be
        rebuilt against them, not against pickled copies.
        """

    # ------------------------------------------------------------------
    # the decisions
    # ------------------------------------------------------------------
    @abstractmethod
    def choose_victim(self, candidate: TupleRecord, now: int) -> Optional[TupleRecord]:
        """Pick the tuple to displace in favour of ``candidate``.

        Only called when ``candidate``'s side is full.  The return value
        must be a resident tuple from one of
        ``memory.eviction_candidates(candidate.stream)``, or ``None`` to
        reject the candidate instead.
        """

    def weakest_resident(self, stream: str, now: int) -> Optional[TupleRecord]:
        """The resident this policy would shed first (no newcomer involved).

        Used when the memory budget *shrinks* at runtime (the paper notes
        PROB/LIFE "can easily deal with varying memory and window sizes",
        Section 3.3).  ``stream`` selects the pool under fixed allocation
        and is ignored for a shared pool.  Returns ``None`` only when the
        relevant pool is empty.
        """
        raise NotImplementedError(
            f"{self.name} does not support shrinking memory budgets"
        )


class EstimatorPolicy(EvictionPolicy):
    """Wiring shared by the policies that score against the statistics
    module (PROB and LIFE).

    ``estimators`` maps each stream name (``"R"``/``"S"``) to the
    frequency estimator of *that stream's own* arrival distribution; a
    tuple is scored against the *other* stream's estimator, matching the
    paper's ``p_S(r(i))`` / ``p_R(s(i))``.  The mapping is kept by
    reference: the two fixed-allocation instances
    :func:`~repro.core.policies.make_policy_spec` builds read one pair,
    which :func:`arrival_observers` feeds once per arrival.

    Whether the mapping is fed follows from what it holds.  A frozen
    :class:`~repro.stats.frequency.StaticFrequencyTable` is never fed;
    when both sides are static, partner probabilities collapse to one
    dict lookup (the cache the columnar lanes read).  Any other
    estimator observes every arrival on its own stream.
    """

    def __init__(self, estimators: Mapping[str, FrequencyEstimator]) -> None:
        super().__init__()
        missing = {"R", "S"} - set(estimators)
        if missing:
            raise ValueError(f"estimators missing for streams: {sorted(missing)}")
        self._estimators = estimators
        self.observes_arrivals = not all(
            isinstance(est, StaticFrequencyTable) for est in estimators.values()
        )
        self._partner_probs: Optional[dict] = None
        if not self.observes_arrivals:
            self._refresh_partner_probs()
            # A wholesale table update (re-baselining from an online
            # estimator or a drift detector) invalidates the cache;
            # rebuild it instead of serving stale probabilities.
            for est in estimators.values():
                est.subscribe(self._refresh_partner_probs)

    def _refresh_partner_probs(self) -> None:
        self._partner_probs = {
            "R": self._estimators["S"].as_dict(),
            "S": self._estimators["R"].as_dict(),
        }

    def observe_arrival(self, stream: str, key: Hashable, now: int) -> None:
        self._estimators[stream].observe(key)

    def snapshot_state(self):
        return {"estimators": self._estimators} if self.observes_arrivals else None

    def restore_state(self, state, records: Sequence[TupleRecord]) -> None:
        if state is not None:
            self._estimators = state["estimators"]


def arrival_observers(
    policies: Iterable[Optional["EvictionPolicy"]],
) -> Sequence["EvictionPolicy"]:
    """The subset of ``policies`` that actually consume arrival events.

    A policy is an observer iff it overrides
    :meth:`EvictionPolicy.observe_arrival` *and* its
    ``observes_arrivals`` flag is truthy.  A policy listed twice (a
    shared pool's R and S slots), and estimator policies that read one
    mapping, count as one observer, so each live estimator sees every
    arrival exactly once.  Engines and the kernel build their broadcast
    list through this one helper so the filtering rule cannot drift.
    """
    observers: dict[int, EvictionPolicy] = {}
    for p in policies:
        if (
            p is not None
            and type(p).observe_arrival is not EvictionPolicy.observe_arrival
            and p.observes_arrivals
        ):
            feed = p._estimators if isinstance(p, EstimatorPolicy) else p
            observers.setdefault(id(feed), p)
    return tuple(observers.values())


def later_arrival_wins(
    resident_priority: float,
    resident_arrival: int,
    candidate_priority: float,
    candidate_arrival: int,
) -> bool:
    """Shared tie rule: evict the resident iff it is strictly worse.

    The paper breaks priority ties "by giving higher priority to the tuple
    that arrived later", so an equal-priority resident (which necessarily
    arrived no later than the candidate) loses.
    """
    if resident_priority != candidate_priority:
        return resident_priority < candidate_priority
    return resident_arrival < candidate_arrival
