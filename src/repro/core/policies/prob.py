"""PROB: the paper's headline heuristic (Section 3.3.1).

A tuple's priority is the probability that a *partner* arrives on the
other stream: for ``r(i)`` it is ``p_S(r(i))``.  When the memory is full,
the lowest-priority tuple (among residents and the newcomer) is shed;
priority ties go to the later arrival.  Because priorities are static per
key, a lazy min-heap gives O(log M) decisions.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Mapping, Optional

from ...stats.frequency import FrequencyEstimator
from ..memory import TupleRecord
from .base import EstimatorPolicy, later_arrival_wins


class ProbPolicy(EstimatorPolicy):
    """Partner-arrival-probability eviction (PROB; PROBV on a shared pool).

    Parameters
    ----------
    estimators:
        Mapping from stream name (``"R"``/``"S"``) to the frequency
        estimator of *that stream's own* arrival distribution, kept by
        reference (:class:`~repro.core.policies.base.EstimatorPolicy`).
        The paper's experiments use static tables, which are never fed;
        online estimators (EWMA, the sketches) observe every arrival.

    Notes
    -----
    With online estimators the priority cached at admission time is used
    for eviction ordering (refreshing the heap on every estimate change
    would be prohibitively expensive and the paper does not do it);
    candidates are always scored with the current estimate.
    """

    name = "PROB"

    def __init__(self, estimators: Mapping[str, FrequencyEstimator]) -> None:
        super().__init__(estimators)
        # Lazy min-heap of (priority, arrival, seq, record).  Dead
        # entries (expired/evicted residents) are dropped lazily on pop
        # and compacted in bulk once they outnumber the live ones —
        # without compaction, high-priority tuples that *expire* leave
        # entries that never reach the top, and an unbounded streaming
        # run accumulates them without limit.
        self._heap: list[tuple[float, int, int, TupleRecord]] = []
        self._seq = count()
        self._dead = 0

    def partner_probability(self, record: TupleRecord) -> float:
        """Probability that a partner for ``record`` arrives next tick."""
        probs = self._partner_probs
        if probs is not None:
            return probs[record.stream].get(record.key, 0.0)
        other = "S" if record.stream == "R" else "R"
        return self._estimators[other].probability(record.key)

    def on_admit(self, record: TupleRecord, now: int) -> None:
        record.priority = self.partner_probability(record)
        heapq.heappush(
            self._heap, (record.priority, record.arrival, next(self._seq), record)
        )

    def on_remove(self, record: TupleRecord, now: int, *, expired: bool) -> None:
        # The record's heap entry just went stale.  Compaction keeps the
        # heap bounded by the resident count (amortised O(1) per
        # removal): filtering preserves the (priority, arrival, seq)
        # total order of the live entries, so pop order — and therefore
        # every eviction decision — is identical to the lazy heap's.
        self._dead += 1
        heap = self._heap
        if self._dead > 64 and 2 * self._dead > len(heap):
            self._heap = [entry for entry in heap if entry[3].alive]
            heapq.heapify(self._heap)
            self._dead = 0

    def _peek_min_alive(self) -> Optional[TupleRecord]:
        heap = self._heap
        while heap and not heap[0][3].alive:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][3] if heap else None

    def choose_victim(self, candidate: TupleRecord, now: int) -> Optional[TupleRecord]:
        weakest = self._peek_min_alive()
        if weakest is None:
            return None
        # Cache the decision-time priority on the candidate so the trace
        # records what the policy believed even when the newcomer loses.
        candidate_priority = candidate.priority = self.partner_probability(candidate)
        if later_arrival_wins(
            weakest.priority, weakest.arrival, candidate_priority, candidate.arrival
        ):
            return weakest
        return None

    def weakest_resident(self, stream: str, now: int) -> Optional[TupleRecord]:
        return self._peek_min_alive()

    def restore_state(self, state, records) -> None:
        super().restore_state(state, records)
        # Re-push the governed residents in admission order with fresh
        # sequence numbers: relative seq order equals the original run's,
        # so pop order among live entries is identical (the original
        # heap's lazily retained dead entries never affect it).  The
        # priorities were cached on the records at admission and survive
        # the memory snapshot.
        self._heap = []
        self._seq = count()
        self._dead = 0
        for record in records:
            heapq.heappush(
                self._heap,
                (record.priority, record.arrival, next(self._seq), record),
            )
