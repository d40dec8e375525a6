"""LIFE: lifetime-weighted priority heuristic (Section 3.3.2).

A tuple's priority is ``remaining_lifetime * partner_probability`` — an
estimate of the output it would still produce *if it survived to expiry*.
Priorities therefore decay as time passes, so no static heap applies;
instead the policy exploits two facts:

* for a fixed key, the oldest resident tuple always has the smallest
  remaining lifetime, hence the smallest priority — so only per-key
  oldest tuples are ever candidates (the memory keeps per-key FIFOs);
* the number of distinct resident keys is bounded by the domain size, so
  a scan over resident keys finds the minimum quickly.

The paper shows LIFE performs barely better than RAND because the
full-lifetime assumption overestimates output for low-probability tuples.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ...stats.frequency import FrequencyEstimator
from ..memory import StreamMemory, TupleRecord
from .base import EstimatorPolicy, later_arrival_wins


class LifePolicy(EstimatorPolicy):
    """Remaining-lifetime x probability eviction (LIFE; LIFEV on a pool).

    Parameters
    ----------
    estimators:
        As for :class:`~repro.core.policies.prob.ProbPolicy`: per-stream
        arrival-distribution estimators, kept by reference; a tuple is
        scored against the *other* stream's estimator, and online
        estimators observe every arrival.
    window:
        Window size ``w``; a tuple arriving at ``i`` has remaining
        lifetime ``i + w - now`` at decision time ``now``.
    """

    name = "LIFE"

    def __init__(self, estimators: Mapping[str, FrequencyEstimator], window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        super().__init__(estimators)
        self._window = window

    def partner_probability(self, stream: str, key) -> float:
        probs = self._partner_probs
        if probs is not None:
            return probs[stream].get(key, 0.0)
        other = "S" if stream == "R" else "R"
        return self._estimators[other].probability(key)

    def _priority(self, record: TupleRecord, now: int) -> float:
        remaining = record.arrival + self._window - now
        return remaining * self.partner_probability(record.stream, record.key)

    def _weakest_on(
        self, side: StreamMemory, now: int
    ) -> tuple[Optional[TupleRecord], float]:
        """Minimum-priority resident of one side (ties: earliest arrival).

        Only per-key oldest tuples are candidates (module docstring), so
        the scan walks the alive-key counter dict — never a copy of it;
        ``oldest_alive`` mutates only the per-key buckets — resolving
        each key through the memory's per-key FIFO and scoring it with
        one lookup bound before the scan: the static table's ``get``
        (None for a key it does not hold, hence ``or 0.0``) or the live
        estimator's ``probability``, as :meth:`partner_probability`.
        """
        best: Optional[TupleRecord] = None
        best_priority = 0.0
        offset = self._window - now
        probs = self._partner_probs
        if probs is not None:
            lookup = probs[side.stream].get
        else:
            lookup = self._estimators["S" if side.stream == "R" else "R"].probability
        oldest_alive = side.oldest_alive
        for key in side._key_counts:
            record = oldest_alive(key)
            if record is None:  # pragma: no cover - counted keys are alive
                continue
            priority = (record.arrival + offset) * (lookup(key) or 0.0)
            if (
                best is None
                or priority < best_priority
                or (priority == best_priority and record.arrival < best.arrival)
            ):
                best = record
                best_priority = priority
        return best, best_priority

    def _weakest(self, stream: str, now: int) -> tuple[Optional[TupleRecord], float]:
        weakest: Optional[TupleRecord] = None
        weakest_priority = 0.0
        for side in self.memory.eviction_candidates(stream):
            contender, priority = self._weakest_on(side, now)
            if contender is None:
                continue
            if (
                weakest is None
                or priority < weakest_priority
                or (priority == weakest_priority and contender.arrival < weakest.arrival)
            ):
                weakest = contender
                weakest_priority = priority
        return weakest, weakest_priority

    def weakest_resident(self, stream: str, now: int) -> Optional[TupleRecord]:
        return self._weakest(stream, now)[0]

    def choose_victim(self, candidate: TupleRecord, now: int) -> Optional[TupleRecord]:
        weakest, weakest_priority = self._weakest(candidate.stream, now)
        if weakest is None:
            return None

        # Cache the decision-time priority on the candidate so the trace
        # records what the policy believed even when the newcomer loses.
        candidate_priority = candidate.priority = self._window * self.partner_probability(
            candidate.stream, candidate.key
        )
        if later_arrival_wins(
            weakest_priority,
            weakest.arrival,
            candidate_priority,
            candidate.arrival,
        ):
            return weakest
        return None
