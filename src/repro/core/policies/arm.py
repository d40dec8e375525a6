"""ArM-aware eviction heuristic (extension; the paper's future work).

Section 6 lists "developing efficient algorithms for the Archive-metric"
as future work.  The Archive-metric (Section 2.2) counts tuples that were
not matched with *all* their partners — the post-processing debt a
night-mode archive pass must repay.  Evicting a resident tuple hurts ArM
in two distinct ways:

* **its own completeness** — lost if any partner still arrives after the
  eviction; expected indicator ``1 - (1 - p)^remaining`` — *unless* the
  tuple is already doomed (it missed an earlier partner, so its own
  completeness is unrecoverable);
* **its future partners' completeness** — every partner arriving within
  the tuple's remaining lifetime needs it resident; expected count
  ``p * remaining``.

The policy evicts the tuple with the smallest expected damage, i.e.
``p * remaining + (0 if doomed else 1 - (1 - p)^remaining)``.  Doom is
detectable online in the fast-CPU model: the join sees every arrival
before shedding, so an exact per-key count of recent arrivals compared
with the in-memory partner count reveals, at a tuple's arrival, whether
some earlier partner was already shed.

Like LIFE, the score decays over time, so victims are found by scanning
the resident tuples (O(M) per eviction) — acceptable at the scales the
ArM experiment runs at, and easily replaced by a bucketed scan if needed.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping, Optional

from ...stats.frequency import FrequencyEstimator
from ..memory import TupleRecord
from .base import EvictionPolicy


class KeyArrivalTracker:
    """Exact sliding count of per-key arrivals within the last ``w`` ticks."""

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._window = window
        self._arrivals: dict[Hashable, deque[int]] = {}

    def observe(self, key: Hashable, now: int) -> None:
        self._arrivals.setdefault(key, deque()).append(now)

    def count_in_window(self, key: Hashable, now: int) -> int:
        """Arrivals of ``key`` at times in ``(now - w, now)`` (exclusive)."""
        bucket = self._arrivals.get(key)
        if not bucket:
            return 0
        horizon = now - self._window
        while bucket and bucket[0] <= horizon:
            bucket.popleft()
        size = len(bucket)
        # Exclude an arrival at `now` itself if already observed.
        if bucket and bucket[-1] == now:
            size -= 1
        return size


class ArmAwarePolicy(EvictionPolicy):
    """Eviction minimising expected Archive-metric damage.

    Parameters
    ----------
    estimators:
        Per-stream arrival-distribution estimators (a tuple is scored
        against the other stream's estimator, as in PROB).
    window:
        Window size ``w`` for lifetimes and the arrival trackers.
    """

    name = "ARM"

    def __init__(self, estimators: Mapping[str, FrequencyEstimator], window: int) -> None:
        super().__init__()
        missing = {"R", "S"} - set(estimators)
        if missing:
            raise ValueError(f"estimators missing for streams: {sorted(missing)}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._estimators = dict(estimators)
        self._window = window
        self._trackers = {"R": KeyArrivalTracker(window), "S": KeyArrivalTracker(window)}

    def partner_probability(self, record: TupleRecord) -> float:
        other = "S" if record.stream == "R" else "R"
        return self._estimators[other].probability(record.key)

    def observe_arrival(self, stream: str, key: Hashable, now: int) -> None:
        self._trackers[stream].observe(key, now)

    def _is_doomed(self, record: TupleRecord, now: int) -> bool:
        """Did ``record`` already miss one of its earlier partners?

        Compares the true count of partner arrivals within the window
        (seen by the tracker) with the partners still resident; fixed at
        the tuple's own arrival instant, when the two can only differ
        because of earlier shedding.
        """
        other = "S" if record.stream == "R" else "R"
        arrived = self._trackers[other].count_in_window(record.key, now)
        present = self.memory.other_side(record.stream).match_count(record.key)
        return present < arrived

    def _damage(self, record: TupleRecord, now: int) -> float:
        """Expected ArM increase caused by evicting ``record`` now."""
        remaining = record.arrival + self._window - now
        p = record.priority  # partner probability, cached at admission
        partner_damage = p * remaining
        if record.tag:  # doomed: own completeness is already lost
            return partner_damage
        own_damage = 1.0 - (1.0 - p) ** remaining
        return partner_damage + own_damage

    def on_admit(self, record: TupleRecord, now: int) -> None:
        record.priority = self.partner_probability(record)
        record.tag = self._is_doomed(record, now)

    def weakest_resident(self, stream: str, now: int) -> Optional[TupleRecord]:
        weakest: Optional[TupleRecord] = None
        weakest_damage = 0.0
        for side in self.memory.eviction_candidates(stream):
            for record in side.records():
                damage = self._damage(record, now)
                if (
                    weakest is None
                    or damage < weakest_damage
                    or (damage == weakest_damage and record.arrival < weakest.arrival)
                ):
                    weakest = record
                    weakest_damage = damage
        return weakest

    def snapshot_state(self):
        return {"trackers": self._trackers}

    def restore_state(self, state, records) -> None:
        self._trackers = state["trackers"]

    def choose_victim(self, candidate: TupleRecord, now: int) -> Optional[TupleRecord]:
        weakest = self.weakest_resident(candidate.stream, now)
        if weakest is None:
            return None
        weakest_damage = self._damage(weakest, now)

        candidate.priority = self.partner_probability(candidate)
        candidate.tag = self._is_doomed(candidate, now)
        candidate_damage = self._damage(candidate, now)
        if weakest_damage < candidate_damage or (
            weakest_damage == candidate_damage and weakest.arrival < candidate.arrival
        ):
            return weakest
        return None
