"""Naive reference implementation of the fast-CPU model (tests only).

A deliberately simple O(n · M) simulation with plain lists and linear
scans — no heaps, buckets, or slot arrays — used to fuzz the production
engine's bookkeeping.  Mirrors the engine's semantics exactly: expiry →
probe both arrivals → admit R then S, with the paper's tie rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.stats.countmin import stable_hash
from repro.streams.tuples import StreamPair

_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class _Resident:
    stream: str
    arrival: int
    key: object
    #: Partner probability when admitted (PROB ranks residents by it).
    priority: float = 0.0


@dataclass(frozen=True)
class NaiveResult:
    """Post-warmup output and the whole run's drop ledger by reason."""

    output: int
    rejected: int = 0
    evicted: int = 0
    expired: int = 0


class NaiveCountMin:
    """Count-Min as first written: rows of counters, no caches.

    Re-hashes the key and re-scans its counters on every call, so it
    checks :class:`~repro.stats.countmin.CountMinSketch`'s cached
    estimates (same hash functions, same seeds, same estimates).
    """

    def __init__(self, width, depth, *, seed=0, conservative=False):
        self.width = width
        self.conservative = conservative
        self.table = [[0] * width for _ in range(depth)]
        self.total = 0
        gen = random.Random(seed)
        self.hash_a = [gen.randrange(1, _PRIME) for _ in range(depth)]
        self.hash_b = [gen.randrange(0, _PRIME) for _ in range(depth)]

    def buckets(self, key):
        h = stable_hash(key) & _PRIME
        return [
            ((a * h + b) % _PRIME) % self.width
            for a, b in zip(self.hash_a, self.hash_b)
        ]

    def observe(self, key):
        buckets = self.buckets(key)
        self.total += 1
        if self.conservative:
            target = min(self.table[row][col] for row, col in enumerate(buckets)) + 1
            for row, col in enumerate(buckets):
                if self.table[row][col] < target:
                    self.table[row][col] = target
        else:
            for row, col in enumerate(buckets):
                self.table[row][col] += 1

    def estimate(self, key):
        if self.total == 0:
            return 0
        return min(self.table[row][col] for row, col in enumerate(self.buckets(key)))

    def probability(self, key):
        if self.total == 0:
            return 0.0
        return self.estimate(key) / self.total


def naive_run(
    pair: StreamPair,
    window: int,
    memory: int,
    policy_kind: str,
    estimators: Optional[dict] = None,
    *,
    variable: bool = False,
    warmup: Optional[int] = None,
    online: bool = False,
) -> NaiveResult:
    """PROB / LIFE / EXACT via brute-force scans.

    ``online`` feeds each arrival to its own stream's estimator in the
    kernel's order — the R arrival, then the S arrival, then probes and
    admissions — so live estimators (EWMA, Count-Min) see what the
    engine's policies see.  PROB ranks a resident by the probability it
    was admitted with, and scores the newcomer with the current one;
    LIFE re-scores every resident at each contest.
    """
    if warmup is None:
        warmup = 2 * window
    if policy_kind not in ("PROB", "LIFE", "EXACT"):
        raise ValueError(policy_kind)
    if policy_kind != "EXACT" and estimators is None:
        raise ValueError("PROB/LIFE need estimators")

    def partner_probability(resident_stream: str, key) -> float:
        other = "S" if resident_stream == "R" else "R"
        return estimators[other].probability(key)

    residents: list[_Resident] = []
    output = rejected = evicted = expired = 0

    for t in range(len(pair)):
        alive = [r for r in residents if r.arrival > t - window]
        expired += len(residents) - len(alive)
        residents = alive
        r_key, s_key = pair.r[t], pair.s[t]
        if online:
            estimators["R"].observe(r_key)
            estimators["S"].observe(s_key)

        matches = sum(1 for r in residents if r.stream == "S" and r.key == r_key)
        matches += sum(1 for r in residents if r.stream == "R" and r.key == s_key)
        if r_key == s_key:
            matches += 1
        if t >= warmup:
            output += matches

        for stream, key in (("R", r_key), ("S", s_key)):
            if variable:
                pool = residents
                capacity = memory
            else:
                pool = [r for r in residents if r.stream == stream]
                capacity = memory // 2 if policy_kind != "EXACT" else window

            priority = (
                partner_probability(stream, key) if policy_kind == "PROB" else 0.0
            )
            newcomer = _Resident(stream, t, key, priority)
            if len(pool) < capacity:
                residents.append(newcomer)
                continue
            if policy_kind == "EXACT":
                raise AssertionError("EXACT must never overflow")

            if policy_kind == "PROB":
                weakest = min(pool, key=lambda r: (r.priority, r.arrival))
                evict = (weakest.priority, weakest.arrival) < (priority, t)
            else:  # LIFE
                def life_priority(r: _Resident) -> float:
                    return (r.arrival + window - t) * partner_probability(
                        r.stream, r.key
                    )

                weakest = min(pool, key=lambda r: (life_priority(r), r.arrival))
                weakest_priority = life_priority(weakest)
                candidate_priority = window * partner_probability(stream, key)
                evict = weakest_priority < candidate_priority or (
                    weakest_priority == candidate_priority and weakest.arrival < t
                )
            if evict:
                residents.remove(weakest)
                residents.append(newcomer)
                evicted += 1
            else:
                rejected += 1

    return NaiveResult(output, rejected, evicted, expired)


def naive_async_run(
    r_batches,
    s_batches,
    window: int,
    memory: int,
    estimators: dict,
    *,
    variable: bool = False,
    warmup: int = 0,
) -> int:
    """Naive mirror of the asynchronous engine (time windows, PROB).

    Async semantics differ from the synchronous engine: each arrival
    probes when *processed* (R batch first, then S), so a tuple sees
    same-tick partners already admitted.
    """

    def partner_probability(resident_stream: str, key) -> float:
        other = "S" if resident_stream == "R" else "R"
        return estimators[other].probability(key)

    residents: list[_Resident] = []
    output = 0

    for t in range(len(r_batches)):
        residents = [r for r in residents if r.arrival > t - window]
        for stream, batch in (("R", r_batches[t]), ("S", s_batches[t])):
            for key in batch:
                other = "S" if stream == "R" else "R"
                matches = sum(
                    1 for r in residents if r.stream == other and r.key == key
                )
                if t >= warmup:
                    output += matches

                if variable:
                    pool = residents
                    capacity = memory
                else:
                    pool = [r for r in residents if r.stream == stream]
                    capacity = memory // 2

                newcomer = _Resident(stream, t, key)
                if len(pool) < capacity:
                    residents.append(newcomer)
                    continue
                if not pool:
                    continue  # zero-capacity pool: always reject

                def prob_rank(r: _Resident):
                    return (partner_probability(r.stream, r.key), r.arrival)

                weakest = min(pool, key=prob_rank)
                if prob_rank(weakest) < (partner_probability(stream, key), t):
                    residents.remove(weakest)
                    residents.append(newcomer)

    return output
