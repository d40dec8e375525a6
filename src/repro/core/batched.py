"""Count-only EXACT execution lanes for the batched fast path.

Under the EXACT configuration (no shedding policy, lossless budget
``M >= 2w``) the sliding-window join needs none of the per-tuple
machinery the engines carry for policies: no :class:`TupleRecord`
allocation, no slot arrays, no per-key deques, no eviction contests.
Everything the result reports is reachable with dictionary count
arithmetic:

* probes — ``matches(t) = s_counts[r(t)] + r_counts[s(t)]`` (plus the
  simultaneous pair), where the count dicts track *resident tuples per
  key*;
* expiry — the synchronous model admits exactly one tuple per side per
  tick, so the tuple expiring at tick ``t`` is exactly the key that
  arrived at ``t - w``: one dict decrement per side, no arrival deque;
* the drop ledger — EXACT never rejects or evicts, and each side
  expires exactly ``max(0, length - w)`` tuples;
* survival — every tuple departs at its natural ``arrival + w - 1``
  (both the tuples that expire mid-run and the ones still resident at
  stream end);
* occupancy — after tick ``t``'s admissions each side holds exactly
  ``min(t + 1, w)`` residents.

The lanes here are *gated*, not general: callers must verify the
configuration cannot overflow (``capacity >= 2 * window`` for the
synchronous engine) or must pass capacity bounds for the lane to check
(the asynchronous lane, where bursts can overflow).  The ``batch`` gate
of ``benchmarks/regression.py`` (``make bench-gate``) pins the lane
output bit-identical to the per-tuple engines.

The shedding policies have chunk lanes too: :mod:`.batched_policies`
(re-exported here) carries ``rand_chunk_run`` / ``prob_chunk_run`` /
``life_chunk_run``, which keep the same per-key count arithmetic for
probes and add flat, allocation-free replicas of the eviction contests.
Their regression gate is the ``policy`` gate of the same script.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence

from ..streams.batches import StreamChunk
from ..streams.sources import bounded_events
from .batched_policies import (
    LaneTotals,
    lane_kind_for_policies,
    life_chunk_run,
    prob_chunk_run,
    rand_chunk_run,
)

__all__ = [
    "LaneTotals",
    "exact_chunk_counts",
    "exact_stream_counts",
    "exact_tick_counts",
    "lane_kind_for_policies",
    "life_chunk_run",
    "prob_chunk_run",
    "rand_chunk_run",
]


def exact_chunk_counts(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    count_simultaneous: bool = True,
) -> tuple[int, int, int, int]:
    """Run the synchronous EXACT join over columnar chunks.

    Returns ``(output, total_output, simultaneous_total, length)`` with
    exactly the semantics of ``JoinEngine._run_fast`` under a ``None``
    policy: per tick — expire the two ``t - window`` arrivals, probe
    both newcomers against the opposite counts (before either same-tick
    insert), count the simultaneous pair, then insert both.

    The caller guarantees the lossless budget (``capacity >= 2 *
    window``), so no capacity checks appear in the loop.
    """
    r_counts: dict = {}
    s_counts: dict = {}
    # Flat key history, extended chunk-wise *before* the chunk's ticks
    # run: expiry at tick t reads index t - window, which is always
    # behind the loop cursor, and probes never read the history.
    r_hist: list = []
    s_hist: list = []

    output = 0
    total_output = 0
    simultaneous_total = 0
    length = 0

    r_get = r_counts.get
    s_get = s_counts.get

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        base = chunk.start
        r_hist.extend(r_keys)
        s_hist.extend(s_keys)
        for i in range(chunk.length):
            t = base + i
            # 1. expiry: the synchronous model retires exactly the
            #    arrival at t - window on each side.
            old = t - window
            if old >= 0:
                key = r_hist[old]
                remaining = r_counts[key] - 1
                if remaining:
                    r_counts[key] = remaining
                else:
                    del r_counts[key]
                key = s_hist[old]
                remaining = s_counts[key] - 1
                if remaining:
                    s_counts[key] = remaining
                else:
                    del s_counts[key]

            r_key = r_keys[i]
            s_key = s_keys[i]

            # 2. probes (before either same-tick insert).
            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # 3. admissions (no contest possible at lossless budget).
            r_counts[r_key] = r_get(r_key, 0) + 1
            s_counts[s_key] = s_get(s_key, 0) + 1
        length = base + chunk.length

    return output, total_output, simultaneous_total, length


def exact_tick_counts(
    r_batches: Sequence[Sequence],
    s_batches: Sequence[Sequence],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    overflow_error: type = RuntimeError,
) -> tuple[int, int, int, int, int]:
    """Run the asynchronous EXACT join over per-tick arrival batches.

    :func:`exact_stream_counts` over ``zip(r_batches, s_batches)``: the
    semantics of ``AsyncJoinEngine.run`` in time-window mode with a
    ``None`` policy, including the capacity checks and the overflow
    error a burst can trigger.

    Returns ``(output, total_output, arrivals, expired_r, expired_s)``.
    """
    output, total_output, arrivals, expired_r, expired_s, _ = exact_stream_counts(
        zip(r_batches, s_batches),
        window,
        warmup,
        capacity=capacity,
        variable=variable,
        overflow_error=overflow_error,
    )
    return output, total_output, arrivals, expired_r, expired_s


def exact_stream_counts(
    events: Iterable,
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool = True,
    overflow_error: type = RuntimeError,
    until: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    on_progress: Optional[Callable] = None,
    progress_every: int = 0,
) -> tuple[int, int, int, int, int, int]:
    """Run the EXACT join incrementally over per-tick arrival batches.

    ``events`` yields per-tick ``(r_keys, s_keys)`` arrival batches (a
    :class:`repro.streams.sources.Source` iterator, or zipped batch
    lists), which may be unbounded — working state is two count dicts
    plus two expiry queues, all bounded by the window contents, never by
    stream length.  Per tick: expire ``arrival <= t - window`` on both
    sides, then process the R batch and then the S batch, each tuple
    probing the opposite counts when processed.  Bursts can overflow the
    budget, so inserts check capacity exactly where
    :meth:`JoinKernel.insert` would and raise ``overflow_error`` with the
    kernel's message.  This is the lane ``make soak`` exercises and the
    one every sharded EXACT shard runs.

    Counting is order-equivalent for both engines' EXACT semantics: R
    arrivals are probed against resident S then admitted before the S
    batch probes, so a same-tick pair is counted once — exactly the
    asynchronous per-tuple order, and exactly the synchronous engine's
    probes-plus-top-path total.  ``count_simultaneous=False`` (a
    synchronous-engine knob) subtracts the same-tick pairs.

    ``until`` bounds the tick count, ``stop()`` is polled each tick for
    cooperative shutdown (``repro serve``'s SIGINT path), and
    ``on_progress(t, output, total_output, arrivals, expired_r,
    expired_s)`` fires after every ``progress_every`` ticks — the
    rolling-summary hook.

    Returns ``(output, total_output, arrivals, expired_r, expired_s,
    ticks)``.
    """
    r_counts: dict = {}
    s_counts: dict = {}
    # One expiry queue for both sides, of (expiry tick, key, the side's
    # counts): arrivals enter in tick order, so the front expires first,
    # and ``next_expiry`` (never later than the front) lets the ticks
    # with nothing to expire skip the queue with one compare — most
    # ticks of a shard, which sees a fraction of the arrivals.
    queue: deque = deque()
    next_expiry = window

    output = 0
    total_output = 0
    arrivals = 0
    expired_r = 0
    expired_s = 0
    r_size = 0
    s_size = 0

    r_get = r_counts.get
    s_get = s_counts.get
    half = capacity // 2
    subtract_cross = not count_simultaneous
    next_progress = progress_every - 1 if progress_every and on_progress else -1

    t = -1
    for t, (r_batch, s_batch) in enumerate(bounded_events(events, until, stop)):
        if t >= next_expiry:
            while queue and queue[0][0] <= t:
                _, key, counts = queue.popleft()
                remaining = counts[key] - 1
                if remaining:
                    counts[key] = remaining
                else:
                    del counts[key]
                if counts is r_counts:
                    expired_r += 1
                    r_size -= 1
                else:
                    expired_s += 1
                    s_size -= 1
            # This tick's arrivals expire at t + window at the earliest.
            next_expiry = queue[0][0] if queue else t + window

        if r_batch:
            for key in r_batch:
                arrivals += 1
                matches = s_get(key, 0)
                total_output += matches
                if t >= warmup:
                    output += matches
                if (r_size + s_size >= capacity) if variable else (r_size >= half):
                    raise overflow_error(
                        f"memory overflow at t={t} with no shedding policy "
                        f"(capacity {capacity})"
                    )
                r_counts[key] = r_get(key, 0) + 1
                queue.append((t + window, key, r_counts))
                r_size += 1
        if s_batch:
            for key in s_batch:
                arrivals += 1
                matches = r_get(key, 0)
                total_output += matches
                if t >= warmup:
                    output += matches
                if (r_size + s_size >= capacity) if variable else (s_size >= half):
                    raise overflow_error(
                        f"memory overflow at t={t} with no shedding policy "
                        f"(capacity {capacity})"
                    )
                s_counts[key] = s_get(key, 0) + 1
                queue.append((t + window, key, s_counts))
                s_size += 1
        if subtract_cross and r_batch and s_batch:
            # The synchronous engine's top path is optional; the insert
            # order above already counted every same-tick pair, so take
            # them back out.
            tick_counts: dict = {}
            for key in r_batch:
                tick_counts[key] = tick_counts.get(key, 0) + 1
            cross = sum(tick_counts.get(key, 0) for key in s_batch)
            total_output -= cross
            if t >= warmup:
                output -= cross

        if t == next_progress:
            next_progress += progress_every
            on_progress(t, output, total_output, arrivals, expired_r, expired_s)

    return output, total_output, arrivals, expired_r, expired_s, t + 1
