"""Vectorized policy lanes for the columnar micro-batch fast path.

The EXACT count lanes of :mod:`repro.core.batched` prove that the
synchronous join collapses to dictionary count arithmetic when nothing
is ever shed.  The lanes here extend that collapse to the paper's
shedding policies — RAND, PROB, and LIFE — by replacing the engine's
record-object machinery with flat state the hot loop can drive per
:class:`~repro.streams.batches.StreamChunk`.  There is one lane per
policy, and the allocation mode is its ``variable`` argument: fixed
allocation (``M/2`` per side) and variable allocation (one shared pool)
differ only in whether a contest is held among the newcomer's own side
or across the whole pool — the same ternary ``JoinEngine._run_fast``
applies at admission.  Own-side removals stay inline; the cross-side
branch only runs on a shared pool.

* **probes** stay per-key count arithmetic (two dict lookups per tick);
* **candidate priorities** (PROB's partner probability, LIFE's
  ``window * p``) are gathered once per chunk from a dense numpy view of
  the static probability tables (``dense[key_column]``), with a per-key
  ``dict.get`` fallback when keys are not small non-negative integers;
* **RAND draws** come from a pre-drawn block of the policy's own
  generator: once contests begin the draw bound is a run constant
  (contests only fire on a full side/pool), so one
  ``Generator.integers(bound, size=N)`` call replaces N scalar calls.
  A one-time probe verifies block draws reproduce the scalar-draw
  sequence bit-for-bit; if the installed numpy disagrees the lane falls
  back to scalar draws (identical decisions, smaller win).  A shared
  pool draws one stream for both sides;
* **PROB's weakest resident** is a lazy min-heap of bare
  ``(priority, arrival, side)`` tuples, one per side or one shared by
  the pool — the same total order as
  :class:`~repro.core.policies.prob.ProbPolicy`'s record heap, because
  per-side arrival times are unique;
* **LIFE's weakest-victim scan** walks a per-key aggregate view —
  ``key -> (arrival deque, partner probability)`` — of the contest's
  own side, or of R then S on a shared pool, so each distinct resident
  key costs one deque peek and one multiply, instead of the per-tuple
  path's record resolution through the memory's per-key FIFOs.

Identity contract
-----------------
Every lane reproduces ``JoinEngine._run_fast`` bit-for-bit: output and
total-output counts, the drop ledger, survival departures, and the
sampled occupancy/share series; ``tests/test_engine_fuzz.py`` also
checks the PROB and LIFE lanes, both allocation modes, against the
brute-force oracle.  The load-bearing structural facts (all asserted
by ``tests/test_policy_batched.py`` across policies × batch sizes ×
allocation modes):

* the synchronous model admits one tuple per side per tick, so per-side
  arrival times are unique — ``(priority, arrival)`` is a total order
  and the record-identity tie-breaks of the per-tuple structures can
  never fire;
* a resident's arrival lies in ``(t - window, t]``, so a ring buffer of
  ``window`` entries resolves arrival -> key (and arrival -> slot for
  RAND's swap-remove slot array) without per-record objects;
* RAND victims are drawn *by slot index*, so the lane maintains the
  side's slot array with exactly the engine's append/swap-remove
  discipline — slot order is replicated, not just membership;
* LIFE only ever removes a key's oldest resident (evictions pick it,
  expiry removes the globally oldest, which is also its key's oldest),
  so a per-key arrival deque popped from the left mirrors the memory's
  per-key FIFO exactly;
* every lane books each expiry, eviction and rejection in the tick it
  happens (expiry pops the arrival at ``t - window``; PROB's lazy heap
  defers only the deletion of stale heap entries, never their
  booking), so the running totals at a chunk's end equal the per-tuple
  loop's after that chunk's last tick.  The optional ``on_chunk(totals)``
  hook receives them; the engine's rolling summaries are built from it.

Lanes are *gated*, not general: :func:`lane_kind_for_policies` accepts
only exact policy types in their static configuration (RAND with the
default newcomer-inclusive draw, PROB/LIFE with frozen
:class:`~repro.stats.frequency.StaticFrequencyTable` estimators).
Online estimators, ARM/FIFO, tracers, and schedules keep the per-tuple
loops (``JoinEngine._run_fast`` or the kernel tick loop).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as _np

from ..streams.batches import StreamChunk

__all__ = [
    "LaneTotals",
    "lane_kind_for_policies",
    "life_chunk_run",
    "prob_chunk_run",
    "rand_chunk_run",
]

#: Pre-drawn RAND block size: large enough to amortise the generator
#: call, small enough that an abandoned tail at stream end is cheap.
_DRAW_BLOCK = 512

#: bound -> whether `integers(bound, size=n)` reproduces n scalar draws.
_BLOCK_DRAW_OK: dict[int, bool] = {}


class LaneTotals(NamedTuple):
    """Everything a policy lane reports back to the engine."""

    output: int
    total_output: int
    simultaneous_total: int
    length: int
    rej_r: int
    rej_s: int
    ev_r: int
    ev_s: int
    exp_r: int
    exp_s: int
    r_size: int
    s_size: int


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------

def lane_kind_for_policies(
    policy_r, policy_s, *, variable: bool, observers
) -> Optional[str]:
    """Which lane (``"rand"``/``"prob"``/``"life"``) covers this policy
    wiring, or ``None`` for the per-tuple fallback.

    Exact-type checks on purpose: a subclass may override decision
    methods the lane inlines.  PROB/LIFE qualify only with their static
    partner-probability cache materialised (frozen
    ``StaticFrequencyTable`` estimators, no online updates); RAND only
    with the default newcomer-inclusive draw.  Arrival observers mean
    online statistics are flowing — per-tuple path.
    """
    from .policies.life import LifePolicy
    from .policies.prob import ProbPolicy
    from .policies.random_policy import RandomEvictionPolicy

    if observers:
        return None

    def kind(policy):
        tp = type(policy)
        if tp is RandomEvictionPolicy:
            return "rand" if policy._include_newcomer else None
        if tp is ProbPolicy:
            return "prob" if policy._partner_probs is not None else None
        if tp is LifePolicy:
            return "life" if policy._partner_probs is not None else None
        return None

    if variable:
        if policy_r is None or policy_r is not policy_s:
            return None
        return kind(policy_r)
    if policy_r is None or policy_s is None:
        return None
    kind_r = kind(policy_r)
    return kind_r if kind_r is not None and kind_r == kind(policy_s) else None


# ----------------------------------------------------------------------
# probability columns
# ----------------------------------------------------------------------

def _dense_from_dict(probs: dict):
    """Dense ``key -> probability`` array for small non-negative int keys.

    Returns ``None`` (dict-lookup fallback) for non-integer keys, or
    when the key range is too sparse to densify.
    """
    if not probs:
        return None
    max_key = -1
    for key in probs:
        if type(key) is not int or key < 0:
            return None
        if key > max_key:
            max_key = key
    if max_key >= 1 << 22:  # don't allocate a huge, mostly-empty table
        return None
    dense = _np.zeros(max_key + 1, dtype=_np.float64)
    for key, p in probs.items():
        dense[key] = p
    return dense


def _prob_column(column, keys: list, dense, probs: dict) -> list:
    """Per-chunk candidate-priority column: ``[table[k] for k in keys]``.

    ``column`` is the chunk's raw key column (numpy for integer keys);
    ``keys`` the expanded list the hot loop indexes.  The dense gather
    produces exactly the dict's float values (one float64 copy), so the
    two paths are bit-identical.
    """
    if (
        dense is not None
        and isinstance(column, _np.ndarray)
        and column.size
        and column.min() >= 0
        and column.max() < dense.shape[0]
    ):
        return dense[column].tolist()
    get = probs.get
    return [get(key, 0.0) for key in keys]


# ----------------------------------------------------------------------
# RAND
# ----------------------------------------------------------------------

def _block_draws_equivalent(bound: int) -> bool:
    """Does ``integers(bound, size=n)`` equal n scalar draws, bit-for-bit?

    Empirically probed once per bound with throwaway generators (values
    *and* end state must agree), because the lane's pre-drawn blocks are
    only sound if they consume the generator exactly as the per-tuple
    policy's scalar draws would.
    """
    cached = _BLOCK_DRAW_OK.get(bound)
    if cached is None:
        probe_block = _np.random.default_rng(987654321)
        probe_scalar = _np.random.default_rng(987654321)
        block = probe_block.integers(bound, size=64).tolist()
        scalars = [int(probe_scalar.integers(bound)) for _ in range(64)]
        cached = (
            block == scalars
            and probe_block.bit_generator.state == probe_scalar.bit_generator.state
        )
        _BLOCK_DRAW_OK[bound] = cached
    return cached


def _draws(rng, bound: int) -> Callable[[], int]:
    """One RAND contest draw per call, pre-drawn from ``rng`` in blocks.

    Blocks are drawn lazily, when the previous one runs out — the same
    points in the generator's sequence a scalar-draw loop would reach.
    """
    block = _DRAW_BLOCK if _block_draws_equivalent(bound) else 1
    return chain.from_iterable(
        iter(lambda: rng.integers(bound, size=block).tolist(), None)
    ).__next__


def _swap_remove(
    slots: list, pos: list, ring: list, counts: dict, window: int, slot: int
) -> int:
    """Swap-remove the resident at ``slot`` of a side; returns its arrival.

    The cross-side eviction of a shared pool.  Own-side removals repeat
    this inline: they are the hot path of both allocation modes.
    """
    arrival = slots[slot]
    vidx = arrival % window
    key = ring[vidx]
    last = slots[-1]
    slots[slot] = last
    pos[last % window] = slot
    slots.pop()
    pos[vidx] = -1
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]
    return arrival


def rand_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    rng_r,
    rng_s=None,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
    on_chunk: Optional[Callable[[LaneTotals], None]] = None,
) -> LaneTotals:
    """RAND over columnar chunks, bit-identical to the per-tuple run.

    ``rng_r``/``rng_s`` are the *policy instances'* own generators (the
    S one is ``None`` on a shared pool, where both sides draw from
    ``rng_r``), so the lane consumes the same draw sequence the
    per-tuple contests would.  Victim selection replicates slot-index
    draws against a swap-remove slot array of arrival times; keys
    resolve through a ``window``-sized ring.
    """
    # A contest fires only on a full side (fixed) or pool (variable), so
    # it always draws among `limit` residents plus the newcomer.
    limit = capacity if variable else capacity // 2
    draw_r = _draws(rng_r, limit + 1)
    draw_s = draw_r if variable else _draws(rng_s, limit + 1)

    r_counts: dict = {}
    s_counts: dict = {}
    r_ring: list = [None] * window  # arrival % window -> key
    s_ring: list = [None] * window
    r_pos: list = [-1] * window  # arrival % window -> slot index (-1 = gone)
    s_pos: list = [-1] * window
    r_slots: list = []  # slot index -> arrival, engine's swap-remove order
    s_slots: list = []

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    r_get = r_counts.get
    s_get = s_counts.get

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            # 1. expiry: the arrival at t - window, if still resident.
            if t >= window:
                slot = r_pos[idx]
                if slot >= 0:
                    key = r_ring[idx]
                    last = r_slots[-1]
                    r_slots[slot] = last
                    r_pos[last % window] = slot
                    r_slots.pop()
                    r_pos[idx] = -1
                    remaining = r_counts[key] - 1
                    if remaining:
                        r_counts[key] = remaining
                    else:
                        del r_counts[key]
                    exp_r += 1
                slot = s_pos[idx]
                if slot >= 0:
                    key = s_ring[idx]
                    last = s_slots[-1]
                    s_slots[slot] = last
                    s_pos[last % window] = slot
                    s_slots.pop()
                    s_pos[idx] = -1
                    remaining = s_counts[key] - 1
                    if remaining:
                        s_counts[key] = remaining
                    else:
                        del s_counts[key]
                    exp_s += 1

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            # 2. probes (before either same-tick admission).
            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # 3. admissions: R first, then S.  On a shared pool the drawn
            # index walks R's slots, then S's — the order of
            # JoinMemory.eviction_candidates.
            if (len(r_slots) + len(s_slots) < capacity) if variable else (
                len(r_slots) < limit
            ):
                r_pos[idx] = len(r_slots)
                r_slots.append(t)
                r_counts[r_key] = r_get(r_key, 0) + 1
            else:
                victim = draw_r()
                if victim == limit:  # the newcomer itself was drawn
                    rej_r += 1
                    if track:
                        r_departures[t] = t
                else:
                    if variable and victim >= len(r_slots):
                        arrival = _swap_remove(
                            s_slots, s_pos, s_ring, s_counts, window,
                            victim - len(r_slots),
                        )
                        ev_s += 1
                        if track:
                            s_departures[arrival] = t
                    else:
                        arrival = r_slots[victim]
                        vidx = arrival % window
                        key = r_ring[vidx]
                        last = r_slots[-1]
                        r_slots[victim] = last
                        r_pos[last % window] = victim
                        r_slots.pop()
                        r_pos[vidx] = -1
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[arrival] = t
                    r_pos[idx] = len(r_slots)
                    r_slots.append(t)
                    r_counts[r_key] = r_get(r_key, 0) + 1

            if (len(r_slots) + len(s_slots) < capacity) if variable else (
                len(s_slots) < limit
            ):
                s_pos[idx] = len(s_slots)
                s_slots.append(t)
                s_counts[s_key] = s_get(s_key, 0) + 1
            else:
                victim = draw_s()
                if victim == limit:
                    rej_s += 1
                    if track:
                        s_departures[t] = t
                else:
                    slot = victim - len(r_slots) if variable else victim
                    if slot >= 0:
                        arrival = s_slots[slot]
                        vidx = arrival % window
                        key = s_ring[vidx]
                        last = s_slots[-1]
                        s_slots[slot] = last
                        s_pos[last % window] = slot
                        s_slots.pop()
                        s_pos[vidx] = -1
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[arrival] = t
                    else:
                        arrival = _swap_remove(
                            r_slots, r_pos, r_ring, r_counts, window, victim
                        )
                        ev_r += 1
                        if track:
                            r_departures[arrival] = t
                    s_pos[idx] = len(s_slots)
                    s_slots.append(t)
                    s_counts[s_key] = s_get(s_key, 0) + 1

            if sample_every and not t % sample_every:
                sampler(t, len(r_slots), len(s_slots))
        length = base + chunk.length
        if on_chunk is not None:
            on_chunk(LaneTotals(
                output, total_output, simultaneous_total, length,
                rej_r, rej_s, ev_r, ev_s, exp_r, exp_s,
                len(r_slots), len(s_slots),
            ))

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, len(r_slots), len(s_slots),
    )


# ----------------------------------------------------------------------
# PROB
# ----------------------------------------------------------------------

def _forget(
    alive: set, counts: dict, ring: list, window: int, arrival: int
) -> None:
    """Drop a resident from a side's alive set and key counts.

    The cross-side eviction of a shared pool (PROB); own-side removals
    repeat this inline on the hot path.
    """
    alive.remove(arrival)
    key = ring[arrival % window]
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]


def _compact(heap: list, alive: tuple) -> None:
    """Drop stale entries from a lazy PROB heap, in place (a shared pool
    aliases one heap to both sides).  Purely a memory bound: the heap
    orders by the total ``(priority, arrival, side)``, so pops are
    unaffected."""
    heap[:] = [entry for entry in heap if entry[1] in alive[entry[2]]]
    heapq.heapify(heap)


def prob_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    probs_r: dict,
    probs_s: dict,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
    on_chunk: Optional[Callable[[LaneTotals], None]] = None,
) -> LaneTotals:
    """PROB over columnar chunks, bit-identical to the per-tuple run.

    ``probs_r``/``probs_s`` map a key to the *partner* probability of an
    R-side / S-side tuple carrying it (``p_S`` / ``p_R`` — the policies'
    static caches).  Candidate priorities are gathered per chunk; the
    weakest resident comes from a lazy ``(priority, arrival, side)``
    min-heap per side (one shared heap on a shared pool), which orders
    exactly like ``ProbPolicy``'s record heap: per-side arrivals are
    unique, and an equal ``(priority, arrival)`` across sides can only
    be one tick's R and S admissions, where R (side 0) was admitted first.
    """
    half = capacity // 2
    dense_r = _dense_from_dict(probs_r)
    dense_s = _dense_from_dict(probs_s)

    r_counts: dict = {}
    s_counts: dict = {}
    r_ring: list = [None] * window
    s_ring: list = [None] * window
    r_alive: set = set()  # resident arrival times
    s_alive: set = set()
    alive = (r_alive, s_alive)  # indexed by a heap entry's side
    r_len = s_len = 0  # occupancy; cheaper than len() on the hot path
    r_heap: list = []  # (partner probability, arrival, side); lazy deletions
    s_heap: list = r_heap if variable else []
    # Only expiries leave stale entries, and a heap holds at most
    # `capacity` live ones: past this size over half of it is stale.
    heap_cap = 2 * capacity + 64

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    r_get = r_counts.get
    s_get = s_counts.get
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        cp_r = _prob_column(chunk.r_keys, r_keys, dense_r, probs_r)
        cp_s = _prob_column(chunk.s_keys, s_keys, dense_s, probs_s)
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            if t >= window:
                old = t - window
                if old in r_alive:
                    r_alive.remove(old)
                    key = r_ring[idx]
                    remaining = r_counts[key] - 1
                    if remaining:
                        r_counts[key] = remaining
                    else:
                        del r_counts[key]
                    r_len -= 1
                    exp_r += 1
                    if len(r_heap) > heap_cap:
                        _compact(r_heap, alive)
                if old in s_alive:
                    s_alive.remove(old)
                    key = s_ring[idx]
                    remaining = s_counts[key] - 1
                    if remaining:
                        s_counts[key] = remaining
                    else:
                        del s_counts[key]
                    s_len -= 1
                    exp_s += 1
                    if len(s_heap) > heap_cap:
                        _compact(s_heap, alive)

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # R admission.
            cp = cp_r[i]
            if (r_len + s_len < capacity) if variable else (r_len < half):
                r_alive.add(t)
                heappush(r_heap, (cp, t, 0))
                r_counts[r_key] = r_get(r_key, 0) + 1
                r_len += 1
            else:
                while True:
                    wp, wa, wside = r_heap[0]
                    if wa in alive[wside]:
                        break
                    heappop(r_heap)
                # later_arrival_wins: on a shared pool the weakest may
                # share the newcomer's tick (this tick's R during the S
                # contest); an own-side resident is always older.
                if wp < cp or (wp == cp and wa < t):
                    # One sift pops the weakest and pushes the newcomer;
                    # entries are distinct, so later pops are unchanged.
                    heapreplace(r_heap, (cp, t, 0))
                    if wside:  # only on a shared pool
                        _forget(s_alive, s_counts, s_ring, window, wa)
                        s_len -= 1
                        r_len += 1
                        ev_s += 1
                        if track:
                            s_departures[wa] = t
                    else:
                        r_alive.remove(wa)
                        key = r_ring[wa % window]
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[wa] = t
                    r_alive.add(t)
                    r_counts[r_key] = r_get(r_key, 0) + 1
                else:
                    rej_r += 1
                    if track:
                        r_departures[t] = t

            # S admission.
            cp = cp_s[i]
            if (r_len + s_len < capacity) if variable else (s_len < half):
                s_alive.add(t)
                heappush(s_heap, (cp, t, 1))
                s_counts[s_key] = s_get(s_key, 0) + 1
                s_len += 1
            else:
                while True:
                    wp, wa, wside = s_heap[0]
                    if wa in alive[wside]:
                        break
                    heappop(s_heap)
                if wp < cp or (wp == cp and wa < t):
                    heapreplace(s_heap, (cp, t, 1))
                    if wside:
                        s_alive.remove(wa)
                        key = s_ring[wa % window]
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[wa] = t
                    else:  # only on a shared pool
                        _forget(r_alive, r_counts, r_ring, window, wa)
                        r_len -= 1
                        s_len += 1
                        ev_r += 1
                        if track:
                            r_departures[wa] = t
                    s_alive.add(t)
                    s_counts[s_key] = s_get(s_key, 0) + 1
                else:
                    rej_s += 1
                    if track:
                        s_departures[t] = t

            if sample_every and not t % sample_every:
                sampler(t, r_len, s_len)
        length = base + chunk.length
        if on_chunk is not None:
            on_chunk(LaneTotals(
                output, total_output, simultaneous_total, length,
                rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, r_len, s_len,
            ))

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, r_len, s_len,
    )


# ----------------------------------------------------------------------
# LIFE
# ----------------------------------------------------------------------

def life_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    probs_r: dict,
    probs_s: dict,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
    on_chunk: Optional[Callable[[LaneTotals], None]] = None,
) -> LaneTotals:
    """LIFE over columnar chunks, bit-identical to the per-tuple run.

    The weakest-victim scan walks per-key aggregate cells —
    ``key -> (arrival deque, partner probability)`` — so each distinct
    resident key costs one deque peek and one float multiply.  The
    arithmetic is exactly ``LifePolicy._weakest_on``'s
    ``(oldest_arrival + window - now) * p`` (IEEE-identical), and the
    per-chunk candidate column is ``window * p`` gathered from the same
    tables, so every contest decides exactly as the per-tuple policy.
    """
    half = capacity // 2
    dense_r = _dense_from_dict(probs_r)
    dense_s = _dense_from_dict(probs_s)
    cand_dense_r = dense_r * window if dense_r is not None else None
    cand_dense_s = dense_s * window if dense_s is not None else None
    cand_probs_r = {key: window * p for key, p in probs_r.items()}
    cand_probs_s = {key: window * p for key, p in probs_s.items()}

    # key -> (deque of resident arrivals, partner probability).  All
    # removals take the key's oldest arrival (see module docstring), so
    # popleft keeps the deque equal to the memory's per-key FIFO.
    r_cells: dict = {}
    s_cells: dict = {}
    # The cells each side's contest scans: its own, or on a shared pool
    # R's then S's — the fold order of LifePolicy._weakest over
    # eviction_candidates.
    r_scan = (r_cells, s_cells) if variable else (r_cells,)
    s_scan = (r_cells, s_cells) if variable else (s_cells,)
    r_ring: list = [None] * window
    s_ring: list = [None] * window
    r_len = s_len = 0
    inf = float("inf")

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        p_r = _prob_column(chunk.r_keys, r_keys, dense_r, probs_r)
        p_s = _prob_column(chunk.s_keys, s_keys, dense_s, probs_s)
        candp_r = _prob_column(chunk.r_keys, r_keys, cand_dense_r, cand_probs_r)
        candp_s = _prob_column(chunk.s_keys, s_keys, cand_dense_s, cand_probs_s)
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            if t >= window:
                old = t - window
                key = r_ring[idx]
                cell = r_cells.get(key)
                if cell is not None and cell[0][0] == old:
                    dq = cell[0]
                    dq.popleft()
                    if not dq:
                        del r_cells[key]
                    exp_r += 1
                    r_len -= 1
                key = s_ring[idx]
                cell = s_cells.get(key)
                if cell is not None and cell[0][0] == old:
                    dq = cell[0]
                    dq.popleft()
                    if not dq:
                        del s_cells[key]
                    exp_s += 1
                    s_len -= 1

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            cell = s_cells.get(r_key)
            matched = len(cell[0]) if cell is not None else 0
            cell = r_cells.get(s_key)
            if cell is not None:
                matched += len(cell[0])
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # R admission.
            if (r_len + s_len < capacity) if variable else (r_len < half):
                cell = r_cells.get(r_key)
                if cell is None:
                    r_cells[r_key] = (deque((t,)), p_r[i])
                else:
                    cell[0].append(t)
                r_len += 1
            else:
                # Weakest-victim scan: once per contest, one deque peek
                # and one multiply per distinct resident key.  First-
                # seen wins exact ties, so a cross-side (priority,
                # arrival) tie keeps the R contender, as the sequential
                # fold does; within a side arrivals are unique.
                offset = window - t
                best_cells = best_key = None
                best_a = -1
                best_pri = inf  # every finite priority beats it
                for cells in r_scan:
                    for key, cell in cells.items():
                        a0 = cell[0][0]
                        pri = (a0 + offset) * cell[1]
                        if pri < best_pri or (pri == best_pri and a0 < best_a):
                            best_cells = cells
                            best_key = key
                            best_a = a0
                            best_pri = pri
                cand = candp_r[i]
                # later_arrival_wins: on a shared pool the weakest may
                # share the newcomer's tick (this tick's R during the S
                # contest); an own-side resident is always older.
                if best_pri < cand or (best_pri == cand and best_a < t):
                    dq = best_cells[best_key][0]
                    dq.popleft()
                    if not dq:
                        del best_cells[best_key]
                    if best_cells is r_cells:
                        ev_r += 1
                        if track:
                            r_departures[best_a] = t
                    else:  # only on a shared pool
                        ev_s += 1
                        s_len -= 1
                        r_len += 1
                        if track:
                            s_departures[best_a] = t
                    cell = r_cells.get(r_key)
                    if cell is None:
                        r_cells[r_key] = (deque((t,)), p_r[i])
                    else:
                        cell[0].append(t)
                else:
                    rej_r += 1
                    if track:
                        r_departures[t] = t

            # S admission.
            if (r_len + s_len < capacity) if variable else (s_len < half):
                cell = s_cells.get(s_key)
                if cell is None:
                    s_cells[s_key] = (deque((t,)), p_s[i])
                else:
                    cell[0].append(t)
                s_len += 1
            else:
                offset = window - t
                best_cells = best_key = None
                best_a = -1
                best_pri = inf  # every finite priority beats it
                for cells in s_scan:
                    for key, cell in cells.items():
                        a0 = cell[0][0]
                        pri = (a0 + offset) * cell[1]
                        if pri < best_pri or (pri == best_pri and a0 < best_a):
                            best_cells = cells
                            best_key = key
                            best_a = a0
                            best_pri = pri
                cand = candp_s[i]
                if best_pri < cand or (best_pri == cand and best_a < t):
                    dq = best_cells[best_key][0]
                    dq.popleft()
                    if not dq:
                        del best_cells[best_key]
                    if best_cells is s_cells:
                        ev_s += 1
                        if track:
                            s_departures[best_a] = t
                    else:  # only on a shared pool
                        ev_r += 1
                        r_len -= 1
                        s_len += 1
                        if track:
                            r_departures[best_a] = t
                    cell = s_cells.get(s_key)
                    if cell is None:
                        s_cells[s_key] = (deque((t,)), p_s[i])
                    else:
                        cell[0].append(t)
                else:
                    rej_s += 1
                    if track:
                        s_departures[t] = t

            if sample_every and not t % sample_every:
                sampler(t, r_len, s_len)
        length = base + chunk.length
        if on_chunk is not None:
            on_chunk(LaneTotals(
                output, total_output, simultaneous_total, length,
                rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, r_len, s_len,
            ))

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, r_len, s_len,
    )
