"""OPT-offline: the best possible MAX-subset approximation (Section 3.2).

Given a finite stream prefix and full knowledge of the future, OPT picks
the keep/drop schedule maximising the number of counted output tuples
under the memory budget.  It upper-bounds every online policy and is the
denominator of the paper's "fraction of OPT" plots (Figures 6, 9-11).

``solve_opt`` builds the compact flow network(s) (see
:mod:`repro.core.offline.flowgraph`), solves them with the library's SSP
solver, decodes the schedule, and *independently replays* the schedule
against the streams to verify that the claimed optimum is actually
realised — a run-time self-check of both the construction and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...flow import solve_min_cost_flow
from ...obs import active_or_none
from ...streams.tuples import StreamPair
from ..results import BaseRunResult, DropBreakdown
from .flowgraph import build_schedule_network, decode_departures
from .intervals import TupleJob, extract_jobs


@dataclass
class OptResult(BaseRunResult):
    """Outcome of an OPT-offline solve.

    Attributes
    ----------
    output_count:
        Counted output size of the optimal schedule, including the
        always-produced simultaneous pairs — directly comparable with
        :attr:`repro.core.engine.RunResult.output_count`.
    held_profit:
        Output earned by tuples held in memory (output_count minus the
        simultaneous pairs).
    simultaneous:
        Counted pairs ``r(t) == s(t)``.
    r_departures / s_departures:
        Per-arrival last probe tick the tuple stays for (engine
        convention); tuples shed on arrival have ``departure == arrival``.
    variable:
        Whether the schedule used a shared (variable-allocation) pool.
    """

    output_count: int
    held_profit: int
    simultaneous: int
    r_departures: list[int]
    s_departures: list[int]
    window: int
    memory: int
    variable: bool
    count_from: int
    policy_name: str = "OPT"
    metrics: Optional[dict] = None

    engine_kind = "offline"

    def drop_breakdown(self) -> DropBreakdown:
        """All-zero: OPT sheds *implicitly* through its schedule.

        The solver picks departures; it keeps no engine-style drop
        ledger.  Overriding keeps the unified result surface
        (``summary()`` / ``drop_breakdown()``) total across every
        :func:`repro.api.run` dispatch target.
        """
        return DropBreakdown()


def _solve_pool(
    jobs: list[TupleJob], length: int, capacity: int, metrics=None
) -> tuple[int, dict[tuple[str, int], int]]:
    """Optimal profit and schedule for one slot pool."""
    if capacity == 0 or not jobs:
        return 0, {}
    schedule = build_schedule_network(jobs, length, capacity)
    result = solve_min_cost_flow(schedule.network, metrics=metrics)
    if not result.feasible:
        raise RuntimeError(
            "schedule network infeasible — the chain should always carry "
            f"the supply (capacity {capacity}, length {length})"
        )
    departures = decode_departures(schedule, result.flow)
    return -result.cost, departures


def _replay_profit(
    pair: StreamPair,
    departures: dict[tuple[str, int], int],
    window: int,
    count_from: int,
) -> int:
    """Recount the schedule's output directly from the streams.

    A pair ``(x(i), y(j))`` with ``i < j`` is produced iff the earlier
    tuple's departure is ``>= j``; this is exactly the engine's
    accounting, computed without the flow machinery: for every scheduled
    tuple, count the other stream's counted arrivals of the same key in
    ``[arrival + 1, departure]``.
    """
    from bisect import bisect_left, bisect_right

    times_by_key = {"R": {}, "S": {}}
    for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
        times_by_key["R"].setdefault(r_key, []).append(t)
        times_by_key["S"].setdefault(s_key, []).append(t)

    produced = 0
    for (stream, arrival), departure in departures.items():
        if not arrival <= departure <= arrival + window - 1:
            raise AssertionError(
                f"schedule departure {departure} outside the lifetime of "
                f"{stream}({arrival}) with window {window}"
            )
        key = pair.r[arrival] if stream == "R" else pair.s[arrival]
        other = "S" if stream == "R" else "R"
        partner_times = times_by_key[other].get(key, ())
        low = max(arrival + 1, count_from)
        start = bisect_left(partner_times, low)
        stop = bisect_right(partner_times, departure)
        produced += max(0, stop - start)
    return produced


def solve_opt(
    pair: StreamPair,
    window: int,
    memory: int,
    *,
    variable: bool = False,
    count_from: Optional[int] = None,
    verify: bool = True,
    metrics=None,
) -> OptResult:
    """Compute the optimal offline schedule for a stream pair.

    Parameters
    ----------
    pair:
        Finite stream prefix (the paper uses 5600-tuple prefixes because
        CS2's runtime is super-linear; this solver handles such sizes).
    window, memory:
        Window size ``w`` and memory budget ``M``.
    variable:
        False — fixed M/2 + M/2 allocation (paper's OPT): the two pools
        never interact, so two independent flow problems are solved.
        True — shared pool of M slots (paper's OPTV with cross arcs).
    count_from:
        First tick whose output counts; defaults to the paper's warmup of
        ``2 * window``.
    verify:
        Replay the decoded schedule against the streams and assert the
        count matches the flow objective (cheap; on by default).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` passed down to the
        flow solver (augmentations, phase timings).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if memory <= 0:
        raise ValueError(f"memory must be positive, got {memory}")
    if not variable and memory % 2 != 0:
        raise ValueError(f"fixed allocation needs even memory, got {memory}")
    if count_from is None:
        count_from = 2 * window

    length = len(pair)
    r_jobs, s_jobs, simultaneous = extract_jobs(pair, window, count_from=count_from)

    if variable:
        profit, departures = _solve_pool(r_jobs + s_jobs, length, memory, metrics)
    else:
        half = memory // 2
        profit_r, departures_r = _solve_pool(r_jobs, length, half, metrics)
        profit_s, departures_s = _solve_pool(s_jobs, length, half, metrics)
        profit = profit_r + profit_s
        departures = {**departures_r, **departures_s}

    if verify:
        replayed = _replay_profit(pair, departures, window, count_from)
        if replayed != profit:
            raise AssertionError(
                f"OPT self-check failed: flow objective {profit} but schedule "
                f"replay produced {replayed}"
            )

    obs = active_or_none(metrics)
    r_departures = [departures.get(("R", t), t) for t in range(length)]
    s_departures = [departures.get(("S", t), t) for t in range(length)]
    return OptResult(
        output_count=profit + simultaneous,
        held_profit=profit,
        simultaneous=simultaneous,
        r_departures=r_departures,
        s_departures=s_departures,
        window=window,
        memory=memory,
        variable=variable,
        count_from=count_from,
        policy_name="OPTV" if variable else "OPT",
        metrics=obs.snapshot() if obs is not None else None,
    )
