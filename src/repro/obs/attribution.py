"""Lost-output attribution: which eviction cost which join outputs.

The paper's PROB/LIFE priorities (Section 3.3) are bets that a shed
tuple would have produced few future partners; the MAX-subset error of
a run is exactly the set of outputs those bets lost.  This module
replays a trace (see :mod:`repro.obs.trace`) against the EXACT partner
sets — derived from the same stream pair the run consumed, i.e. the
reference join with unbounded memory — and charges every missed output
pair to the single shedding event that caused it.

Why the accounting is exact (fast-CPU engine)
---------------------------------------------
In the integrated model probes precede admissions, so a result pair
``(earlier, later)`` is produced iff the *earlier* tuple is still
resident when the later one arrives; the later tuple always probes at
its own arrival.  A tuple arriving at ``a`` naturally covers probe
ticks ``a+1 .. a+w-1`` (it expires before tick ``a+w``'s probes), and
the always-produced simultaneous pair covers tick ``a`` itself.  Hence
each missed pair traces to exactly one lifecycle event of the earlier
tuple:

* ``drop/rejected`` at ``a`` — the tuple probed on arrival but never
  became resident: it loses every partner in ``a+1 .. a+w-1``;
* ``evict/displaced`` at ``e`` — the victim had already probed against
  tick ``e``'s arrivals: it loses partners in ``e+1 .. a+w-1``;
* ``evict/budget`` at ``e`` — budget sheds happen *before* tick
  ``e``'s probes: partners in ``e .. a+w-1`` are lost;
* ``expire/window`` — natural death loses nothing.

Summing the per-event losses therefore reconciles *exactly* with
``EXACT − policy`` output counts — the identity
:func:`AttributionReport.reconciles` checks and the test-suite asserts.
Events whose reasons fall outside this model (queue sheds of the
modular engines, count/landmark windows) are tallied under
``unattributed`` instead of silently mis-charged.

Entry points
------------
:func:`attribute_trace` builds an :class:`AttributionReport` from a
trace + the stream pair; :func:`regret_by_policy` runs several policies
on one workload (tracing enabled) and returns their reports;
:func:`format_regret_table` renders the per-policy comparison the
``repro trace attribute`` subcommand prints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .trace import (
    EVENT_DROP,
    EVENT_EVICT,
    REASON_BUDGET,
    REASON_DISPLACED,
    REASON_REJECTED,
    TraceEvent,
)

__all__ = [
    "AttributionReport",
    "EventRegret",
    "attribute_trace",
    "format_regret_table",
    "partner_index",
    "regret_by_policy",
]


def partner_index(pair) -> dict:
    """Per-``(stream, key)`` sorted arrival ticks — the EXACT partner sets.

    ``index[("S", k)]`` lists every tick at which an S-tuple with join
    value ``k`` arrives; a resident R-tuple's exact partners are the
    entries of that list inside its lifetime.  This is the reference
    engine's knowledge in indexed form.
    """
    index: dict = defaultdict(list)
    for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
        index[("R", r_key)].append(t)
        index[("S", s_key)].append(t)
    return dict(index)


@dataclass(frozen=True)
class EventRegret:
    """One shedding event and the outputs it cost.

    ``lost`` counts every partner the tuple would still have met had it
    lived its full window; ``lost_counted`` restricts to post-warmup
    probe ticks (the quantity the paper's figures plot).  ``priority``
    is the policy's estimate at decision time — regret high / priority
    low is the policy being *wrong*, not just unlucky.
    """

    tick: int
    stream: str
    key: object
    arrival: int
    kind: str
    reason: Optional[str]
    priority: Optional[float]
    lost: int
    lost_counted: int


@dataclass
class AttributionReport:
    """Per-eviction lost-output ledger of one traced run."""

    policy: str
    window: int
    warmup: int
    length: int
    events: list[EventRegret] = field(default_factory=list)
    #: shed events whose reasons the exact replay cannot attribute
    #: (queue sheds, count/landmark windows), by reason.
    unattributed: dict = field(default_factory=dict)
    exact_output: Optional[int] = None
    observed_output: Optional[int] = None

    @property
    def total_lost(self) -> int:
        return sum(event.lost for event in self.events)

    @property
    def total_lost_counted(self) -> int:
        return sum(event.lost_counted for event in self.events)

    def lost_by_reason(self, *, counted: bool = True) -> dict:
        """``{reason: lost outputs}`` over all shed events."""
        totals: dict = defaultdict(int)
        for event in self.events:
            totals[event.reason or event.kind] += (
                event.lost_counted if counted else event.lost
            )
        return dict(totals)

    def top_regrets(self, n: int = 10) -> list[EventRegret]:
        """The ``n`` most expensive shedding decisions."""
        return sorted(
            self.events, key=lambda e: (-e.lost_counted, -e.lost, e.tick)
        )[:n]

    def reconciles(self) -> bool:
        """Does ``EXACT − observed`` equal the attributed loss?

        Requires both output counts and no unattributed events; the
        identity is exact for fast-CPU traces (see module docstring).
        """
        if self.exact_output is None or self.observed_output is None:
            return False
        if self.unattributed:
            return False
        return self.exact_output - self.observed_output == self.total_lost_counted


def attribute_trace(
    events: Iterable[TraceEvent],
    pair,
    window: int,
    *,
    warmup: Optional[int] = None,
    policy: str = "?",
    exact_output: Optional[int] = None,
    observed_output: Optional[int] = None,
) -> AttributionReport:
    """Replay a trace against the exact partner sets of ``pair``.

    Only shedding events (``evict`` / ``drop``) carry regret; the rest
    of the lifecycle is ignored here (the sampler consumes it).  Losses
    are clipped to the stream length, so truncated ring-buffer traces
    still attribute correctly for the events they retain.
    """
    if warmup is None:
        warmup = 2 * window
    index = partner_index(pair)
    length = len(pair)
    report = AttributionReport(
        policy=policy,
        window=window,
        warmup=warmup,
        length=length,
        exact_output=exact_output,
        observed_output=observed_output,
    )
    unattributed: dict = defaultdict(int)

    for event in events:
        if event.kind not in (EVENT_EVICT, EVENT_DROP):
            continue
        if event.kind == EVENT_EVICT and event.reason == REASON_DISPLACED:
            start = event.tick + 1
        elif event.kind == EVENT_EVICT and event.reason == REASON_BUDGET:
            start = event.tick
        elif event.kind == EVENT_DROP and event.reason == REASON_REJECTED:
            start = event.arrival + 1
        else:
            unattributed[event.reason or event.kind] += 1
            continue

        # Partners probe on the *opposite* stream at ticks inside the
        # tuple's residual lifetime.
        other = "S" if event.stream == "R" else "R"
        end = min(event.arrival + window - 1, length - 1)
        ticks = index.get((other, event.key))
        if not ticks or start > end:
            lost = lost_counted = 0
        else:
            lost = bisect_right(ticks, end) - bisect_left(ticks, start)
            counted_start = max(start, warmup)
            lost_counted = (
                bisect_right(ticks, end) - bisect_left(ticks, counted_start)
                if counted_start <= end
                else 0
            )
        report.events.append(EventRegret(
            tick=event.tick,
            stream=event.stream,
            key=event.key,
            arrival=event.arrival,
            kind=event.kind,
            reason=event.reason,
            priority=event.priority,
            lost=lost,
            lost_counted=lost_counted,
        ))

    report.unattributed = dict(unattributed)
    return report


def regret_by_policy(
    algorithms: Sequence[str],
    *,
    window: int,
    memory: int,
    pair=None,
    length: int = 2000,
    domain: int = 50,
    skew: float = 1.0,
    seed: int = 0,
    warmup: Optional[int] = None,
    sink_capacity: int = 1 << 22,
) -> dict:
    """Run each policy on one shared workload with tracing, attribute.

    Returns ``{policy: AttributionReport}``, one
    :func:`repro.api.attribute_run` per algorithm over the shared pair
    (``sink_capacity`` is each run's ``trace_capacity``); every report
    carries the shared EXACT output so :func:`format_regret_table` can
    show the gaps the paper's Figures 3–7 plot, decision by decision.
    Imports live inside the function so :mod:`repro.obs` stays
    import-light.
    """
    from ..api import RunSpec, attribute_run
    from ..streams import zipf_pair

    if pair is None:
        pair = zipf_pair(length, domain, skew, seed=seed)
    reports: dict = {}
    for name in algorithms:
        spec = RunSpec(
            algorithm=name, window=window, memory=memory, seed=seed,
            warmup=warmup, trace_capacity=sink_capacity,
        )
        reports[spec.algorithm] = attribute_run(spec, pair=pair)
    return reports


def format_regret_table(reports: dict) -> str:
    """Render per-policy regret next to the EXACT − policy gap.

    One row per policy: observed output, the exact reference, the gap,
    regret charged to displacement evictions vs. admission rejections
    vs. budget sheds, and whether the ledger reconciles exactly.
    """
    lines = [
        f"{'policy':<8} {'output':>8} {'exact':>8} {'missed':>8} "
        f"{'evicted':>8} {'rejected':>9} {'budget':>7} {'recon':>6}",
        "-" * 68,
    ]
    for name, report in reports.items():
        by_reason = report.lost_by_reason()
        missed = (
            report.exact_output - report.observed_output
            if report.exact_output is not None and report.observed_output is not None
            else report.total_lost_counted
        )
        lines.append(
            f"{name:<8} {report.observed_output if report.observed_output is not None else '-':>8} "
            f"{report.exact_output if report.exact_output is not None else '-':>8} "
            f"{missed:>8} "
            f"{by_reason.get(REASON_DISPLACED, 0):>8} "
            f"{by_reason.get(REASON_REJECTED, 0):>9} "
            f"{by_reason.get(REASON_BUDGET, 0):>7} "
            f"{'yes' if report.reconciles() else 'NO':>6}"
        )
    return "\n".join(lines)
