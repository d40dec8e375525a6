"""Runtime spans: the task-lifecycle layer above tuple tracing.

:mod:`repro.obs.trace` answers what happened to one *tuple*;

this module answers what happened to one *task* — a grid cell's
attempt inside the parallel runtime (see :mod:`repro.runtime`).  The
supervisor and every worker emit :class:`SpanEvent` records for each
lifecycle stage:

``submit``
    the supervisor dispatched an attempt of a cell;
``start``
    the worker began executing the attempt (queue time is
    ``start - submit``);
``heartbeat``
    periodic worker progress (tick, outputs, arrivals, memory
    occupancy, drop counts, tuples/s — see
    :mod:`repro.obs.telemetry`);
``checkpoint_save`` / ``checkpoint_restore``
    the worker persisted / resumed engine state
    (:mod:`repro.runtime.checkpoint`);
``fault``
    an injected fault fired inside the engine's per-tick hook
    (:mod:`repro.runtime.faults`);
``fail`` / ``timeout``
    the attempt ended in an error / was abandoned past its deadline;
``retry``
    the supervisor scheduled the next attempt (backoff is
    ``next start - retry``);
``finish``
    the attempt returned a result;
``merge`` / ``degrade``
    the run-level fold of per-shard results — ``degrade`` names each
    shard abandoned after retry exhaustion.

Events carry absolute wall-clock timestamps (workers share the parent's
clock on one machine); :func:`merge_timeline` folds the supervisor's
events and every worker spool into one globally-ordered timeline keyed
by ``(cell, attempt, shard)``, with a total tie-break order so merged
timelines are deterministic however the writers interleaved.

Consumers:

* :func:`to_chrome_trace` — Chrome trace-event / Perfetto JSON
  (``repro trace timeline``; load the file in ``chrome://tracing`` or
  https://ui.perfetto.dev);
* :func:`stage_durations` / :func:`stage_stats` — per-stage latency
  distributions (queueing, run time, checkpoint save cost, retry
  backoff) summarised with the Greenwald-Khanna quantile sketch from
  :mod:`repro.stats`;
* :func:`fleet_rows` — per-shard fleet state (last heartbeat age,
  retry count, lost/finished status) for ``repro dash --fleet``.

The recorder follows the same null-object discipline as the metrics
registry and the tracer: the runtime accepts ``spans=None`` (the
default) and :func:`spans_or_none` collapses disabled recorders at
entry, so the unsupervised paths pay nothing.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from ..stats.quantiles import GKQuantileSummary
from ._jsonl import iter_jsonl, save_jsonl

__all__ = [
    "SPAN_KINDS",
    "SPAN_SUBMIT",
    "SPAN_START",
    "SPAN_HEARTBEAT",
    "SPAN_CHECKPOINT_SAVE",
    "SPAN_CHECKPOINT_RESTORE",
    "SPAN_FAULT",
    "SPAN_FAIL",
    "SPAN_TIMEOUT",
    "SPAN_RETRY",
    "SPAN_FINISH",
    "SPAN_MERGE",
    "SPAN_DEGRADE",
    "SOURCE_SUPERVISOR",
    "SOURCE_WORKER",
    "SpanEvent",
    "SpanRecorder",
    "fleet_rows",
    "iter_spans",
    "load_spans",
    "merge_timeline",
    "save_spans",
    "span_summary",
    "spans_or_none",
    "stage_durations",
    "stage_stats",
    "to_chrome_trace",
]

SPAN_SUBMIT = "submit"
SPAN_START = "start"
SPAN_HEARTBEAT = "heartbeat"
SPAN_CHECKPOINT_SAVE = "checkpoint_save"
SPAN_CHECKPOINT_RESTORE = "checkpoint_restore"
SPAN_FAULT = "fault"
SPAN_FAIL = "fail"
SPAN_TIMEOUT = "timeout"
SPAN_RETRY = "retry"
SPAN_FINISH = "finish"
SPAN_MERGE = "merge"
SPAN_DEGRADE = "degrade"

#: Every task-lifecycle stage, in causal order within one attempt.
SPAN_KINDS = (
    SPAN_SUBMIT,
    SPAN_START,
    SPAN_HEARTBEAT,
    SPAN_CHECKPOINT_SAVE,
    SPAN_CHECKPOINT_RESTORE,
    SPAN_FAULT,
    SPAN_FAIL,
    SPAN_TIMEOUT,
    SPAN_RETRY,
    SPAN_FINISH,
    SPAN_MERGE,
    SPAN_DEGRADE,
)

SOURCE_SUPERVISOR = "supervisor"
SOURCE_WORKER = "worker"

#: Causal rank of each kind — the timestamp tie-break that keeps merged
#: timelines deterministic when writers share a clock tick.
_KIND_ORDER = {kind: rank for rank, kind in enumerate(SPAN_KINDS)}

#: The kinds that end one attempt (close its ``start`` span).
TERMINAL_KINDS = (SPAN_FINISH, SPAN_FAIL, SPAN_TIMEOUT)


class SpanEvent(NamedTuple):
    """One task-lifecycle event of one grid-cell attempt.

    ``ts`` is an absolute wall-clock timestamp (``time.time()``);
    ``cell`` is the grid-cell index (``None`` for run-level events such
    as ``merge``); ``attempt`` is 1-based; ``shard`` is the hash-shard
    index when the cell is a shard run (it usually equals ``cell``, but
    the worker stamps it explicitly so the key survives relabelling).
    ``data`` holds kind-specific payload: heartbeat counters, error
    names, checkpoint costs.
    """

    ts: float
    kind: str
    cell: Optional[int]
    attempt: int
    source: str
    shard: Optional[int] = None
    tick: Optional[int] = None
    label: Optional[str] = None
    data: Optional[dict] = None

    @property
    def key(self) -> tuple:
        """The ``(cell, attempt, shard)`` coordinate of the event."""
        return (self.cell, self.attempt, self.shard)

    def to_json(self) -> dict:
        """Compact JSON object (``None`` fields omitted)."""
        record = {
            "ts": self.ts,
            "kind": self.kind,
            "cell": self.cell,
            "attempt": self.attempt,
            "source": self.source,
        }
        if self.shard is not None:
            record["shard"] = self.shard
        if self.tick is not None:
            record["tick"] = self.tick
        if self.label is not None:
            record["label"] = self.label
        if self.data is not None:
            record["data"] = self.data
        return record

    @classmethod
    def from_json(cls, record: dict) -> "SpanEvent":
        return cls(
            ts=record["ts"],
            kind=record["kind"],
            cell=record["cell"],
            attempt=record["attempt"],
            source=record["source"],
            shard=record.get("shard"),
            tick=record.get("tick"),
            label=record.get("label"),
            data=record.get("data"),
        )


def _order_key(event: SpanEvent) -> tuple:
    """Total order: timestamp, then cell, attempt, causal rank, tick.

    The tie-break chain makes the merged timeline a pure function of
    the event *set* — two workers flushing in either order, or a spool
    directory listing files differently, always merge identically.
    """
    return (
        event.ts,
        event.cell if event.cell is not None else -1,
        event.attempt,
        _KIND_ORDER.get(event.kind, len(_KIND_ORDER)),
        event.tick if event.tick is not None else -1,
        event.source,
    )


class SpanRecorder:
    """Supervisor-side span collector.

    One recorder accompanies one supervised dispatch; ``emit`` stamps
    the wall clock and appends.  ``clock`` is injectable so tests can
    script deterministic timestamps.
    """

    enabled = True

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self.events: list[SpanEvent] = []

    def emit(
        self,
        kind: str,
        *,
        cell: Optional[int] = None,
        attempt: int = 1,
        shard: Optional[int] = None,
        tick: Optional[int] = None,
        label: Optional[str] = None,
        data: Optional[dict] = None,
    ) -> SpanEvent:
        event = SpanEvent(
            ts=self._clock(),
            kind=kind,
            cell=cell,
            attempt=attempt,
            source=SOURCE_SUPERVISOR,
            shard=shard,
            tick=tick,
            label=label,
            data=data,
        )
        self.events.append(event)
        return event


def spans_or_none(spans) -> Optional[SpanRecorder]:
    """Collapse ``None`` / disabled recorders to ``None`` (entry guard)."""
    if spans is None or not getattr(spans, "enabled", False):
        return None
    return spans


# ----------------------------------------------------------------------
# merge / persistence
# ----------------------------------------------------------------------

def merge_timeline(*event_groups: Iterable[SpanEvent]) -> list[SpanEvent]:
    """One globally-ordered timeline from any number of event streams.

    Typically called with the supervisor recorder's events plus the
    events read back from every worker spool.  Ordering is total (see
    :func:`_order_key`), so the result is deterministic regardless of
    how the inputs interleaved.
    """
    merged: list[SpanEvent] = []
    for group in event_groups:
        merged.extend(group)
    merged.sort(key=_order_key)
    return merged


def save_spans(events: Iterable[SpanEvent], path) -> Path:
    """Write span events as JSONL; returns the path."""
    return save_jsonl(events, path)


def iter_spans(path, *, strict: bool = True) -> Iterator[SpanEvent]:
    """Stream span events back from a JSONL file.

    ``strict=False`` skips undecodable lines instead of raising — the
    spool reader uses it because a killed worker can leave a truncated
    final line behind (everything before it was fsynced and is intact).
    """
    return iter_jsonl(path, SpanEvent.from_json, "span", strict=strict)


def load_spans(path, *, strict: bool = True) -> list[SpanEvent]:
    """Read a whole JSONL span file into memory."""
    return list(iter_spans(path, strict=strict))


# ----------------------------------------------------------------------
# stage latencies
# ----------------------------------------------------------------------

#: The derived stages a timeline decomposes into.
STAGES = ("queue", "run", "checkpoint_save", "retry_backoff")


def stage_durations(events: Iterable[SpanEvent]) -> dict:
    """Per-stage duration samples (seconds) of one timeline.

    * ``queue`` — ``submit`` → ``start`` per attempt (dispatch +
      pool-queue wait);
    * ``run`` — ``start`` → ``finish``/``fail``/``timeout`` per
      attempt;
    * ``checkpoint_save`` — the save cost each ``checkpoint_save``
      event carries in ``data["seconds"]``;
    * ``retry_backoff`` — ``retry`` → the next attempt's ``start``.

    Cross-process clock skew can make a tiny span negative; durations
    are clamped at zero.
    """
    submits: dict = {}
    starts: dict = {}
    retries: dict = {}
    durations: dict = {stage: [] for stage in STAGES}
    for event in events:
        key = (event.cell, event.attempt)
        if event.kind == SPAN_SUBMIT:
            submits[key] = event.ts
        elif event.kind == SPAN_START:
            starts[key] = event.ts
            if key in submits:
                durations["queue"].append(max(0.0, event.ts - submits[key]))
            scheduled = retries.pop(key, None)
            if scheduled is not None:
                durations["retry_backoff"].append(
                    max(0.0, event.ts - scheduled)
                )
        elif event.kind in TERMINAL_KINDS:
            if key in starts:
                durations["run"].append(max(0.0, event.ts - starts[key]))
        elif event.kind == SPAN_CHECKPOINT_SAVE:
            seconds = (event.data or {}).get("seconds")
            if seconds is not None:
                durations["checkpoint_save"].append(float(seconds))
        elif event.kind == SPAN_RETRY:
            next_attempt = (event.data or {}).get(
                "next_attempt", event.attempt + 1
            )
            retries[(event.cell, next_attempt)] = event.ts
    return durations


def stage_stats(
    events: Iterable[SpanEvent],
    *,
    quantiles: tuple = (0.5, 0.9, 0.99),
    epsilon: float = 0.01,
) -> dict:
    """Latency summary per stage: count/mean/min/max plus GK quantiles.

    Quantiles come from the :class:`~repro.stats.quantiles.GKQuantileSummary`
    sketch — the same machinery the paper's statistics module maintains
    over streams — so the summary stays sublinear even on timelines
    with millions of heartbeats.
    """
    stats: dict = {}
    for stage, samples in stage_durations(events).items():
        if not samples:
            stats[stage] = {"count": 0}
            continue
        sketch = GKQuantileSummary(epsilon)
        for sample in samples:
            sketch.observe(sample)
        stats[stage] = {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "min": min(samples),
            "max": max(samples),
            **{f"p{int(q * 100)}": sketch.query(q) for q in quantiles},
        }
    return stats


def span_summary(events: Iterable[SpanEvent]) -> dict:
    """Aggregate view of a timeline: kind counts, cells, attempts, span."""
    kinds: dict = {}
    cells: set = set()
    max_attempt: dict = {}
    first = last = None
    total = 0
    for event in events:
        total += 1
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.cell is not None:
            cells.add(event.cell)
            if event.attempt > max_attempt.get(event.cell, 0):
                max_attempt[event.cell] = event.attempt
        if first is None or event.ts < first:
            first = event.ts
        if last is None or event.ts > last:
            last = event.ts
    return {
        "events": total,
        "kinds": kinds,
        "cells": sorted(cells),
        "retries": sum(attempt - 1 for attempt in max_attempt.values()),
        "wall_seconds": (last - first) if total else 0.0,
    }


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ----------------------------------------------------------------------

def _us(ts: float, origin: float) -> float:
    """Microseconds since the timeline origin (trace-event time unit)."""
    return round((ts - origin) * 1e6, 3)


def to_chrome_trace(events: Iterable[SpanEvent], *, pid: int = 1) -> dict:
    """The timeline as a Chrome trace-event JSON object.

    The result loads in ``chrome://tracing`` and Perfetto: one thread
    lane per cell (tid ``cell + 1``; run-level events on tid 0),
    complete (``"X"``) slices for queue and run spans and checkpoint
    saves, instant (``"i"``) marks for faults, retries, timeouts, and
    restores, and counter (``"C"``) tracks fed by the heartbeats
    (occupancy and tuples/s per cell).  Metadata (``"M"``) events name
    the process and thread lanes.
    """
    timeline = merge_timeline(events)
    trace_events: list[dict] = []
    if not timeline:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = timeline[0].ts

    def tid_of(event: SpanEvent) -> int:
        return 0 if event.cell is None else event.cell + 1

    trace_events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro run"},
        }
    )
    named_tids: set = {0}
    trace_events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "supervisor"},
        }
    )

    submits: dict = {}
    starts: dict = {}
    for event in timeline:
        tid = tid_of(event)
        if tid not in named_tids:
            named_tids.add(tid)
            lane = (
                f"shard {event.shard}"
                if event.shard is not None
                else f"cell {event.cell}"
            )
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        key = (event.cell, event.attempt)
        args = {"attempt": event.attempt}
        if event.label:
            args["label"] = event.label
        if event.data:
            args.update(event.data)
        if event.tick is not None:
            args["tick"] = event.tick

        if event.kind == SPAN_SUBMIT:
            submits[key] = event.ts
        elif event.kind == SPAN_START:
            starts[key] = event.ts
            if key in submits:
                trace_events.append(
                    {
                        "name": "queued",
                        "cat": "queue",
                        "ph": "X",
                        "ts": _us(submits[key], origin),
                        "dur": max(0.001, _us(event.ts, origin)
                                   - _us(submits[key], origin)),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
        elif event.kind in TERMINAL_KINDS:
            begin = starts.get(key, event.ts)
            trace_events.append(
                {
                    "name": f"attempt {event.attempt}"
                            + ("" if event.kind == SPAN_FINISH
                               else f" ({event.kind})"),
                    "cat": "attempt",
                    "ph": "X",
                    "ts": _us(begin, origin),
                    "dur": max(0.001, _us(event.ts, origin)
                               - _us(begin, origin)),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif event.kind == SPAN_CHECKPOINT_SAVE:
            seconds = float((event.data or {}).get("seconds", 0.0))
            trace_events.append(
                {
                    "name": "checkpoint_save",
                    "cat": "checkpoint",
                    "ph": "X",
                    "ts": _us(event.ts - seconds, origin),
                    "dur": max(0.001, seconds * 1e6),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif event.kind == SPAN_HEARTBEAT:
            data = event.data or {}
            for counter in ("occupancy", "tuples_per_s"):
                if counter in data:
                    trace_events.append(
                        {
                            "name": f"cell{event.cell}/{counter}",
                            "ph": "C",
                            "ts": _us(event.ts, origin),
                            "pid": pid,
                            "tid": tid,
                            "args": {counter: data[counter]},
                        }
                    )
        else:  # fault / retry / restore / merge / degrade — instants
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "runtime",
                    "ph": "i",
                    "ts": _us(event.ts, origin),
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# fleet view
# ----------------------------------------------------------------------

#: Row statuses, in increasing badness.
FLEET_STATUSES = ("queued", "running", "retrying", "done", "lost")


def fleet_rows(
    events: Iterable[SpanEvent], *, upto_ts: Optional[float] = None
) -> list[dict]:
    """Fold a timeline into one state row per cell/shard.

    Each row carries the cell and shard indices, attempt count, current
    status (``queued``/``running``/``retrying``/``done``/``lost``), the
    last heartbeat's counters, and the heartbeat age at ``upto_ts``
    (default: the newest event's timestamp) — the straggler signal a
    fleet operator scans for.  Run-level events (``cell=None``) are
    ignored except ``degrade``, which marks its shard lost.
    """
    rows: dict[int, dict] = {}
    horizon = None
    for event in merge_timeline(events):
        if upto_ts is not None and event.ts > upto_ts:
            break
        horizon = event.ts if horizon is None else max(horizon, event.ts)
        if event.cell is None:
            if event.kind == SPAN_DEGRADE:
                for shard in (event.data or {}).get("lost", ()):
                    if shard in rows:
                        rows[shard]["status"] = "lost"
            continue
        row = rows.get(event.cell)
        if row is None:
            row = rows[event.cell] = {
                "cell": event.cell,
                "shard": event.shard if event.shard is not None else event.cell,
                "label": event.label,
                "attempts": 0,
                "status": "queued",
                "heartbeat": None,
                "heartbeat_ts": None,
                "retries": 0,
                "faults": 0,
                "checkpoints": 0,
                "restored": False,
            }
        if event.shard is not None:
            row["shard"] = event.shard
        if event.label and not row["label"]:
            row["label"] = event.label
        row["attempts"] = max(row["attempts"], event.attempt)
        if event.kind == SPAN_START:
            row["status"] = "running"
        elif event.kind == SPAN_HEARTBEAT:
            row["heartbeat"] = dict(event.data or {})
            row["heartbeat_ts"] = event.ts
        elif event.kind in (SPAN_FAIL, SPAN_TIMEOUT):
            row["status"] = "lost"
        elif event.kind == SPAN_RETRY:
            row["status"] = "retrying"
            row["retries"] += 1
        elif event.kind == SPAN_FINISH:
            row["status"] = "done"
        elif event.kind == SPAN_FAULT:
            row["faults"] += 1
        elif event.kind == SPAN_CHECKPOINT_SAVE:
            row["checkpoints"] += 1
        elif event.kind == SPAN_CHECKPOINT_RESTORE:
            row["restored"] = True
        elif event.kind == SPAN_DEGRADE:
            row["status"] = "lost"
    now = upto_ts if upto_ts is not None else horizon
    for row in rows.values():
        row["heartbeat_age"] = (
            max(0.0, now - row["heartbeat_ts"])
            if row["heartbeat_ts"] is not None and now is not None
            else None
        )
    return [rows[cell] for cell in sorted(rows)]
