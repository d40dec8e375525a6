"""Structured event tracing: the layer below the metrics registry.

Aggregate counters (see :mod:`repro.obs.registry`) answer *how many*
tuples were shed; they cannot answer *which* eviction cost *which* join
outputs — yet the paper's PROB/LIFE priorities (Section 3.3) are exactly
bets about a tuple's future partners, and the MAX-subset error is the
set of outputs those bets lost.  Tracing records the full tuple
lifecycle as a stream of :class:`TraceEvent` records so a run can be
replayed, inspected, and attributed after the fact (see
:mod:`repro.obs.attribution`).

Event kinds
-----------
``arrive``
    a tuple arrived on a stream (``tick == arrival``);
``admit``
    the tuple was admitted to the join memory (``priority`` is the
    policy's cached priority right after admission);
``evict``
    a resident was displaced before its natural death — ``reason`` is
    ``"displaced"`` (lost an admission contest at probe-complete tick
    ``tick``) or ``"budget"`` (shed *before* tick ``tick``'s probes
    because the memory budget shrank);
``expire``
    natural window expiry (``reason`` ``"window"``, ``"count"``,
    ``"landmark"``, or ``"queue"`` for tuples that aged out while
    queued in the modular engines);
``join_output``
    a result pair was emitted; the event carries the *resident*
    partner's stream/arrival (the tuple whose retention earned the
    output) — the probing newcomer is implicit (opposite stream, at
    ``tick``).  The always-produced simultaneous pair is recorded once
    with ``reason="simultaneous"``;
``drop``
    a tuple was refused admission (``reason="rejected"``) or shed from
    an input queue before reaching the join (``reason="queue"``).

The disabled fast path
----------------------
Tracing follows the same null-object discipline as the metrics
registry: engines accept ``trace=None`` (the default) and collapse any
disabled tracer to ``None`` once at run entry via
:func:`tracing_or_none`, so the hot loops pay only local ``is not
None`` branches.  :data:`NULL_TRACER` offers the same interface as
explicit no-ops for call sites that prefer not to branch.

Sinks
-----
A :class:`Tracer` forwards every event to one pluggable sink:

* :class:`RingBufferSink` (default) — bounded in-memory buffer keeping
  the most recent events (and counting what it had to forget);
* :class:`JsonlSink` — streams events to a JSON-lines file, one object
  per line, for offline inspection (``repro trace inspect``) and
  attribution (``repro trace attribute``).

:func:`iter_trace` / :func:`load_trace` read a JSONL trace back;
:func:`save_trace` writes any event iterable in the same format.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from pathlib import Path
from typing import Iterable, Iterator, Optional

from ._jsonl import iter_jsonl, save_jsonl

__all__ = [
    "EVENT_KINDS",
    "EVENT_ARRIVE",
    "EVENT_ADMIT",
    "EVENT_EVICT",
    "EVENT_EXPIRE",
    "EVENT_JOIN_OUTPUT",
    "EVENT_DROP",
    "REASON_DISPLACED",
    "REASON_BUDGET",
    "REASON_REJECTED",
    "REASON_QUEUE",
    "REASON_WINDOW",
    "REASON_SIMULTANEOUS",
    "REASON_LOST_SHARD",
    "NULL_TRACER",
    "JsonlSink",
    "NullTracer",
    "RingBufferSink",
    "TraceEvent",
    "Tracer",
    "iter_trace",
    "load_trace",
    "save_trace",
    "trace_summary",
    "tracing_or_none",
]

EVENT_ARRIVE = "arrive"
EVENT_ADMIT = "admit"
EVENT_EVICT = "evict"
EVENT_EXPIRE = "expire"
EVENT_JOIN_OUTPUT = "join_output"
EVENT_DROP = "drop"

#: Every lifecycle stage a tuple can pass through, in causal order.
EVENT_KINDS = (
    EVENT_ARRIVE,
    EVENT_ADMIT,
    EVENT_EVICT,
    EVENT_EXPIRE,
    EVENT_JOIN_OUTPUT,
    EVENT_DROP,
)

REASON_DISPLACED = "displaced"  # evicted by a newcomer's admission
REASON_BUDGET = "budget"  # shed because the memory budget shrank
REASON_REJECTED = "rejected"  # newcomer refused admission
REASON_QUEUE = "queue"  # shed from (or aged out of) an input queue
REASON_WINDOW = "window"  # natural time-window expiry
REASON_SIMULTANEOUS = "simultaneous"  # the always-produced same-tick pair
# A whole hash shard was abandoned after retry exhaustion (graceful
# degradation, see repro.runtime).  Matches the drop-ledger reason
# repro.core.results.DROP_LOST so traces and ledgers reconcile; the
# sharded merge books it per input tuple of the lost shard.
REASON_LOST_SHARD = "lost_shard"


class TraceEvent:
    """One lifecycle event of one tuple.

    ``(stream, arrival)`` identifies the tuple (the engines admit at
    most one tuple per stream per arrival coordinate); ``tick`` is when
    the event happened; ``priority`` is the policy's cached priority at
    decision time where one exists (``None`` otherwise); ``query``
    labels per-operator events in the multi-query system.

    A ``__slots__`` class rather than a NamedTuple: traced runs build
    one event per lifecycle transition, so construction cost is the
    dominant trace overhead, and the slotted layout constructs ~30%
    faster and 8 bytes smaller per event than the tuple subclass.
    """

    __slots__ = (
        "tick", "stream", "key", "kind", "arrival",
        "priority", "reason", "query",
    )

    def __init__(
        self,
        tick: int,
        stream: str,
        key: object,
        kind: str,
        arrival: int,
        priority: Optional[float] = None,
        reason: Optional[str] = None,
        query: Optional[str] = None,
    ) -> None:
        self.tick = tick
        self.stream = stream
        self.key = key
        self.kind = kind
        self.arrival = arrival
        self.priority = priority
        self.reason = reason
        self.query = query

    def _astuple(self) -> tuple:
        return (
            self.tick, self.stream, self.key, self.kind, self.arrival,
            self.priority, self.reason, self.query,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceEvent):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"TraceEvent({fields})"

    def to_json(self) -> dict:
        """Compact JSON object (``None`` fields omitted)."""
        record = {
            "tick": self.tick,
            "stream": self.stream,
            "key": self.key,
            "kind": self.kind,
            "arrival": self.arrival,
        }
        if self.priority is not None:
            record["priority"] = self.priority
        if self.reason is not None:
            record["reason"] = self.reason
        if self.query is not None:
            record["query"] = self.query
        return record

    @classmethod
    def from_json(cls, record: dict) -> "TraceEvent":
        return cls(
            tick=record["tick"],
            stream=record["stream"],
            key=record["key"],
            kind=record["kind"],
            arrival=record["arrival"],
            priority=record.get("priority"),
            reason=record.get("reason"),
            query=record.get("query"),
        )


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------

class RingBufferSink:
    """Bounded in-memory sink keeping the most recent events.

    ``capacity`` bounds memory use on long runs; ``dropped`` counts the
    events the ring had to forget, so consumers can tell a complete
    trace (``dropped == 0``) from a truncated one.
    """

    __slots__ = ("capacity", "_buffer", "total")

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.total = 0

    @property
    def dropped(self) -> int:
        return self.total - len(self._buffer)

    def emit(self, event: TraceEvent) -> None:
        self.total += 1
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Streams events to a JSON-lines file (one object per line).

    Usable as a context manager; :meth:`close` is idempotent.  The
    parent directory is created on demand.  Accepts any event object
    exposing ``to_json()`` (trace events, runtime span events).

    ``fsync_every=N`` makes the sink crash-safe: after every ``N``
    events the buffer is flushed and fsynced, so a killed worker loses
    at most the last ``N - 1`` events instead of its whole buffered
    tail — which is what keeps fault attribution honest when the
    runtime injects kills.  The default (``None``) keeps the old
    buffered behaviour for in-process traces that close cleanly.

    Encoded lines accumulate in a reused pending buffer and reach the
    file object in one joined write per drain, so the per-event cost is
    one ``json.dumps`` and a list append rather than two stream writes.
    Drains happen at every fsync boundary (before the fsync, preserving
    the ``N - 1`` loss bound), at :data:`PENDING_LIMIT` buffered lines,
    and in :meth:`flush` / :meth:`close`.
    """

    #: Max encoded lines held in the pending buffer before a drain.
    PENDING_LIMIT = 256

    __slots__ = (
        "path", "fsync_every", "total", "_file", "_since_sync", "_pending",
    )

    def __init__(self, path, *, fsync_every: Optional[int] = None) -> None:
        if fsync_every is not None and fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w")
        self.fsync_every = fsync_every
        self._since_sync = 0
        self._pending: list[str] = []
        self.total = 0

    def emit(self, event) -> None:
        self.write_json(event.to_json())

    def _drain(self) -> None:
        if self._pending:
            self._file.write("".join(self._pending))
            self._pending.clear()

    def write_json(self, payload: dict) -> None:
        """Append one already-built JSON object (the telemetry hot path
        uses this to skip event-object construction)."""
        self._pending.append(json.dumps(payload, default=str) + "\n")
        self.total += 1
        if self.fsync_every is not None:
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                self._drain()
                self._file.flush()
                os.fsync(self._file.fileno())
                self._since_sync = 0
                return
        if len(self._pending) >= self.PENDING_LIMIT:
            self._drain()

    def flush(self) -> None:
        """Force the buffered tail to disk now (flush + fsync)."""
        if self._file is not None:
            self._drain()
            self._file.flush()
            os.fsync(self._file.fileno())
            self._since_sync = 0

    def close(self) -> None:
        if self._file is not None:
            self._drain()
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the tracer and its disabled twin
# ----------------------------------------------------------------------

class Tracer:
    """Forwards :class:`TraceEvent` records to one sink.

    The engines hold the tracer for the duration of one run; its
    ``emit`` is the only hot-path entry point.  ``collect()`` returns
    the buffered events when the sink retains them (ring buffer) and
    ``None`` for streaming sinks.
    """

    enabled = True

    __slots__ = ("sink", "emit")

    def __init__(self, sink=None) -> None:
        self.sink = RingBufferSink() if sink is None else sink
        self.emit = self.sink.emit  # direct bound-method dispatch

    def collect(self) -> Optional[list[TraceEvent]]:
        events = getattr(self.sink, "events", None)
        return events() if callable(events) else None

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if callable(close):
            close()


class NullTracer:
    """Tracer look-alike whose every operation is a no-op.

    ``enabled`` is ``False`` so :func:`tracing_or_none` collapses it to
    ``None`` at run entry — the hot loops never see it.
    """

    enabled = False
    sink = None

    def emit(self, event: TraceEvent) -> None:
        pass

    def collect(self) -> None:
        return None

    def close(self) -> None:
        pass


#: Shared no-op tracer; safe to pass anywhere a tracer is expected.
NULL_TRACER = NullTracer()


def tracing_or_none(trace) -> Optional[Tracer]:
    """Collapse ``None`` / disabled tracers to ``None`` (run-entry guard)."""
    if trace is None or not trace.enabled:
        return None
    return trace


# ----------------------------------------------------------------------
# readers / writers
# ----------------------------------------------------------------------

def save_trace(events: Iterable[TraceEvent], path) -> Path:
    """Write events as JSONL; returns the path."""
    return save_jsonl(events, path)


def iter_trace(path) -> Iterator[TraceEvent]:
    """Stream events back from a JSONL trace file."""
    return iter_jsonl(path, TraceEvent.from_json, "trace")


def load_trace(path) -> list[TraceEvent]:
    """Read a whole JSONL trace into memory."""
    return list(iter_trace(path))


def trace_summary(events: Iterable[TraceEvent]) -> dict:
    """Aggregate view of a trace: counts per kind/stream/reason, span.

    Used by ``repro trace inspect`` and handy in tests; returns a plain
    dict so it serialises directly.
    """
    kinds: Counter = Counter()
    streams: Counter = Counter()
    reasons: Counter = Counter()
    evicted_keys: Counter = Counter()
    first = last = None
    total = 0
    for event in events:
        total += 1
        kinds[event.kind] += 1
        streams[event.stream] += 1
        if event.reason is not None:
            reasons[f"{event.kind}/{event.reason}"] += 1
        if event.kind in (EVENT_EVICT, EVENT_DROP):
            evicted_keys[event.key] += 1
        if first is None or event.tick < first:
            first = event.tick
        if last is None or event.tick > last:
            last = event.tick
    return {
        "events": total,
        "kinds": dict(kinds),
        "streams": dict(streams),
        "reasons": dict(reasons),
        "tick_span": (first, last),
        "top_shed_keys": evicted_keys.most_common(5),
    }
