"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program has no timers of its own here: :func:`install` wraps the
public functions and methods of each ``repro`` layer (module attribute or
class attribute) so that every call opens a span, and
:class:`TimedSource` wraps a source so that every pull does.  Spans are
aggregated as they close, by (parent span, span): calls, total time and
self time, where self time is the span's duration minus its child
spans.  Aggregating instead of keeping each span keeps memory flat on
per-tuple paths, which make millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

_POLICY_CLASSES = (
    ("repro.core.policies.base", "EvictionPolicy"),
    ("repro.core.policies.random_policy", "RandomEvictionPolicy"),
    ("repro.core.policies.prob", "ProbPolicy"),
    ("repro.core.policies.life", "LifePolicy"),
    ("repro.core.policies.fifo", "FifoPolicy"),
    ("repro.core.policies.arm", "ArmAwarePolicy"),
)
_ESTIMATOR_CLASSES = (
    ("repro.stats.frequency", "StaticFrequencyTable"),
    ("repro.stats.frequency", "OnlineFrequencyCounter"),
    ("repro.stats.ewma", "EwmaFrequencyEstimator"),
    ("repro.stats.countmin", "CountMinSketch"),
    ("repro.stats.spacesaving", "SpaceSaving"),
)


def _methods(classes, *names):
    return [(module, f"{cls}.{name}") for module, cls in classes for name in names]


#: span name -> the (module, attribute) targets it wraps.  A class
#: attribute is wrapped only where the class defines it, so inherited
#: methods keep their identity (policies are told apart by whether they
#: override ``observe_arrival``).
SPANS = {
    "api": [("repro.api", "run")],
    "batches.encode": [("repro.streams.batches", "encode_chunks")],
    "batched.lane": [
        ("repro.core.batched", "exact_chunk_counts"),
        ("repro.core.batched", "exact_tick_counts"),
        ("repro.core.batched", "exact_stream_counts"),
        ("repro.core.batched_policies", "rand_chunk_run"),
        ("repro.core.batched_policies", "prob_chunk_run"),
        ("repro.core.batched_policies", "life_chunk_run"),
    ],
    "engine": [
        ("repro.core.engine", "JoinEngine.run"),
        ("repro.core.engine", "JoinEngine.run_stream"),
    ],
    "async_engine": [
        ("repro.core.async_engine", "AsyncJoinEngine.run"),
        ("repro.core.async_engine", "AsyncJoinEngine.run_stream"),
    ],
    "kernel.expire": [("repro.core.kernel", "JoinKernel.expire")],
    "kernel.probe": _methods(
        [("repro.core.kernel", "JoinKernel")], "probe", "probe_batch"
    ),
    "kernel.admit": _methods(
        [("repro.core.kernel", "JoinKernel")], "insert", "insert_batch"
    ),
    "kernel.observe": _methods(
        [("repro.core.kernel", "JoinKernel")], "observe", "observe_batch"
    ),
    "memory.add": _methods(
        [("repro.core.memory", "StreamMemory")], "add", "add_batch"
    ),
    "memory.expire": [("repro.core.memory", "StreamMemory.expire_until")],
    "policies.victim": _methods(
        _POLICY_CLASSES, "choose_victim", "weakest_resident"
    ),
    "policies.hooks": _methods(
        _POLICY_CLASSES, "on_admit", "on_remove", "observe_arrival"
    ),
    "stats.observe": _methods(_ESTIMATOR_CLASSES, "observe"),
    "stats.query": _methods(_ESTIMATOR_CLASSES, "probability"),
    "partition.split": [("repro.core.partition", "shard_batches")],
    "partition.merge": [("repro.core.partition", "merge_shard_results")],
    "runtime.map": [("repro.runtime.pool", "parallel_map")],
    "runtime.cell": [("repro.runtime.cells", "run_shard_cell")],
}

#: Source pulls, recorded by :class:`TimedSource`.
PULL_SPAN = "streams.pull"

#: Per-layer time metric -> the span whose self time it sums.
SELF_TIME = {
    "streams.pull_s": PULL_SPAN,
    "batches.encode_s": "batches.encode",
    "batched.lane_s": "batched.lane",
    "engine.self_s": "engine",
    "async_engine.self_s": "async_engine",
    "kernel.expire_s": "kernel.expire",
    "kernel.probe_s": "kernel.probe",
    "kernel.admit_s": "kernel.admit",
    "kernel.observe_s": "kernel.observe",
    "memory.add_s": "memory.add",
    "memory.expire_s": "memory.expire",
    "policies.victim_s": "policies.victim",
    "policies.hooks_s": "policies.hooks",
    "stats.observe_s": "stats.observe",
    "stats.query_s": "stats.query",
    "partition.split_s": "partition.split",
    "partition.merge_s": "partition.merge",
    "runtime.map_s": "runtime.map",
    "runtime.cell_s": "runtime.cell",
}
#: Per-layer count metric -> the iterator span whose items it counts.
ITEMS = {"streams.ticks": PULL_SPAN, "batches.chunks": "batches.encode"}
#: Per-layer count metric -> the span-name prefix whose calls it sums.
CALLS = {
    "kernel.calls": "kernel.",
    "memory.calls": "memory.",
    "policies.calls": "policies.",
    "stats.calls": "stats.",
}


class SpanRecorder:
    """Aggregates nested spans by (parent, name) as they close."""

    def __init__(self, clock=time.perf_counter, *, keep=()) -> None:
        self._clock = clock
        self._keep = frozenset(keep)
        self._stack: list = []  # open spans: [name, start, child seconds]
        self.stats: dict = {}  # (parent, name) -> [calls, total_s, self_s]
        self.items: dict = {}  # iterator span -> items produced
        self.durations: dict = {}  # span in ``keep`` -> each call's duration

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        entry = self.stats.get((parent, name))
        if entry is None:
            entry = self.stats[(parent, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name in self._keep:
            self.durations.setdefault(name, []).append(duration)

    def count(self, name: str) -> None:
        self.items[name] = self.items.get(name, 0) + 1

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(f"spans still open: {self._stack}")
        self.stats = {}
        self.items = {}
        self.durations = {}

    def by_name(self) -> dict:
        """``name -> (calls, total_s, self_s)`` over all parents."""
        totals: dict = {}
        for (_parent, name), (calls, total, own) in self.stats.items():
            c, t, s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + calls, t + total, s + own)
        return totals

    def self_sum(self) -> float:
        return sum(own for _calls, _total, own in self.stats.values())

    def rows(self) -> list:
        """The aggregated spans, for the results file."""
        return [
            {
                "parent": parent,
                "name": name,
                "calls": calls,
                "total_s": total,
                "self_s": own,
            }
            for (parent, name), (calls, total, own) in sorted(
                self.stats.items(), key=lambda item: -item[1][1]
            )
        ]

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the spans recorded since the reset."""
        spans = self.by_name()
        metrics = {
            metric: spans.get(span, (0, 0.0, 0.0))[2]
            for metric, span in SELF_TIME.items()
        }
        metrics.update(
            (metric, self.items.get(span, 0)) for metric, span in ITEMS.items()
        )
        metrics.update(
            (
                metric,
                sum(c for name, (c, _t, _s) in spans.items() if name.startswith(prefix)),
            )
            for metric, prefix in CALLS.items()
        )
        return metrics


class SpannedIterator:
    """Spans each ``next()``: the time spent producing one item."""

    def __init__(self, iterator, name: str, recorder: SpanRecorder) -> None:
        self._iterator = iterator
        self._name = name
        self._recorder = recorder

    def __iter__(self):
        return self

    def __next__(self):
        recorder = self._recorder
        recorder.enter(self._name)
        try:
            item = next(self._iterator)
        finally:
            recorder.exit()
        recorder.count(self._name)
        return item


class TimedSource:
    """A source proxy that spans every pull as ``streams.pull``.

    Every other attribute is forwarded to the wrapped source, so the
    engine picks the same lane it picks for the source itself.
    """

    def __init__(self, source, recorder: SpanRecorder) -> None:
        self._source = source
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._source, name)

    def __iter__(self):
        return SpannedIterator(iter(self._source), PULL_SPAN, self._recorder)


def _wrap(fn, name: str, recorder: SpanRecorder):
    if inspect.isgeneratorfunction(fn):
        # Creating the generator does no work; span each item instead.
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            return SpannedIterator(fn(*args, **kwargs), name, recorder)

        return traced_generator

    enter = recorder.enter
    leave = recorder.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


#: The spans a sharded run opens in the supervising process.  Tracing
#: only these keeps worker processes, which fork with the wrappers in
#: place, running unwrapped code.
SUPERVISOR_SPANS = ("api", "runtime.map", "partition.merge")


@contextmanager
def install(recorder: SpanRecorder, names=tuple(SPANS)):
    """Wrap the targets of the spans ``names`` (default: every span in
    :data:`SPANS`) for the duration of the block.

    A module-level function is replaced in every ``repro`` module that
    holds it (re-exports and ``from … import`` bindings alike), so a call
    through any name opens the span; a wrapped function keeps its module
    and qualified name, so it still pickles by reference.
    """
    selected = {name: SPANS[name] for name in names}
    for targets in selected.values():
        for module_name, _path in targets:
            importlib.import_module(module_name)
    patched: list = []  # wrapped methods: (class, attribute, original)
    wrappers: dict = {}  # wrapped functions: wrapper -> original
    try:
        for name, targets in selected.items():
            for module_name, path in targets:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__.get(attr)
                    if not inspect.isfunction(original) or getattr(
                        original, "__isabstractmethod__", False
                    ):
                        continue
                    setattr(cls, attr, _wrap(original, name, recorder))
                    patched.append((cls, attr, original))
                    continue
                original = getattr(module, path)
                wrapper = _wrap(original, name, recorder)
                wrappers[wrapper] = original
                for owner in _repro_modules():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        for owner in _repro_modules():
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(owner, attr, wrappers[value])
