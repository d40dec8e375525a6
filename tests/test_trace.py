"""Tests for repro.obs.trace: events, sinks, and engine integration."""

import json

import pytest

from repro.api import RunSpec, run
from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import make_policy_spec
from repro.experiments.runner import estimators_for
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    RingBufferSink,
    TraceEvent,
    Tracer,
    iter_trace,
    load_trace,
    save_trace,
    trace_summary,
    tracing_or_none,
)
from repro.obs.trace import (
    EVENT_ADMIT,
    EVENT_ARRIVE,
    EVENT_DROP,
    EVENT_EVICT,
    EVENT_EXPIRE,
    EVENT_JOIN_OUTPUT,
    REASON_DISPLACED,
    REASON_REJECTED,
    REASON_SIMULTANEOUS,
    REASON_WINDOW,
)
from repro.streams import zipf_pair


def traced_run(algorithm="PROB", length=600, window=60, memory=30, seed=0,
               **spec_kwargs):
    spec = RunSpec(
        algorithm=algorithm, length=length, window=window, memory=memory,
        seed=seed, trace=True, **spec_kwargs,
    )
    return run(spec)


class TestTraceEvent:
    def test_json_round_trip(self):
        event = TraceEvent(7, "R", 3, EVENT_EVICT, 5, 0.25, REASON_DISPLACED)
        assert TraceEvent.from_json(event.to_json()) == event

    def test_to_json_omits_none_fields(self):
        event = TraceEvent(0, "S", 1, EVENT_ARRIVE, 0)
        record = event.to_json()
        assert "priority" not in record
        assert "reason" not in record
        assert "query" not in record

    def test_kind_vocabulary(self):
        assert set(EVENT_KINDS) == {
            EVENT_ARRIVE, EVENT_ADMIT, EVENT_EVICT,
            EVENT_EXPIRE, EVENT_JOIN_OUTPUT, EVENT_DROP,
        }


class TestSinks:
    def test_ring_buffer_keeps_newest(self):
        sink = RingBufferSink(3)
        for tick in range(5):
            sink.emit(TraceEvent(tick, "R", 0, EVENT_ARRIVE, tick))
        assert sink.total == 5
        assert sink.dropped == 2
        assert [event.tick for event in sink.events()] == [2, 3, 4]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)

    def test_jsonl_sink_streams_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceEvent(0, "R", 1, EVENT_ARRIVE, 0))
            sink.emit(TraceEvent(1, "S", 2, EVENT_ADMIT, 1))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == EVENT_ARRIVE

    def test_save_load_round_trip(self, tmp_path):
        events = [
            TraceEvent(0, "R", 1, EVENT_ARRIVE, 0),
            TraceEvent(3, "S", 2, EVENT_EVICT, 1, 0.5, REASON_DISPLACED),
        ]
        path = save_trace(events, tmp_path / "t.jsonl")
        assert load_trace(path) == events
        assert list(iter_trace(path)) == events


class TestNullPath:
    def test_tracing_or_none_collapses_disabled(self):
        assert tracing_or_none(None) is None
        assert tracing_or_none(NULL_TRACER) is None
        assert tracing_or_none(NullTracer()) is None
        tracer = Tracer()
        assert tracing_or_none(tracer) is tracer

    def test_disabled_run_attaches_no_trace_and_no_sink(self):
        """Behavioural overhead guard: the null path must not allocate.

        With ``metrics=None, trace=None`` the engine must neither keep a
        tracer nor attach trace/metrics payloads to the result — the
        disabled path is the paper's timed configuration.
        """
        pair = zipf_pair(400, 20, 1.0, seed=0)
        estimators = estimators_for(pair)
        policy = make_policy_spec("PROB", estimators=estimators, window=40, seed=0)
        engine = JoinEngine(
            EngineConfig(window=40, memory=20), policy=policy,
            metrics=None, trace=None,
        )
        result = engine.run(pair)
        assert engine._kernel is None
        assert result.trace is None
        assert result.metrics is None

    def test_instrumented_run_differs_only_by_payload(self):
        pair = zipf_pair(400, 20, 1.0, seed=0)
        estimators = estimators_for(pair)
        spec = RunSpec(algorithm="PROB", window=40, memory=20)
        plain = run(spec, pair=pair, estimators=estimators)
        traced = run(
            RunSpec(algorithm="PROB", window=40, memory=20, trace=True,
                    trace_capacity=1 << 18),
            pair=pair, estimators=estimators,
        )
        assert plain.output_count == traced.output_count
        assert plain.drop_breakdown() == traced.drop_breakdown()
        assert plain.trace is None
        assert traced.trace


class TestFastEngineTrace:
    def test_lifecycle_invariants(self):
        result = traced_run(length=800, window=60, memory=30)
        summary = trace_summary(result.trace)
        kinds = summary["kinds"]
        # every tick contributes one arrival per stream
        assert kinds[EVENT_ARRIVE] == 2 * 800
        # each arrival is either admitted or rejected at the gate
        reasons = summary["reasons"]
        assert kinds[EVENT_ADMIT] + reasons[f"{EVENT_DROP}/{REASON_REJECTED}"] \
            == kinds[EVENT_ARRIVE]
        # every join output event corresponds to one produced pair
        assert kinds[EVENT_JOIN_OUTPUT] == result.total_output_count

    def test_admitted_tuples_leave_exactly_once(self):
        result = traced_run(length=700, window=50, memory=24)
        summary = trace_summary(result.trace)
        kinds = summary["kinds"]
        departures = kinds.get(EVENT_EVICT, 0) + kinds.get(EVENT_EXPIRE, 0)
        # stream ends with some tuples still resident
        resident = kinds[EVENT_ADMIT] - departures
        assert 0 <= resident <= 2 * 50

    def test_evict_events_carry_decision_priority(self):
        result = traced_run(algorithm="PROB", length=600, window=60, memory=20)
        evictions = [e for e in result.trace if e.kind == EVENT_EVICT]
        assert evictions
        assert all(e.reason == REASON_DISPLACED for e in evictions)
        assert all(e.priority is not None for e in evictions)

    def test_simultaneous_outputs_are_flagged(self):
        result = traced_run(length=500, window=40, memory=20)
        simultaneous = [
            e for e in result.trace
            if e.kind == EVENT_JOIN_OUTPUT and e.reason == REASON_SIMULTANEOUS
        ]
        for event in simultaneous:
            assert event.tick == event.arrival

    def test_expiry_reason_is_window(self):
        result = traced_run(length=500, window=40, memory=20)
        expiries = [e for e in result.trace if e.kind == EVENT_EXPIRE]
        assert expiries
        assert all(e.reason == REASON_WINDOW for e in expiries)


class TestOtherEngines:
    @pytest.mark.parametrize("engine", ["async", "slowcpu"])
    def test_engines_emit_full_lifecycle(self, engine):
        result = traced_run(engine=engine, length=600, window=60, memory=30)
        kinds = trace_summary(result.trace)["kinds"]
        assert kinds[EVENT_ARRIVE] == 2 * 600
        assert kinds[EVENT_ADMIT] > 0
        assert kinds[EVENT_JOIN_OUTPUT] > 0

    def test_multiquery_events_carry_query_names(self):
        from repro.core.multiquery import QuerySpec, SharedQueueSystem
        from repro.streams import multi_attribute_pair

        pair = multi_attribute_pair(400, [20, 10], [1.0, 0.5], seed=1)
        queries = [
            QuerySpec(name="q0", attribute=0, window=40, memory=20),
            QuerySpec(name="q1", attribute=1, window=20, memory=10),
        ]
        tracer = Tracer(RingBufferSink(1 << 18))
        system = SharedQueueSystem(
            pair, queries, service_per_tick=4, queue_capacity=32, trace=tracer,
        )
        result = system.run()
        assert result.trace
        queries_seen = {e.query for e in result.trace if e.query is not None}
        assert {"q0", "q1"} <= queries_seen


class TestTraceSummary:
    def test_empty_trace(self):
        summary = trace_summary([])
        assert summary["events"] == 0

    def test_counts_and_span(self):
        events = [
            TraceEvent(2, "R", 1, EVENT_ARRIVE, 2),
            TraceEvent(9, "S", 1, EVENT_EVICT, 5, None, REASON_DISPLACED),
        ]
        summary = trace_summary(events)
        assert summary["events"] == 2
        assert summary["tick_span"] == (2, 9)
        assert summary["kinds"][EVENT_EVICT] == 1
