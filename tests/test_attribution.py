"""Tests for repro.obs.attribution: lost-output ledgers that reconcile."""

import pytest

from repro.api import RunSpec, attribute_run
from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import make_policy_spec
from repro.experiments.config import SCALES, even_memory
from repro.experiments.runner import estimators_for
from repro.obs import (
    RingBufferSink,
    Tracer,
    attribute_trace,
    format_regret_table,
    partner_index,
    regret_by_policy,
)
from repro.obs.trace import (
    EVENT_DROP,
    EVENT_EVICT,
    REASON_BUDGET,
    REASON_DISPLACED,
    REASON_QUEUE,
    REASON_REJECTED,
    TraceEvent,
)
from repro.streams import zipf_pair
from repro.streams.tuples import StreamPair, exact_join_size


class TestPartnerIndex:
    def test_indexes_both_streams(self):
        pair = StreamPair(r=[1, 2, 1], s=[2, 1, 1])
        index = partner_index(pair)
        assert index[("R", 1)] == [0, 2]
        assert index[("S", 1)] == [1, 2]
        assert index[("R", 2)] == [1]

    def test_ticks_are_sorted(self):
        pair = zipf_pair(300, 10, 1.0, seed=4)
        index = partner_index(pair)
        for ticks in index.values():
            assert ticks == sorted(ticks)


class TestAttributeTraceHandcrafted:
    """Tiny traces with losses countable by hand."""

    def test_rejected_tuple_loses_window_partners(self):
        # R tuple key=7 rejected at its arrival tick 10; S stream has
        # key 7 at ticks 11, 12, and 30 — only 11 and 12 are inside
        # the window of 5.
        s = [0] * 40
        s[11] = s[12] = s[30] = 7
        pair = StreamPair(r=[7 if t == 10 else 1 for t in range(40)], s=s)
        events = [TraceEvent(10, "R", 7, EVENT_DROP, 10, None, REASON_REJECTED)]
        report = attribute_trace(events, pair, 5, warmup=0)
        assert report.total_lost == 2
        assert report.total_lost_counted == 2

    def test_displaced_eviction_starts_after_its_tick(self):
        # victim arrived at 10, evicted at 12: it already probed against
        # tick 12's arrivals, so only ticks 13..14 (window 5) count.
        s = [0] * 40
        s[12] = s[13] = s[14] = 7
        pair = StreamPair(r=[1] * 40, s=s)
        events = [TraceEvent(12, "R", 7, EVENT_EVICT, 10, 0.1, REASON_DISPLACED)]
        report = attribute_trace(events, pair, 5, warmup=0)
        assert report.total_lost == 2

    def test_budget_shed_includes_its_own_tick(self):
        # budget sheds fire before the tick's probes, so tick 12 counts.
        s = [0] * 40
        s[12] = s[13] = 7
        pair = StreamPair(r=[1] * 40, s=s)
        events = [TraceEvent(12, "R", 7, EVENT_EVICT, 10, 0.1, REASON_BUDGET)]
        report = attribute_trace(events, pair, 5, warmup=0)
        assert report.total_lost == 2

    def test_warmup_filters_counted_losses(self):
        s = [0] * 40
        s[11] = s[12] = 7
        pair = StreamPair(r=[1] * 40, s=s)
        events = [TraceEvent(10, "R", 7, EVENT_DROP, 10, None, REASON_REJECTED)]
        report = attribute_trace(events, pair, 5, warmup=12)
        assert report.events[0].lost == 2
        assert report.events[0].lost_counted == 1

    def test_unknown_reasons_go_to_unattributed(self):
        pair = StreamPair(r=[1] * 10, s=[1] * 10)
        events = [TraceEvent(3, "R", 1, EVENT_DROP, 3, None, REASON_QUEUE)]
        report = attribute_trace(events, pair, 5, warmup=0)
        assert report.events == []
        assert report.unattributed == {REASON_QUEUE: 1}
        assert not report.reconciles()

    def test_non_shedding_events_are_ignored(self):
        pair = StreamPair(r=[1] * 10, s=[1] * 10)
        events = [TraceEvent(3, "R", 1, "arrive", 3)]
        report = attribute_trace(events, pair, 5, warmup=0)
        assert report.events == []
        assert report.unattributed == {}


class TestReconciliation:
    """EXACT − policy == attributed loss, exactly (acceptance criterion)."""

    def test_default_scale_prob_vs_rand(self):
        scale = SCALES["default"]
        window = scale.window
        reports = regret_by_policy(
            ["PROB", "RAND"],
            window=window,
            memory=even_memory(window, 0.5),
            length=scale.stream_length,
            seed=0,
        )
        assert set(reports) == {"PROB", "RAND"}
        for name, report in reports.items():
            assert report.exact_output is not None
            assert report.unattributed == {}
            assert (
                report.exact_output - report.observed_output
                == report.total_lost_counted
            ), name
            assert report.reconciles(), name
        # PROB's semantic shedding should waste fewer outputs than RAND
        assert (
            reports["PROB"].total_lost_counted
            < reports["RAND"].total_lost_counted
        )

    @pytest.mark.parametrize("algorithm", ["LIFE", "ARM", "FIFO", "PROBV"])
    def test_other_policies_reconcile(self, algorithm):
        reports = regret_by_policy(
            [algorithm], window=60, memory=30 if algorithm == "PROBV" else 28,
            length=900, seed=1,
        )
        report = next(iter(reports.values()))
        assert report.reconciles()

    def test_exact_run_has_zero_regret(self):
        reports = regret_by_policy(["EXACT"], window=60, memory=28, length=900)
        report = reports["EXACT"]
        assert report.total_lost_counted == 0
        assert report.exact_output == report.observed_output
        assert report.reconciles()

    def test_budget_schedule_reconciles(self):
        pair = zipf_pair(1200, 40, 1.0, seed=3)
        window, warmup = 80, 160
        schedule = [60 if t < 600 else 24 for t in range(1200)]
        estimators = estimators_for(pair)
        policy = make_policy_spec("PROB", estimators=estimators, window=window, seed=3)
        config = EngineConfig(
            window=window, memory=60, warmup=warmup, memory_schedule=schedule,
        )
        tracer = Tracer(RingBufferSink(1 << 20))
        result = JoinEngine(config, policy=policy, trace=tracer).run(pair)
        report = attribute_trace(
            result.trace, pair, window, warmup=warmup, policy="PROB",
            exact_output=exact_join_size(pair, window, count_from=warmup),
            observed_output=result.output_count,
        )
        assert report.lost_by_reason().get(REASON_BUDGET, 0) > 0
        assert report.reconciles()

    def test_attribute_run_helper(self):
        report = attribute_run(
            RunSpec(algorithm="PROB", length=1500, window=90, memory=44, seed=2)
        )
        assert report.reconciles()
        assert report.policy == "PROB"

    def test_truncated_trace_raises(self):
        spec = RunSpec(
            algorithm="PROB", window=20, memory=10, length=400, trace_capacity=500
        )
        with pytest.raises(RuntimeError, match="ring buffer dropped 1622 events"):
            attribute_run(spec)
        with pytest.raises(RuntimeError, match="ring buffer dropped 1622 events"):
            regret_by_policy(
                ["PROB"], window=20, memory=10, length=400, sink_capacity=500
            )

    def test_attribute_run_rejects_queue_engines(self):
        with pytest.raises(ValueError, match="fast-CPU"):
            attribute_run(RunSpec(algorithm="PROB", engine="slowcpu"))

    def test_attribute_run_rejects_opt(self):
        with pytest.raises(ValueError, match="OPT"):
            attribute_run(RunSpec(algorithm="OPT"))


class TestReportSurface:
    def test_top_regrets_sorted_desc(self):
        reports = regret_by_policy(["RAND"], window=60, memory=28, length=900)
        top = reports["RAND"].top_regrets(5)
        losses = [entry.lost_counted for entry in top]
        assert losses == sorted(losses, reverse=True)

    def test_lost_by_reason_partitions_total(self):
        reports = regret_by_policy(["PROB"], window=60, memory=28, length=900)
        report = reports["PROB"]
        assert sum(report.lost_by_reason().values()) == report.total_lost_counted

    def test_format_regret_table_mentions_policies(self):
        reports = regret_by_policy(["PROB", "RAND"], window=60, memory=28, length=900)
        table = format_regret_table(reports)
        assert "PROB" in table
        assert "RAND" in table
        assert "recon" in table
        assert "NO" not in table  # everything reconciles
