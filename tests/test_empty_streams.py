"""Regression tests: zero-length streams are legal everywhere.

A run over zero ticks used to crash in two places — the statistics
module (``StaticFrequencyTable.from_stream([])`` raising through
``estimators_for``) and the unified result surface (``OptResult`` had no
``summary()``).  These tests pin the fix across every engine, the
sharded runtime, the offline bound, the batched lane, and the source
path: an empty input is a boring run with ``output_count == 0``, never
an exception.
"""

import pytest

from repro.api import RunSpec, run
from repro.core.batched import exact_stream_counts
from repro.experiments.runner import ALL_ALGORITHMS, estimators_for
from repro.stats.frequency import OnlineFrequencyCounter
from repro.streams.sources import PairSource, ZipfSource, take_pair
from repro.streams.tuples import StreamPair

EMPTY = StreamPair(r=[], s=[], name="empty")


class TestEmptyPairRuns:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_algorithm_handles_an_empty_pair(self, algorithm):
        result = run(RunSpec(algorithm=algorithm, window=10, memory=4), pair=EMPTY)
        assert result.output_count == 0
        summary = result.summary()
        assert summary.output_count == 0
        assert summary.to_dict()["output_count"] == 0

    @pytest.mark.parametrize("engine", ["fast", "async", "slowcpu"])
    def test_every_engine_handles_an_empty_pair(self, engine):
        spec = RunSpec(algorithm="PROB", window=10, memory=4, engine=engine)
        result = run(spec, pair=EMPTY)
        assert result.output_count == 0

    def test_zero_length_generated_workload(self):
        spec = RunSpec(algorithm="RAND", window=10, memory=4, length=0)
        assert run(spec).output_count == 0

    def test_sharded_empty_run(self):
        spec = RunSpec(algorithm="EXACT", window=10, memory=4, shards=3)
        assert run(spec, pair=EMPTY).output_count == 0

    def test_batched_empty_run(self):
        spec = RunSpec(algorithm="EXACT", window=10, memory=4, batch_size=64)
        assert run(spec, pair=EMPTY).output_count == 0


class TestEmptyEstimators:
    def test_estimators_for_empty_pair_builds_zero_knowledge_counters(self):
        estimators = estimators_for(EMPTY)
        assert isinstance(estimators["R"], OnlineFrequencyCounter)
        assert estimators["R"].probability(7) == 0.0
        assert estimators["S"].probability(0) == 0.0

    def test_empty_pair_still_runs_the_estimator_algorithms(self):
        estimators = estimators_for(EMPTY)
        result = run(
            RunSpec(algorithm="LIFE", window=10, memory=4),
            pair=EMPTY, estimators=estimators,
        )
        assert result.output_count == 0


class TestEmptySources:
    def test_zero_length_generator_source(self):
        source = ZipfSource(10, 1.0, seed=0, length=0)
        assert source.length == 0
        assert list(source) == []
        spec = RunSpec(algorithm="EXACT", window=10, memory=4, source=source)
        assert run(spec).output_count == 0

    def test_empty_pair_source(self):
        source = PairSource(EMPTY)
        assert source.length == 0
        assert list(source) == []
        assert len(take_pair(source)) == 0

    def test_exact_stream_counts_over_no_events(self):
        output, total, arrivals, exp_r, exp_s, ticks = exact_stream_counts(
            iter(()), 10, 0, capacity=20, variable=False
        )
        assert (output, total, arrivals, ticks) == (0, 0, 0, 0)

    def test_until_zero_is_an_empty_run(self):
        spec = RunSpec(
            algorithm="PROB", window=10, memory=4,
            source=ZipfSource(10, 1.0, seed=1), duration=1,
        )
        assert run(spec).length == 1
        result = run(
            RunSpec(algorithm="PROB", window=10, memory=4),
            pair=EMPTY, on_summary=lambda s: None,
        )
        assert result.output_count == 0
