"""Tests for the ablation studies and online-estimator policy wiring."""

import pytest

from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import ProbPolicy, SidePolicies
from repro.experiments.ablations import (
    drift_ablation,
    predictor_quality_ablation,
    statistics_ablation,
)
from repro.stats import EwmaFrequencyEstimator, OnlineFrequencyCounter
from repro.streams import zipf_pair


@pytest.fixture(scope="module")
def tiny_scale():
    from repro.experiments.config import Scale

    return Scale(
        name="tiny",
        stream_length=400,
        window=30,
        weather_length=2000,
        weather_window=100,
        weather_warmup=200,
    )


class TestProbPolicyOnlineEstimators:
    def test_update_flag_feeds_estimators(self):
        # Live estimators are always fed; there is no flag to set.
        estimators = {"R": OnlineFrequencyCounter(), "S": OnlineFrequencyCounter()}
        policy = ProbPolicy(estimators)
        policy.observe_arrival("R", 5, 0)
        policy.observe_arrival("S", 7, 0)
        assert estimators["R"].count(5) == 1
        assert estimators["S"].count(7) == 1

    def test_engine_run_with_online_estimators(self, small_zipf_pair):
        estimators = {"R": EwmaFrequencyEstimator(0.05), "S": EwmaFrequencyEstimator(0.05)}
        config = EngineConfig(window=20, memory=10)
        engine = JoinEngine(
            config,
            policy=SidePolicies(r=ProbPolicy(estimators), s=ProbPolicy(estimators)),
        )
        result = engine.run(small_zipf_pair)
        assert result.output_count > 0
        assert estimators["R"].steps == len(small_zipf_pair)  # fed once per arrival


class TestStatisticsAblation:
    def test_every_estimator_beats_random(self, tiny_scale):
        table = statistics_ablation(tiny_scale, seed=0)
        ratios = table.column("x RAND")
        # All PROB variants (every row but the RAND baseline) beat RAND.
        assert all(ratio > 1.3 for ratio in ratios[:-1])

    def test_exact_table_is_best(self, tiny_scale):
        table = statistics_ablation(tiny_scale, seed=0)
        outputs = table.column("PROB output")
        assert outputs[0] == max(outputs[:-1])


class TestPredictorQualityAblation:
    def test_degrades_towards_random(self, tiny_scale):
        table = predictor_quality_ablation(tiny_scale, seed=0)
        outputs = table.column("PROB output")
        clean, corrupted, rand = outputs[0], outputs[-2], outputs[-1]
        assert clean > corrupted
        # Fully corrupted PROB lands in RAND territory (within 50%).
        assert corrupted < 1.5 * rand

    def test_fractions_bounded_by_one(self, tiny_scale):
        table = predictor_quality_ablation(tiny_scale, seed=0)
        assert all(f <= 1.0 for f in table.column("fraction of OPT"))


class TestDriftAblation:
    def test_adaptive_beats_stale(self, tiny_scale):
        table = drift_ablation(tiny_scale, seed=0)
        outputs = dict(zip(table.column("statistics module"), table.column("PROB output")))
        assert outputs["EWMA (alpha=0.02)"] > outputs["static table (first phase)"]
        assert outputs["static table (first phase)"] > outputs["RAND"]

