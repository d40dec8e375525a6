"""Tests for the statistics module (frequency estimators & sketches)."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    CountMinSketch,
    EwmaFrequencyEstimator,
    FrequencyEstimator,
    OnlineFrequencyCounter,
    SpaceSaving,
    StaticFrequencyTable,
)


class TestStaticFrequencyTable:
    def test_normalisation(self):
        table = StaticFrequencyTable({1: 2, 2: 2})
        assert table.probability(1) == pytest.approx(0.5)
        assert table.probability(99) == 0.0

    def test_from_stream(self):
        table = StaticFrequencyTable.from_stream([1, 1, 1, 2])
        assert table.probability(1) == pytest.approx(0.75)

    def test_from_array(self):
        table = StaticFrequencyTable.from_array([0.2, 0.8])
        assert table.probability(1) == pytest.approx(0.8)

    def test_observe_is_noop(self):
        table = StaticFrequencyTable({1: 1})
        table.observe(2)
        assert table.probability(2) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            StaticFrequencyTable({})
        with pytest.raises(ValueError):
            StaticFrequencyTable({1: -1, 2: 2})
        with pytest.raises(ValueError):
            StaticFrequencyTable.from_stream([])

    def test_satisfies_protocol(self):
        assert isinstance(StaticFrequencyTable({1: 1}), FrequencyEstimator)


class TestOnlineCounter:
    def test_counts(self):
        counter = OnlineFrequencyCounter()
        for key in [1, 1, 2]:
            counter.observe(key)
        assert counter.probability(1) == pytest.approx(2 / 3)
        assert counter.count(2) == 1
        assert counter.total == 3
        assert len(counter) == 2

    def test_empty(self):
        assert OnlineFrequencyCounter().probability(1) == 0.0

    def test_smoothing_gives_unseen_keys_mass(self):
        counter = OnlineFrequencyCounter(smoothing=1.0)
        counter.observe(1)
        assert counter.probability(2) > 0.0
        assert counter.probability(1) > counter.probability(2)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            OnlineFrequencyCounter(smoothing=-1)


def underflow_horizon(alpha):
    """Fewest arrivals after which ``(1 - alpha) ** n`` reads exactly 0.0:
    no weight (at most 1) outlives this many arrivals without its key."""
    n = 1
    while alpha < 1.0 and (1.0 - alpha) ** n != 0.0:
        n += 1
    return n


class UnprunedEwma:
    """EWMA that keeps every key it has seen: the estimator before pruning."""

    def __init__(self, alpha):
        self.alpha = alpha
        self.weights = {}
        self.step = 0

    def weight(self, key):
        weight, updated_at = self.weights.get(key, (0.0, self.step))
        if self.alpha == 1.0:
            return weight if updated_at == self.step else 0.0
        return weight * ((1.0 - self.alpha) ** (self.step - updated_at))

    def observe(self, key):
        self.step += 1
        self.weights[key] = (self.weight(key) + self.alpha, self.step)

    def probability(self, key):
        if self.step == 0:
            return 0.0
        total = 1.0 if self.alpha == 1.0 else 1.0 - (1.0 - self.alpha) ** self.step
        return self.weight(key) / total if total > 0.0 else 0.0


class TestEwma:
    def test_converges_on_stationary_stream(self):
        est = EwmaFrequencyEstimator(alpha=0.01)
        rng = np.random.default_rng(0)
        for key in rng.choice([0, 1], p=[0.7, 0.3], size=5000):
            est.observe(int(key))
        assert est.probability(0) == pytest.approx(0.7, abs=0.08)
        assert est.probability(1) == pytest.approx(0.3, abs=0.08)

    def test_adapts_to_shift(self):
        est = EwmaFrequencyEstimator(alpha=0.05)
        for _ in range(500):
            est.observe("old")
        for _ in range(500):
            est.observe("new")
        assert est.probability("new") > 0.9
        assert est.probability("old") < 0.05

    def test_alpha_one_remembers_only_last(self):
        est = EwmaFrequencyEstimator(alpha=1.0)
        est.observe("a")
        est.observe("b")
        assert est.probability("b") == pytest.approx(1.0)
        assert est.probability("a") == pytest.approx(0.0)

    def test_empty(self):
        assert EwmaFrequencyEstimator(0.1).probability("x") == 0.0

    def test_invalid_alpha(self):
        for alpha in (0.0, -1, 1.5):
            with pytest.raises(ValueError):
                EwmaFrequencyEstimator(alpha)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.3, 0.5, 0.9, 1.0]),
        domain=st.integers(1, 2000),
        length=st.integers(1, 4000),
    )
    def test_pruning_keeps_every_estimate_bit_identical(
        self, seed, alpha, domain, length
    ):
        """Sweeps drop only weights that read exactly 0.0, so the pruned
        estimator answers like one that keeps every key forever.  Every
        key is compared right after each sweep (when ``len`` drops) —
        the moment a too-eager prune would show — and at the end."""
        rng = random.Random(seed)
        est, reference = EwmaFrequencyEstimator(alpha), UnprunedEwma(alpha)
        held = 0
        for step in range(length):
            key = rng.randrange(domain)
            est.observe(key)
            reference.observe(key)
            if len(est) < held or step == length - 1:
                for probe in range(domain + 1):
                    assert est.probability(probe) == reference.probability(probe)
            held = len(est)
        assert len(est) <= 2 * underflow_horizon(alpha) + 64

    def test_state_is_bounded_on_an_unbounded_key_domain(self):
        alpha = 0.05
        horizon = underflow_horizon(alpha)
        assert horizon == 14_527  # 0.95 ** n reads 0.0 from n = 14,527 on
        est = EwmaFrequencyEstimator(alpha)
        peak = 0
        for key in range(200_000):
            est.observe(key)
            peak = max(peak, len(est))
        assert peak <= 2 * horizon + 64
        assert est.probability(0) == 0.0
        assert est.probability(199_999) > 0.0

    @settings(max_examples=25, deadline=None)
    @given(keys=st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_probabilities_sum_to_at_most_one(self, keys):
        est = EwmaFrequencyEstimator(alpha=0.1)
        for key in keys:
            est.observe(key)
        total = sum(est.probability(k) for k in range(6))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCountMin:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=20, depth=4, seed=1)
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 100, size=2000).tolist()
        truth = Counter(stream)
        for key in stream:
            sketch.observe(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_error_bound(self):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.01, seed=2)
        rng = np.random.default_rng(2)
        stream = rng.zipf(1.5, size=5000).tolist()
        truth = Counter(stream)
        for key in stream:
            sketch.observe(key)
        overshoot = [sketch.estimate(k) - c for k, c in truth.items()]
        # epsilon * N bound should hold for the vast majority of keys.
        within = sum(1 for o in overshoot if o <= 0.01 * len(stream))
        assert within / len(overshoot) > 0.95

    def test_conservative_no_worse(self):
        plain = CountMinSketch(width=10, depth=3, seed=3)
        conservative = CountMinSketch(width=10, depth=3, seed=3, conservative=True)
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 50, size=1000).tolist()
        for key in stream:
            plain.observe(key)
            conservative.observe(key)
        for key in set(stream):
            assert conservative.estimate(key) <= plain.estimate(key)
            assert conservative.estimate(key) >= Counter(stream)[key]

    def test_probability_and_memory(self):
        sketch = CountMinSketch(width=8, depth=2)
        assert sketch.probability("x") == 0.0
        sketch.observe("x")
        assert sketch.probability("x") == pytest.approx(1.0)
        assert sketch.memory_counters() == 16

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 1)
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(epsilon=2, delta=0.1)


class TestSpaceSaving:
    def test_estimate_brackets_truth(self):
        summary = SpaceSaving(capacity=10)
        rng = np.random.default_rng(4)
        stream = rng.zipf(1.8, size=3000)
        stream = stream[stream <= 50].tolist()
        truth = Counter(stream)
        for key in stream:
            summary.observe(key)
        for key in truth:
            estimate = summary.estimate(key)
            if estimate:  # tracked
                assert estimate >= truth[key]
                assert summary.guaranteed_count(key) <= truth[key]

    def test_heavy_hitters_guarantee(self):
        summary = SpaceSaving(capacity=20)
        stream = [1] * 500 + [2] * 300 + list(range(3, 203))
        truth = Counter(stream)
        for key in stream:
            summary.observe(key)
        hitters = summary.heavy_hitters(0.2)
        assert set(hitters) == {1, 2} or set(hitters) == {1}
        for key in hitters:
            assert truth[key] > 0.2 * summary.total - summary.error(key)

    def test_capacity_bound(self):
        summary = SpaceSaving(capacity=5)
        for key in range(100):
            summary.observe(key)
        assert len(summary) == 5

    def test_probability(self):
        summary = SpaceSaving(capacity=4)
        for key in [1, 1, 2]:
            summary.observe(key)
        assert summary.probability(1) == pytest.approx(2 / 3)

    def test_invalid_threshold_and_capacity(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        with pytest.raises(ValueError):
            SpaceSaving(3).heavy_hitters(2.0)
