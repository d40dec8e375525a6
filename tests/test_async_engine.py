"""Tests for the asynchronous-arrival engine and count-based windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.policies import (
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
    SidePolicies,
)
from repro.experiments import estimators_for
from repro.streams import exact_join_size, zipf_pair


def _unit_batches(pair):
    """The synchronous workload as one-tuple-per-tick batches."""
    return [[key] for key in pair.r], [[key] for key in pair.s]


class _BatchSource:
    """Per-tick batch lists presented as a source."""

    def __init__(self, r_batches, s_batches):
        self.r_batches = r_batches
        self.s_batches = s_batches
        self.length = len(r_batches)

    def __iter__(self):
        return zip(self.r_batches, self.s_batches)


def _both_paths(make_engine, r_batches, s_batches):
    """Output counts of ``run(batches)`` and ``run_stream(source)``."""
    return (
        make_engine().run(r_batches, s_batches).output_count,
        make_engine().run_stream(_BatchSource(r_batches, s_batches)).output_count,
    )


def _policies(pair, kind="PROB", window=10):
    estimators = estimators_for(pair)
    if kind == "PROB":
        return SidePolicies(r=ProbPolicy(estimators), s=ProbPolicy(estimators))
    if kind == "LIFE":
        return SidePolicies(
            r=LifePolicy(estimators, window), s=LifePolicy(estimators, window)
        )
    return SidePolicies(
        r=RandomEvictionPolicy(seed=0), s=RandomEvictionPolicy(seed=1)
    )


class TestConfig:
    def test_defaults(self):
        config = AsyncEngineConfig(window=10, memory=4)
        assert config.warmup == 20
        assert config.window_mode == "time"

    def test_validation(self):
        for kwargs in (
            dict(window=0, memory=4),
            dict(window=5, memory=0),
            dict(window=5, memory=4, warmup=-1),
            dict(window=5, memory=4, window_mode="sideways"),
        ):
            with pytest.raises(ValueError):
                AsyncEngineConfig(**kwargs)

    def test_count_mode_rejects_time_based_policies(self):
        pair = zipf_pair(50, 5, 1.0, seed=0)
        config = AsyncEngineConfig(window=5, memory=4, window_mode="count")
        with pytest.raises(ValueError, match="LIFE"):
            AsyncJoinEngine(config, policy=_policies(pair, "LIFE", 5))


class TestSynchronousEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), window=st.integers(2, 12))
    def test_ample_memory_equals_exact_join(self, seed, window):
        """With no shedding, one-per-tick batches give the exact join."""
        pair = zipf_pair(120, 6, 1.0, seed=seed)
        config = AsyncEngineConfig(window=window, memory=4 * window, validate=True)
        engine = AsyncJoinEngine(config)
        result = engine.run(*_unit_batches(pair))
        assert result.output_count == exact_join_size(
            pair, window, count_from=config.warmup
        )

    def test_shedding_bounded_by_exact(self):
        pair = zipf_pair(300, 8, 1.0, seed=7)
        window = 20
        exact = exact_join_size(pair, window, count_from=2 * window)
        config = AsyncEngineConfig(window=window, memory=10)
        engine = AsyncJoinEngine(config, policy=_policies(pair, "PROB", window))
        result = engine.run(*_unit_batches(pair))
        assert 0 < result.output_count <= exact


class TestBurstyArrivals:
    def _bursty_batches(self, pair, burst=3):
        """Deliver the same tuples in bursts with idle ticks between."""
        r_batches, s_batches = [], []
        r_keys, s_keys = list(pair.r), list(pair.s)
        while r_keys or s_keys:
            r_batches.append(r_keys[:burst])
            s_batches.append(s_keys[:burst])
            del r_keys[:burst], s_keys[:burst]
            r_batches.append([])  # idle tick
            s_batches.append([])
        return r_batches, s_batches

    def test_bursts_with_ample_memory(self):
        pair = zipf_pair(120, 6, 1.0, seed=3)
        config = AsyncEngineConfig(window=8, memory=200, warmup=0, validate=True)
        engine = AsyncJoinEngine(config)
        result = engine.run(*self._bursty_batches(pair))
        assert result.arrivals == 2 * len(pair)
        assert result.output_count == result.total_output_count > 0

    def test_bursts_under_pressure_shed(self):
        pair = zipf_pair(300, 8, 1.0, seed=4)
        config = AsyncEngineConfig(window=10, memory=8, warmup=0, validate=True)
        engine = AsyncJoinEngine(config, policy=_policies(pair, "RAND"))
        result = engine.run(*self._bursty_batches(pair, burst=5))
        shed = sum(
            result.drop_counts[s]["rejected"] + result.drop_counts[s]["evicted"]
            for s in ("R", "S")
        )
        assert shed > 0

    def test_prob_beats_rand_on_bursts(self):
        pair = zipf_pair(600, 20, 1.2, seed=5)
        batches = self._bursty_batches(pair, burst=4)
        outputs = {}
        for kind in ("PROB", "RAND"):
            config = AsyncEngineConfig(window=20, memory=12, warmup=40)
            engine = AsyncJoinEngine(config, policy=_policies(pair, kind, 20))
            outputs[kind] = engine.run(*batches).output_count
        assert outputs["PROB"] > outputs["RAND"]

    def test_mismatched_tick_counts_rejected(self):
        config = AsyncEngineConfig(window=5, memory=4)
        with pytest.raises(ValueError, match="same number"):
            AsyncJoinEngine(config).run([[1]], [[1], [2]])

    def test_overflow_without_policy(self):
        pair = zipf_pair(100, 5, 1.0, seed=6)
        config = AsyncEngineConfig(window=20, memory=4)
        with pytest.raises(RuntimeError, match="overflow"):
            AsyncJoinEngine(config).run(*_unit_batches(pair))


class TestAsyncFuzzAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        window=st.integers(2, 12),
        half=st.integers(1, 6),
        burst=st.integers(1, 4),
    )
    def test_prob_matches_naive_async(self, seed, window, half, burst):
        from tests.reference_engine import naive_async_run

        pair = zipf_pair(90, 5, 1.0, seed=seed)
        memory = 2 * half
        r_keys, s_keys = list(pair.r), list(pair.s)
        r_batches, s_batches = [], []
        while r_keys or s_keys:
            r_batches.append(r_keys[:burst])
            s_batches.append(s_keys[:burst])
            del r_keys[:burst], s_keys[:burst]

        estimators = estimators_for(pair)
        config = AsyncEngineConfig(window=window, memory=memory, warmup=0)
        ours = _both_paths(
            lambda: AsyncJoinEngine(
                config,
                policy=SidePolicies(r=ProbPolicy(estimators), s=ProbPolicy(estimators)),
            ),
            r_batches,
            s_batches,
        )
        reference = naive_async_run(
            r_batches, s_batches, window, memory, estimators, warmup=0
        )
        assert ours == (reference, reference)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), memory=st.integers(1, 10))
    def test_probv_matches_naive_async_variable(self, seed, memory):
        from tests.reference_engine import naive_async_run

        pair = zipf_pair(80, 5, 1.0, seed=seed)
        batches = _unit_batches(pair)
        estimators = estimators_for(pair)
        config = AsyncEngineConfig(window=8, memory=memory, variable=True, warmup=0)
        ours = _both_paths(
            lambda: AsyncJoinEngine(config, policy=ProbPolicy(estimators)), *batches
        )
        reference = naive_async_run(
            *batches, 8, memory, estimators, variable=True, warmup=0
        )
        assert ours == (reference, reference)


class TestCountWindows:
    def test_count_window_keeps_last_w_tuples(self):
        # R tuples arrive in one burst; S probes afterwards: only the
        # last w R-tuples can match.
        r_batches = [[1, 1, 1, 1, 1], [], []]
        s_batches = [[], [1], [1]]
        config = AsyncEngineConfig(
            window=2, memory=40, warmup=0, window_mode="count", validate=True
        )
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        # Each s(1) matches the last 2 resident R-tuples.
        assert result.output_count == 4

    def test_count_window_expires_own_stream_only(self):
        # S-tuples never expire while no further S-tuples arrive, however
        # many ticks pass (unlike a time window).
        r_batches = [[], [], [], [7]]
        s_batches = [[7], [], [], []]
        config = AsyncEngineConfig(
            window=1, memory=20, warmup=0, window_mode="count"
        )
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        assert result.output_count == 1

    def test_time_window_would_expire_instead(self):
        r_batches = [[], [], [], [7]]
        s_batches = [[7], [], [], []]
        config = AsyncEngineConfig(window=1, memory=20, warmup=0, window_mode="time")
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        assert result.output_count == 0

    def test_count_mode_with_prob_policy(self):
        pair = zipf_pair(300, 8, 1.0, seed=8)
        config = AsyncEngineConfig(
            window=10, memory=8, warmup=20, window_mode="count", validate=True
        )
        engine = AsyncJoinEngine(config, policy=_policies(pair, "PROB"))
        result = engine.run(*_unit_batches(pair))
        assert result.output_count > 0
