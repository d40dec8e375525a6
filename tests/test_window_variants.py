"""Tests for time-varying window sizes and landmark windows."""

import pytest

from repro.api import RunSpec, run
from repro.core import EngineConfig, JoinEngine
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.policies import make_policy_spec
from repro.experiments import estimators_for
from repro.streams import StreamPair, exact_join_size, zipf_pair
from repro.streams.sources import PairSource


class TestWindowSchedule:
    def _run(self, pair, schedule, *, window, memory=None, policy="PROB"):
        estimators = estimators_for(pair)
        config = EngineConfig(
            window=window,
            memory=memory if memory is not None else 4 * window,
            window_schedule=schedule,
            track_survival=False,
            validate=True,
        )
        spec = None if policy is None else make_policy_spec(
            policy, estimators=estimators, window=window
        )
        return JoinEngine(config, policy=spec).run(pair)

    def test_constant_schedule_matches_plain(self, small_zipf_pair):
        plain = run(RunSpec(algorithm="PROB", window=20, memory=10), pair=small_zipf_pair)
        scheduled = self._run(small_zipf_pair, lambda t: 20, window=20, memory=10)
        assert scheduled.output_count == plain.output_count

    def test_shrunk_window_reduces_output(self, small_zipf_pair):
        wide = self._run(small_zipf_pair, lambda t: 20, window=20, policy=None)
        narrow = self._run(small_zipf_pair, lambda t: 5, window=20, policy=None)
        assert narrow.output_count < wide.output_count

    def test_alternating_window_bounded_by_extremes(self, small_zipf_pair):
        narrow = self._run(small_zipf_pair, lambda t: 5, window=20, policy=None)
        wide = self._run(small_zipf_pair, lambda t: 20, window=20, policy=None)
        wave = self._run(
            small_zipf_pair,
            lambda t: 20 if (t // 20) % 2 == 0 else 5,
            window=20,
            policy=None,
        )
        assert narrow.output_count <= wave.output_count <= wide.output_count

    def test_pure_shrink_matches_smaller_exact_join(self):
        """Once the schedule settles on w', output matches the w' join.

        The second input grows the window past its initial size before
        anything expires; ``validate`` must check residents against the
        window in force, not the configured one.
        """
        pair = zipf_pair(300, 6, 1.0, seed=9)
        for schedule, window, settled in (
            (lambda t: 8, 16, 8),
            (lambda t: 4 if t < 4 else 8, 4, 8),
        ):
            result = self._run(pair, schedule, window=window, policy=None)
            expected = exact_join_size(pair, settled, count_from=2 * window)
            assert result.output_count == expected

    def test_sequence_schedule(self, small_zipf_pair):
        schedule = [20] * len(small_zipf_pair)
        scheduled = self._run(small_zipf_pair, schedule, window=20, memory=10)
        plain = run(RunSpec(algorithm="PROB", window=20, memory=10), pair=small_zipf_pair)
        assert scheduled.output_count == plain.output_count

    def test_survival_tracking_rejected(self):
        with pytest.raises(ValueError, match="track_survival"):
            EngineConfig(window=10, memory=4, window_schedule=lambda t: 10)

    def test_non_positive_window_rejected(self):
        pair = zipf_pair(30, 4, 1.0, seed=0)
        config = EngineConfig(
            window=5, memory=20, window_schedule=lambda t: 0, track_survival=False
        )
        with pytest.raises(ValueError, match="schedule produced"):
            JoinEngine(config).run(pair)


class TestLandmarkWindows:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="landmark_every"):
            AsyncEngineConfig(window=5, memory=4, window_mode="landmark")
        with pytest.raises(ValueError, match="only applies"):
            AsyncEngineConfig(window=5, memory=4, landmark_every=10)

    def test_state_resets_at_landmarks(self):
        # r(0)=7 would match s(5)=7 in a time window of 10, but the
        # landmark at t=4 wipes it first.
        r_batches = [[7], [], [], [], [], []]
        s_batches = [[], [], [], [], [], [7]]
        config = AsyncEngineConfig(
            window=10, memory=20, warmup=0,
            window_mode="landmark", landmark_every=4,
        )
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        assert result.output_count == 0

    def test_pairs_within_a_landmark_period_survive(self):
        r_batches = [[7], [], [], [], [], []]
        s_batches = [[], [], [7], [], [], []]
        config = AsyncEngineConfig(
            window=10, memory=20, warmup=0,
            window_mode="landmark", landmark_every=4,
        )
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        assert result.output_count == 1

    def test_no_expiry_between_landmarks(self):
        """Tuples live arbitrarily long within one landmark period."""
        length = 30
        r_batches = [[1]] + [[] for _ in range(length - 1)]
        s_batches = [[] for _ in range(length - 1)] + [[1]]
        config = AsyncEngineConfig(
            window=2, memory=20, warmup=0,
            window_mode="landmark", landmark_every=100,
        )
        result = AsyncJoinEngine(config).run(r_batches, s_batches)
        assert result.output_count == 1  # a w=2 time window would say 0

    def test_landmark_with_shedding_policy(self):
        pair = zipf_pair(200, 6, 1.0, seed=11)
        from repro.core.policies import ProbPolicy, SidePolicies

        estimators = estimators_for(pair)
        config = AsyncEngineConfig(
            window=10, memory=8, warmup=20,
            window_mode="landmark", landmark_every=25, validate=True,
        )
        engine = AsyncJoinEngine(
            config,
            policy=SidePolicies(r=ProbPolicy(estimators), s=ProbPolicy(estimators)),
        )
        result = engine.run_stream(PairSource(pair))
        assert result.output_count > 0

    def test_landmark_rejects_life(self):
        pair = zipf_pair(20, 4, 1.0, seed=0)
        from repro.core.policies import LifePolicy, SidePolicies

        estimators = estimators_for(pair)
        config = AsyncEngineConfig(
            window=5, memory=4, window_mode="landmark", landmark_every=10
        )
        with pytest.raises(ValueError, match="LIFE"):
            AsyncJoinEngine(
                config,
                policy=SidePolicies(
                    r=LifePolicy(estimators, 5),
                    s=LifePolicy(estimators, 5),
                ),
            )
