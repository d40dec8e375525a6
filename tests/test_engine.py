"""Tests for the fast-CPU join engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CapacityExceededError, EngineConfig, JoinEngine, run_exact
from repro.core.policies import ProbPolicy, RandomEvictionPolicy, SidePolicies
from repro.experiments.runner import estimators_for, run_algorithm
from repro.streams import StreamPair, exact_join_size, zipf_pair


def recount_from_departures(pair, result) -> int:
    """Independent recount of the output from survival records."""
    count = 0
    window = result.window
    n = len(pair)
    for i in range(n):
        for j in range(n):
            if pair.r[i] != pair.s[j] or abs(i - j) >= window:
                continue
            if max(i, j) < result.warmup:
                continue
            if i == j:
                count += 1
            elif i < j:
                if result.r_departures[i] >= j:
                    count += 1
            else:
                if result.s_departures[j] >= i:
                    count += 1
    return count


class TestEngineConfig:
    def test_default_warmup_is_two_windows(self):
        assert EngineConfig(window=50, memory=10).warmup == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(window=0, memory=10)
        with pytest.raises(ValueError):
            EngineConfig(window=5, memory=0)
        with pytest.raises(ValueError):
            EngineConfig(window=5, memory=4, warmup=-1)
        with pytest.raises(ValueError):
            EngineConfig(window=5, memory=4, share_sample_every=0)


class TestExactReference:
    def test_matches_direct_computation(self, small_zipf_pair):
        window = 25
        result = run_exact(small_zipf_pair, window)
        assert result.output_count == exact_join_size(
            small_zipf_pair, window, count_from=2 * window
        )

    def test_total_output_includes_warmup(self, small_zipf_pair):
        window = 25
        result = run_exact(small_zipf_pair, window)
        assert result.total_output_count == exact_join_size(small_zipf_pair, window)
        assert result.total_output_count >= result.output_count

    def test_materialized_pairs_match_count(self, small_zipf_pair):
        window = 20
        result = run_exact(small_zipf_pair, window, materialize=True)
        assert len(result.pairs) == result.output_count
        for pair_result in result.pairs:
            assert abs(pair_result.r_arrival - pair_result.s_arrival) < window
            assert pair_result.emitted_at >= result.warmup

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), window=st.integers(2, 15))
    def test_exact_engine_equals_direct_for_any_input(self, seed, window):
        pair = zipf_pair(120, 6, 1.0, seed=seed)
        result = run_exact(pair, window)
        assert result.output_count == exact_join_size(pair, window, count_from=2 * window)


class TestPolicyWiring:
    def test_single_policy_requires_variable(self):
        config = EngineConfig(window=10, memory=10)
        with pytest.raises(ValueError, match="variable"):
            JoinEngine(config, policy=RandomEvictionPolicy())

    def test_side_policies_require_fixed(self):
        config = EngineConfig(window=10, memory=10, variable=True)
        with pytest.raises(ValueError, match="fixed"):
            JoinEngine(
                config,
                policy=SidePolicies(
                    r=RandomEvictionPolicy(), s=RandomEvictionPolicy()
                ),
            )

    def test_shared_instance_rejected(self):
        shared = RandomEvictionPolicy()
        with pytest.raises(ValueError, match="independent"):
            SidePolicies(r=shared, s=shared)

    def test_dict_spec_removed(self):
        config = EngineConfig(window=10, memory=10)
        with pytest.raises(TypeError, match="removed"):
            JoinEngine(
                config,
                policy={"R": RandomEvictionPolicy(), "S": RandomEvictionPolicy()},
            )

    def test_unsupported_policy_type(self):
        config = EngineConfig(window=10, memory=10)
        with pytest.raises(TypeError):
            JoinEngine(config, policy="RAND")

    def test_policy_names(self):
        assert JoinEngine(EngineConfig(window=5, memory=10)).policy_name == "EXACT"
        assert JoinEngine(EngineConfig(window=5, memory=4)).policy_name == "NONE"
        variable = EngineConfig(window=5, memory=4, variable=True)
        assert JoinEngine(variable, RandomEvictionPolicy()).policy_name == "RANDV"


class TestShedding:
    def test_overflow_without_policy_raises(self, small_zipf_pair):
        config = EngineConfig(window=30, memory=4)
        with pytest.raises(CapacityExceededError):
            JoinEngine(config, policy=None).run(small_zipf_pair)

    def test_output_bounded_by_exact(self, small_zipf_pair):
        window = 25
        exact = run_exact(small_zipf_pair, window).output_count
        for name in ("RAND", "PROB", "LIFE", "RANDV", "PROBV", "LIFEV"):
            result = run_algorithm(name, small_zipf_pair, window, 10, seed=3)
            assert 0 <= result.output_count <= exact

    def test_memory_never_exceeded_with_validation(self, small_zipf_pair):
        estimators = estimators_for(small_zipf_pair)
        config = EngineConfig(window=25, memory=10, validate=True)
        engine = JoinEngine(
            config,
            policy=SidePolicies(r=ProbPolicy(estimators), s=ProbPolicy(estimators)),
        )
        engine.run(small_zipf_pair)  # raises on any invariant violation

    def test_variable_mode_validation(self, small_zipf_pair):
        estimators = estimators_for(small_zipf_pair)
        config = EngineConfig(window=25, memory=9, variable=True, validate=True)
        JoinEngine(config, policy=ProbPolicy(estimators)).run(small_zipf_pair)

    def test_drop_accounting_balances(self, small_zipf_pair):
        window = 25
        result = run_algorithm("RAND", small_zipf_pair, window, 10, seed=1)
        for stream in ("R", "S"):
            counts = result.drop_counts[stream]
            # Every tuple is eventually rejected, evicted, or expired
            # (those resident at stream end are counted as expiring).
            assert counts["rejected"] + counts["evicted"] <= len(small_zipf_pair)

    def test_survival_records_consistent_with_output(self):
        pair = zipf_pair(150, 6, 1.0, seed=11)
        window = 12
        for name in ("RAND", "PROB", "LIFE"):
            result = run_algorithm(
                name, pair, window, 6, seed=2, track_survival=True
            )
            assert recount_from_departures(pair, result) == result.output_count

    def test_survival_records_variable_mode(self):
        pair = zipf_pair(150, 6, 1.0, seed=12)
        result = run_algorithm("PROBV", pair, 12, 7, track_survival=True)
        assert recount_from_departures(pair, result) == result.output_count

    def test_materialized_pairs_are_subset_of_exact(self):
        pair = zipf_pair(150, 6, 1.0, seed=13)
        window = 12
        exact = run_exact(pair, window, materialize=True)
        approx = run_algorithm("PROB", pair, window, 6, materialize=True)
        exact_set = set((p.r_arrival, p.s_arrival) for p in exact.pairs)
        approx_set = set((p.r_arrival, p.s_arrival) for p in approx.pairs)
        assert approx_set <= exact_set
        assert len(approx.pairs) == approx.output_count


class TestAccountingDetails:
    def test_simultaneous_pairs_counted_once(self):
        pair = StreamPair(r=[1, 1], s=[1, 2])
        config = EngineConfig(window=2, memory=4, warmup=0)
        result = JoinEngine(config).run(pair)
        # t=0: (r0, s0) simultaneous. t=1: r1 matches s0? s0=1 yes -> wait
        # s-memory holds s0=1; r1=1 matches -> 1; s1=2 matches nothing;
        # (r1, s1) keys differ. Total = 1 + 1 = 2.
        assert result.output_count == 2

    def test_simultaneous_disabled(self):
        pair = StreamPair(r=[1, 1], s=[1, 2])
        config = EngineConfig(window=2, memory=4, warmup=0, count_simultaneous=False)
        result = JoinEngine(config).run(pair)
        assert result.output_count == 1

    def test_expiry_excludes_window_boundary(self):
        # r0 expires at t=w: s at t=w must NOT match it.
        pair = StreamPair(r=[7, 101, 102, 103], s=[201, 202, 203, 7])
        config = EngineConfig(window=3, memory=20, warmup=0, count_simultaneous=False)
        result = JoinEngine(config).run(pair)
        # r0=7 at t=0; s3=7 at t=3: |0-3| = 3, not < 3 -> no match.
        assert result.output_count == 0

    def test_boundary_match_just_inside_window(self):
        pair = StreamPair(r=[7, 101, 102], s=[201, 202, 7])
        config = EngineConfig(window=3, memory=20, warmup=0, count_simultaneous=False)
        result = JoinEngine(config).run(pair)
        assert result.output_count == 1  # |0-2| = 2 < 3

    def test_share_tracking(self, small_zipf_pair):
        result = run_algorithm(
            "PROBV", small_zipf_pair, 20, 10, track_shares=True, share_sample_every=5
        )
        assert result.shares is not None
        assert all(r + s <= 10 for _, r, s in result.shares)
        fractions = result.share_fraction_r()
        assert all(0.0 <= f <= 1.0 for _, f in fractions)

    def test_share_fraction_requires_tracking(self, small_zipf_pair):
        result = run_algorithm("PROB", small_zipf_pair, 20, 10)
        with pytest.raises(ValueError, match="track_shares"):
            result.share_fraction_r()


class TestFastLoopDispatch:
    """The default path — the columnar lanes for RAND/PROB/LIFE, the
    inlined fast loop for ARM and FIFO — must be observationally
    identical to the fully-featured general loop — same outputs, drops,
    and survival records — with or without a metrics registry attached."""

    ALGORITHMS = ("RAND", "PROB", "PROBV", "LIFE", "ARM", "FIFO")

    def _run(self, name, pair, **kwargs):
        return run_algorithm(name, pair, 25, 12, seed=3, **kwargs)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_plain_metrics_and_general_agree(self, name):
        from repro.obs import MetricsRegistry

        pair = zipf_pair(600, 40, 1.0, seed=3)
        plain = self._run(name, pair)
        timed = self._run(name, pair, metrics=MetricsRegistry())
        # materialize=True forces the general loop (it collects pairs).
        general = self._run(name, pair, materialize=True)
        for other in (timed, general):
            assert plain.output_count == other.output_count
            assert plain.drop_breakdown() == other.drop_breakdown()
            assert plain.r_departures == other.r_departures
            assert plain.s_departures == other.s_departures

    def test_metrics_counters_match_result(self):
        from repro.obs import MetricsRegistry

        pair = zipf_pair(600, 40, 1.0, seed=3)
        registry = MetricsRegistry()
        result = self._run("PROB", pair, metrics=registry)
        assert registry.counter_total("engine.output") == result.output_count
        assert registry.counter_total("engine.arrivals") == 2 * len(pair)
        drops = result.drop_breakdown()
        assert registry.counter_total("engine.drops") == (
            drops.rejected + drops.evicted + drops.expired
        )
