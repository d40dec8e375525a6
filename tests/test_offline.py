"""Tests for OPT-offline: job extraction, flow construction, optimality.

The central claims verified here:

* the compact flow formulation's optimum equals the exhaustive optimum of
  the engine's decision space (fixed and variable allocation), across
  many random tiny instances — this validates the DESIGN.md section 3
  equivalence argument end-to-end;
* OPT dominates every online policy and is dominated by EXACT;
* OPT is monotone in memory, and OPTV >= OPT.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, run
from repro.core.offline import (
    TupleJob,
    brute_force_opt,
    build_schedule_network,
    decode_departures,
    extract_jobs,
    solve_opt,
    total_exact_output,
)
from repro.streams import StreamPair, exact_join_size, zipf_pair


class TestJobExtraction:
    def test_paper_example(self):
        # R = 1,1,1,3,2; S = 2,3,1,1,3; w = 3 (the paper's Figure 2 input).
        pair = StreamPair(r=[1, 1, 1, 3, 2], s=[2, 3, 1, 1, 3])
        r_jobs, s_jobs, simultaneous = extract_jobs(pair, window=3)
        by_arrival = {job.arrival: job for job in r_jobs}
        # r(0)=1 matches s(2); r(1)=1 matches s(2),s(3); r(2)=1 matches s(3).
        assert by_arrival[0].match_times == (2,)
        assert by_arrival[1].match_times == (2, 3)
        assert by_arrival[2].match_times == (3,)
        # r(3)=3 matches s(4); r(4) has no future matches -> no job.
        assert by_arrival[3].match_times == (4,)
        assert 4 not in by_arrival
        # s(1)=3 matches r(3); no other S-tuple has a future partner within
        # the window (s(0)=2 would need r(4), which arrives 4 > w-1 later).
        s_by_arrival = {job.arrival: job for job in s_jobs}
        assert set(s_by_arrival) == {1}
        assert s_by_arrival[1].match_times == (3,)
        # (r(2), s(2)) both 1: one simultaneous pair.
        assert simultaneous == 1

    def test_total_exact_output_matches_direct(self):
        for seed in range(5):
            pair = zipf_pair(100, 5, 1.0, seed=seed)
            for count_from in (0, 20):
                jobs = extract_jobs(pair, window=9, count_from=count_from)
                assert total_exact_output(*jobs) == exact_join_size(
                    pair, 9, count_from=count_from
                )

    def test_count_from_drops_early_matches(self):
        pair = StreamPair(r=[1, 5, 6], s=[7, 1, 1])
        r_jobs, _, _ = extract_jobs(pair, window=3, count_from=2)
        (job,) = r_jobs
        assert job.match_times == (2,)  # the match at t=1 is not counted

    def test_validation(self):
        pair = StreamPair(r=[1], s=[1])
        with pytest.raises(ValueError):
            extract_jobs(pair, window=0)
        with pytest.raises(ValueError):
            extract_jobs(pair, window=2, count_from=-1)


class TestFlowGraphConstruction:
    def test_sizes(self):
        jobs = [TupleJob("R", 0, (2, 4)), TupleJob("R", 3, (4,))]
        schedule = build_schedule_network(jobs, length=6, capacity=2)
        # time nodes 0..6 (7) + 2 entry nodes.
        assert schedule.network.num_nodes == 9
        # 6 chain arcs + 2 entry arcs + 3 departure arcs.
        assert schedule.network.num_arcs == 11
        assert schedule.network.is_topologically_ordered()

    def test_profits_are_cumulative(self):
        jobs = [TupleJob("R", 0, (1, 3, 4))]
        schedule = build_schedule_network(jobs, length=5, capacity=1)
        costs = sorted(
            schedule.network.arc(arc_id).cost for arc_id in schedule.departure_arcs
        )
        assert costs == [-3, -2, -1]

    def test_empty_stream(self):
        schedule = build_schedule_network([], length=0, capacity=3)
        assert schedule.network.num_nodes == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_schedule_network([], length=-1, capacity=1)
        with pytest.raises(ValueError):
            build_schedule_network([], length=1, capacity=-1)
        with pytest.raises(ValueError):
            build_schedule_network([TupleJob("R", 9, (10,))], length=5, capacity=1)
        with pytest.raises(ValueError):
            build_schedule_network([TupleJob("R", 0, (9,))], length=5, capacity=1)

    def test_decode_rejects_double_selection(self):
        jobs = [TupleJob("R", 0, (1, 2))]
        schedule = build_schedule_network(jobs, length=3, capacity=2)
        flow = [0] * schedule.network.num_arcs
        for arc_id in schedule.departure_arcs:
            flow[arc_id] = 1  # both departures selected: invalid
        with pytest.raises(ValueError, match="two departures"):
            decode_departures(schedule, flow)


class TestOptAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(2, 5),
        half=st.integers(1, 2),
        length=st.integers(4, 14),
        domain=st.integers(2, 4),
    )
    def test_fixed_allocation_matches_exhaustive(self, seed, window, half, length, domain):
        pair = zipf_pair(length, domain, 1.0, seed=seed)
        memory = 2 * half
        flow_result = solve_opt(pair, window, memory, count_from=0)
        brute = brute_force_opt(pair, window, memory, count_from=0)
        assert flow_result.output_count == brute

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(2, 4),
        memory=st.integers(1, 3),
        length=st.integers(4, 10),
    )
    def test_variable_allocation_matches_exhaustive(self, seed, window, memory, length):
        pair = zipf_pair(length, 3, 1.0, seed=seed)
        flow_result = solve_opt(pair, window, memory, variable=True, count_from=0)
        brute = brute_force_opt(pair, window, memory, variable=True, count_from=0)
        assert flow_result.output_count == brute

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), count_from=st.integers(0, 8))
    def test_warmup_variant_matches_exhaustive(self, seed, count_from):
        pair = zipf_pair(12, 3, 1.0, seed=seed)
        flow_result = solve_opt(pair, 3, 2, count_from=count_from)
        brute = brute_force_opt(pair, 3, 2, count_from=count_from)
        assert flow_result.output_count == brute


class TestOptProperties:
    def test_dominates_online_and_below_exact(self):
        pair = zipf_pair(300, 8, 1.0, seed=21)
        window, memory = 20, 10
        opt = solve_opt(pair, window, memory).output_count
        exact = run(RunSpec(algorithm="EXACT", window=window), pair=pair).output_count
        assert opt <= exact
        for name in ("RAND", "PROB", "LIFE"):
            online = run(
                RunSpec(algorithm=name, window=window, memory=memory, seed=4),
                pair=pair,
            ).output_count
            assert online <= opt

    def test_optv_dominates_online_variable(self):
        pair = zipf_pair(300, 8, 1.0, seed=22)
        window, memory = 20, 10
        optv = solve_opt(pair, window, memory, variable=True).output_count
        for name in ("RANDV", "PROBV", "LIFEV"):
            online = run(
                RunSpec(algorithm=name, window=window, memory=memory, seed=4),
                pair=pair,
            ).output_count
            assert online <= optv

    def test_monotone_in_memory(self):
        pair = zipf_pair(300, 8, 1.0, seed=23)
        outputs = [solve_opt(pair, 20, m).output_count for m in (2, 6, 12, 20, 40)]
        assert outputs == sorted(outputs)

    def test_variable_at_least_fixed(self):
        for seed in range(5):
            pair = zipf_pair(200, 6, 1.2, seed=seed)
            fixed = solve_opt(pair, 15, 8).output_count
            pooled = solve_opt(pair, 15, 8, variable=True).output_count
            assert pooled >= fixed

    def test_full_memory_reaches_exact(self):
        pair = zipf_pair(250, 8, 1.0, seed=24)
        window = 15
        opt = solve_opt(pair, window, 2 * window).output_count
        exact = run(RunSpec(algorithm="EXACT", window=window), pair=pair).output_count
        assert opt == exact

    def test_departures_within_lifetimes(self):
        pair = zipf_pair(200, 6, 1.0, seed=25)
        window = 12
        result = solve_opt(pair, window, 6)
        for i, departure in enumerate(result.r_departures):
            assert i <= departure <= i + window - 1

    def test_validation_errors(self):
        pair = zipf_pair(20, 4, 1.0, seed=0)
        with pytest.raises(ValueError, match="positive"):
            solve_opt(pair, 0, 2)
        with pytest.raises(ValueError, match="positive"):
            solve_opt(pair, 4, 0)
        with pytest.raises(ValueError, match="even"):
            solve_opt(pair, 4, 3)

    def test_opt_result_metadata(self):
        pair = zipf_pair(60, 4, 1.0, seed=1)
        result = solve_opt(pair, 5, 4)
        assert result.policy_name == "OPT"
        assert result.output_count == result.held_profit + result.simultaneous
        pooled = solve_opt(pair, 5, 4, variable=True)
        assert pooled.policy_name == "OPTV"
