"""Unit tests for the eviction policies."""

import pytest

from repro.core import EngineConfig, JoinEngine, JoinMemory, TupleRecord
from repro.core.policies import (
    ArmAwarePolicy,
    KeyArrivalTracker,
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
    later_arrival_wins,
)
from repro.stats import StaticFrequencyTable
from repro.streams import StreamPair


def _estimators(r_probabilities: dict, s_probabilities: dict) -> dict:
    return {
        "R": StaticFrequencyTable(r_probabilities),
        "S": StaticFrequencyTable(s_probabilities),
    }


def _admit(memory: JoinMemory, policy, stream, arrival, key):
    record = TupleRecord(stream, arrival, key)
    memory.admit(record)
    policy.on_admit(record, arrival)
    return record


class TestTieRule:
    def test_strictly_worse_resident_loses(self):
        assert later_arrival_wins(0.1, 0, 0.5, 3)

    def test_equal_priority_earlier_resident_loses(self):
        assert later_arrival_wins(0.5, 0, 0.5, 3)

    def test_better_resident_survives(self):
        assert not later_arrival_wins(0.9, 0, 0.5, 3)

    def test_full_tie_keeps_resident(self):
        assert not later_arrival_wins(0.5, 3, 0.5, 3)


class TestProbPolicy:
    def _setup(self):
        estimators = _estimators({0: 0.7, 1: 0.3}, {0: 0.9, 1: 0.1})
        memory = JoinMemory(4)
        policy = ProbPolicy(estimators)
        policy.bind(memory)
        return memory, policy

    def test_r_tuples_scored_against_s_distribution(self):
        memory, policy = self._setup()
        record = TupleRecord("R", 0, 0)
        assert policy.partner_probability(record) == pytest.approx(0.9)
        s_record = TupleRecord("S", 0, 0)
        assert policy.partner_probability(s_record) == pytest.approx(0.7)

    def test_evicts_lowest_probability(self):
        memory, policy = self._setup()
        low = _admit(memory, policy, "R", 0, 1)  # p_S = 0.1
        _admit(memory, policy, "R", 1, 0)  # p_S = 0.9
        candidate = TupleRecord("R", 2, 0)
        assert policy.choose_victim(candidate, 2) is low

    def test_rejects_weak_candidate(self):
        memory, policy = self._setup()
        _admit(memory, policy, "R", 0, 0)
        _admit(memory, policy, "R", 1, 0)
        candidate = TupleRecord("R", 2, 1)  # p 0.1 < residents' 0.9
        assert policy.choose_victim(candidate, 2) is None

    def test_tie_evicts_earliest_arrival(self):
        memory, policy = self._setup()
        first = _admit(memory, policy, "R", 0, 0)
        _admit(memory, policy, "R", 1, 0)
        candidate = TupleRecord("R", 2, 0)  # same probability
        assert policy.choose_victim(candidate, 2) is first

    def test_heap_skips_dead_records(self):
        memory, policy = self._setup()
        low = _admit(memory, policy, "R", 0, 1)
        mid = _admit(memory, policy, "R", 1, 1)
        memory.remove(low)
        policy.on_remove(low, 1, expired=False)
        candidate = TupleRecord("R", 2, 0)
        assert policy.choose_victim(candidate, 2) is mid

    def test_missing_estimator_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ProbPolicy({"R": StaticFrequencyTable({0: 1.0})})

    def test_unbound_policy_raises(self):
        policy = RandomEvictionPolicy(seed=0)
        with pytest.raises(RuntimeError, match="bind"):
            policy.choose_victim(TupleRecord("R", 0, 0), 0)

    def test_rebinding_other_memory_rejected(self):
        policy = ProbPolicy(_estimators({0: 1.0}, {0: 1.0}))
        policy.bind(JoinMemory(2))
        with pytest.raises(RuntimeError, match="bound"):
            policy.bind(JoinMemory(2))


class TestLifePolicy:
    def _setup(self, window=10):
        estimators = _estimators({0: 0.7, 1: 0.3}, {0: 0.9, 1: 0.1})
        memory = JoinMemory(4)
        policy = LifePolicy(estimators, window)
        policy.bind(memory)
        return memory, policy

    def test_priority_decays_with_age(self):
        memory, policy = self._setup(window=10)
        old_strong = _admit(memory, policy, "R", 0, 0)  # p 0.9
        _admit(memory, policy, "R", 8, 1)  # p 0.1, young
        # At t=9: old_strong priority (0+10-9)*0.9 = 0.9; young (8+10-9)*0.1=0.9
        # tie -> earlier arrival evicted (old_strong).
        candidate = TupleRecord("R", 9, 0)  # priority 10*0.9 = 9
        assert policy.choose_victim(candidate, 9) is old_strong

    def test_fresh_high_probability_survives(self):
        memory, policy = self._setup(window=10)
        strong = _admit(memory, policy, "R", 4, 0)  # at t=6: 8*0.9=7.2
        weak = _admit(memory, policy, "R", 5, 1)  # at t=6: 9*0.1=0.9
        candidate = TupleRecord("R", 6, 1)  # 10*0.1=1.0 > 0.9
        assert policy.choose_victim(candidate, 6) is weak

    def test_full_tie_rejects_candidate(self):
        memory, policy = self._setup(window=10)
        _admit(memory, policy, "R", 5, 1)
        candidate = TupleRecord("R", 5, 1)  # identical priority and arrival
        assert policy.choose_victim(candidate, 5) is None

    def test_weak_candidate_rejected(self):
        memory, policy = self._setup(window=10)
        _admit(memory, policy, "R", 0, 0)
        _admit(memory, policy, "R", 1, 0)
        candidate = TupleRecord("R", 1, 1)
        # candidate priority 10*0.1=1.0 < resident (9)*0.9
        assert policy.choose_victim(candidate, 1) is None

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            LifePolicy(_estimators({0: 1.0}, {0: 1.0}), 0)

    def test_victim_matches_bruteforce_scan(self):
        """Regression pin for the key-count scan in ``_weakest_on``.

        The scan only visits per-key oldest residents (the FIFO head per
        key) instead of rescanning every resident.  Pin its choice
        against a brute-force minimum over *all* residents with the same
        tie rule (lowest priority, then earliest arrival): both must
        name the same victim at every decision point of a mixed
        admission sequence.
        """
        estimators = _estimators(
            {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1},
            {0: 0.5, 1: 0.25, 2: 0.15, 3: 0.1},
        )
        window = 8
        memory = JoinMemory(12)
        policy = LifePolicy(estimators, window)
        policy.bind(memory)
        arrivals = [
            ("R", 0, 2), ("S", 1, 0), ("R", 2, 0), ("R", 3, 2),
            ("S", 4, 3), ("R", 5, 1), ("S", 6, 1), ("R", 7, 3),
        ]
        for stream, arrival, key in arrivals:
            _admit(memory, policy, stream, arrival, key)

        for now in range(8, 14):
            for stream in ("R", "S"):
                residents = [
                    record
                    for side in memory.eviction_candidates(stream)
                    for record in side.records()
                ]
                expected = min(
                    residents,
                    key=lambda r: (policy._priority(r, now), r.arrival),
                )
                assert policy.weakest_resident(stream, now) is expected

    def test_static_probability_cache_matches_estimator(self):
        """The static-table fast path returns estimator-exact values."""
        estimators = _estimators({0: 0.7, 1: 0.3}, {0: 0.9, 1: 0.1})
        policy = LifePolicy(estimators, 10)
        assert policy._partner_probs is not None
        for stream, other in (("R", "S"), ("S", "R")):
            for key in (0, 1, 99):
                assert policy.partner_probability(stream, key) == (
                    estimators[other].probability(key)
                )


class TestRandomPolicy:
    def test_uniform_over_residents_and_newcomer(self):
        estimators = None
        memory = JoinMemory(20)
        policy = RandomEvictionPolicy(seed=1)
        policy.bind(memory)
        residents = [_admit(memory, policy, "R", i, i) for i in range(10)]
        outcomes = {"reject": 0, "evict": 0}
        for trial in range(300):
            candidate = TupleRecord("R", 100 + trial, 0)
            victim = policy.choose_victim(candidate, 100 + trial)
            outcomes["reject" if victim is None else "evict"] += 1
        # Rejection probability should be about 1/11.
        assert 0.02 < outcomes["reject"] / 300 < 0.25

    def test_without_newcomer_always_evicts(self):
        memory = JoinMemory(4)
        policy = RandomEvictionPolicy(seed=2, include_newcomer=False)
        policy.bind(memory)
        _admit(memory, policy, "R", 0, 0)
        for trial in range(20):
            assert policy.choose_victim(TupleRecord("R", trial, 0), trial) is not None

    def test_empty_memory_rejects(self):
        memory = JoinMemory(4)
        policy = RandomEvictionPolicy(seed=0)
        policy.bind(memory)
        assert policy.choose_victim(TupleRecord("R", 0, 0), 0) is None

    def test_determinism_by_seed(self):
        def run(seed):
            memory = JoinMemory(8)
            policy = RandomEvictionPolicy(seed=seed)
            policy.bind(memory)
            residents = [_admit(memory, policy, "R", i, i) for i in range(4)]
            picks = []
            for t in range(10):
                victim = policy.choose_victim(TupleRecord("R", 10 + t, 0), 10 + t)
                picks.append(None if victim is None else victim.arrival)
            return picks

        assert run(5) == run(5)


class TestKeyArrivalTracker:
    def test_window_counting(self):
        tracker = KeyArrivalTracker(window=3)
        tracker.observe("a", 0)
        tracker.observe("a", 1)
        tracker.observe("b", 2)
        # At t=3: arrivals of "a" in (0, 3) -> only t=1.
        assert tracker.count_in_window("a", 3) == 1
        assert tracker.count_in_window("b", 3) == 1
        assert tracker.count_in_window("c", 3) == 0

    def test_excludes_current_tick(self):
        tracker = KeyArrivalTracker(window=5)
        tracker.observe("a", 2)
        assert tracker.count_in_window("a", 2) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            KeyArrivalTracker(0)


class TestArmPolicy:
    def test_doom_detection(self):
        estimators = _estimators({0: 1.0}, {0: 1.0})
        memory = JoinMemory(4)
        policy = ArmAwarePolicy(estimators, window=5)
        policy.bind(memory)
        # An S partner arrived at t=1 but is NOT in memory (was shed).
        policy.observe_arrival("S", 0, 1)
        record = TupleRecord("R", 2, 0)
        policy.observe_arrival("R", 0, 2)
        memory.admit(record)
        policy.on_admit(record, 2)
        assert record.tag is True  # doomed: partner missing

    def test_not_doomed_when_partner_resident(self):
        estimators = _estimators({0: 1.0}, {0: 1.0})
        memory = JoinMemory(4)
        policy = ArmAwarePolicy(estimators, window=5)
        policy.bind(memory)
        partner = TupleRecord("S", 1, 0)
        policy.observe_arrival("S", 0, 1)
        memory.admit(partner)
        policy.on_admit(partner, 1)
        record = TupleRecord("R", 2, 0)
        policy.observe_arrival("R", 0, 2)
        memory.admit(record)
        policy.on_admit(record, 2)
        assert record.tag is False

    def test_prefers_low_damage_victim(self):
        estimators = _estimators({0: 0.5, 1: 0.5}, {0: 0.9, 1: 0.01})
        memory = JoinMemory(4)
        policy = ArmAwarePolicy(estimators, window=10)
        policy.bind(memory)
        strong = _admit(memory, policy, "R", 0, 0)  # p 0.9: huge damage
        weak = _admit(memory, policy, "R", 1, 1)  # p 0.01: tiny damage
        candidate = TupleRecord("R", 2, 0)
        assert policy.choose_victim(candidate, 2) is weak

    def test_end_to_end_run(self, small_zipf_pair):
        """ARM runs cleanly inside the engine at several memory sizes."""
        from repro.api import RunSpec, run

        for memory in (4, 10, 20):
            spec = RunSpec(algorithm="ARM", window=20, memory=memory)
            assert 0 <= run(spec, pair=small_zipf_pair).output_count
