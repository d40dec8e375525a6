"""Tests for time-varying memory budgets (paper Section 3.3)."""

import pytest

from repro.api import RunSpec, run
from repro.core import CapacityExceededError, EngineConfig, JoinEngine
from repro.core.memory import JoinMemory, TupleRecord
from repro.core.policies import (
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
    make_policy_spec,
)
from repro.experiments import estimators_for, varying_memory_study
from repro.streams import zipf_pair


class TestJoinMemoryResize:
    def test_resize_and_surplus(self):
        memory = JoinMemory(4)
        for i in range(2):
            memory.admit(TupleRecord("R", i, i))
        memory.resize(2)
        assert memory.surplus("R") == 1
        assert memory.surplus("S") == 0

    def test_resize_validation(self):
        memory = JoinMemory(4)
        with pytest.raises(ValueError):
            memory.resize(0)
        with pytest.raises(ValueError, match="even"):
            memory.resize(3)

    def test_variable_pool_surplus(self):
        memory = JoinMemory(3, variable=True)
        memory.admit(TupleRecord("R", 0, 0))
        memory.admit(TupleRecord("S", 0, 0))
        memory.admit(TupleRecord("S", 1, 1))
        memory.resize(1)
        assert memory.surplus("R") == memory.surplus("S") == 2


class TestWeakestResident:
    def _bind(self, policy, capacity=10):
        memory = JoinMemory(capacity)
        policy.bind(memory)
        return memory

    def test_prob_sheds_lowest_probability(self):
        from repro.stats import StaticFrequencyTable

        estimators = {
            "R": StaticFrequencyTable({0: 0.9, 1: 0.1}),
            "S": StaticFrequencyTable({0: 0.9, 1: 0.1}),
        }
        policy = ProbPolicy(estimators)
        memory = self._bind(policy)
        weak = TupleRecord("R", 0, 1)
        strong = TupleRecord("R", 1, 0)
        for record in (weak, strong):
            memory.admit(record)
            policy.on_admit(record, record.arrival)
        assert policy.weakest_resident("R", 2) is weak

    def test_random_returns_some_resident(self):
        policy = RandomEvictionPolicy(seed=1)
        memory = self._bind(policy)
        records = [TupleRecord("R", i, i) for i in range(3)]
        for record in records:
            memory.admit(record)
        assert policy.weakest_resident("R", 5) in records

    def test_empty_pool_returns_none(self):
        policy = RandomEvictionPolicy(seed=1)
        self._bind(policy)
        assert policy.weakest_resident("R", 0) is None

    def test_base_class_default_raises(self):
        from repro.core.policies.base import EvictionPolicy

        class Stub(EvictionPolicy):
            name = "STUB"

            def choose_victim(self, candidate, now):
                return None

        stub = Stub()
        stub.bind(JoinMemory(2))
        with pytest.raises(NotImplementedError):
            stub.weakest_resident("R", 0)


class TestEngineWithSchedule:
    def _run(self, pair, schedule, policy_name="PROB", window=20, memory=20):
        estimators = estimators_for(pair)
        config = EngineConfig(
            window=window, memory=memory, memory_schedule=schedule, validate=True
        )
        policy = make_policy_spec(policy_name, estimators=estimators, window=window)
        return JoinEngine(config, policy=policy).run(pair)

    def test_constant_schedule_matches_plain_run(self, small_zipf_pair):
        plain = run(RunSpec(algorithm="PROB", window=20, memory=10), pair=small_zipf_pair)
        scheduled = self._run(small_zipf_pair, lambda t: 10, memory=10)
        assert scheduled.output_count == plain.output_count

    def test_square_wave_between_constant_budgets(self, small_zipf_pair):
        low = self._run(small_zipf_pair, lambda t: 4, memory=4)
        high = self._run(small_zipf_pair, lambda t: 20, memory=20)
        wave = self._run(
            small_zipf_pair, lambda t: 20 if (t // 20) % 2 == 0 else 4, memory=20
        )
        assert low.output_count <= wave.output_count <= high.output_count

    def test_sequence_schedule(self, small_zipf_pair):
        schedule = [10] * len(small_zipf_pair)
        scheduled = self._run(small_zipf_pair, schedule, memory=10)
        plain = run(RunSpec(algorithm="PROB", window=20, memory=10), pair=small_zipf_pair)
        assert scheduled.output_count == plain.output_count

    def test_shrink_evicts_immediately(self):
        pair = zipf_pair(60, 5, 1.0, seed=1)
        result = self._run(
            pair, lambda t: 20 if t < 30 else 2, window=10, memory=20,
            policy_name="RAND",
        )
        # After the cliff the pool holds at most 2 tuples; validate=True
        # in _run would have raised on any violation.
        assert result.output_count >= 0
        evictions = sum(result.drop_counts[s]["evicted"] for s in ("R", "S"))
        assert evictions >= 18  # the cliff sheds most of the pool at once

    def test_variable_pool_schedule(self):
        pair = zipf_pair(80, 5, 1.0, seed=2)
        estimators = estimators_for(pair)
        config = EngineConfig(
            window=10,
            memory=9,
            variable=True,
            memory_schedule=lambda t: 9 if t % 20 < 10 else 3,
            validate=True,
        )
        engine = JoinEngine(config, policy=ProbPolicy(estimators))
        result = engine.run(pair)
        assert result.output_count >= 0

    def test_shrink_without_policy_raises(self):
        pair = zipf_pair(60, 5, 1.0, seed=3)
        config = EngineConfig(
            window=10, memory=20, memory_schedule=lambda t: 20 if t < 15 else 2
        )
        with pytest.raises(CapacityExceededError):
            JoinEngine(config, policy=None).run(pair)

    def test_survival_records_still_consistent(self):
        from tests.test_engine import recount_from_departures

        pair = zipf_pair(150, 6, 1.0, seed=4)
        spec = RunSpec(
            algorithm="PROB",
            window=12,
            memory=12,
            memory_schedule=lambda t: 12 if (t // 12) % 2 == 0 else 4,
        )
        result = run(spec, pair=pair)
        assert recount_from_departures(pair, result) == result.output_count


class TestVaryingMemoryStudy:
    def test_adaptation_is_graceful(self, tiny_scale):
        table = varying_memory_study(tiny_scale, seed=0)
        for row in table.rows:
            _name, low, varying, _mean, high = row
            assert low <= varying <= high
        outputs = {row[0]: row[2] for row in table.rows}
        assert outputs["PROB"] > outputs["RAND"]
