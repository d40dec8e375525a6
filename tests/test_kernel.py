"""Unit tests for the shared join kernel (repro.core.kernel)."""

import pytest

from repro.core.kernel import JoinKernel
from repro.core.memory import JoinMemory, TupleRecord
from repro.core.policies import FifoPolicy, LifePolicy, ProbPolicy
from repro.core.policies.base import EvictionPolicy, arrival_observers
from repro.stats import OnlineFrequencyCounter, StaticFrequencyTable


def _fifo_kernel(capacity=4, **kwargs):
    memory = JoinMemory(capacity)
    policy_r, policy_s = FifoPolicy(), FifoPolicy()
    policy_r.bind(memory)
    policy_s.bind(memory)
    return JoinKernel(memory, policy_r, policy_s, **kwargs)


class TestProbeAndInsert:
    def test_probe_counts_opposite_side_matches(self):
        kernel = _fifo_kernel()
        kernel.insert(TupleRecord("R", 0, "a"), 0)
        kernel.insert(TupleRecord("R", 1, "a"), 1)
        assert kernel.probe("S", "a", 2) == 2
        assert kernel.probe("S", "b", 2) == 0
        assert kernel.probe("R", "a", 2) == 0  # own side never matches

    def test_free_admit(self):
        kernel = _fifo_kernel()
        admitted, victim = kernel.insert(TupleRecord("R", 0, "a"), 0)
        assert admitted and victim is None
        assert kernel.drops().total == 0

    def test_displacement_counts_eviction(self):
        kernel = _fifo_kernel(capacity=2)  # one slot per side
        kernel.insert(TupleRecord("R", 0, "a"), 0)
        admitted, victim = kernel.insert(TupleRecord("R", 1, "b"), 1)
        assert admitted and victim is not None
        assert victim.arrival == 0  # FIFO displaces the oldest
        assert kernel.side_drops("R", "evicted") == 1
        assert kernel.drops().evicted == 1

    def test_overflow_without_policy_raises_configured_error(self):
        class Boom(RuntimeError):
            pass

        memory = JoinMemory(2)
        kernel = JoinKernel(memory, None, None, overflow_error=Boom)
        kernel.insert(TupleRecord("R", 0, "a"), 0)
        with pytest.raises(Boom, match="overflow"):
            kernel.insert(TupleRecord("R", 1, "b"), 1)

    def test_rejection_counts_against_newcomer_side(self):
        class RejectAll(EvictionPolicy):
            name = "REJECT"

            def choose_victim(self, candidate, now):
                return None

            def weakest_resident(self, stream, now):
                return None

        memory = JoinMemory(2)
        policy_r, policy_s = RejectAll(), RejectAll()
        policy_r.bind(memory)
        policy_s.bind(memory)
        kernel = JoinKernel(memory, policy_r, policy_s)
        kernel.insert(TupleRecord("S", 0, "a"), 0)
        admitted, victim = kernel.insert(TupleRecord("S", 1, "b"), 1)
        assert not admitted and victim is None
        assert kernel.side_drops("S", "rejected") == 1
        assert kernel.side_drops("R", "rejected") == 0


class TestExpire:
    def test_expire_sweeps_both_sides_and_counts(self):
        kernel = _fifo_kernel(capacity=8)
        kernel.insert(TupleRecord("R", 0, "a"), 0)
        kernel.insert(TupleRecord("S", 1, "a"), 1)
        kernel.insert(TupleRecord("R", 5, "a"), 5)
        expired = kernel.expire(1, 6)
        assert sorted(r.arrival for r in expired) == [0, 1]
        assert kernel.drops().expired == 2
        assert kernel.probe("S", "a", 6) == 1  # only the t=5 tuple remains

    def test_expire_single_side(self):
        kernel = _fifo_kernel(capacity=8)
        kernel.insert(TupleRecord("R", 0, "a"), 0)
        kernel.insert(TupleRecord("S", 0, "a"), 0)
        expired = kernel.expire(0, 3, side="R")
        assert [r.stream for r in expired] == ["R"]
        assert kernel.side_drops("R", "expired") == 1
        assert kernel.side_drops("S", "expired") == 0

    def test_empty_expire_returns_nothing(self):
        kernel = _fifo_kernel()
        assert kernel.expire(10, 10) == []
        assert kernel.drops().total == 0


class TestShedSurplus:
    def test_shrunken_budget_evicts_down(self):
        kernel = _fifo_kernel(capacity=4)
        for t in range(2):
            kernel.insert(TupleRecord("R", t, t), t)
            kernel.insert(TupleRecord("S", t, t), t)
        kernel.memory.resize(2)  # one resident per side now
        victims = kernel.shed_surplus(5)
        assert len(victims) == 2
        assert {v.stream for v in victims} == {"R", "S"}
        assert kernel.drops().evicted == 2

    def test_departure_callback_sees_each_victim(self):
        kernel = _fifo_kernel(capacity=4)
        for t in range(2):
            kernel.insert(TupleRecord("R", t, t), t)
        kernel.memory.resize(2)
        seen = []
        kernel.shed_surplus(5, on_departure=seen.append)
        assert len(seen) == 1 and seen[0].stream == "R"


class TestArrivalObservers:
    def test_non_observing_policies_filtered(self):
        class Plain(EvictionPolicy):
            name = "PLAIN"

            def choose_victim(self, candidate, now):
                return None

            def weakest_resident(self, stream, now):
                return None

        class Watcher(Plain):
            name = "WATCH"

            def observe_arrival(self, stream, key, now):
                pass

        class MutedWatcher(Watcher):
            name = "MUTED"
            observes_arrivals = False

        plain, watcher, muted = Plain(), Watcher(), MutedWatcher()
        assert arrival_observers([plain, watcher, muted, None]) == (watcher,)
        assert arrival_observers([watcher, watcher]) == (watcher,)

    def test_policies_reading_one_mapping_are_one_observer(self):
        live = {"R": OnlineFrequencyCounter(), "S": OnlineFrequencyCounter()}
        r, s = ProbPolicy(live), LifePolicy(live, 5)
        assert arrival_observers([r, s]) == (r,)
        other = ProbPolicy(dict(live))
        assert arrival_observers([r, other]) == (r, other)
        static = {"R": StaticFrequencyTable({1: 1}), "S": StaticFrequencyTable({1: 1})}
        assert arrival_observers([ProbPolicy(static), LifePolicy(static, 5)]) == ()

    def test_kernel_observe_reaches_observers(self):
        class Counting(EvictionPolicy):
            name = "COUNT"

            def __init__(self):
                super().__init__()
                self.seen = []

            def observe_arrival(self, stream, key, now):
                self.seen.append((stream, key, now))

            def choose_victim(self, candidate, now):
                return None

            def weakest_resident(self, stream, now):
                return None

        memory = JoinMemory(4)
        policy_r, policy_s = Counting(), Counting()
        policy_r.bind(memory)
        policy_s.bind(memory)
        kernel = JoinKernel(memory, policy_r, policy_s)
        kernel.observe("R", 7, 3)
        assert policy_r.seen == [("R", 7, 3)]
        assert policy_s.seen == [("R", 7, 3)]

    def test_shared_instance_observed_once(self):
        class Counting(EvictionPolicy):
            name = "COUNT"

            def __init__(self):
                super().__init__()
                self.calls = 0

            def observe_arrival(self, stream, key, now):
                self.calls += 1

            def choose_victim(self, candidate, now):
                return None

            def weakest_resident(self, stream, now):
                return None

        memory = JoinMemory(4, variable=True)
        shared = Counting()
        shared.bind(memory)
        kernel = JoinKernel(memory, shared, shared)
        kernel.observe("S", 1, 0)
        assert shared.calls == 1
