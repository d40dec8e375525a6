"""Tests for the FIFO baseline policy and the multi-seed sweep utility."""

from dataclasses import replace

import pytest

from repro.api import RunSpec, compare, run
from repro.core import EngineConfig, JoinEngine
from repro.core.memory import JoinMemory, TupleRecord
from repro.core.policies import FifoPolicy, SidePolicies
from repro.experiments.sweep import Aggregate, sweep_seeds, variance_study
from repro.streams import zipf_pair


class TestFifoPolicy:
    def test_evicts_oldest(self):
        memory = JoinMemory(4)
        policy = FifoPolicy()
        policy.bind(memory)
        first = TupleRecord("R", 0, "a")
        second = TupleRecord("R", 1, "b")
        memory.admit(first)
        memory.admit(second)
        candidate = TupleRecord("R", 2, "c")
        assert policy.choose_victim(candidate, 2) is first

    def test_always_admits(self, small_zipf_pair):
        result = run(RunSpec(algorithm="FIFO", window=20, memory=10), pair=small_zipf_pair)
        assert result.drop_counts["R"]["rejected"] == 0
        assert result.drop_counts["S"]["rejected"] == 0

    def test_fifo_memory_is_shrunken_window(self):
        """FIFO with per-side budget m behaves as a window of size m."""
        pair = zipf_pair(300, 8, 1.0, seed=5)
        window, memory = 20, 10
        fifo = run(RunSpec(algorithm="FIFO", window=window, memory=memory), pair=pair)
        # A window of m = M/2 = 5, but probes still governed by w=20 for
        # expiry; since m < w the memory constraint binds: every tuple
        # survives exactly m arrivals of its own stream.
        from repro.streams import exact_join_size

        shrunken = exact_join_size(pair, memory // 2 + 1, count_from=2 * window)
        # Not an exact identity (pairs emitted by the *later* tuple while
        # the earlier is within m survive), but tightly correlated:
        assert abs(fifo.output_count - shrunken) / max(shrunken, 1) < 0.35

    def test_weakest_resident_supports_shrink(self):
        pair = zipf_pair(200, 6, 1.0, seed=6)
        config = EngineConfig(
            window=15,
            memory=10,
            memory_schedule=lambda t: 10 if t < 100 else 4,
            validate=True,
        )
        engine = JoinEngine(
            config, policy=SidePolicies(r=FifoPolicy(), s=FifoPolicy())
        )
        result = engine.run(pair)
        assert result.output_count >= 0

    def test_variable_mode(self, small_zipf_pair):
        result = run(RunSpec(algorithm="FIFOV", window=20, memory=9), pair=small_zipf_pair)
        assert result.output_count > 0

    def test_tracks_rand_on_iid_inputs(self):
        pair = zipf_pair(800, 50, 1.0, seed=7)
        window, memory = 40, 20
        spec = RunSpec(algorithm="PROB", window=window, memory=memory)
        results = compare([spec, "FIFO", replace(spec, algorithm="RAND", seed=1)], pair=pair)
        fifo = results["FIFO"].output_count
        prob = results["PROB"].output_count
        rand = results["RAND"].output_count
        assert abs(fifo - rand) / max(rand, 1) < 0.35
        assert prob > 1.5 * fifo


class TestAggregate:
    def test_statistics(self):
        aggregate = Aggregate.of([1, 2, 3, 4])
        assert aggregate.mean == pytest.approx(2.5)
        assert aggregate.minimum == 1 and aggregate.maximum == 4
        assert aggregate.std == pytest.approx(1.1180, abs=1e-3)
        assert aggregate.runs == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Aggregate.of([])


class TestSweep:
    def test_sweep_seeds(self):
        def factory(seed):
            return zipf_pair(200, 8, 1.0, seed=seed)

        aggregates = sweep_seeds(
            ("RAND", "PROB"), factory, window=15, memory=8, seeds=(0, 1, 2)
        )
        assert set(aggregates) == {"RAND", "PROB"}
        assert aggregates["PROB"].mean > aggregates["RAND"].mean
        assert aggregates["PROB"].runs == 3

    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            sweep_seeds(("RAND",), lambda s: zipf_pair(10, 3, 1.0), 5, 4, seeds=())

    def test_variance_study_shape(self, tiny_scale):
        table = variance_study(tiny_scale, seeds=(0, 1))
        names = table.column("algorithm")
        assert "PROB" in names and "OPT" in names
        # The dominance row reports PROB>RAND on every seed.
        dominance = table.rows[-1]
        assert dominance[0] == "PROB>RAND"
        assert dominance[1] == 2
