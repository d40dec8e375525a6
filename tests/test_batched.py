"""Tests for the columnar micro-batch fast path.

Covers the batch encoder (``repro.streams.batches``), the count-only
EXACT lanes (``repro.core.batched``), the kernel/memory batch
operations, and — most importantly — the identity guarantee: a batched
run must be bit-identical to the per-tuple kernel loop (output, drop
ledger, metrics totals) for every policy, batch size, and shard count.
``run()`` takes the lanes by default, so the per-tuple side is pinned
with ``force_general`` (``tests/loops.py``).
"""

import pytest

from repro.api import RunSpec, run
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.batched import exact_chunk_counts, exact_tick_counts
from repro.core.engine import EngineConfig
from repro.core.kernel import JoinKernel
from repro.core.memory import JoinMemory, TupleRecord
from repro.obs import MetricsRegistry
from repro.streams import zipf_pair
from repro.streams.batches import (
    DEFAULT_BATCH_SIZE,
    StreamChunk,
    encode_chunks,
    encode_columns,
    resolve_batch_size,
)
from repro.streams.tuples import StreamPair
from tests.loops import kernel_run

SMALL = dict(window=20, memory=10, length=400, seed=3)


def small_spec(algorithm: str, **overrides) -> RunSpec:
    return RunSpec(algorithm=algorithm, **{**SMALL, **overrides})


def comparable_metrics(snapshot):
    """Metrics snapshot minus wall-clock phases (timing is not identity)."""
    if snapshot is None:
        return None
    return {k: v for k, v in snapshot.items() if k != "phases"}


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------

class TestEncoder:
    def test_chunking_covers_stream_with_remainder(self):
        pair = zipf_pair(10, 5, 1.0, seed=1)
        chunks = list(encode_chunks(pair, 4))
        assert [(c.start, c.length) for c in chunks] == [(0, 4), (4, 4), (8, 2)]
        assert [len(c) for c in chunks] == [4, 4, 2]
        r_flat = [k for c in chunks for k in c.r_list()]
        s_flat = [k for c in chunks for k in c.s_list()]
        assert r_flat == list(pair.r)
        assert s_flat == list(pair.s)

    def test_lists_contain_native_ints(self):
        pair = zipf_pair(8, 5, 1.0, seed=1)
        (chunk,) = encode_chunks(pair, 100)
        assert all(type(k) is int for k in chunk.r_list())
        assert all(type(k) is int for k in chunk.s_list())

    def test_default_batch_size(self):
        assert resolve_batch_size(5000) == DEFAULT_BATCH_SIZE
        assert resolve_batch_size(10) == 10  # clamped to stream length

    def test_resolve_clamps_and_validates(self):
        assert resolve_batch_size(10, 64) == 10
        assert resolve_batch_size(10, 3) == 3
        assert resolve_batch_size(0, 7) == 1  # empty stream stays well-formed
        with pytest.raises(ValueError, match="batch_size"):
            resolve_batch_size(10, 0)

    def test_non_integer_keys_fall_back_to_tuple_columns(self):
        pair = StreamPair(r=["a", "b", "a"], s=["b", "b", "c"])
        r_col, s_col = encode_columns(pair)
        assert isinstance(r_col, tuple) and isinstance(s_col, tuple)
        (chunk,) = encode_chunks(pair, 3)
        assert chunk.r_list() == ["a", "b", "a"]
        assert chunk.s_list() == ["b", "b", "c"]


# ----------------------------------------------------------------------
# count lanes
# ----------------------------------------------------------------------

class TestExactChunkCounts:
    def test_empty_stream(self):
        assert exact_chunk_counts([], 10, 0) == (0, 0, 0, 0)

    def test_matches_reference_counts(self):
        # Hand-checked tiny example: window 2, R=[1,2,1], S=[1,1,2].
        pair = StreamPair(r=[1, 2, 1], s=[1, 1, 2])
        chunks = encode_chunks(pair, 2)
        output, total, simultaneous, length = exact_chunk_counts(chunks, 2, 0)
        # t=0: simultaneous (1,1) -> 1
        # t=1: r=2 vs s={1}: 0; s=1 vs r={1}: 1 -> 1
        # t=2: expire t=0; r=1 vs s={1}: 1; s=2 vs r={2}: 1 -> 2
        assert (output, total, simultaneous, length) == (4, 4, 1, 3)

    def test_warmup_gates_output_but_not_total(self):
        pair = zipf_pair(60, 5, 1.0, seed=4)
        full = exact_chunk_counts(encode_chunks(pair, 16), 10, 0)
        gated = exact_chunk_counts(encode_chunks(pair, 16), 10, 30)
        assert gated[1] == full[1]  # total unaffected
        assert gated[0] <= full[0]

    def test_chunk_boundaries_are_invisible(self):
        pair = zipf_pair(120, 5, 1.0, seed=5)
        results = {
            exact_chunk_counts(encode_chunks(pair, size), 15, 10)
            for size in (1, 7, 64, 120, 500)
        }
        assert len(results) == 1


class TestExactTickCounts:
    def test_empty_ticks_and_bursts(self):
        r = [[1, 2], [], [2, 2, 3], []]
        s = [[2], [1, 1], [], [3]]
        output, total, arrivals, exp_r, exp_s = exact_tick_counts(
            r, s, 100, 0, capacity=1000, variable=True
        )
        assert arrivals == 9
        # t=0: R 1,2 probe S={} -> 0; S 2 probes R={1,2} -> 1
        # t=1: S 1,1 probe R={1,2} -> 2
        # t=2: R 2 probes S={2,1,1} -> 1 (twice: 2 arrivals of key 2),
        #      R 3 -> 0
        # t=3: S 3 probes R={..3} -> 1
        assert total == output == 1 + 2 + 2 + 1
        assert exp_r == exp_s == 0  # window never advanced past arrivals

    def test_expiry_counts(self):
        r = [[1], [1], [1], [1]]
        s = [[], [], [], []]
        _, _, _, exp_r, exp_s = exact_tick_counts(
            r, s, 2, 0, capacity=1000, variable=True
        )
        # horizon at t=2 is 0 (expires arrival 0), at t=3 is 1.
        assert exp_r == 2
        assert exp_s == 0

    def test_overflow_matches_kernel_message_and_type(self):
        r = [[1, 2, 3]]
        s = [[]]
        with pytest.raises(RuntimeError, match=r"memory overflow at t=0.*capacity 4"):
            exact_tick_counts(r, s, 10, 0, capacity=4, variable=False)

    def test_agrees_with_kernel_path(self):
        # The async engine only takes the count lane when completely
        # uninstrumented; attaching a metrics registry forces the kernel
        # path — both must agree on every counter and the ledger.
        pair = zipf_pair(90, 5, 1.0, seed=7)
        r_keys, s_keys = list(pair.r), list(pair.s)
        r_batches, s_batches = [], []
        while r_keys or s_keys:
            r_batches.append(r_keys[:3])
            s_batches.append(s_keys[:2])
            del r_keys[:3], s_keys[:2]
        config = AsyncEngineConfig(window=12, memory=200, variable=True, warmup=5)

        lane = AsyncJoinEngine(config).run(r_batches, s_batches)
        kernel = AsyncJoinEngine(config, metrics=MetricsRegistry()).run(
            r_batches, s_batches
        )
        assert lane.output_count == kernel.output_count
        assert lane.total_output_count == kernel.total_output_count
        assert lane.arrivals == kernel.arrivals
        assert lane.ticks == kernel.ticks
        assert lane.drop_counts == kernel.drop_counts

    def test_overflow_parity_with_kernel_path(self):
        r_batches, s_batches = [[1, 2, 3, 4]], [[5]]
        config = AsyncEngineConfig(window=10, memory=4, variable=True, warmup=0)
        with pytest.raises(RuntimeError) as lane_err:
            AsyncJoinEngine(config).run(r_batches, s_batches)
        with pytest.raises(RuntimeError) as kernel_err:
            AsyncJoinEngine(config, metrics=MetricsRegistry()).run(
                r_batches, s_batches
            )
        assert str(lane_err.value) == str(kernel_err.value)
        assert type(lane_err.value) is type(kernel_err.value)


# ----------------------------------------------------------------------
# expire_until boundaries
# ----------------------------------------------------------------------

class TestExpireUntilBoundaries:
    def _memory_with(self, arrivals):
        memory = JoinMemory(100)
        records = [TupleRecord("R", t, key) for t, key in arrivals]
        for record in records:
            memory.r.add(record)
        return memory, records

    def test_empty_window(self):
        memory = JoinMemory(10)
        assert memory.expire_until(50) == []

    def test_horizon_equals_arrival_expires_it(self):
        memory, records = self._memory_with([(5, 1), (6, 2)])
        expired = memory.r.expire_until(5)
        assert expired == [records[0]]
        assert memory.r.size == 1
        assert not records[0].alive

    def test_horizon_before_first_arrival_is_noop(self):
        memory, _ = self._memory_with([(5, 1), (6, 2)])
        assert memory.r.expire_until(4) == []
        assert memory.r.size == 2

    def test_all_expired_chunk(self):
        memory, records = self._memory_with([(0, 1), (1, 2), (2, 1)])
        expired = memory.r.expire_until(10)
        assert expired == records
        assert memory.r.size == 0
        assert memory.r.match_count(1) == 0


# ----------------------------------------------------------------------
# kernel / memory batch operations
# ----------------------------------------------------------------------

class TestKernelBatchOps:
    def test_match_total_is_sum_of_match_counts(self):
        memory = JoinMemory(100)
        for t, key in enumerate([1, 1, 2, 3]):
            memory.s.add(TupleRecord("S", t, key))
        keys = [1, 2, 2, 4]
        assert memory.s.match_total(keys) == sum(
            memory.s.match_count(k) for k in keys
        )

    def test_probe_batch_equals_sum_of_probes(self):
        memory = JoinMemory(100)
        kernel = JoinKernel(memory, None, None)
        for offered in ([1, 2, 1], [2, 2, 3]):
            kernel.insert_batch("S", offered, 0)
        keys = [1, 2, 9, 2]
        assert kernel.probe_batch("R", keys, 1) == sum(
            kernel.probe("R", k, 1) for k in keys
        )

    def test_insert_batch_bulk_lane(self):
        memory = JoinMemory(10)
        kernel = JoinKernel(memory, None, None)
        outcomes = kernel.insert_batch("R", [1, 2, 3], 5)
        assert outcomes == [(True, None)] * 3
        assert memory.r.size == 3
        assert memory.r.match_count(1) == 1

    def test_insert_batch_overflow_admits_prefix_then_raises(self):
        memory = JoinMemory(4)  # fixed halves: 2 per side
        kernel = JoinKernel(memory, None, None)
        with pytest.raises(
            RuntimeError, match=r"memory overflow at t=7.*capacity 4"
        ):
            kernel.insert_batch("R", [1, 2, 3], 7)
        # The two that fit were admitted before the raise — exactly the
        # state the per-tuple path leaves behind.
        assert memory.r.size == 2

    def test_insert_batch_matches_per_tuple_inserts(self):
        bulk_memory = JoinMemory(20)
        loop_memory = JoinMemory(20)
        bulk = JoinKernel(bulk_memory, None, None)
        loop = JoinKernel(loop_memory, None, None)
        keys = [3, 1, 4, 1, 5]
        bulk.insert_batch("S", keys, 2)
        for key in keys:
            loop.insert(TupleRecord("S", 2, key), 2)
        assert bulk_memory.s.size == loop_memory.s.size
        for key in set(keys):
            assert bulk_memory.s.match_count(key) == loop_memory.s.match_count(key)

    def test_add_batch_rejects_resident_record(self):
        memory = JoinMemory(20)
        record = TupleRecord("R", 0, 1)
        memory.r.add(record)
        with pytest.raises(ValueError, match="already resident"):
            memory.r.add_batch([record])


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

class TestBatchSizeValidation:
    def test_engine_config_rejects_non_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(window=10, memory=20, batch_size=0)

    def test_run_spec_rejects_non_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            RunSpec(algorithm="EXACT", batch_size=0)

    def test_run_spec_rejects_non_fast_engines(self):
        with pytest.raises(ValueError, match="fast"):
            RunSpec(algorithm="EXACT", engine="async", batch_size=8)


# ----------------------------------------------------------------------
# the identity guarantee
# ----------------------------------------------------------------------

BATCH_SIZES = (1, 7, 64, SMALL["length"])  # whole-stream last
POLICIES = ("EXACT", "RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV", "ARM")


class TestBatchedIdentity:
    """Batched output is bit-identical to the kernel loop for every policy."""

    @pytest.mark.parametrize("algorithm", POLICIES)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_unsharded_identity(self, algorithm, batch_size):
        baseline = kernel_run(small_spec(algorithm, metrics=True))
        batched = run(small_spec(algorithm, metrics=True, batch_size=batch_size))
        assert batched.output_count == baseline.output_count
        assert batched.total_output_count == baseline.total_output_count
        assert batched.drop_counts == baseline.drop_counts
        assert batched.r_departures == baseline.r_departures
        assert batched.s_departures == baseline.s_departures
        assert comparable_metrics(batched.metrics) == comparable_metrics(
            baseline.metrics
        )

    @pytest.mark.parametrize("algorithm", ("EXACT", "PROB", "LIFE"))
    @pytest.mark.parametrize("batch_size", (7, SMALL["length"]))
    def test_sharded_identity(self, algorithm, batch_size):
        baseline = run(small_spec(algorithm, shards=4))
        batched = run(small_spec(algorithm, shards=4, batch_size=batch_size))
        assert batched.output_count == baseline.output_count
        assert batched.drop_counts == baseline.drop_counts

    def test_exact_departures_and_survival_identity(self):
        baseline = kernel_run(small_spec("EXACT"))
        batched = run(small_spec("EXACT", batch_size=32))
        assert batched.r_departures == baseline.r_departures
        assert batched.s_departures == baseline.s_departures

    @pytest.mark.parametrize("seed", (0, 1, 2, 11, 42))
    def test_exact_seed_sweep(self, seed):
        baseline = kernel_run(small_spec("EXACT", seed=seed))
        for batch_size in BATCH_SIZES:
            batched = run(small_spec("EXACT", seed=seed, batch_size=batch_size))
            assert batched.output_count == baseline.output_count
            assert batched.total_output_count == baseline.total_output_count
            assert batched.drop_counts == baseline.drop_counts
