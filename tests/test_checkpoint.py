"""Checkpoint/restore: store semantics and bit-identical resumption."""

import hashlib
import pickle
import random

import pytest

from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.memory import JoinMemory, StreamMemory, TupleRecord
from repro.core.policies import (
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
    SidePolicies,
)
from repro.core.results import SCHEMA_VERSION
from repro.experiments.runner import estimators_for
from repro.obs import MetricsRegistry
from repro.runtime import CheckpointStore
from repro.stats import CountMinSketch
from repro.streams import zipf_pair


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------

class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        state = {"tick": 12, "payload": [1, 2, 3]}
        store.save("shard-0", state, fingerprint="fp")
        assert store.load("shard-0", fingerprint="fp") == state

    def test_missing_key_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope", fingerprint="fp") is None

    def test_fingerprint_mismatch_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("shard-0", {"tick": 1}, fingerprint="spec-a")
        assert store.load("shard-0", fingerprint="spec-b") is None

    def test_corrupt_file_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = AsyncJoinEngine(_config("PROB"), policy=_policies("PROB"))
        saved = {}

        def on_tick(engine, t):
            if t == 57:
                saved["state"] = engine.checkpoint()

        engine.run(*UNIT_BATCHES, on_tick=on_tick)
        path = store.save("shard-0", saved["state"], fingerprint="fp")
        good = path.read_bytes()
        body = good[hashlib.sha256().digest_size:]
        rng = random.Random(2024)
        corrupt = [b"", b"not a pickle", body]  # body: a file without a digest
        for _ in range(40):
            corrupt.append(good[: rng.randrange(len(good))])
            flipped = bytearray(good)
            at = rng.randrange(len(good))
            flipped[at] ^= 1 << rng.randrange(8)
            corrupt.append(bytes(flipped))
        for data in corrupt:
            path.write_bytes(data)
            assert store.load("shard-0", fingerprint="fp") is None

    def test_schema_mismatch_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {
            "schema_version": SCHEMA_VERSION + 1,
            "fingerprint": "fp",
            "state": {"tick": 1},
        }
        body = pickle.dumps(payload)
        store.path_for("shard-0").write_bytes(hashlib.sha256(body).digest() + body)
        assert store.load("shard-0", fingerprint="fp") is None

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"tick": 1}, fingerprint="fp")
        store.save("k", {"tick": 2}, fingerprint="fp")
        assert store.load("k", fingerprint="fp") == {"tick": 2}
        # no stray temp files left behind
        assert list(tmp_path.iterdir()) == [store.path_for("k")]

    def test_clear_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"tick": 1}, fingerprint="fp")
        store.clear("k")
        store.clear("k")
        assert store.load("k", fingerprint="fp") is None

    def test_keys_are_sanitised_to_filenames(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.path_for("shard 0/of:4")
        assert path.parent == store.root
        assert "/" not in path.name and " " not in path.name


# ----------------------------------------------------------------------
# memory snapshot/restore
# ----------------------------------------------------------------------

def _admit(memory: JoinMemory, stream: str, arrival: int, key) -> TupleRecord:
    record = TupleRecord(stream, arrival, key)
    memory.admit(record)
    return record


class TestMemorySnapshot:
    def test_round_trip_preserves_both_orders(self):
        memory = JoinMemory(8)
        records = [
            _admit(memory, "R", 0, "a"),
            _admit(memory, "R", 1, "b"),
            _admit(memory, "R", 2, "a"),
            _admit(memory, "S", 1, "b"),
        ]
        # swap-remove makes slot order diverge from admission order
        memory.remove(records[0])
        state = memory.snapshot()

        rebuilt = JoinMemory(8)
        r_records, s_records = rebuilt.restore(state)
        assert [(r.arrival, r.key) for r in r_records] == [(1, "b"), (2, "a")]
        assert [(r.arrival, r.key) for r in s_records] == [(1, "b")]
        assert rebuilt.snapshot() == state

    def test_restore_rejects_wrong_stream(self):
        snap = StreamMemory("R").snapshot()
        with pytest.raises(ValueError, match="stream"):
            StreamMemory("S").restore(snap)

    def test_restore_rejects_incomplete_order(self):
        memory = StreamMemory("R")
        memory.add(TupleRecord("R", 0, "a"))
        state = memory.snapshot()
        state["order"] = []
        with pytest.raises(ValueError, match="order"):
            StreamMemory("R").restore(state)

    def test_restore_rejects_allocation_mode_mismatch(self):
        state = JoinMemory(8).snapshot()
        with pytest.raises(ValueError, match="variable"):
            JoinMemory(8, variable=True).restore(state)


# ----------------------------------------------------------------------
# engine checkpoint -> resume identity
# ----------------------------------------------------------------------

PAIR = zipf_pair(400, 10, 1.0, seed=5)
#: The synchronous workload as one-tuple-per-tick batches.
UNIT_BATCHES = ([[key] for key in PAIR.r], [[key] for key in PAIR.s])
ESTIMATORS = estimators_for(PAIR)
WINDOW = 30


def _policies(name):
    if name == "EXACT":
        return None
    if name == "RAND":
        return SidePolicies(
            r=RandomEvictionPolicy(seed=3), s=RandomEvictionPolicy(seed=4)
        )
    if name == "PROB":
        return SidePolicies(
            r=ProbPolicy(ESTIMATORS), s=ProbPolicy(ESTIMATORS)
        )
    if name == "LIFE":
        return SidePolicies(
            r=LifePolicy(ESTIMATORS, WINDOW), s=LifePolicy(ESTIMATORS, WINDOW)
        )
    raise AssertionError(name)


def _config(name, **overrides):
    memory = 2 * WINDOW if name == "EXACT" else 20
    defaults = dict(window=WINDOW, memory=memory, warmup=2 * WINDOW)
    defaults.update(overrides)
    return AsyncEngineConfig(**defaults)


def _fingerprint(result):
    return (
        result.output_count,
        result.total_output_count,
        result.drop_breakdown(),
    )


class TestEngineResumeIdentity:
    @pytest.mark.parametrize("name", ["EXACT", "RAND", "PROB", "LIFE"])
    @pytest.mark.parametrize("checkpoint_tick", [0, 57, 211])
    def test_resume_matches_uninterrupted(self, name, checkpoint_tick):
        batches = UNIT_BATCHES
        baseline = AsyncJoinEngine(
            _config(name), policy=_policies(name)
        ).run(*batches)

        saved = {}

        def on_tick(engine, t):
            if t == checkpoint_tick:
                saved["state"] = engine.checkpoint()

        AsyncJoinEngine(_config(name), policy=_policies(name)).run(
            *batches, on_tick=on_tick
        )

        resumed = AsyncJoinEngine(_config(name), policy=_policies(name)).run(
            *batches, resume=saved["state"]
        )
        assert _fingerprint(resumed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "encode", [int, lambda key: f"k{key}"], ids=["int", "str"]
    )
    @pytest.mark.parametrize("checkpoint_tick", [57, 211])
    def test_resume_life_countmin_through_a_store(
        self, tmp_path, encode, checkpoint_tick
    ):
        """Live Count-Min state survives a pickled checkpoint: the sketch
        leaves its caches out of the file and refills them after the
        restore, and ``str`` keys hash to the same counters again."""
        batches = tuple([[encode(key)] for key in side] for side in (PAIR.r, PAIR.s))

        def policies():
            def sketches():
                return {
                    side: CountMinSketch(16, 3, seed=1, conservative=True)
                    for side in "RS"
                }

            return SidePolicies(
                r=LifePolicy(sketches(), WINDOW, update_estimators=True),
                s=LifePolicy(sketches(), WINDOW, update_estimators=True),
            )

        baseline = AsyncJoinEngine(_config("LIFE"), policy=policies()).run(*batches)
        store = CheckpointStore(tmp_path)

        def on_tick(engine, t):
            if t == checkpoint_tick:
                store.save("life", engine.checkpoint(), fingerprint="fp")

        AsyncJoinEngine(_config("LIFE"), policy=policies()).run(
            *batches, on_tick=on_tick
        )
        resumed = AsyncJoinEngine(_config("LIFE"), policy=policies()).run(
            *batches, resume=store.load("life", fingerprint="fp")
        )
        assert resumed.drop_breakdown().evicted > 0
        assert _fingerprint(resumed) == _fingerprint(baseline)

    def test_resume_restores_metrics_totals(self):
        batches = UNIT_BATCHES
        baseline_registry = MetricsRegistry()
        AsyncJoinEngine(
            _config("PROB"), policy=_policies("PROB"),
            metrics=baseline_registry,
        ).run(*batches)

        saved = {}

        def on_tick(engine, t):
            if t == 101:
                saved["state"] = engine.checkpoint()

        AsyncJoinEngine(
            _config("PROB"), policy=_policies("PROB"),
            metrics=MetricsRegistry(),
        ).run(*batches, on_tick=on_tick)

        resumed_registry = MetricsRegistry()
        AsyncJoinEngine(
            _config("PROB"), policy=_policies("PROB"),
            metrics=resumed_registry,
        ).run(*batches, resume=saved["state"])

        base = baseline_registry.snapshot()
        resumed = resumed_registry.snapshot()
        # wall-clock phase timings are inherently non-deterministic
        for snapshot in (base, resumed):
            for phase in snapshot.get("phases", []):
                phase["seconds"] = 0.0
        assert resumed == base

    def test_checkpoint_requires_tick_context(self):
        engine = AsyncJoinEngine(_config("EXACT"))
        with pytest.raises(RuntimeError, match="checkpoint"):
            engine.checkpoint()

    def test_checkpoint_rejects_count_windows(self):
        config = _config("EXACT", window_mode="count")
        captured = {}

        def on_tick(engine, t):
            if t == 10:
                with pytest.raises(ValueError, match="count"):
                    engine.checkpoint()
                captured["checked"] = True

        AsyncJoinEngine(config).run(*UNIT_BATCHES, on_tick=on_tick)
        assert captured.get("checked")

    def test_resume_skips_already_processed_ticks(self):
        """A resumed run must not double-count pre-checkpoint arrivals."""
        batches = UNIT_BATCHES
        baseline = AsyncJoinEngine(_config("EXACT")).run(*batches)

        saved = {}

        def on_tick(engine, t):
            if t == 150:
                saved["state"] = engine.checkpoint()

        AsyncJoinEngine(_config("EXACT")).run(*batches, on_tick=on_tick)
        resumed = AsyncJoinEngine(_config("EXACT")).run(
            *batches, resume=saved["state"]
        )
        assert resumed.arrivals == baseline.arrivals
        assert _fingerprint(resumed) == _fingerprint(baseline)
