"""The incremental Count-Min sketch against a sketch with no caches.

:class:`~repro.stats.countmin.CountMinSketch` memoises each key's
counter cells and caches estimates behind a cell -> key reverse index.
Every estimate and probability must be exactly what a plain sketch —
re-hashing and re-scanning its counters on every call — would return.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import CountMinSketch
from repro.stats.countmin import CACHE_KEYS_PER_COUNTER, stable_hash
from tests.reference_engine import NaiveCountMin

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_caches_exact(sketch: CountMinSketch) -> None:
    """Every cached estimate is a fresh scan's, and no cache is over its cap."""
    cap = CACHE_KEYS_PER_COUNTER * sketch.width * sketch.depth
    assert len(sketch._cells) <= cap
    assert set(sketch._estimates) <= set(sketch._cells)
    for readers in sketch._users.values():
        assert readers <= set(sketch._cells)
    for key, cached in sketch._estimates.items():
        assert cached == min(sketch._counts[cell] for cell in sketch._cells[key])
        assert all(key in sketch._users[cell] for cell in sketch._cells[key])


KEYS = st.one_of(
    st.integers(-3, 30),
    st.text("abc", max_size=3),
    st.binary(max_size=2),
    st.tuples(st.integers(0, 3), st.text("ab", max_size=2)),
)
OPS = st.lists(
    st.tuples(st.sampled_from(["observe", "estimate", "probability"]), KEYS),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(1, 6),
    depth=st.integers(1, 4),
    seed=st.integers(0, 100),
    conservative=st.booleans(),
    ops=OPS,
)
def test_interleavings_match_the_uncached_sketch(width, depth, seed, conservative, ops):
    sketch = CountMinSketch(width, depth, seed=seed, conservative=conservative)
    reference = NaiveCountMin(width, depth, seed=seed, conservative=conservative)
    for op, key in ops:
        assert getattr(sketch, op)(key) == getattr(reference, op)(key)
        assert_caches_exact(sketch)
    assert sketch.total == reference.total


def test_cache_overflow_clears_and_stays_exact():
    width, depth = 2, 2
    cap = CACHE_KEYS_PER_COUNTER * width * depth
    rng = random.Random(7)
    for conservative in (False, True):
        sketch = CountMinSketch(width, depth, seed=3, conservative=conservative)
        reference = NaiveCountMin(width, depth, seed=3, conservative=conservative)
        for step in range(2000):
            key = rng.choice([rng.randrange(10 * cap), f"s{rng.randrange(cap)}"])
            if step % 3 == 0:
                sketch.observe(key)
                reference.observe(key)
            else:
                assert sketch.probability(key) == reference.probability(key)
            assert len(sketch._cells) <= cap
            assert len(sketch._estimates) <= cap
        assert_caches_exact(sketch)


def test_unsalted_keys_hash_as_before():
    for key in (0, 1, -1, 2**70, 12345, 1.5, (1, 2), (-1, 2**70, (1.5, None))):
        assert stable_hash(key) == hash(key)


def test_str_keys_are_stable_across_hash_seeds():
    script = (
        "import json\n"
        "from repro.stats import CountMinSketch\n"
        "sketch = CountMinSketch(16, 4, seed=5, conservative=True)\n"
        "keys = [f'k{i % 23}' for i in range(400)] + [(i % 3, 'x') for i in range(50)]\n"
        "keys += [b'raw', b'raw', 'caf\\u00e9']\n"
        "for key in keys:\n"
        "    sketch.observe(key)\n"
        "probe = sorted(set(map(repr, keys)))\n"
        "print(json.dumps({'salted': hash('salted'), 'estimates': "
        "[sketch.estimate(eval(k)) for k in probe]}))\n"
    )

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(out.stdout)

    first, second = run(1), run(2)
    assert first["salted"] != second["salted"]  # the salt really differs
    assert first["estimates"] == second["estimates"]


def _loaded(sketch):
    sketch.observe("warm")
    for key in range(40):
        sketch.observe(key % 7)
        sketch.probability(key)
    assert sketch._estimates and sketch._cells
    return sketch


@pytest.mark.parametrize(
    "clone_of",
    [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"],
)
def test_copies_and_pickles_drop_the_caches(clone_of):
    sketch = _loaded(CountMinSketch(8, 3, seed=2, conservative=True))
    state = sketch.__getstate__()
    assert not {"_cells", "_estimates", "_users"} & set(state)
    clone = clone_of(sketch)
    assert not clone._cells and not clone._estimates and not clone._users
    assert [clone.probability(k) for k in range(40)] == [
        sketch.probability(k) for k in range(40)
    ]
    for key in ("warm", 3, 99):
        clone.observe(key)
        sketch.observe(key)
    assert [clone.estimate(k) for k in range(40)] == [
        sketch.estimate(k) for k in range(40)
    ]


def test_row_layout_state_still_loads():
    sketch = _loaded(CountMinSketch(8, 3, seed=4))
    width = sketch.width
    legacy = {
        "width": width,
        "depth": sketch.depth,
        "conservative": sketch.conservative,
        "_table": [
            sketch._counts[row * width:(row + 1) * width]
            for row in range(sketch.depth)
        ],
        "_total": sketch.total,
        "_hash_a": list(sketch._hash_a),
        "_hash_b": list(sketch._hash_b),
    }
    restored = CountMinSketch.__new__(CountMinSketch)
    restored.__setstate__(legacy)
    keys = list(range(40)) + ["warm"]
    assert [restored.estimate(k) for k in keys] == [sketch.estimate(k) for k in keys]
    assert restored.probability(3) == sketch.probability(3)
