"""Count-Min sketch frequency estimation.

The paper notes that when the history statistics cannot be kept exactly,
"any of the previously proposed data stream histograms or wavelets" can
feed the heuristics.  The Count-Min sketch is the standard bounded-memory
choice: estimates overcount by at most ``eps * N`` with probability
``1 - delta`` using ``ceil(e / eps) * ceil(ln(1 / delta))`` counters.

The sketch is *incremental*: LIFE re-scores every resident key on every
eviction contest, so the same few hundred keys are queried far more
often than the sketch changes.  Three caches make a repeated query a
dict lookup without changing any estimate:

* **cells** — each key's per-row counter indices, hashed once, as a
  tuple of offsets into one flat counter list (row ``r`` occupies
  ``[r * width, (r + 1) * width)``);
* **estimates** — each queried key's integer estimate (the minimum of
  its cells);
* **users** — a reverse index from a counter cell to the keys whose
  cached estimate reads it.  :meth:`CountMinSketch.observe` drops the
  cached estimate of every key that reads a cell it actually raised
  (under conservative update only the cells below the new target rise),
  so a cached estimate is always the one a fresh scan would compute.

``probability`` is ``estimate / total`` — the same integer-over-integer
division either way, so every probability is bit-identical to an
uncached sketch.  The caches are bounded: all three clear together once
more than :data:`CACHE_KEYS_PER_COUNTER` × ``width × depth`` keys have
been hashed, so an unbounded key domain cannot grow them without limit.
They are never pickled or deep-copied (checkpoints stay the size of the
counters) and refill lazily after a restore.

Hashing is process-stable.  ``str`` and ``bytes`` keys, and tuples that
contain them, are hashed through a 64-bit BLAKE2b digest, because
Python salts ``hash()`` of those types per process (``PYTHONHASHSEED``):
a salted hash would give every process different estimates and make a
restored checkpoint read the wrong counters.  Every other key — ``int``
keys included — uses ``hash(key)``, which is unsalted for numbers.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Hashable

_PRIME = (1 << 61) - 1  # Mersenne prime for universal hashing

#: The caches clear once they hold more keys than this many per counter.
CACHE_KEYS_PER_COUNTER = 4


def _digest(data: bytes, person: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, person=person).digest(), "little"
    )


def _salted(key: Hashable) -> bool:
    """Is ``hash(key)`` salted per process (a str/bytes inside)?"""
    if isinstance(key, (str, bytes)):
        return True
    return isinstance(key, tuple) and any(_salted(item) for item in key)


def stable_hash(key: Hashable) -> int:
    """``hash(key)``, except that ``str``/``bytes`` keys and tuples
    containing them hash the same in every process."""
    if isinstance(key, str):
        return _digest(key.encode("utf-8", "surrogatepass"), b"str")
    if isinstance(key, bytes):
        return _digest(key, b"bytes")
    if isinstance(key, tuple) and _salted(key):
        # Equal tuples have equal element hashes, and a tuple of ints
        # hashes the same in every process.
        return hash(tuple(stable_hash(item) for item in key))
    return hash(key)


class CountMinSketch:
    """Count-Min sketch with optional conservative update.

    Parameters
    ----------
    width:
        Counters per row (error scales as total/width).
    depth:
        Number of hash rows (failure probability scales as exp(-depth)).
    seed:
        Seeds the pairwise-independent hash functions.
    conservative:
        When True, uses conservative update (only raise the minimal
        counters), which tightens estimates at no asymptotic cost.
    """

    def __init__(
        self, width: int, depth: int, *, seed: int = 0, conservative: bool = False
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError(f"width and depth must be positive, got {width}, {depth}")
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self._counts = [0] * (width * depth)
        self._total = 0

        gen = random.Random(seed)
        self._hash_a = [gen.randrange(1, _PRIME) for _ in range(depth)]
        self._hash_b = [gen.randrange(0, _PRIME) for _ in range(depth)]
        self._clear_caches()

    @classmethod
    def from_error_bounds(
        cls, epsilon: float, delta: float, *, seed: int = 0, conservative: bool = False
    ) -> "CountMinSketch":
        """Size the sketch for additive error ``epsilon * N`` w.p. 1-delta."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width, depth, seed=seed, conservative=conservative)

    # ------------------------------------------------------------------
    # caches (module docstring)
    # ------------------------------------------------------------------
    def _clear_caches(self) -> None:
        self._cells: dict = {}
        self._estimates: dict = {}
        self._users: dict = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_cells", "_estimates", "_users"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        rows = state.pop("_table", None)
        if rows is not None:  # row-per-list layout of older pickles
            state["_counts"] = [count for row in rows for count in row]
        self.__dict__.update(state)
        self._clear_caches()

    def _cells_of(self, key: Hashable) -> tuple:
        """``key``'s counter offsets, one per row (hashed once)."""
        cells = self._cells.get(key)
        if cells is None:
            h = stable_hash(key) & _PRIME
            width = self.width
            cells = tuple(
                row * width + ((a * h + b) % _PRIME) % width
                for row, (a, b) in enumerate(zip(self._hash_a, self._hash_b))
            )
            if len(self._cells) >= CACHE_KEYS_PER_COUNTER * len(self._counts):
                self._clear_caches()
            self._cells[key] = cells
        return cells

    def _fill(self, key: Hashable) -> int:
        """Compute, cache and return ``key``'s estimate."""
        cells = self._cells_of(key)
        counts = self._counts
        estimate = min([counts[cell] for cell in cells])
        self._estimates[key] = estimate
        users = self._users
        for cell in cells:
            readers = users.get(cell)
            if readers is None:
                users[cell] = {key}
            else:
                readers.add(key)
        return estimate

    def _raised(self, cell: int) -> None:
        """Drop the cached estimate of every key reading ``cell``."""
        readers = self._users.pop(cell, None)
        if readers:
            estimates = self._estimates
            for key in readers:
                estimates.pop(key, None)

    # ------------------------------------------------------------------
    def observe(self, key: Hashable) -> None:
        cells = self._cells_of(key)
        counts = self._counts
        self._total += 1
        if self.conservative:
            target = min([counts[cell] for cell in cells]) + 1
            for cell in cells:
                if counts[cell] < target:
                    counts[cell] = target
                    self._raised(cell)
        else:
            for cell in cells:
                counts[cell] += 1
                self._raised(cell)

    def estimate(self, key: Hashable) -> int:
        """Estimated count of ``key`` (never an undercount)."""
        estimate = self._estimates.get(key)
        return self._fill(key) if estimate is None else estimate

    def probability(self, key: Hashable) -> float:
        total = self._total
        if total == 0:
            return 0.0
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = self._fill(key)
        return estimate / total

    @property
    def total(self) -> int:
        return self._total

    def memory_counters(self) -> int:
        """Number of counters held (the sketch's space budget)."""
        return self.width * self.depth
