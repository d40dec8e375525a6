"""Pull-based stream sources: the incremental ingestion contract.

The paper's setting is joins over *unbounded* streams, where the engine
can never hold the whole input.  A :class:`Source` models that contract:
it is an iterable of per-tick arrival events, where each event is a
``(r_keys, s_keys)`` pair of tuples — the join-attribute values arriving
on R and S during that tick (either side may be empty on a tick, and
bursty sources may deliver several arrivals per side per tick).

Sources are **restartable** (each ``__iter__`` call builds a fresh,
deterministic iterator from the stored configuration) and **picklable**
(they carry configuration, not iterator state), so the sharded runtime
can ship them to worker processes and the fault-tolerant retry path can
simply re-iterate after a failure.

:class:`PairSource` adapts a finite materialized
:class:`~repro.streams.tuples.StreamPair` to the protocol so every
existing caller keeps working; the generator sources
(:class:`ZipfSource`, :class:`DriftingZipfSource`, :class:`PoissonSource`)
are unbounded unless given an explicit ``length``, and
:class:`ReplaySource` streams recorded traffic from the JSONL format of
:mod:`repro.streams.replay` without materializing it.
"""

from __future__ import annotations

import json
from itertools import islice, takewhile
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Optional, Protocol, Union, runtime_checkable

import numpy as np

from .arrival import poisson_schedule
from .generators import _permutations_for
from .replay import JSONL_FORMAT, JSONL_VERSION, load_pair
from .tuples import StreamPair
from .zipf import ZipfDistribution

__all__ = [
    "DriftingZipfSource",
    "PairSource",
    "PoissonSource",
    "ReplaySource",
    "Source",
    "SourceEvent",
    "ZipfSource",
    "as_source",
    "bounded_events",
    "take_pair",
]

#: One tick of arrivals: the R-side keys and the S-side keys.
SourceEvent = tuple[tuple, tuple]

#: Sampling block size for the generator sources.  Blocks bound the
#: working memory of an unbounded iteration while amortising the numpy
#: sampling cost; the value never affects the emitted key sequence
#: beyond block-boundary placement of the underlying RNG draws, which is
#: itself deterministic for a fixed block size.
_BLOCK = 4096

_EMPTY: tuple = ()


@runtime_checkable
class Source(Protocol):
    """Iterable of per-tick ``(r_keys, s_keys)`` arrival events.

    ``length`` is the number of ticks the source will emit, or ``None``
    for an unbounded source.  Iteration must be restartable: every
    ``__iter__`` call yields the same deterministic event sequence.
    """

    @property
    def length(self) -> Optional[int]:  # pragma: no cover - protocol
        ...

    def __iter__(self) -> Iterator[SourceEvent]:  # pragma: no cover - protocol
        ...


class PairSource:
    """Adapter presenting a finite :class:`StreamPair` as a source.

    Emits exactly one arrival per side per tick — the paper's
    synchronous model — so the engines' pair-based fast paths and the
    incremental path see identical traffic.
    """

    #: One arrival per side per tick, always (the synchronous model) —
    #: lets the engines' columnar policy lanes re-chunk the stream.
    unit_rate = True

    def __init__(self, pair: StreamPair) -> None:
        if not isinstance(pair, StreamPair):
            raise TypeError(f"PairSource expects a StreamPair, got {type(pair).__name__}")
        self.pair = pair

    @property
    def length(self) -> int:
        return len(self.pair)

    @property
    def name(self) -> str:
        return self.pair.name

    def __iter__(self) -> Iterator[SourceEvent]:
        for r_key, s_key in zip(self.pair.r, self.pair.s):
            yield ((r_key,), (s_key,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairSource({self.pair.name!r}, length={len(self.pair)})"


def _block_counts(rate: Optional[float], seed: int, block_index: int) -> list[int]:
    """Per-tick arrival counts for one block of one stream.

    ``rate=None`` is the synchronous model (exactly one arrival per
    tick); otherwise counts come from the Poisson schedule of
    :mod:`repro.streams.arrival`, re-seeded per block so the sequence is
    restartable without carrying RNG state.
    """
    if rate is None:
        return [1] * _BLOCK
    return poisson_schedule(_BLOCK, rate, seed=seed + block_index)


def _iter_generator_events(
    dist_r: ZipfDistribution,
    dist_s: ZipfDistribution,
    *,
    seed: int,
    rate: Optional[float],
    length: Optional[int],
    start_tick: int = 0,
) -> Iterator[SourceEvent]:
    """Stream events from a pair of stationary distributions.

    Keys are sampled block-wise (bounded working memory) from
    deterministic per-side RNGs; when ``rate`` is set, per-tick arrival
    counts come from block-seeded Poisson schedules.
    """
    rng_r = np.random.default_rng([seed, 211, start_tick])
    rng_s = np.random.default_rng([seed, 613, start_tick])
    emitted = 0
    block_index = 0
    while length is None or emitted < length:
        counts_r = _block_counts(rate, seed + 5, block_index)
        counts_s = _block_counts(rate, seed + 11, block_index)
        keys_r = iter(dist_r.sample(int(sum(counts_r)), rng_r).tolist())
        keys_s = iter(dist_s.sample(int(sum(counts_s)), rng_s).tolist())
        for n_r, n_s in zip(counts_r, counts_s):
            r_batch = tuple(next(keys_r) for _ in range(n_r)) if n_r else _EMPTY
            s_batch = tuple(next(keys_s) for _ in range(n_s)) if n_s else _EMPTY
            yield (r_batch, s_batch)
            emitted += 1
            if length is not None and emitted >= length:
                return
        block_index += 1


class ZipfSource:
    """Unbounded iid Zipf arrivals — the streaming analogue of
    :func:`~repro.streams.generators.zipf_pair`.

    With ``rate=None`` (default) one tuple arrives per stream per tick,
    the paper's synchronous model.  ``length`` bounds the source for
    tests and finite runs; ``None`` streams forever.

    The true per-stream distributions are exposed via
    :meth:`distributions` so oracle estimators remain available without
    scanning the (unscannable) stream.
    """

    def __init__(
        self,
        domain_size: int,
        skew: float,
        *,
        skew_s: Optional[float] = None,
        correlation: str = "uncorrelated",
        rate: Optional[float] = None,
        seed: int = 0,
        length: Optional[int] = None,
    ) -> None:
        if length is not None and length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if rate is not None and rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self.domain_size = domain_size
        self.skew = float(skew)
        self.skew_s = float(skew if skew_s is None else skew_s)
        self.correlation = correlation
        self.rate = rate
        self.seed = seed
        self._length = length
        # Permutations are drawn exactly as zipf_pair draws them so the
        # frequency assignments (though not the sampled sequences) line
        # up with the materialized generator for the same seed.
        rng = np.random.default_rng(seed)
        perm_r, perm_s = _permutations_for(correlation, domain_size, rng)
        self._dist_r = ZipfDistribution(domain_size, self.skew, value_permutation=perm_r)
        self._dist_s = ZipfDistribution(domain_size, self.skew_s, value_permutation=perm_s)

    @property
    def length(self) -> Optional[int]:
        return self._length

    @property
    def unit_rate(self) -> bool:
        """Exactly one arrival per side per tick (no Poisson schedule)."""
        return self.rate is None

    @property
    def name(self) -> str:
        bound = "unbounded" if self._length is None else f"length={self._length}"
        return (
            f"zipf-source(z_r={self.skew}, z_s={self.skew_s}, "
            f"d={self.domain_size}, {bound})"
        )

    def distributions(self) -> tuple[ZipfDistribution, ZipfDistribution]:
        """The true ``(R, S)`` generating distributions (oracle tables)."""
        return self._dist_r, self._dist_s

    def __iter__(self) -> Iterator[SourceEvent]:
        return _iter_generator_events(
            self._dist_r,
            self._dist_s,
            seed=self.seed,
            rate=self.rate,
            length=self._length,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfSource({self.name})"


class PoissonSource(ZipfSource):
    """Zipf-keyed arrivals with Poisson per-tick counts.

    The bursty analogue of pairing :func:`zipf_pair` with
    :func:`~repro.streams.arrival.poisson_schedule`: each tick delivers
    ``Poisson(rate)`` tuples on each side, keys iid Zipf.  Feeds the
    asynchronous engine, whose input queues only matter under bursts.
    """

    def __init__(
        self,
        domain_size: int,
        skew: float,
        rate: float,
        *,
        skew_s: Optional[float] = None,
        correlation: str = "uncorrelated",
        seed: int = 0,
        length: Optional[int] = None,
    ) -> None:
        if rate is None:
            raise ValueError("PoissonSource requires a rate")
        super().__init__(
            domain_size,
            skew,
            skew_s=skew_s,
            correlation=correlation,
            rate=rate,
            seed=seed,
            length=length,
        )

    @property
    def name(self) -> str:
        bound = "unbounded" if self._length is None else f"length={self._length}"
        return (
            f"poisson-source(rate={self.rate}, z={self.skew}, "
            f"d={self.domain_size}, {bound})"
        )


class DriftingZipfSource:
    """Zipf arrivals whose frequent values change every ``phase_length``
    ticks — the unbounded analogue of
    :func:`~repro.streams.generators.drifting_zipf_pair`.

    Each phase draws fresh uncorrelated value permutations, so a static
    frequency table built in one phase misranks tuples in the next; the
    online estimators are expected to track the shift.
    """

    #: Always the synchronous model: one arrival per side per tick.
    unit_rate = True

    def __init__(
        self,
        domain_size: int,
        skew: float,
        *,
        phase_length: int,
        seed: int = 0,
        length: Optional[int] = None,
    ) -> None:
        if phase_length <= 0:
            raise ValueError(f"phase_length must be positive, got {phase_length}")
        if length is not None and length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self.domain_size = domain_size
        self.skew = float(skew)
        self.phase_length = phase_length
        self.seed = seed
        self._length = length

    @property
    def length(self) -> Optional[int]:
        return self._length

    @property
    def name(self) -> str:
        bound = "unbounded" if self._length is None else f"length={self._length}"
        return (
            f"drifting-zipf-source(z={self.skew}, d={self.domain_size}, "
            f"phase={self.phase_length}, {bound})"
        )

    def phase_distributions(self, phase: int) -> tuple[ZipfDistribution, ZipfDistribution]:
        """The true ``(R, S)`` distributions governing one phase."""
        rng = np.random.default_rng([self.seed, phase])
        perm_r, perm_s = _permutations_for("uncorrelated", self.domain_size, rng)
        return (
            ZipfDistribution(self.domain_size, self.skew, value_permutation=perm_r),
            ZipfDistribution(self.domain_size, self.skew, value_permutation=perm_s),
        )

    def __iter__(self) -> Iterator[SourceEvent]:
        emitted = 0
        phase = 0
        while self._length is None or emitted < self._length:
            dist_r, dist_s = self.phase_distributions(phase)
            span = self.phase_length
            if self._length is not None:
                span = min(span, self._length - emitted)
            yield from _iter_generator_events(
                dist_r,
                dist_s,
                seed=self.seed,
                rate=None,
                length=span,
                start_tick=phase,
            )
            emitted += span
            phase += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DriftingZipfSource({self.name})"


class ReplaySource:
    """Stream recorded traffic from a JSONL file without materializing it.

    Reads the versioned JSONL format of
    :func:`repro.streams.replay.save_pair_jsonl` line by line, so
    arbitrarily long recordings replay in bounded memory.  Plain CSV
    recordings (:func:`~repro.streams.replay.save_pair`) are loaded
    eagerly through :func:`~repro.streams.replay.load_pair` and adapted.
    """

    def __init__(self, path: Union[str, Path], *, key_type=int) -> None:
        self.path = Path(path)
        self.key_type = key_type
        self._header = self._read_header()

    def _read_header(self) -> dict:
        if self.path.suffix == ".csv":
            return {"format": "csv", "length": None}
        with self.path.open() as handle:
            first = handle.readline()
        if not first:
            raise ValueError(f"{self.path}: empty replay file")
        header = json.loads(first)
        if header.get("format") != JSONL_FORMAT:
            raise ValueError(
                f"{self.path}: expected format {JSONL_FORMAT!r}, "
                f"got {header.get('format')!r}"
            )
        if header.get("version") != JSONL_VERSION:
            raise ValueError(
                f"{self.path}: unsupported replay version {header.get('version')!r} "
                f"(supported: {JSONL_VERSION})"
            )
        return header

    @property
    def length(self) -> Optional[int]:
        return self._header.get("length")

    @property
    def name(self) -> str:
        return str(self._header.get("name") or self.path.stem)

    def __iter__(self) -> Iterator[SourceEvent]:
        if self._header.get("format") == "csv":
            yield from PairSource(load_pair(self.path, key_type=self.key_type))
            return
        key_type = self.key_type
        with self.path.open() as handle:
            handle.readline()  # header, validated at construction
            for expected_tick, line in enumerate(handle):
                if not line.strip():
                    continue
                event = json.loads(line)
                if event.get("t") != expected_tick:
                    raise ValueError(
                        f"{self.path}: tick column must be contiguous from 0, "
                        f"got {event.get('t')} at position {expected_tick}"
                    )
                yield (
                    tuple(key_type(k) for k in event.get("r", ())),
                    tuple(key_type(k) for k in event.get("s", ())),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplaySource({str(self.path)!r})"


def bounded_events(
    events: Iterable, until: Optional[int] = None, stop=None
) -> Iterator:
    """``events`` cut after ``until`` ticks and at the first tick on
    which ``stop()`` returns truthy.

    ``stop()`` is polled once per tick, after the tick is pulled and
    before anyone processes it, so the tick it stops on is dropped; the
    ``until`` bound stops pulling.  The engines' run loops take their
    tick bounds this way, so they pay no per-tick checks for them.
    """
    if until is not None:
        events = islice(events, until)
    if stop is not None:
        events = takewhile(lambda _event: not stop(), events)
    return iter(events)


def as_source(obj: Union[Source, StreamPair]) -> Source:
    """Coerce a :class:`StreamPair` or source to the source protocol."""
    if isinstance(obj, StreamPair):
        return PairSource(obj)
    if hasattr(obj, "__iter__") and hasattr(obj, "length"):
        return obj
    raise TypeError(
        f"expected a StreamPair or a Source (iterable with a length "
        f"attribute), got {type(obj).__name__}"
    )


def take_pair(
    source: Union[Source, Iterable[SourceEvent]],
    ticks: Optional[int] = None,
    *,
    name: str = "",
) -> StreamPair:
    """Materialize a synchronous source prefix into a :class:`StreamPair`.

    Only valid for sources emitting exactly one arrival per side per
    tick (the paper's model); bursty events raise.  Used by tests and by
    callers that need a finite, indexable view of a generator source.
    """
    r_keys: list[Hashable] = []
    s_keys: list[Hashable] = []
    for t, (r_batch, s_batch) in enumerate(iter(source)):
        if ticks is not None and t >= ticks:
            break
        if len(r_batch) != 1 or len(s_batch) != 1:
            raise ValueError(
                f"take_pair requires one arrival per side per tick, got "
                f"{len(r_batch)}/{len(s_batch)} at tick {t}"
            )
        r_keys.append(r_batch[0])
        s_keys.append(s_batch[0])
    return StreamPair(r=r_keys, s=s_keys, name=name or getattr(source, "name", "source"))
