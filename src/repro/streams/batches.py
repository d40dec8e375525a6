"""Columnar micro-batch encoding of a stream pair.

The engines historically pulled one tuple per iteration out of
``pair.r`` / ``pair.s`` — every tick paid Python-level indexing and loop
overhead.  This module re-encodes a :class:`~repro.streams.tuples.StreamPair`
as *struct-of-arrays chunks*: per-side key columns sliced into
fixed-size :class:`StreamChunk` windows, so a batched execution path can
amortise per-tuple costs over a whole chunk (see
``repro.core.batched`` and ``JoinEngine._run_exact_batched``).

Column representation
---------------------
Integer key streams (every synthetic workload) become numpy integer
columns, built with one ``numpy.asarray`` call: chunk slices are O(1)
views and expand back into lists in C.  Non-integer keys (e.g. string
keys from user-supplied pairs) fall back to plain tuples.  Either way
:meth:`StreamChunk.r_list` / :meth:`StreamChunk.s_list` hand the hot
loop ordinary Python lists of ordinary Python objects, so dictionary
probes hash native ints, not numpy scalars.

The encoding is pure layout — no semantics live here.  A batched run
must remain bit-identical to the per-tuple run; chunk boundaries are
invisible in every result field.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as _np

from .tuples import StreamPair

#: numpy is a declared dependency; kept because the benchmarks record it.
HAVE_NUMPY = True

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "HAVE_NUMPY",
    "StreamChunk",
    "encode_columns",
    "encode_chunks",
    "resolve_batch_size",
]

#: Chunk size when the caller enables batching without picking one.
#: Large enough to amortise per-chunk overhead, small enough that the
#: expiry history stays cache-warm at the paper's window sizes.
DEFAULT_BATCH_SIZE = 1024


class StreamChunk:
    """One micro-batch of both streams, in struct-of-arrays layout.

    ``start`` is the global tick of the chunk's first element; the chunk
    covers ticks ``start .. start + length - 1``.  ``r_keys`` / ``s_keys``
    are column slices (numpy array or tuple — see module docstring); the
    ``*_list`` accessors expand them to plain lists for the hot loop.
    """

    __slots__ = ("start", "length", "r_keys", "s_keys")

    def __init__(self, start: int, r_keys, s_keys) -> None:
        self.start = start
        self.length = len(r_keys)
        self.r_keys = r_keys
        self.s_keys = s_keys

    def r_list(self) -> list:
        return _as_list(self.r_keys)

    def s_list(self) -> list:
        return _as_list(self.s_keys)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamChunk(start={self.start}, length={self.length})"


def _as_list(column) -> list:
    """Expand a column slice to a plain Python list (native objects)."""
    tolist = getattr(column, "tolist", None)
    if tolist is not None:  # numpy converts in C
        return tolist()
    return list(column)


def _encode_column(keys: Sequence):
    """Pack one stream's keys into the densest column that fits.

    Integer keys become a numpy column (one vectorised conversion);
    anything else is kept as an opaque tuple.
    """
    try:
        column = _np.asarray(keys)
    except (ValueError, TypeError):
        return tuple(keys)
    if column.dtype.kind in ("i", "u") and column.ndim == 1:
        # Keep the numpy column: chunk slices are O(1) views and
        # tolist() expands to native ints in C.
        return column
    return tuple(keys)


def encode_columns(pair: StreamPair) -> tuple:
    """Whole-stream ``(r_column, s_column)`` for a pair (no chunking)."""
    return _encode_column(pair.r), _encode_column(pair.s)


def resolve_batch_size(length: int, batch_size: Optional[int] = None) -> int:
    """Adapt the requested chunk size to the stream.

    ``None`` picks :data:`DEFAULT_BATCH_SIZE`; anything else is clamped
    to ``[1, length]`` (a zero-length stream resolves to 1 so slicing
    stays well-formed).
    """
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    elif batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return max(1, min(batch_size, length)) if length else 1


def encode_chunks(
    pair: StreamPair, batch_size: Optional[int] = None
) -> Iterator[StreamChunk]:
    """Slice a pair into :class:`StreamChunk` micro-batches.

    The final chunk carries the remainder; chunk boundaries never affect
    results (only amortisation granularity).
    """
    length = len(pair)
    size = resolve_batch_size(length, batch_size)
    r_column, s_column = encode_columns(pair)
    for start in range(0, length, size):
        stop = start + size
        yield StreamChunk(start, r_column[start:stop], s_column[start:stop])
