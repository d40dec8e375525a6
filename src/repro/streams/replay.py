"""Persisting and replaying recorded stream pairs.

Experiments are reproducible from seeds alone, but saving the concrete
streams makes runs auditable and lets users replay external datasets
(e.g. the real weather data, if they obtain it) through the engine.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator, Union

from .tuples import StreamPair

_HEADER = ("time", "r_key", "s_key")

#: Format tag and version of the JSONL recording format.  The first
#: line of a recording is a header object ``{"format": ..., "version":
#: ..., "name": ..., "length": ...}``; each following line is one tick,
#: ``{"t": <tick>, "r": [keys...], "s": [keys...]}``.  Unlike the CSV
#: format (exactly one arrival per side per tick), JSONL ticks carry
#: arrival *batches*, so bursty recorded traffic replays faithfully
#: through ``repro serve``.
JSONL_FORMAT = "repro.streams"
JSONL_VERSION = 1


def save_pair(pair: StreamPair, path: Union[str, Path]) -> None:
    """Write a stream pair to CSV with columns ``time, r_key, s_key``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
            writer.writerow((t, r_key, s_key))


def load_pair(path: Union[str, Path], *, key_type=int, name: str = "") -> StreamPair:
    """Read a stream pair previously written by :func:`save_pair`.

    Parameters
    ----------
    key_type:
        Constructor applied to each key column (``int`` by default; pass
        ``str`` for non-numeric join attributes).

    Raises
    ------
    ValueError
        On a malformed header or non-contiguous time column, which would
        silently corrupt window semantics if accepted.
    """
    path = Path(path)
    r_keys = []
    s_keys = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _HEADER:
            raise ValueError(f"{path}: expected header {_HEADER}, got {header}")
        for expected_time, row in enumerate(reader):
            if len(row) != 3:
                raise ValueError(f"{path}: malformed row {row!r}")
            if int(row[0]) != expected_time:
                raise ValueError(
                    f"{path}: time column must be contiguous from 0, "
                    f"got {row[0]} at position {expected_time}"
                )
            r_keys.append(key_type(row[1]))
            s_keys.append(key_type(row[2]))
    return StreamPair(r=r_keys, s=s_keys, name=name or path.stem)


def save_pair_jsonl(pair: StreamPair, path: Union[str, Path]) -> None:
    """Write a stream pair to the versioned JSONL recording format.

    Round-trips with :func:`load_pair_jsonl`; the output also replays
    incrementally through :class:`repro.streams.sources.ReplaySource`
    without being materialized.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "name": pair.name,
        "length": len(pair),
    }
    with path.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
            handle.write(json.dumps({"t": t, "r": [r_key], "s": [s_key]}) + "\n")


def read_jsonl_header(path: Path) -> dict:
    """The validated header object of a JSONL recording.

    Raises ``ValueError`` on an empty file, a foreign format tag, or an
    unsupported version.
    """
    with path.open() as handle:
        first = handle.readline()
    if not first:
        raise ValueError(f"{path}: empty replay file")
    header = json.loads(first)
    if header.get("format") != JSONL_FORMAT:
        raise ValueError(
            f"{path}: expected format {JSONL_FORMAT!r}, got {header.get('format')!r}"
        )
    if header.get("version") != JSONL_VERSION:
        raise ValueError(
            f"{path}: unsupported replay version {header.get('version')!r} "
            f"(supported: {JSONL_VERSION})"
        )
    return header


def iter_jsonl_ticks(path: Path, header: dict) -> Iterator[tuple]:
    """Each tick's raw ``(r_batch, s_batch)`` of a JSONL recording.

    ``header`` is the file's :func:`read_jsonl_header`.  Raises
    ``ValueError`` on a non-contiguous tick column and, on reaching the
    end of the file, when the header declares a different length — a
    truncated recording must not replay as a shorter stream.
    """
    ticks = 0
    with path.open() as handle:
        handle.readline()  # the header
        for expected_tick, line in enumerate(handle):
            if not line.strip():
                continue
            event = json.loads(line)
            if event.get("t") != expected_tick:
                raise ValueError(
                    f"{path}: tick column must be contiguous from 0, "
                    f"got {event.get('t')} at position {expected_tick}"
                )
            ticks += 1
            yield event.get("r", ()), event.get("s", ())
    declared = header.get("length")
    if declared is not None and declared != ticks:
        raise ValueError(
            f"{path}: header declares length {declared} but file has "
            f"{ticks} ticks"
        )


def load_pair_jsonl(
    path: Union[str, Path], *, key_type=int, name: str = ""
) -> StreamPair:
    """Read a stream pair previously written by :func:`save_pair_jsonl`.

    Raises
    ------
    ValueError
        On a missing/foreign header, an unsupported version, a
        non-contiguous tick column, a tick count other than the
        header's declared length, or ticks carrying anything other
        than one arrival per side (pairs are synchronous by definition;
        bursty recordings replay through ``ReplaySource`` instead).
    """
    path = Path(path)
    header = read_jsonl_header(path)
    r_keys = []
    s_keys = []
    for tick, (r_batch, s_batch) in enumerate(iter_jsonl_ticks(path, header)):
        if len(r_batch) != 1 or len(s_batch) != 1:
            raise ValueError(
                f"{path}: tick {tick} carries {len(r_batch)}/"
                f"{len(s_batch)} arrivals; a StreamPair needs exactly one "
                f"per side — replay bursty recordings via ReplaySource"
            )
        r_keys.append(key_type(r_batch[0]))
        s_keys.append(key_type(s_batch[0]))
    return StreamPair(r=r_keys, s=s_keys, name=name or str(header.get("name") or path.stem))
