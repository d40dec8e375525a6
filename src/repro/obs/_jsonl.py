"""The JSONL file layer shared by event traces and span timelines.

One record per line, each the ``to_json()`` of an event; the readers
decode lines back through the record class's ``from_json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

Record = TypeVar("Record")


def save_jsonl(events: Iterable, path) -> Path:
    """Write each event's ``to_json()`` as one line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_json(), default=str))
            handle.write("\n")
    return path


def iter_jsonl(
    path,
    decode: Callable[[dict], Record],
    what: str,
    *,
    strict: bool = True,
) -> Iterator[Record]:
    """Stream ``decode(record)`` for each non-blank line of ``path``.

    An undecodable line raises ``ValueError`` naming the file, line and
    ``what`` the file holds; ``strict=False`` skips it instead.
    """
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: not a JSONL {what} line ({error})"
                    ) from error
                continue
            yield decode(record)
