"""Shard-level checkpoint persistence for resumable runs.

A :class:`CheckpointStore` holds one checkpoint file per key (one key
per shard) under a root directory.  The payload wraps an engine
checkpoint (``AsyncJoinEngine.checkpoint()``) with the result-schema
version and a *fingerprint* — a string derived from the spec and shard
coordinates — so a stale file from a different run can never be resumed
into this one: on any mismatch :meth:`load` returns ``None`` and the
shard replays from tick 0, which is always correct, just slower.

Writes are atomic (temp file + ``os.replace``) so a worker killed
mid-save leaves the previous checkpoint intact.  A file is the SHA-256
digest of the pickled payload followed by the payload itself; a file
whose bytes no longer match their digest (torn, flipped, truncated, or
written before digests existed) is never unpickled.  Payloads are pickled:
join keys are arbitrary hashable objects and RNG states are numpy
structures — JSON would need a parallel encoding for no benefit, and
checkpoints are private scratch, not an interchange format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..core.results import SCHEMA_VERSION
from ..obs import telemetry as _telemetry

__all__ = ["CheckpointStore"]

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Length of the SHA-256 digest that prefixes every checkpoint file.
_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointStore:
    """Atomic save/load/clear of checkpoint payloads under one directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        safe = _KEY_RE.sub("_", key)
        return self.root / f"{safe}.ckpt"

    def save(self, key: str, state: dict, *, fingerprint: str) -> Path:
        """Atomically persist ``state`` for ``key``.

        Under an armed telemetry context (see
        :mod:`repro.obs.telemetry`) the save and its wall-clock cost are
        recorded as a ``checkpoint_save`` span.
        """
        started = time.perf_counter()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "state": state,
        }
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(body).digest())
                handle.write(body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _telemetry.checkpoint_saved(
            time.perf_counter() - started, tick=state.get("tick"), key=key
        )
        return path

    def load(self, key: str, *, fingerprint: str) -> Optional[dict]:
        """The saved state for ``key``, or ``None`` when absent/unusable.

        Corrupt files (a digest that does not match the payload, or a
        payload that fails to unpickle), schema mismatches, and
        fingerprint mismatches all collapse to ``None`` — resuming from
        nothing is always safe.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        digest, body = data[:_DIGEST_BYTES], data[_DIGEST_BYTES:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:  # e.g. a class the payload names has moved since
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        state = payload.get("state")
        if isinstance(state, dict):
            _telemetry.checkpoint_restored(tick=state.get("tick"), key=key)
        return state

    def clear(self, key: str) -> None:
        """Drop ``key``'s checkpoint (after a successful run)."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass
