"""Common run-result contract shared by every engine.

The four execution models (fast-CPU :class:`~repro.core.engine.JoinEngine`,
:class:`~repro.core.async_engine.AsyncJoinEngine`, the modular
:class:`~repro.core.slowcpu.SlowCpuEngine`, and the shared-queue
:class:`~repro.core.multiquery.SharedQueueSystem`) produce results with
engine-specific detail, but all of them now agree on a minimal surface:

* ``output_count`` — the counted (post-warmup) output size;
* ``drop_breakdown()`` — a :class:`DropBreakdown` of how many tuples were
  lost and why (rejected on arrival / evicted from state / expired);
* ``metrics`` — the attached metrics snapshot (a dict produced by
  :meth:`repro.obs.MetricsRegistry.snapshot`) when the run was
  instrumented, else ``None``.

:class:`BaseRunResult` is the mixin providing the shared helpers; the
facade's :meth:`BaseRunResult.summary` flattens any result into one
engine-agnostic :class:`RunSummary` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Version stamped on every serialised result record (``to_dict``) and
#: on checkpoint payloads.  Bump when a field is added, renamed, or its
#: meaning changes; ``from_dict`` accepts every version it knows how to
#: upgrade (currently 1 — pre-``lost_shard`` records — and 2).
SCHEMA_VERSION = 2

#: How a tuple left the join state.
DROP_REJECTED = "rejected"
DROP_EVICTED = "evicted"
DROP_EXPIRED = "expired"
#: An entire hash shard was abandoned after retry exhaustion (graceful
#: degradation); counts the shard's *input* tuples, per side.  Engines
#: never write this reason — only the shard merge layer does.
DROP_LOST = "lost_shard"

DROP_REASONS = (DROP_REJECTED, DROP_EVICTED, DROP_EXPIRED, DROP_LOST)


def empty_side_drop_counts() -> dict:
    """The per-side drop ledger the engines count into.

    ``lost_shard`` is intentionally absent: it is a merge-layer category
    (see :data:`DROP_LOST`), and the engines iterate this dict when
    flushing per-reason metrics — an always-zero entry would pollute
    every unsharded snapshot.  :meth:`DropBreakdown.from_side_counts`
    reads it with a default of 0.
    """
    return side_drop_counts()


def side_drop_counts(
    rejected: tuple = (0, 0), evicted: tuple = (0, 0), expired: tuple = (0, 0)
) -> dict:
    """A per-side drop ledger from ``(R, S)`` count pairs, in the shape
    of :func:`empty_side_drop_counts` (for lanes that tally into plain
    ints and build the ledger once at the end)."""
    return {
        side: {
            DROP_REJECTED: rejected[i],
            DROP_EVICTED: evicted[i],
            DROP_EXPIRED: expired[i],
        }
        for i, side in enumerate(("R", "S"))
    }


@dataclass(frozen=True)
class DropBreakdown:
    """How many tuples were lost, by cause.

    ``rejected`` — dropped on arrival (admission refusal or queue shed);
    ``evicted`` — displaced from join state before natural death;
    ``expired`` — aged out of the window (not a loss of result quality
    by itself, reported for completeness);
    ``lost`` — input tuples of hash shards abandoned after retry
    exhaustion under graceful degradation (sharded runs only).
    """

    rejected: int = 0
    evicted: int = 0
    expired: int = 0
    lost: int = 0

    @property
    def total(self) -> int:
        return self.rejected + self.evicted + self.expired + self.lost

    @property
    def shed(self) -> int:
        """Tuples lost to load shedding (everything but natural expiry).

        Lost-shard tuples count as shed: like an eviction, the system —
        not the window — decided they would never produce output.
        """
        return self.rejected + self.evicted + self.lost

    def as_dict(self) -> dict:
        return {
            DROP_REJECTED: self.rejected,
            DROP_EVICTED: self.evicted,
            DROP_EXPIRED: self.expired,
            DROP_LOST: self.lost,
        }

    def to_dict(self) -> dict:
        """Versioned JSON-serialisable export (see :data:`SCHEMA_VERSION`)."""
        record = self.as_dict()
        record["schema_version"] = SCHEMA_VERSION
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "DropBreakdown":
        """Rebuild from :meth:`to_dict` output.

        Accepts version-1 records (no ``lost_shard`` key, no
        ``schema_version``) by defaulting the missing field to 0.
        """
        version = record.get("schema_version", 1)
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"drop-breakdown record has schema_version {version}; "
                f"this build reads <= {SCHEMA_VERSION}"
            )
        return cls(
            rejected=record.get(DROP_REJECTED, 0),
            evicted=record.get(DROP_EVICTED, 0),
            expired=record.get(DROP_EXPIRED, 0),
            lost=record.get(DROP_LOST, 0),
        )

    @classmethod
    def from_side_counts(cls, drop_counts: dict) -> "DropBreakdown":
        """Collapse a per-side ledger (``{"R": {...}, "S": {...}}``)."""
        sides = drop_counts.values()
        return cls(
            rejected=sum(side.get(DROP_REJECTED, 0) for side in sides),
            evicted=sum(side.get(DROP_EVICTED, 0) for side in sides),
            expired=sum(side.get(DROP_EXPIRED, 0) for side in sides),
            lost=sum(side.get(DROP_LOST, 0) for side in sides),
        )


@dataclass(frozen=True)
class RunSummary:
    """Engine-agnostic view of one run, as returned by ``summary()``."""

    engine: str
    policy_name: str
    output_count: int
    drops: DropBreakdown
    metrics: Optional[dict] = None

    def to_dict(self, *, metrics: bool = False) -> dict:
        """Versioned JSON-serialisable export.

        ``metrics=True`` embeds the (potentially large) metrics snapshot;
        the default keeps the record compact — the CLI emits the snapshot
        alongside, not inside, the summary.
        """
        record = {
            "schema_version": SCHEMA_VERSION,
            "engine": self.engine,
            "policy": self.policy_name,
            "output_count": self.output_count,
            "drops": self.drops.to_dict(),
        }
        if metrics and self.metrics is not None:
            record["metrics"] = self.metrics
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "RunSummary":
        """Rebuild from :meth:`to_dict` output (round-trip exact)."""
        version = record.get("schema_version", 1)
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"run-summary record has schema_version {version}; "
                f"this build reads <= {SCHEMA_VERSION}"
            )
        return cls(
            engine=record["engine"],
            policy_name=record["policy"],
            output_count=record["output_count"],
            drops=DropBreakdown.from_dict(record.get("drops", {})),
            metrics=record.get("metrics"),
        )


class BaseRunResult:
    """Mixin giving every engine result the unified surface.

    Subclasses are dataclasses that provide ``output_count`` and a
    ``metrics`` field, and override :meth:`drop_breakdown` (and
    ``engine_kind`` / ``policy_label`` where the legacy field names
    differ).
    """

    #: Engine family for reporting ("fast", "async", "slowcpu", "multiquery").
    engine_kind: str = "?"

    def drop_breakdown(self) -> DropBreakdown:
        """Total tuples lost, by cause (see :class:`DropBreakdown`)."""
        raise NotImplementedError

    @property
    def policy_label(self) -> str:
        return getattr(self, "policy_name", "?")

    def summary(self) -> RunSummary:
        """Flatten into the engine-agnostic :class:`RunSummary`."""
        return RunSummary(
            engine=self.engine_kind,
            policy_name=self.policy_label,
            output_count=self.output_count,  # type: ignore[attr-defined]
            drops=self.drop_breakdown(),
            metrics=getattr(self, "metrics", None),
        )
