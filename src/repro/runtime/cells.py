"""Picklable run-cell descriptions and their worker entry points.

A *cell* is one independent unit of a figure/sweep grid: everything a
worker process needs to reproduce one run, as plain picklable data.
Workloads are generated in the parent and shipped inside the cell (the
sweep APIs accept arbitrary — often non-picklable — pair factories, and
shipping the pair also guarantees every worker sees byte-identical
input).  Estimators are rebuilt inside the worker from the pair's
metadata; :func:`repro.experiments.runner.estimators_for` is a pure
function of the pair, so the rebuild is exact.

There are two cell types, each with a module-level ``run_*_cell``
function (pool workers cannot pickle lambdas or methods):
:class:`SpecCell` runs one :class:`~repro.api.RunSpec` (the grid cells
of ``api.compare``, the seed sweeps and the figure grids) and
:class:`ShardCell` one hash shard of a sharded spec.  Metrics ride in the
spec (``metrics=True``): each result carries the snapshot of its own
run, in a worker process exactly as in a serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..streams.tuples import StreamPair


@dataclass(frozen=True)
class SpecCell:
    """One :class:`~repro.api.RunSpec` against a shared workload."""

    spec: object  # RunSpec; typed loosely to avoid an api<->runtime cycle
    pair: StreamPair

    @property
    def label(self) -> str:
        spec = self.spec
        return (
            f"{spec.algorithm}(w={spec.window},M={spec.memory},seed={spec.seed})"
        )


def run_spec_cell(cell: SpecCell):
    """Worker entry: run one spec cell end to end.

    ``workers=1`` keeps a sharded spec serial inside this worker —
    the grid is already fanned out; nesting pools would oversubscribe.
    """
    from ..api import run
    from ..experiments.runner import estimators_for

    return run(
        cell.spec,
        pair=cell.pair,
        estimators=estimators_for(cell.pair),
        workers=1,
    )


@dataclass(frozen=True)
class ShardCell:
    """One hash shard of a sharded run (see :mod:`repro.core.partition`).

    The spec carries the fault-tolerance posture too: with
    ``spec.checkpoint_every`` set (the api layer fills in
    ``spec.checkpoint_dir``), the worker checkpoints the shard
    periodically and a retry of this same cell resumes from the last
    checkpoint instead of replaying from tick 0.

    A source-driven spec (``spec.source`` set) ships no pair — the
    source rides inside the spec (sources are picklable by contract)
    and the worker filters it incrementally via
    :func:`repro.core.partition.shard_source`.
    """

    spec: object  # RunSpec; typed loosely to avoid an api<->runtime cycle
    pair: Optional[StreamPair]
    shard: int
    budget: int

    @property
    def label(self) -> str:
        spec = self.spec
        return (
            f"shard[{self.shard}/{spec.shards}] "
            f"{spec.algorithm}(w={spec.window},m={self.budget},seed={spec.seed})"
        )


def run_shard_cell(cell: ShardCell):
    """Worker entry: run one shard of a sharded spec.

    Stamps the telemetry context (when armed) with the shard index —
    the dispatcher only knows the cell index, and fleet views key rows
    by shard.
    """
    from ..api import _run_join_shard
    from ..obs import telemetry

    telemetry.annotate(shard=cell.shard)
    return _run_join_shard(cell.spec, cell.pair, cell.shard, cell.budget)
