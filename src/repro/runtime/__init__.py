"""Parallel runtime: fan independent run cells over worker processes.

See :mod:`repro.runtime.pool` for the execution layer (worker
resolution, the determinism contract, error surfacing, supervised
retry/timeout), :mod:`repro.runtime.cells` for the picklable task
descriptions the experiment drivers build,
:mod:`repro.runtime.faults` for deterministic fault injection, and
:mod:`repro.runtime.checkpoint` for shard-level checkpoint persistence.

The public knob everywhere is ``workers``: ``None`` defers to the
``REPRO_WORKERS`` environment variable (default serial), ``1`` forces
serial, ``N`` fans out over ``N`` processes.  Serial execution is
bit-identical to parallel execution by construction — including under
retries and injected faults.
"""

from . import faults
from .cells import ShardCell, SpecCell, run_shard_cell, run_spec_cell
from .checkpoint import CheckpointStore
from .faults import Fault, FaultPlan, InjectedFault
from .pool import (
    ENV_WORKERS,
    CellError,
    RetryPolicy,
    autotune_chunksize,
    parallel_map,
    resolve_workers,
)

__all__ = [
    "CellError",
    "CheckpointStore",
    "ENV_WORKERS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "ShardCell",
    "SpecCell",
    "autotune_chunksize",
    "faults",
    "parallel_map",
    "resolve_workers",
    "run_shard_cell",
    "run_spec_cell",
]
