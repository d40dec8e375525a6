"""Core library: the paper's contribution.

* :mod:`repro.core.engine` — fast-CPU integrated-model simulator;
* :mod:`repro.core.policies` — RAND / PROB / LIFE (+V) semantic shedding;
* :mod:`repro.core.offline` — OPT-offline via min-cost flow;
* :mod:`repro.core.static_join` — k-truncated static joins (DP, variants);
* :mod:`repro.core.metrics` — MAX-subset, set measures, EMD, MAC, ArM;
* :mod:`repro.core.archive` — load smoothing with archive refinement;
* :mod:`repro.core.slowcpu` — the modular slow-CPU extension.
"""

from .async_engine import AsyncEngineConfig, AsyncJoinEngine, AsyncRunResult
from .engine import (
    CapacityExceededError,
    EngineConfig,
    JoinEngine,
    RunResult,
)
from .memory import JoinMemory, StreamMemory, TupleRecord
from .policies import (
    POLICY_NAMES,
    SidePolicies,
    make_policy,
    make_policy_spec,
    register_policy,
)
from .results import DropBreakdown, RunSummary
from .slowcpu import SlowCpuConfig, SlowCpuEngine, SlowCpuResult
from .window import WindowSpec

__all__ = [
    "AsyncEngineConfig",
    "AsyncJoinEngine",
    "AsyncRunResult",
    "CapacityExceededError",
    "DropBreakdown",
    "EngineConfig",
    "JoinEngine",
    "JoinMemory",
    "POLICY_NAMES",
    "RunResult",
    "RunSummary",
    "SidePolicies",
    "SlowCpuConfig",
    "SlowCpuEngine",
    "SlowCpuResult",
    "StreamMemory",
    "TupleRecord",
    "WindowSpec",
    "make_policy",
    "make_policy_spec",
    "register_policy",
]
