"""repro: Approximate Join Processing Over Data Streams.

A complete reproduction of Das, Gehrke & Riedewald (SIGMOD 2003):
semantic load shedding for sliding-window equi-joins over data streams,
including

* the fast-CPU integrated join engine with the RAND / PROB / LIFE
  eviction policies (fixed and variable memory allocation),
* the optimal offline algorithm (OPT / OPTV) via min-cost network flow,
* static join load shedding (the ``O(c k^2)`` DP, the ``(k_A, k_B)``
  variant, and the m-relation approximation),
* the error-measure design space (MAX-subset, set coefficients, EMD,
  MAC) and the Archive-metric with archive-backed load smoothing,
* every workload of the evaluation and generators for all of its
  figures.

Quick start::

    from repro import RunSpec, run

    spec = RunSpec(algorithm="PROB", window=100, memory=50,
                   length=2000, skew=1.0, seed=7)
    prob = run(spec)
    opt = run(RunSpec(algorithm="OPT", window=100, memory=50,
                      length=2000, skew=1.0, seed=7))
    print(prob.output_count, opt.output_count)

:func:`repro.run` is the single public entry point: it dispatches on
the spec (online engines, the offline OPT/OPTV bound, sharded parallel
execution, checkpoint/retry fault tolerance).  ``run_join`` and
``run_sharded`` survive as deprecated aliases.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .api import RunSpec, build_pair, compare, optimal_offline, run, run_join
from .core import (
    DropBreakdown,
    EngineConfig,
    JoinEngine,
    RunResult,
    RunSummary,
    SidePolicies,
    SlowCpuConfig,
    SlowCpuEngine,
    WindowSpec,
    make_policy,
    make_policy_spec,
)
from .core.archive import ArchiveStore, RefinementReport, refine_from_archive
from .core.metrics import archive_metric, max_subset_report
from .core.offline import OptResult, solve_opt
from .core.policies import (
    ArmAwarePolicy,
    EvictionPolicy,
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
)
from .core.static_join import (
    extract_components,
    max_edges_retaining,
    min_edges_lost_deleting,
    retention_benefit,
)
from .obs import (
    MetricsRegistry,
    NullRecorder,
    Timer,
    load_metrics_json,
    metrics_to_csv,
    metrics_to_json,
    save_metrics_csv,
    save_metrics_json,
)
from .streams import (
    StreamPair,
    StreamTuple,
    exact_join_size,
    uniform_pair,
    weather_pair,
    zipf_pair,
)

__version__ = "1.0.0"

__all__ = [
    "ArchiveStore",
    "ArmAwarePolicy",
    "DropBreakdown",
    "EngineConfig",
    "EvictionPolicy",
    "JoinEngine",
    "LifePolicy",
    "MetricsRegistry",
    "NullRecorder",
    "OptResult",
    "ProbPolicy",
    "RandomEvictionPolicy",
    "RefinementReport",
    "RunResult",
    "RunSpec",
    "RunSummary",
    "SidePolicies",
    "SlowCpuConfig",
    "SlowCpuEngine",
    "StreamPair",
    "StreamTuple",
    "Timer",
    "WindowSpec",
    "archive_metric",
    "build_pair",
    "compare",
    "exact_join_size",
    "extract_components",
    "load_metrics_json",
    "make_policy",
    "make_policy_spec",
    "max_edges_retaining",
    "max_subset_report",
    "metrics_to_csv",
    "metrics_to_json",
    "min_edges_lost_deleting",
    "optimal_offline",
    "refine_from_archive",
    "retention_benefit",
    "run",
    "run_join",
    "save_metrics_csv",
    "save_metrics_json",
    "solve_opt",
    "uniform_pair",
    "weather_pair",
    "zipf_pair",
]
