"""Min-cost network flow substrate.

The paper solves its OPT-offline join approximation with Goldberg's CS2
min-cost flow solver; this package provides an equivalent self-contained
implementation:

* :class:`FlowNetwork` / :class:`FlowResult` — problem & solution model;
* :func:`solve_min_cost_flow` — successive shortest paths with potentials
  (handles the negative-cost DAGs produced by the OPT-offline builder);
* :mod:`repro.flow.validation` — feasibility and optimality certificates;
* :func:`repro.flow.simple.solve_lp` — LP-backed reference solver for
  cross-checking in tests.
"""

from .bellman_ford import NegativeCycleError, has_negative_cycle, shortest_paths
from .dag import shortest_distances_from, topological_order
from .network import Arc, FlowNetwork, FlowResult
from .residual import ResidualGraph
from .ssp import UnbalancedNetworkError, solve_min_cost_flow
from .validation import assert_valid, check_feasible, check_optimal, recompute_cost

__all__ = [
    "Arc",
    "FlowNetwork",
    "FlowResult",
    "NegativeCycleError",
    "ResidualGraph",
    "UnbalancedNetworkError",
    "assert_valid",
    "check_feasible",
    "check_optimal",
    "has_negative_cycle",
    "recompute_cost",
    "shortest_distances_from",
    "shortest_paths",
    "solve_min_cost_flow",
    "topological_order",
]
