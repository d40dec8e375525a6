"""Join-memory eviction policies (semantic load shedding).

* :class:`RandomEvictionPolicy` — RAND/RANDV, the random-shedding baseline;
* :class:`ProbPolicy` — PROB/PROBV, partner-arrival probability;
* :class:`LifePolicy` — LIFE/LIFEV, remaining-lifetime x probability;
* :class:`ArmAwarePolicy` — extension targeting the Archive-metric;
* :class:`FifoPolicy` — oldest-first baseline.

Constructing policies
---------------------
:func:`make_policy` is the registry-backed front door: it maps a policy
name ("RAND", "PROB", ...; the variable-allocation aliases "RANDV" etc.
are accepted) to a configured instance, validating that the statistics
and window arguments the policy needs were supplied.  New policies join
the registry via :func:`register_policy`.

:func:`make_policy_spec` builds what an engine's ``policy=`` argument
expects: a single instance for a variable (shared-pool) run, or a
:class:`SidePolicies` pair — two independent instances — for the fixed
M/2 + M/2 allocation (:func:`resolve_policy_spec` is the single
normalisation point all engines share; the legacy ``{"R": ..., "S":
...}`` dict spec was removed after its deprecation cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .arm import ArmAwarePolicy, KeyArrivalTracker
from .base import EvictionPolicy, arrival_observers, later_arrival_wins
from .fifo import FifoPolicy
from .life import LifePolicy
from .prob import ProbPolicy
from .random_policy import RandomEvictionPolicy

__all__ = [
    "ArmAwarePolicy",
    "EvictionPolicy",
    "FifoPolicy",
    "KeyArrivalTracker",
    "LifePolicy",
    "POLICY_NAMES",
    "ProbPolicy",
    "RandomEvictionPolicy",
    "ResolvedPolicies",
    "SidePolicies",
    "arrival_observers",
    "later_arrival_wins",
    "make_policy",
    "make_policy_spec",
    "register_policy",
    "resolve_policy_spec",
]


# ----------------------------------------------------------------------
# the policy registry
# ----------------------------------------------------------------------

def _require(name: str, kwargs: dict, *needed: str) -> None:
    missing = [key for key in needed if kwargs.get(key) is None]
    if missing:
        raise ValueError(
            f"policy {name!r} requires {', '.join(missing)} "
            "(pass them to make_policy)"
        )


def _make_rand(*, seed: int = 0, **_ignored) -> EvictionPolicy:
    return RandomEvictionPolicy(seed=seed)


def _make_prob(*, estimators=None, **_ignored) -> EvictionPolicy:
    _require("PROB", {"estimators": estimators}, "estimators")
    return ProbPolicy(estimators)


def _make_life(*, estimators=None, window=None, **_ignored) -> EvictionPolicy:
    _require("LIFE", {"estimators": estimators, "window": window}, "estimators", "window")
    return LifePolicy(estimators, window)


def _make_arm(*, estimators=None, window=None, **_ignored) -> EvictionPolicy:
    _require("ARM", {"estimators": estimators, "window": window}, "estimators", "window")
    return ArmAwarePolicy(estimators, window)


def _make_fifo(**_ignored) -> EvictionPolicy:
    return FifoPolicy()


#: name -> factory(**kwargs) producing one configured policy instance.
_POLICY_FACTORIES: dict[str, Callable[..., EvictionPolicy]] = {
    "RAND": _make_rand,
    "PROB": _make_prob,
    "LIFE": _make_life,
    "ARM": _make_arm,
    "FIFO": _make_fifo,
}

#: Registered base policy names (variable runs use the same factories).
POLICY_NAMES = tuple(_POLICY_FACTORIES)


def register_policy(name: str, factory: Callable[..., EvictionPolicy]) -> None:
    """Add (or replace) a policy factory under ``name``.

    The factory receives the keyword arguments given to
    :func:`make_policy` (``estimators``, ``window``, ``seed``, plus any
    extras) and returns a fresh :class:`EvictionPolicy`.
    """
    key = name.upper()
    if key.endswith("V") and key[:-1] in _POLICY_FACTORIES:
        raise ValueError(
            f"{name!r} collides with the variable-allocation alias of {key[:-1]!r}"
        )
    _POLICY_FACTORIES[key] = factory
    global POLICY_NAMES
    POLICY_NAMES = tuple(_POLICY_FACTORIES)


def _base_name(name: str) -> str:
    key = name.upper()
    if key not in _POLICY_FACTORIES and key.endswith("V") and key[:-1] in _POLICY_FACTORIES:
        return key[:-1]
    return key


def make_policy(name: str, **kwargs) -> EvictionPolicy:
    """Build one policy instance by registry name.

    ``name`` is case-insensitive; a trailing ``V`` (the paper's
    variable-allocation suffix) is accepted and ignored — whether the
    instance governs a shared pool is the engine configuration's
    business, not the policy's.
    """
    key = _base_name(name)
    factory = _POLICY_FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown policy {name!r}; choose from {', '.join(_POLICY_FACTORIES)}"
        )
    return factory(**kwargs)


# ----------------------------------------------------------------------
# engine policy specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SidePolicies:
    """Two independent per-side policies for a fixed-allocation run."""

    r: EvictionPolicy
    s: EvictionPolicy

    def __post_init__(self) -> None:
        if self.r is self.s:
            raise ValueError(
                "fixed allocation needs two independent policy instances"
            )


def make_policy_spec(
    name: str,
    *,
    variable: bool = False,
    estimators=None,
    window: Optional[int] = None,
    seed: int = 0,
    **kwargs,
):
    """Build an engine-ready policy spec from a registry name.

    Variable allocation gets a single instance governing the shared
    pool; fixed allocation gets a :class:`SidePolicies` pair whose R and
    S instances differ only in their random seed (matching the paper's
    per-side independence).  Both instances read the one ``estimators``
    mapping — the run's statistics module, fed once per arrival.  A
    trailing ``V`` in ``name`` also selects variable allocation
    ("PROBV" == ``variable=True``).
    """
    if name.upper().endswith("V") and _base_name(name) != name.upper():
        variable = True
    if variable:
        return make_policy(name, estimators=estimators, window=window, seed=seed, **kwargs)
    return SidePolicies(
        r=make_policy(name, estimators=estimators, window=window, seed=seed, **kwargs),
        s=make_policy(name, estimators=estimators, window=window, seed=seed + 1, **kwargs),
    )


@dataclass(frozen=True)
class ResolvedPolicies:
    """Normalised per-side wiring an engine consumes.

    ``instances`` holds each distinct policy once (for arrival
    broadcasts); ``name`` is the display name ("PROB", "PROBV", "NONE").
    """

    r: Optional[EvictionPolicy]
    s: Optional[EvictionPolicy]
    instances: tuple[EvictionPolicy, ...]
    name: str


def resolve_policy_spec(policy, memory, *, variable: bool) -> ResolvedPolicies:
    """Normalise an engine's ``policy=`` argument and bind it to memory.

    Accepts ``None`` (no shedding), a single :class:`EvictionPolicy`
    (shared pool; requires ``variable``), or a :class:`SidePolicies`
    pair (fixed allocation).  Anything else is a :class:`TypeError` —
    notably plain strings (build those with :func:`make_policy_spec`)
    and the removed legacy ``{"R": ..., "S": ...}`` dict spec.
    """
    if isinstance(policy, dict):
        raise TypeError(
            "dict policy specs ({'R': ..., 'S': ...}) were removed; "
            "use repro.core.policies.SidePolicies or make_policy_spec()"
        )

    if policy is None:
        return ResolvedPolicies(r=None, s=None, instances=(), name="NONE")

    if isinstance(policy, EvictionPolicy):
        if not variable:
            raise ValueError(
                "a single policy instance requires variable allocation; "
                "pass SidePolicies(r=..., s=...) for fixed allocation"
            )
        policy.bind(memory)
        return ResolvedPolicies(
            r=policy, s=policy, instances=(policy,), name=f"{policy.name}V"
        )

    if isinstance(policy, SidePolicies):
        if variable:
            raise ValueError(
                "per-side policies require fixed allocation; "
                "pass a single policy for a variable pool"
            )
        policy.r.bind(memory)
        policy.s.bind(memory)
        return ResolvedPolicies(
            r=policy.r, s=policy.s, instances=(policy.r, policy.s), name=policy.r.name
        )

    raise TypeError(f"unsupported policy specification: {policy!r}")
