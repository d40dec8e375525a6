"""Pin a :func:`repro.api.run` call to one engine loop (tests only).

``run()`` sends every lane-eligible run to its columnar lane, so a test
that compares a lane with "the per-tuple run" must ask for the per-tuple
loop explicitly.  The kernel loop is that reference: it is the loop
every tracer, schedule and validation hook runs, and the one the naive
oracle in ``reference_engine.py`` is fuzzed against.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

from repro import api
from repro.core.engine import EngineConfig


def kernel_run(spec, **kwargs):
    """``api.run(spec, **kwargs)`` through the kernel loop.

    The same policy, estimators, metrics registry and streaming hooks
    ``run()`` builds, with ``EngineConfig(force_general=True)``, which
    both the pair and the source path honour.
    """
    forced = partial(EngineConfig, force_general=True)
    with mock.patch.object(api, "EngineConfig", forced):
        return api.run(spec, **kwargs)
