"""Online-estimation parity: PROB/LIFE fed by live sketches vs the oracle.

The paper runs PROB/LIFE from a *static* statistics module (the true
generating distribution, or an offline scan) and remarks that any online
histogram or sketch could substitute.  These tests pin that substitution
quantitatively:

* On a **stationary** Zipf workload the online estimators converge to
  the true frequencies, so estimated-PROB lands within a documented band
  of oracle-PROB — EWMA within 15% (it keeps adapting, so it never quite
  stops jittering), the counter sketches within 3%.
* On a **drifting** workload the oracle is deliberately *stale* (the
  phase-0 distribution, which is all a static table can be), and the
  online estimators — which track the shift — beat it by a wide margin.

The bands are deliberately loose relative to measured behaviour
(stationary EWMA measures ~0.89, sketches ~0.99; drifting EWMA measures
~1.4-1.5x stale, count-min ~1.2-1.3x across seeds) so they fail on real
regressions, not on RNG noise.
"""

import random

import pytest

from repro.api import RunSpec, run
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import make_policy_spec
from repro.stats import OnlineFrequencyCounter
from repro.streams import zipf_pair
from repro.streams.sources import DriftingZipfSource, PairSource, ZipfSource

WINDOW = 100
MEMORY = 50


def output_of(source, *, algorithm="PROB", estimator="oracle", seed=0, **kw):
    spec = RunSpec(
        algorithm=algorithm,
        window=WINDOW,
        memory=MEMORY,
        source=source,
        estimator=estimator,
        seed=seed,
        **kw,
    )
    return run(spec).output_count


@pytest.fixture(scope="module")
def stationary():
    return ZipfSource(50, 1.0, seed=0, length=20_000)


@pytest.fixture(scope="module")
def drifting():
    return DriftingZipfSource(100, 1.5, phase_length=2_000, seed=0, length=12_000)


class TestStationaryParity:
    def test_ewma_tracks_the_oracle(self, stationary):
        oracle = output_of(stationary, estimator="oracle")
        ewma = output_of(stationary, estimator="ewma")
        assert ewma >= 0.85 * oracle
        assert ewma <= oracle * 1.02  # the oracle is (statistically) the ceiling

    @pytest.mark.parametrize("estimator", ["countmin", "spacesaving"])
    def test_counter_sketches_are_near_exact(self, stationary, estimator):
        oracle = output_of(stationary, estimator="oracle")
        sketched = output_of(stationary, estimator=estimator)
        assert sketched >= 0.97 * oracle
        assert sketched <= oracle * 1.02

    def test_estimated_prob_still_beats_rand(self, stationary):
        # the paper's headline claim — semantic beats random shedding —
        # must survive replacing the oracle with a live estimator
        rand = output_of(stationary, algorithm="RAND", estimator="oracle")
        ewma = output_of(stationary, estimator="ewma")
        assert ewma > rand

    def test_life_accepts_online_estimators_too(self, stationary):
        oracle = output_of(stationary, algorithm="LIFE", estimator="oracle")
        sketched = output_of(stationary, algorithm="LIFE", estimator="countmin")
        assert sketched >= 0.95 * oracle


class TestDriftingWorkloads:
    def test_online_ewma_beats_the_stale_oracle(self, drifting):
        stale = output_of(drifting, estimator="oracle")  # phase-0 table
        ewma = output_of(drifting, estimator="ewma")
        assert ewma >= 1.2 * stale

    def test_online_countmin_beats_the_stale_oracle(self, drifting):
        stale = output_of(drifting, estimator="oracle")
        sketched = output_of(drifting, estimator="countmin")
        assert sketched >= 1.1 * stale


class TestEstimatorKnobs:
    def test_estimator_alpha_changes_the_run(self):
        source = ZipfSource(30, 1.0, seed=3, length=5_000)
        fast_alpha = output_of(source, estimator="ewma", estimator_alpha=0.5)
        slow_alpha = output_of(source, estimator="ewma", estimator_alpha=0.001)
        default = output_of(source, estimator="ewma")
        assert len({fast_alpha, slow_alpha, default}) > 1

    def test_oracle_runs_are_deterministic(self):
        source = ZipfSource(30, 1.0, seed=4, length=5_000)
        assert output_of(source) == output_of(source)

    def test_online_runs_are_deterministic(self):
        source = ZipfSource(30, 1.0, seed=4, length=5_000)
        assert output_of(source, estimator="countmin") == output_of(
            source, estimator="countmin"
        )


class TestFedOncePerArrival:
    """One statistics module per run: each live estimator observes every
    arrival on its own stream exactly once, however many policies read
    it and whichever loop feeds it.  ``OnlineFrequencyCounter.total``
    counts its ``observe`` calls."""

    PAIR = zipf_pair(300, 8, 1.0, seed=3)

    @staticmethod
    def counters():
        return {side: OnlineFrequencyCounter() for side in "RS"}

    def engine(self, name, estimators, **config):
        return JoinEngine(
            EngineConfig(window=20, memory=10, variable=name.endswith("V"), **config),
            policy=make_policy_spec(name, estimators=estimators, window=20),
        )

    @pytest.mark.parametrize("name", ["PROB", "PROBV", "LIFE", "LIFEV"])
    @pytest.mark.parametrize("path", ["fast", "kernel", "run_stream"])
    def test_synchronous_loops(self, name, path):
        estimators = self.counters()
        if path == "run_stream":
            self.engine(name, estimators).run_stream(
                PairSource(self.PAIR), until=len(self.PAIR)
            )
        else:
            self.engine(name, estimators, materialize=path == "kernel").run(self.PAIR)
        assert estimators["R"].total == len(self.PAIR.r)
        assert estimators["S"].total == len(self.PAIR.s)

    @pytest.mark.parametrize("name", ["PROB", "PROBV", "LIFE", "LIFEV"])
    def test_async_run(self, name):
        rng = random.Random(7)
        batches = [
            [[rng.randrange(8) for _ in range(rng.randrange(4))] for _ in range(200)]
            for _ in "RS"
        ]
        estimators = self.counters()
        AsyncJoinEngine(
            AsyncEngineConfig(window=20, memory=10, variable=name.endswith("V")),
            policy=make_policy_spec(name, estimators=estimators, window=20),
        ).run(*batches)
        for side, side_batches in zip("RS", batches):
            assert estimators[side].total == sum(map(len, side_batches))
