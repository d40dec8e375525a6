"""Tests for repro.runtime: process-pool fan-out of independent run cells.

The headline property is the determinism contract — ``workers=N`` must
return exactly what ``workers=1`` returns, result for result — plus the
failure surface (a worker exception names its cell) and the
``resolve_workers`` precedence rules.
"""

import pytest

from repro.api import RunSpec, compare
from repro.experiments.sweep import sweep_seeds
from repro.obs import MetricsRegistry
from repro.runtime import (
    CellError,
    Fault,
    FaultPlan,
    RetryPolicy,
    SpecCell,
    parallel_map,
    resolve_workers,
    run_spec_cell,
)
from repro.streams import zipf_pair

ALGORITHMS = ("PROB", "LIFE", "RAND", "PROBV")
SEEDS = (0, 1, 2)


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError(f"bad cell {x}")
    return x


def _pair(seed, length=800):
    return zipf_pair(length, 50, 1.0, seed=seed)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_argument(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(4) == 4

    def test_env_default_when_no_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_env_zero_is_global_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(8) == 1
        assert resolve_workers(None) == 1

    def test_bad_argument_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestParallelMap:
    def test_preserves_input_order(self):
        assert parallel_map(_square, range(9), workers=2) == [
            x * x for x in range(9)
        ]

    def test_serial_path_raises_raw(self):
        with pytest.raises(ValueError, match="bad cell 3"):
            parallel_map(_boom_on_three, [1, 2, 3], workers=1)

    def test_worker_failure_names_the_cell(self):
        with pytest.raises(CellError) as excinfo:
            parallel_map(
                _boom_on_three,
                [1, 2, 3, 4],
                workers=2,
                labels=["a", "b", "c", "d"],
            )
        error = excinfo.value
        assert error.label == "c"
        assert error.exc_type == "ValueError"
        assert "run cell 'c' failed" in str(error)
        assert "bad cell 3" in str(error)
        assert "worker traceback" in str(error)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parallel_map(_square, [1, 2], workers=1, labels=["only-one"])

    def test_spec_cell_failure_mid_grid(self):
        """A bad cell surfaces its own label, not an opaque pool error."""
        pair = _pair(0, length=400)
        cells = [
            SpecCell(RunSpec(algorithm=name, window=40, memory=memory), pair)
            for name, memory in (("RAND", 20), ("PROB", 21), ("LIFE", 20))
        ]
        with pytest.raises(CellError) as excinfo:
            parallel_map(
                run_spec_cell,
                cells,
                workers=2,
                labels=[cell.label for cell in cells],
            )
        assert "PROB(w=40,M=21" in excinfo.value.label
        assert excinfo.value.exc_type == "ValueError"


class TestParallelEqualsSerial:
    """The determinism contract: workers=4 is exactly workers=1."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compare_identical_across_policies(self, seed):
        specs = [
            RunSpec(algorithm=name, length=800, window=50, memory=24, seed=seed)
            for name in ALGORITHMS
        ]
        serial = compare(specs, workers=1)
        parallel = compare(specs, workers=4)
        assert list(serial) == list(parallel)
        for label in serial:
            one, many = serial[label], parallel[label]
            assert one.output_count == many.output_count
            assert one.drop_breakdown() == many.drop_breakdown()
            assert one.r_departures == many.r_departures
            assert one.s_departures == many.s_departures

    def test_sweep_aggregates_identical(self):
        serial = sweep_seeds(
            ("RAND", "PROB"), _pair, 50, 24, seeds=SEEDS, workers=1
        )
        parallel = sweep_seeds(
            ("RAND", "PROB"), _pair, 50, 24, seeds=SEEDS, workers=4
        )
        assert serial == parallel

    def test_compare_results_carry_their_own_metrics(self):
        pair = _pair(1)
        specs = [
            RunSpec(algorithm=name, window=50, memory=24, seed=1, metrics=True)
            for name in ALGORITHMS
        ]
        serial = compare(specs, pair=pair, workers=1)
        parallel = compare(specs, pair=pair, workers=4)
        for label in serial:
            one, many = serial[label], parallel[label]
            assert one.output_count == many.output_count
            assert one.drop_breakdown() == many.drop_breakdown()
            # Each snapshot covers its own run, in a worker as serially.
            one_metrics = MetricsRegistry.from_snapshot(one.metrics)
            many_metrics = MetricsRegistry.from_snapshot(many.metrics)
            assert one_metrics.counter_value("engine.output") == one.output_count
            for counter in ("engine.output", "engine.probes", "engine.matches"):
                assert one_metrics.counter_total(
                    counter
                ) == many_metrics.counter_total(counter)

    def test_env_variable_reaches_nested_calls(self, monkeypatch):
        """REPRO_WORKERS steers call sites that were not passed workers."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = compare(["RAND", "PROB"], workers=None)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        serial = compare(["RAND", "PROB"], workers=None)
        for label in serial:
            assert serial[label].output_count == parallel[label].output_count


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(max_retries=-1), "max_retries"),
            (dict(timeout_s=0), "timeout_s"),
            (dict(backoff_s=-0.1), "backoff_s"),
            (dict(backoff_factor=0.5), "backoff_factor"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)

    def test_delay_before_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay_before(1) == 0.0  # first attempt never waits
        assert policy.delay_before(2) == pytest.approx(0.1)
        assert policy.delay_before(3) == pytest.approx(0.2)
        assert policy.delay_before(4) == pytest.approx(0.4)

    def test_zero_backoff_never_waits(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.0)
        assert all(policy.delay_before(k) == 0.0 for k in (1, 2, 3, 4))


class TestSupervisedExecution:
    """Retry, fault injection, attempt accounting, degradation in-band."""

    RETRY = RetryPolicy(max_retries=1, backoff_s=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_supervision_without_faults_matches_plain(self, workers):
        expected = [x * x for x in range(6)]
        attempts = []
        results = parallel_map(
            _square,
            range(6),
            workers=workers,
            retry=RetryPolicy(max_retries=2),
            attempts_out=attempts,
        )
        assert results == expected
        assert attempts == [1] * 6  # every cell succeeded first try

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_heals_a_transient_kill(self, workers):
        plan = FaultPlan((Fault("kill", cell=1),))  # attempt 1 only
        attempts = []
        results = parallel_map(
            _square,
            [1, 2, 3],
            workers=workers,
            retry=self.RETRY,
            fault_plan=plan,
            attempts_out=attempts,
        )
        assert results == [1, 4, 9]
        assert attempts == [1, 2, 1]  # only the afflicted cell retried

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_retries_raise_with_history(self, workers):
        plan = FaultPlan((Fault("kill", cell=0, attempts=99),))
        with pytest.raises(CellError) as excinfo:
            parallel_map(
                _square,
                [1, 2],
                workers=workers,
                labels=["doomed", "fine"],
                retry=RetryPolicy(max_retries=2, backoff_s=0.0),
                fault_plan=plan,
            )
        error = excinfo.value
        assert error.label == "doomed"
        assert error.exc_type == "InjectedFault"
        assert "(after 3 attempts)" in str(error)
        assert [entry["attempt"] for entry in error.attempts] == [1, 2, 3]
        assert all(e["error"] == "InjectedFault" for e in error.attempts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_return_errors_degrades_in_band(self, workers):
        plan = FaultPlan((Fault("kill", cell=1, attempts=99),))
        attempts = []
        results = parallel_map(
            _square,
            [1, 2, 3],
            workers=workers,
            retry=self.RETRY,
            fault_plan=plan,
            return_errors=True,
            attempts_out=attempts,
        )
        assert results[0] == 1 and results[2] == 9
        assert isinstance(results[1], CellError)
        assert attempts == [1, 2, 1]
        # survivors are untouched by the neighbour's failure
        assert results[1].attempts[-1]["error"] == "InjectedFault"

    def test_timeout_abandons_a_hung_worker(self):
        # Hangs on every attempt; the deadline must cut both short.
        plan = FaultPlan((Fault("hang", cell=0, delay_s=0.5, attempts=99),))
        results = parallel_map(
            _square,
            [1, 2],
            workers=2,
            retry=RetryPolicy(max_retries=1, timeout_s=0.05, backoff_s=0.0),
            fault_plan=plan,
            return_errors=True,
        )
        assert isinstance(results[0], CellError)
        assert results[0].exc_type == "TimeoutError"
        assert "exceeded" in results[0].exc_message
        assert results[1] == 4

    def test_timeout_then_clean_retry_recovers(self):
        # The hang afflicts attempt 1 only: abandoned, then healed.
        plan = FaultPlan((Fault("hang", cell=0, delay_s=0.4),))
        attempts = []
        results = parallel_map(
            _square,
            [3, 4],
            workers=2,
            retry=RetryPolicy(max_retries=1, timeout_s=0.1, backoff_s=0.0),
            fault_plan=plan,
            attempts_out=attempts,
        )
        assert results == [9, 16]
        assert attempts[0] == 2

    def test_serial_mode_does_not_enforce_timeouts(self):
        """Documented: a serial attempt cannot be preempted mid-flight."""
        plan = FaultPlan((Fault("hang", cell=0, delay_s=0.05),))
        results = parallel_map(
            _square,
            [5],
            workers=1,
            retry=RetryPolicy(timeout_s=0.01),
            fault_plan=plan,
        )
        assert results == [25]  # the hang outlived the deadline yet landed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tick_scoped_faults_need_an_engine(self, workers):
        """A tick fault never fires in a cell that has no tick loop."""
        plan = FaultPlan((Fault("kill", cell=0, tick=5),))
        assert parallel_map(
            _square, [2, 3], workers=workers, fault_plan=plan
        ) == [4, 9]


class TestMergeSnapshot:
    def test_counters_and_gauges(self):
        source = MetricsRegistry()
        source.counter("a").inc(3)
        source.gauge("g").set(7.5)
        target = MetricsRegistry()
        target.counter("a").inc(1)
        target.merge_snapshot(source.snapshot())
        assert target.counter_value("a") == 4
        assert target.gauge("g").value == 7.5

    def test_merge_twice_accumulates(self):
        source = MetricsRegistry()
        source.counter("a").inc(5)
        snapshot = source.snapshot()
        target = MetricsRegistry()
        target.merge_snapshot(snapshot)
        target.merge_snapshot(snapshot)
        assert target.counter_value("a") == 10
