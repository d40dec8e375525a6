"""Which loop each run reaches, and that the default equals the kernel loop.

``run()`` sends every wiring a columnar lane reproduces to that lane:
EXACT to the count lane, RAND/PROB/LIFE with static tables (both
allocation modes) to the policy lanes, over a pair or a unit-rate
source, with or without metrics and rolling summaries.  What no lane
covers takes a per-tuple loop: ARM, FIFO, live estimators and
policy-less runs below ``2w`` the fast loop on a pair, and the kernel
loop on a source.  The spies below pin that matrix; the boundary sweep
and the ``repro serve`` checks pin the lanes to the kernel loop
(``force_general``), the loop the naive oracle is fuzzed against.
"""

import pytest

from repro import cli
from repro.api import RunSpec, run
from repro.core.engine import EngineConfig, JoinEngine
from repro.experiments.runner import run_algorithm
from repro.stats.frequency import StaticFrequencyTable
from repro.streams import zipf_pair
from repro.streams.sources import PairSource, ZipfSource
from tests.loops import kernel_run

SMALL = dict(window=20, memory=10, length=400, seed=3)
LANE_ALGORITHMS = ("EXACT", "RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")
LOOPS = (
    "_run_exact_batched",
    "_run_policy_batched",
    "_run_exact_stream",
    "_run_fast",
    "_run_kernel",
)


def _spy(name, original, calls):
    def spy(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    return spy


@pytest.fixture
def reached(monkeypatch):
    """The engine loops the test's runs reach, in call order."""
    calls = []
    for name in LOOPS:
        monkeypatch.setattr(
            JoinEngine, name, _spy(name, getattr(JoinEngine, name), calls)
        )
    return calls


def lane_of(algorithm):
    return "_run_exact_batched" if algorithm == "EXACT" else "_run_policy_batched"


# ----------------------------------------------------------------------
# pair runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", LANE_ALGORITHMS)
@pytest.mark.parametrize("metrics", (False, True))
def test_default_pair_run_takes_its_lane(reached, algorithm, metrics):
    run(RunSpec(algorithm=algorithm, metrics=metrics, **SMALL))
    assert reached == [lane_of(algorithm)]


@pytest.mark.parametrize(
    "algorithm, estimator",
    [
        ("FIFO", "oracle"),
        ("FIFOV", "oracle"),
        ("ARM", "oracle"),
        ("ARMV", "oracle"),
        ("PROB", "ewma"),
        ("PROBV", "ewma"),
        ("LIFE", "countmin"),
        ("LIFEV", "countmin"),
    ],
)
def test_uncovered_pair_runs_take_the_fast_loop(reached, algorithm, estimator):
    run(RunSpec(algorithm=algorithm, estimator=estimator, **SMALL))
    assert reached == ["_run_fast"]


def test_policy_less_run_below_2w_takes_the_fast_loop(reached):
    # NONE: no policy and M < 2w; short enough that nothing overflows.
    config = EngineConfig(window=10, memory=10)
    result = JoinEngine(config).run(zipf_pair(5, 4, 1.0, seed=0))
    assert result.policy_name == "NONE"
    assert reached == ["_run_fast"]


@pytest.mark.parametrize("algorithm", ("EXACT", "RAND", "PROBV", "ARM"))
def test_force_general_pins_the_kernel_loop(reached, algorithm):
    pair = zipf_pair(300, 10, 1.0, seed=1)
    run_algorithm(algorithm, pair, 20, 10, force_general=True)
    run_algorithm(
        algorithm, pair, 20, 10, force_general=True,
        source=PairSource(pair), until=len(pair),
    )
    assert reached == ["_run_kernel", "_run_kernel"]


# ----------------------------------------------------------------------
# source runs
# ----------------------------------------------------------------------

def source_spec(algorithm, length=3000, **overrides):
    return RunSpec(
        algorithm=algorithm,
        window=100,
        memory=50,
        seed=5,
        source=ZipfSource(50, 1.0, seed=7, length=length),
        **overrides,
    )


@pytest.mark.parametrize("algorithm", ("RAND", "RANDV", "PROB", "LIFEV"))
def test_unit_rate_source_takes_the_lane(reached, algorithm):
    run(source_spec(algorithm))
    run(source_spec(algorithm), on_summary=lambda summary: None)
    assert reached == ["_run_policy_batched"] * 2


def test_live_estimator_source_takes_the_kernel_loop(reached):
    run(source_spec("PROB", estimator="ewma"), on_summary=lambda summary: None)
    assert reached == ["_run_kernel"]


@pytest.mark.parametrize("algorithm", ("RAND", "RANDV", "PROB", "PROBV", "LIFE"))
@pytest.mark.parametrize("stride", (1, 7, 100, 1024, 1500, 4096))
def test_source_summaries_equal_the_kernel_loops(algorithm, stride):
    def collect(runner):
        summaries = []
        result = runner(
            source_spec(algorithm, length=3100),
            on_summary=summaries.append,
            on_summary_every=stride,
        )
        return summaries, result

    lane_summaries, lane = collect(run)
    kernel_summaries, kernel = collect(kernel_run)
    assert len(lane_summaries) == 3100 // stride
    assert lane_summaries == kernel_summaries
    assert lane.drop_counts == kernel.drop_counts
    assert lane.output_count == kernel.output_count


def test_stop_after_a_summary_ends_both_loops_on_the_same_tick():
    def stopped(runner):
        summaries = []
        result = runner(
            source_spec("RAND", length=None, duration=None),
            on_summary=summaries.append,
            on_summary_every=700,
            stop=lambda: len(summaries) >= 3,
        )
        return result.length, result.drop_counts, summaries

    assert stopped(run) == stopped(kernel_run)
    assert stopped(run)[0] == 2100


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------

def serve(monkeypatch, capsys, runner, stride):
    """``repro serve --algorithm RAND`` in-process through ``runner``;
    returns the summaries it got and what it printed on stderr."""
    summaries = []

    def recording_run(spec, *, on_summary, **kwargs):
        def record(summary):
            summaries.append(summary)
            on_summary(summary)

        return runner(spec, on_summary=record, **kwargs)

    monkeypatch.setattr(cli, "run", recording_run)
    code = cli.main([
        "serve", "--source", "zipf", "--algorithm", "RAND",
        "--window", "100", "--memory", "50", "--length", "2600",
        "--summary-every", str(stride),
    ])
    assert code == 0
    return summaries, capsys.readouterr().err


@pytest.mark.parametrize("stride", (1, 64, 500, 1024, 2048))
def test_serve_rand_takes_the_lane_with_kernel_summaries(
    monkeypatch, capsys, reached, stride
):
    lane = serve(monkeypatch, capsys, run, stride)
    assert reached == ["_run_policy_batched"]
    kernel = serve(monkeypatch, capsys, kernel_run, stride)
    assert reached == ["_run_policy_batched", "_run_kernel"]
    assert len(lane[0]) == 2600 // stride
    assert lane == kernel


# ----------------------------------------------------------------------
# boundaries: the default path against the kernel loop
# ----------------------------------------------------------------------

def outcome(algorithm, pair, window, memory, **extra):
    """What a run must reproduce, or the ``ValueError`` it raised."""
    try:
        result = run_algorithm(
            algorithm, pair, window, memory, seed=1, track_survival=True,
            estimators={
                "R": StaticFrequencyTable({0: 0.5, 1: 0.25, 2: 0.15, 3: 0.1}),
                "S": StaticFrequencyTable({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}),
            },
            **extra,
        )
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (
        result.length,
        result.output_count,
        result.total_output_count,
        result.drop_counts,
        result.r_departures,
        result.s_departures,
    )


@pytest.mark.parametrize("algorithm", LANE_ALGORITHMS)
@pytest.mark.parametrize("window", (1, 2, 3, 7))
def test_default_matches_the_kernel_loop_at_the_boundaries(algorithm, window):
    variable = algorithm.endswith("V")
    memories = (0,) if algorithm == "EXACT" else sorted(
        {1, 2, 3, 4, 5, 2 * window, 2 * window + 1}
    )
    for memory in memories:
        for length in (0, 1, 2, 2 * window + 3, 40):
            for seed in (0, 1):
                pair = zipf_pair(length, 4, 1.0, seed=seed)
                args = (algorithm, pair, window, memory)
                default = outcome(*args)
                assert default == outcome(*args, force_general=True), (
                    memory, length, seed,
                )
                if memory % 2 and not variable and algorithm != "EXACT":
                    # Fixed allocation splits M evenly (documented).
                    assert default[0] == "ValueError"
                    continue
                source = dict(source=PairSource(pair), until=length)
                assert outcome(*args, **source)[:4] == outcome(
                    *args, force_general=True, **source
                )[:4], (memory, length, seed)
