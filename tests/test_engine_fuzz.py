"""Fuzzing the production engine against the naive reference.

The production engine uses heaps, per-key buckets, lazy deletion, and
slot arrays; the reference (`tests/reference_engine.py`) uses plain
lists and linear scans.  Agreement across random workloads validates all
of that bookkeeping end-to-end, including the paper's tie rules.  With
live estimators (Count-Min, EWMA) the reference keeps its own estimator
copies and feeds them in the kernel's order, so agreement also pins the
sketch's cached estimates to what the policies would compute afresh.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import make_policy_spec
from repro.experiments.runner import estimators_for, run_algorithm
from repro.stats import CountMinSketch, EwmaFrequencyEstimator
from repro.streams import zipf_pair
from repro.streams.sources import PairSource
from repro.streams.tuples import StreamPair
from tests.reference_engine import NaiveCountMin, NaiveResult, naive_run


def ledger(result):
    """A run's output and whole-run drop ledger, shaped like the reference's."""
    drops = result.drop_breakdown()
    return NaiveResult(
        result.output_count, drops.rejected, drops.evicted, drops.expired
    )


def path_outputs(name, pair, window, memory, estimators=None):
    """Output and drop ledger of every loop a pair can reach: the
    default path (a columnar lane for every wiring the fuzzers draw),
    the lanes at chunk size 7, the kernel loop (``force_general`` pins
    it; ``materialize`` forces it and lists the pairs), and the same
    three over the incremental source path."""
    def run(**extra):
        return run_algorithm(
            name, pair, window, memory, estimators=estimators, **extra
        )

    def run_source(**extra):
        return run(source=PairSource(pair), until=len(pair), **extra)

    runs = {
        "default": run(),
        "batch": run(batch_size=7),
        "kernel": run(force_general=True),
        "materialize": run(materialize=True),
        "source": run_source(),
        "batch_source": run_source(batch_size=7),
        "kernel_source": run_source(force_general=True),
    }
    assert len(runs["materialize"].pairs) == runs["materialize"].output_count
    return {path: ledger(result) for path, result in runs.items()}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2000),
    window=st.integers(2, 15),
    half=st.integers(1, 8),
    skew=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_prob_matches_reference_fixed(seed, window, half, skew):
    pair = zipf_pair(150, 6, skew, seed=seed)
    memory = 2 * half
    estimators = estimators_for(pair)
    outputs = path_outputs("PROB", pair, window, memory, estimators)
    reference = naive_run(pair, window, memory, "PROB", estimators)
    assert outputs == dict.fromkeys(outputs, reference)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2000),
    window=st.integers(2, 12),
    memory=st.integers(1, 15),
)
def test_probv_matches_reference_variable(seed, window, memory):
    pair = zipf_pair(120, 5, 1.0, seed=seed)
    estimators = estimators_for(pair)
    outputs = path_outputs("PROBV", pair, window, memory, estimators)
    reference = naive_run(pair, window, memory, "PROB", estimators, variable=True)
    assert outputs == dict.fromkeys(outputs, reference)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2000),
    window=st.integers(2, 15),
    half=st.integers(1, 8),
)
def test_life_matches_reference_fixed(seed, window, half):
    pair = zipf_pair(150, 6, 1.0, seed=seed)
    memory = 2 * half
    estimators = estimators_for(pair)
    outputs = path_outputs("LIFE", pair, window, memory, estimators)
    reference = naive_run(pair, window, memory, "LIFE", estimators)
    assert outputs == dict.fromkeys(outputs, reference)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2000),
    window=st.integers(2, 10),
    memory=st.integers(1, 12),
)
def test_lifev_matches_reference_variable(seed, window, memory):
    pair = zipf_pair(100, 5, 1.0, seed=seed)
    estimators = estimators_for(pair)
    outputs = path_outputs("LIFEV", pair, window, memory, estimators)
    reference = naive_run(pair, window, memory, "LIFE", estimators, variable=True)
    assert outputs == dict.fromkeys(outputs, reference)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), window=st.integers(2, 12))
def test_exact_matches_reference(seed, window):
    pair = zipf_pair(120, 5, 1.0, seed=seed)
    outputs = path_outputs("EXACT", pair, window, 0)
    reference = naive_run(pair, window, 2 * window, "EXACT")
    assert outputs == dict.fromkeys(outputs, reference)


# ----------------------------------------------------------------------
# live estimators through every loop that feeds them
# ----------------------------------------------------------------------

#: Key encodings: ints take ``hash()``, the rest the sketch's stable hash.
KEY_TYPES = {
    "int": lambda key: key,
    "str": lambda key: f"k{key}",
    "tuple": lambda key: (key % 2, f"k{key}"),
}


def keyed_pair(length, domain, seed, key_type):
    pair = zipf_pair(length, domain, 1.0, seed=seed)
    encode = KEY_TYPES[key_type]
    return StreamPair(
        r=[encode(key) for key in pair.r], s=[encode(key) for key in pair.s]
    )


def online_ledger(name, pair, window, memory, make_estimators):
    """Output and drop ledger of ``name`` with live estimators, through
    each loop that feeds them: the pair's fast loop, the kernel loop
    (``materialize`` forces it) and ``run_stream`` (the loop every
    ``repro serve`` run takes).  Each run gets fresh estimators."""
    def engine(**extra):
        config = EngineConfig(
            window=window, memory=memory, variable=name.endswith("V"), **extra
        )
        policy = make_policy_spec(name, estimators=make_estimators(), window=window)
        return JoinEngine(config, policy=policy)

    runs = {
        "fast": engine().run(pair),
        "kernel": engine(materialize=True).run(pair),
        "source": engine().run_stream(PairSource(pair), until=len(pair)),
    }
    return {path: ledger(result) for path, result in runs.items()}


def assert_online_matches(name, pair, window, memory, make_estimators, reference):
    """The engine, fed ``make_estimators()``, equals the naive run fed the
    ``reference`` estimators on every loop."""
    expected = naive_run(
        pair, window, memory, name.rstrip("V"), reference,
        variable=name.endswith("V"), online=True,
    )
    ledgers = online_ledger(name, pair, window, memory, make_estimators)
    assert ledgers == dict.fromkeys(ledgers, expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2000),
    name=st.sampled_from(["LIFE", "LIFEV"]),
    window=st.integers(2, 15),
    half=st.integers(1, 8),
    width=st.integers(2, 8),
    depth=st.integers(1, 3),
    conservative=st.booleans(),
    key_type=st.sampled_from(sorted(KEY_TYPES)),
)
def test_life_countmin_matches_online_reference(
    seed, name, window, half, width, depth, conservative, key_type
):
    pair = keyed_pair(150, 12, seed, key_type)
    memory = 2 * half if name == "LIFE" else half + 1

    def sketches(kind=CountMinSketch):
        return {
            side: kind(width, depth, seed=seed + offset, conservative=conservative)
            for offset, side in enumerate("RS")
        }

    # The reference scores with cache-free sketches, so a stale cached
    # estimate in the engine's sketches shows up as a different run.
    assert_online_matches(
        name, pair, window, memory, sketches, sketches(NaiveCountMin)
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2000),
    name=st.sampled_from(["PROB", "PROBV"]),
    window=st.integers(2, 15),
    half=st.integers(1, 8),
    alpha=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    key_type=st.sampled_from(sorted(KEY_TYPES)),
)
def test_prob_ewma_matches_online_reference(
    seed, name, window, half, alpha, key_type
):
    pair = keyed_pair(150, 8, seed, key_type)
    memory = 2 * half if name == "PROB" else half + 1

    def ewmas():
        return {side: EwmaFrequencyEstimator(alpha) for side in "RS"}

    assert_online_matches(name, pair, window, memory, ewmas, ewmas())
