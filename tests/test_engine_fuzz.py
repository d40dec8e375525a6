"""Fuzzing the production engine against the naive reference.

The production engine uses heaps, per-key buckets, lazy deletion, and
slot arrays; the reference (`tests/reference_engine.py`) uses plain
lists and linear scans.  Agreement across random workloads validates all
of that bookkeeping end-to-end, including the paper's tie rules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import estimators_for, run_algorithm
from repro.streams import zipf_pair
from repro.streams.sources import PairSource
from tests.reference_engine import naive_run


def path_outputs(name, pair, window, memory, estimators=None):
    """Output of every loop a pair can reach: the fast loop, the kernel
    loop (``materialize`` forces it), and the incremental source path."""
    fast = run_algorithm(name, pair, window, memory, estimators=estimators)
    kernel = run_algorithm(
        name, pair, window, memory, estimators=estimators, materialize=True
    )
    source = run_algorithm(
        name, pair, window, memory, estimators=estimators,
        source=PairSource(pair), until=len(pair),
    )
    assert len(kernel.pairs) == kernel.output_count
    return {
        "fast": fast.output_count,
        "kernel": kernel.output_count,
        "source": source.output_count,
    }


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
