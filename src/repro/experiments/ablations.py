"""Ablation studies for the design choices DESIGN.md calls out.

Beyond reproducing the paper's figures, these experiments probe the
knobs the paper leaves implicit:

* **statistics module** — the paper uses an exact offline frequency
  table and notes any stream sketch could substitute; how much output
  does PROB lose with bounded-memory statistics (Count-Min,
  Space-Saving), incremental counting, or decayed counts?
* **predictor quality** — the paper claims "given a bad predictor of
  future tuples, no online algorithm would be able to perform well";
  corrupting PROB's probability table towards uniform noise quantifies
  the decay from near-OPT to RAND-level.
* **distribution drift** — static tables cannot follow a shifting
  distribution; decayed statistics can.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import api
from ..stats import (
    CountMinSketch,
    EwmaFrequencyEstimator,
    OnlineFrequencyCounter,
    ReservoirSample,
    SpaceSaving,
    StaticFrequencyTable,
)
from ..streams.generators import drifting_zipf_pair, zipf_pair
from .config import DEFAULT_DOMAIN, Scale, current_scale, even_memory
from .figures import TableData
from .runner import estimators_for


def _output(algorithm, pair, window, memory, *, seed=0, estimators=None) -> int:
    """One run's output count over ``pair`` through :func:`repro.api.run`."""
    spec = api.RunSpec(algorithm=algorithm, window=window, memory=memory, seed=seed)
    return api.run(spec, pair=pair, estimators=estimators).output_count


def statistics_ablation(
    scale: Optional[Scale] = None, *, seed: int = 0
) -> TableData:
    """PROB output under different statistics-module implementations.

    The bounded-memory estimators (Count-Min, Space-Saving) should land
    close to the exact table on skewed data — they only need to *rank*
    keys, and heavy keys are exactly what they capture.
    """
    scale = scale or current_scale()
    window = scale.window
    memory = even_memory(window, 0.5)
    pair = zipf_pair(scale.stream_length, DEFAULT_DOMAIN, 1.0, seed=seed)

    true_tables = estimators_for(pair)

    def fresh_estimators(kind: str) -> dict:
        if kind == "true distribution (paper)":
            return true_tables
        if kind == "online exact counts":
            return {"R": OnlineFrequencyCounter(), "S": OnlineFrequencyCounter()}
        if kind == "EWMA (alpha=0.01)":
            return {"R": EwmaFrequencyEstimator(0.01), "S": EwmaFrequencyEstimator(0.01)}
        if kind == "Count-Min (20x4)":
            return {
                "R": CountMinSketch(20, 4, seed=seed),
                "S": CountMinSketch(20, 4, seed=seed + 1),
            }
        if kind == "Space-Saving (16)":
            return {"R": SpaceSaving(16), "S": SpaceSaving(16)}
        if kind == "Reservoir (128)":
            return {
                "R": ReservoirSample(128, seed=seed),
                "S": ReservoirSample(128, seed=seed + 1),
            }
        raise ValueError(kind)

    kinds = (
        "true distribution (paper)",
        "online exact counts",
        "EWMA (alpha=0.01)",
        "Count-Min (20x4)",
        "Space-Saving (16)",
        "Reservoir (128)",
    )
    rand = _output("RAND", pair, window, memory, seed=seed)
    rows: list[list] = []
    for kind in kinds:
        output = _output(
            "PROB", pair, window, memory, estimators=fresh_estimators(kind)
        )
        rows.append([kind, output, round(output / max(rand, 1), 2)])
    rows.append(["(RAND baseline)", rand, 1.0])

    return TableData(
        table_id="ablation_statistics",
        title=f"PROB vs. statistics module, Zipf(1.0), w={window}, M={memory}",
        columns=["statistics module", "PROB output", "x RAND"],
        rows=rows,
        params={"window": window, "memory": memory},
        expectation=(
            "Every estimator — including the bounded-memory sketches — "
            "keeps PROB far above RAND; the exact table is best but the "
            "gap to sketches is small (ranking heavy keys suffices)."
        ),
    )


def predictor_quality_ablation(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    noise_levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> TableData:
    """PROB as its probability table degrades towards pure noise.

    ``noise = 0`` is the paper's exact table; ``noise = 1`` replaces the
    table with a random permutation of itself — a maximally misleading
    predictor with the same value distribution.
    """
    scale = scale or current_scale()
    window = scale.window
    memory = even_memory(window, 0.5)
    pair = zipf_pair(scale.stream_length, DEFAULT_DOMAIN, 1.0, seed=seed)

    rng = np.random.default_rng(seed + 99)
    true_r = pair.metadata["r_distribution"].probabilities()
    true_s = pair.metadata["s_distribution"].probabilities()
    shuffled_r = rng.permutation(true_r)
    shuffled_s = rng.permutation(true_s)

    rand = _output("RAND", pair, window, memory, seed=seed)
    opt = _output("OPT", pair, window, memory)

    rows: list[list] = []
    for noise in noise_levels:
        blend_r = (1 - noise) * true_r + noise * shuffled_r
        blend_s = (1 - noise) * true_s + noise * shuffled_s
        estimators = {
            "R": StaticFrequencyTable.from_array(blend_r),
            "S": StaticFrequencyTable.from_array(blend_s),
        }
        output = _output("PROB", pair, window, memory, estimators=estimators)
        rows.append([noise, output, round(output / max(opt, 1), 3)])
    rows.append(["RAND", rand, round(rand / max(opt, 1), 3)])

    return TableData(
        table_id="ablation_predictor",
        title=f"PROB vs. predictor corruption, Zipf(1.0), w={window}, M={memory}",
        columns=["table noise", "PROB output", "fraction of OPT"],
        rows=rows,
        params={"window": window, "memory": memory},
        expectation=(
            "Output decays monotonically (modulo noise) as the predictor "
            "degrades, approaching RAND at full corruption — the paper's "
            "'given a bad predictor ... no online algorithm performs "
            "well'."
        ),
    )


def drift_ablation(scale: Optional[Scale] = None, *, seed: int = 0) -> TableData:
    """Static table vs. decayed statistics under distribution drift.

    The streams' hot values change halfway through; a table built on the
    first half misleads PROB for the second half, while EWMA adapts.
    """
    scale = scale or current_scale()
    window = scale.window
    memory = even_memory(window, 0.5)
    pair = drifting_zipf_pair(
        scale.stream_length, DEFAULT_DOMAIN, 1.5, phases=2, seed=seed
    )

    # Static table trained on the first phase only (what a deployed
    # system would have measured before the shift).
    half = len(pair) // 2
    stale = {
        "R": StaticFrequencyTable.from_stream(pair.r[:half]),
        "S": StaticFrequencyTable.from_stream(pair.s[:half]),
    }
    stale_output = _output("PROB", pair, window, memory, estimators=stale)

    adaptive = {"R": EwmaFrequencyEstimator(0.02), "S": EwmaFrequencyEstimator(0.02)}
    adaptive_output = _output("PROB", pair, window, memory, estimators=adaptive)

    rand = _output("RAND", pair, window, memory, seed=seed)

    rows = [
        ["static table (first phase)", stale_output],
        ["EWMA (alpha=0.02)", adaptive_output],
        ["RAND", rand],
    ]
    return TableData(
        table_id="ablation_drift",
        title=f"Distribution drift: static vs. decayed statistics, w={window}",
        columns=["statistics module", "PROB output"],
        rows=rows,
        params={"window": window, "memory": memory, "phases": 2},
        expectation=(
            "The decayed estimator beats the stale static table once the "
            "distribution shifts; both beat RAND."
        ),
    )


#: Every ablation generator keyed by id, for the CLI, ``make figures``
#: and ``tests/test_paper_claims.py``.
ABLATION_GENERATORS = {
    "ablation_statistics": statistics_ablation,
    "ablation_predictor": predictor_quality_ablation,
    "ablation_drift": drift_ablation,
}
