"""The paper's algorithm names and the statistics module they read.

Names the algorithms of the evaluation (EXACT, RAND, PROB, LIFE, their
variable-allocation ``...V`` versions, OPT/OPTV, and the FIFO and ARM
extensions) and builds the statistics module exactly as the paper does:
the true generating distribution for synthetic data, the offline
frequency table for recorded/real data.  Runs go through
:func:`repro.api.run` / :func:`repro.api.compare`.
"""

from __future__ import annotations

from ..stats.frequency import (
    FrequencyEstimator,
    OnlineFrequencyCounter,
    StaticFrequencyTable,
)
from ..streams.tuples import StreamPair

_POLICY_ALGORITHMS = ("RAND", "PROB", "LIFE", "ARM", "FIFO")
ALL_ALGORITHMS = (
    ("EXACT", "OPT", "OPTV")
    + _POLICY_ALGORITHMS
    + tuple(f"{name}V" for name in _POLICY_ALGORITHMS)
)


def estimators_for(pair: StreamPair) -> dict[str, FrequencyEstimator]:
    """The statistics module for a stream pair, as the paper built it.

    Synthetic pairs carry their true generating distributions in
    ``metadata`` (``r_distribution``/``s_distribution`` objects or
    ``r_probabilities``/``s_probabilities`` arrays); otherwise an offline
    frequency scan of the streams is used — the paper's procedure for the
    real-life dataset ("the frequency table of the data values in the
    dataset was used", not updated during the run).

    An *empty* side (legal: a run over zero ticks) has no frequencies to
    tabulate; it gets a zero-knowledge counter whose probabilities are
    all 0.0, so policies over empty streams construct and run cleanly
    instead of tripping ``StaticFrequencyTable``'s empty-input guard.
    """
    metadata = pair.metadata
    if "r_distribution" in metadata and "s_distribution" in metadata:
        return {
            "R": StaticFrequencyTable.from_array(
                metadata["r_distribution"].probabilities()
            ),
            "S": StaticFrequencyTable.from_array(
                metadata["s_distribution"].probabilities()
            ),
        }
    if "r_probabilities" in metadata and "s_probabilities" in metadata:
        return {
            "R": StaticFrequencyTable.from_array(metadata["r_probabilities"]),
            "S": StaticFrequencyTable.from_array(metadata["s_probabilities"]),
        }
    return {
        "R": StaticFrequencyTable.from_stream(pair.r)
        if len(pair.r) else OnlineFrequencyCounter(),
        "S": StaticFrequencyTable.from_stream(pair.s)
        if len(pair.s) else OnlineFrequencyCounter(),
    }

