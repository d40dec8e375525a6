"""Statistics module (Figure 1 of the paper).

Frequency estimators feeding the semantic load-shedding policies:

* :class:`StaticFrequencyTable` — the paper's estimator (offline table);
* :class:`OnlineFrequencyCounter` — exact incremental counts;
* :class:`EwmaFrequencyEstimator` — decayed counts for shifting data;
* :class:`CountMinSketch`, :class:`SpaceSaving` — bounded-memory sketches.
"""

from .countmin import CountMinSketch
from .ewma import EwmaFrequencyEstimator
from .frequency import FrequencyEstimator, OnlineFrequencyCounter, StaticFrequencyTable
from .quantiles import GKQuantileSummary
from .reservoir import ReservoirSample
from .spacesaving import SpaceSaving

__all__ = [
    "CountMinSketch",
    "EwmaFrequencyEstimator",
    "FrequencyEstimator",
    "GKQuantileSummary",
    "OnlineFrequencyCounter",
    "ReservoirSample",
    "SpaceSaving",
    "StaticFrequencyTable",
]
