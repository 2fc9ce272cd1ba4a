"""Evaluation metrics (paper §VI, Fig. 4).

Everything is computed from the simulator's structured trace — the
equivalent of the on-phone logs the real deployment post-processed —
never from protocol internals:

* :mod:`repro.metrics.cdf` — empirical CDFs (the Fig. 4c/4d curves),
* :mod:`repro.metrics.delay` — message delay analysis, "1-hop" vs "All",
* :mod:`repro.metrics.delivery` — per-subscription delivery ratios,
* :mod:`repro.metrics.spatial` — the Fig. 4b map overlay (creation vs
  dissemination locations),
* :mod:`repro.metrics.collector` — the trace-to-record extraction,
* :mod:`repro.metrics.report` — plain-text tables mirroring the paper's
  reported numbers.
"""

from repro.metrics.cdf import EmpiricalCdf
from repro.metrics.collector import DeliveryRecord, MessageRecord, TraceCollector
from repro.metrics.delay import DelayAnalysis
from repro.metrics.delivery import DeliveryAnalysis, SubscriptionRatio
from repro.metrics.spatial import MapOverlay, SpatialEvent

__all__ = [
    "EmpiricalCdf",
    "TraceCollector",
    "MessageRecord",
    "DeliveryRecord",
    "DelayAnalysis",
    "DeliveryAnalysis",
    "SubscriptionRatio",
    "MapOverlay",
    "SpatialEvent",
]
