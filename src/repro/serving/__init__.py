"""Online query serving over fitted linkage artifacts.

:class:`LinkageService` loads a fitted linker (in memory or from a
:mod:`repro.persist` artifact) and answers linkage queries — batch pair
scoring, per-account candidate resolution, platform-pair top-k — against a
pre-built per-platform candidate index, without ever refitting.
:func:`holdout_split` stages online-arrival scenarios for it.
"""

from repro.serving.holdout import holdout_split
from repro.serving.registry import CandidateDelta, ServingRegistry
from repro.serving.service import (
    IngestReport,
    LinkageService,
    LruCache,
    ScoredLink,
    ServiceStats,
)

__all__ = [
    "CandidateDelta",
    "IngestReport",
    "holdout_split",
    "LinkageService",
    "LruCache",
    "ScoredLink",
    "ServiceStats",
    "ServingRegistry",
]
