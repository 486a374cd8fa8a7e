"""The paper's contributions: SUF, TSB, TS variants, miss taxonomy."""

from .classification import (CAT_COMMIT_LATE, CAT_LATE,
                             CAT_MISSED_OPPORTUNITY, CAT_UNCOVERED,
                             CATEGORIES, MissClassifier)
from .suf import (HIT_DRAM, HIT_L1D, HIT_L2, HIT_LLC, HitLevelQueue,
                  SUFDecision, suf_decide)
from .timely import (BINGO_LATENESS_THRESHOLD, LATENESS_THRESHOLD,
                     LatenessMonitor, PhaseChangeDetector, TimelyPrefetcher,
                     make_timely)
from .tsb import TSBPrefetcher
from .xlq import XLQ

__all__ = [
    "CAT_COMMIT_LATE", "CAT_LATE", "CAT_MISSED_OPPORTUNITY",
    "CAT_UNCOVERED", "CATEGORIES", "MissClassifier",
    "HIT_DRAM", "HIT_L1D", "HIT_L2", "HIT_LLC",
    "HitLevelQueue", "SUFDecision", "suf_decide",
    "BINGO_LATENESS_THRESHOLD", "LATENESS_THRESHOLD", "LatenessMonitor",
    "PhaseChangeDetector", "TimelyPrefetcher", "make_timely",
    "TSBPrefetcher", "XLQ",
]
