"""TSB -- Timely Secure Berti (Section V-C).

TSB is Berti trained **at commit** but with the timing facts an on-commit
prefetcher otherwise loses, preserved in the X-LQ:

* the learning window is computed against the load's true **access time**
  and **GM fetch latency** (``access_cycle - fetch_latency``), not against
  the commit time and the 1-cycle on-commit write latency;
* the history records commit-ordered entries, so delta search runs over
  committed instructions only -- TSB never trains on transient state.

In this reproduction the mechanism splits naturally: the Berti learning rule
(:class:`~repro.prefetchers.berti.BertiPrefetcher`) already computes its
timeliness window from the ``access_cycle`` and ``fetch_latency`` fields of
each :class:`~repro.prefetchers.base.TrainingEvent`; the simulator's commit
stage builds those events from each load's X-LQ fields when TSB is selected
(see ``repro.sim.system``).  :class:`TSBPrefetcher` pins down the
configuration and accounts for the extra 0.47 KB of X-LQ storage (3.01 KB
total over a prefetcher-less system).

Security (Section V-C): TSB trains and triggers only at commit; an X-LQ
entry is readable only by its own load at its own commit, and the simulator
carries it in that load's commit payload, so none outlives the commit into
another domain.  Under GhostMinion's strictness ordering a transient
instruction cannot perturb the fill latency of a bound-to-commit
instruction, so the stored latency carries no transient information.
"""

from __future__ import annotations

from ..prefetchers.berti import BertiPrefetcher
from .xlq import XLQ


class TSBPrefetcher(BertiPrefetcher):
    """Timely Secure Berti: Berti + X-LQ-preserved access-time training."""

    name = "tsb"
    #: TSB requires the simulator to source training events from the X-LQ.
    requires_xlq = True

    def __init__(self, lq_entries: int = 128) -> None:
        super().__init__()
        #: The X-LQ lives with the core's load queue; TSB accounts for
        #: its storage.
        self.lq_entries = lq_entries

    def storage_bits(self) -> int:
        return super().storage_bits() + XLQ(self.lq_entries).storage_bits()
