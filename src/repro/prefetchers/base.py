"""Common prefetcher interface.

Prefetchers observe a stream of *training events* and return prefetch
requests.  The simulator decides **when** a prefetcher is trained:

* ``on-access`` -- at the load's (speculative) access time, including
  wrong-path loads: the conventional, insecure arrangement;
* ``on-commit`` -- at the load's commit time, only for committed loads: the
  secure arrangement GhostMinion advocates;
* ``TSB-style`` -- at commit time, but with the access timestamp and true
  fetch latency preserved in the X-LQ (Section V-C).

The :class:`TrainingEvent` carries all three views so a prefetcher uses
whichever its design calls for; the *mode* determines which events exist and
what ``cycle`` holds.
"""

from __future__ import annotations

import abc
from typing import List, NamedTuple

#: Fill-level constants (match repro.sim.cache levels).
FILL_L1D = 0
FILL_L2 = 1
FILL_LLC = 2

#: Training-time modes.
MODE_ON_ACCESS = "on-access"
MODE_ON_COMMIT = "on-commit"


class PrefetchRequest(NamedTuple):
    """One prefetch the prefetcher wants issued."""

    block: int
    fill_level: int = FILL_L1D


class TrainingEvent(NamedTuple):
    """One observed demand access, seen at training time."""

    ip: int
    block: int
    hit: bool
    #: The cycle at which training happens (access time in on-access mode,
    #: commit time in on-commit mode).
    cycle: int
    #: The cycle the access actually occurred (== ``cycle`` on-access; the
    #: X-LQ-preserved access timestamp for TSB).
    access_cycle: int
    #: Fetch latency observed by the load.  In on-commit mode without the
    #: X-LQ this is the misleading GM->L1D on-commit write latency; with
    #: the X-LQ it is the true fetch-to-GM latency (Section V-B/V-C).
    fetch_latency: int
    #: Level that served the data (0=L1D/GM .. 3=DRAM).
    hit_level: int
    #: The access hit a previously prefetched line (Berti/TSB's Hitp).
    prefetch_hit: bool = False


class Prefetcher(abc.ABC):
    """Base class for all data prefetchers."""

    #: Human-readable name used by the registry and reports.
    name: str = "base"
    #: Cache level whose demand stream trains this prefetcher
    #: (0 = L1D prefetcher, 1 = L2 prefetcher).
    train_level: int = 0

    @abc.abstractmethod
    def train(self, event: TrainingEvent) -> List[PrefetchRequest]:
        """Observe one demand access; return prefetches to issue now.

        The returned list may be shared between calls (Berti returns the
        list it built last time while nothing it depends on changed), so
        callers must not mutate it.  The audited consumers only read it:
        the system's prefetch issuer and commit drain, the shadow
        prefetcher of :class:`~repro.core.classification.MissClassifier`,
        the ``ts-`` wrapper (which builds a new list when it adds
        requests) and the PREFENDER shim (which copies before adding).
        """

    def on_fill(self, block: int, cycle: int, latency: int,
                prefetched: bool) -> None:
        """Notification that ``block`` filled the training-level cache.

        Self-timing prefetchers (Berti) use the latency; others ignore it.
        """

    def on_phase_change(self) -> None:
        """Application phase change detected (TS variants reset distance)."""

    def flush(self) -> None:
        """Drop all learned state (domain switch)."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Hardware storage budget of this prefetcher, in bits."""

    def storage_kb(self) -> float:
        return self.storage_bits() / 8 / 1024
