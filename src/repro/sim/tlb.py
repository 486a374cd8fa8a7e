"""TLB hierarchy: L1 dTLB backed by a shared STLB (Table II).

Table II's translation parameters:

* L1 dTLB: 64 entries, 4-way, 1 cycle;
* STLB: 1536 entries, 12-way, 8 cycles;
* misses in both walk the page table (modelled as a fixed-latency walk --
  the radix-walk accesses mostly hit the caches' page-table working set).

Translation happens before the data-cache access, so TLB misses lengthen a
load's effective issue latency.  Like real hardware (and unlike the data
caches under GhostMinion), TLB fills are *not* hidden from speculation:
wrong-path loads may install translations.  GhostMinion's paper scopes TLB
side channels out of its threat model (they are mitigated by orthogonal
techniques); we keep the same scope and model the TLB purely for timing
fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .stats import StatsStruct

#: 4 KB pages.
PAGE_SHIFT = 12


@dataclass(frozen=True)
class TLBLevelParams:
    """One TLB level."""

    name: str
    entries: int
    ways: int
    latency: int

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class TLBParams:
    """The Table II translation hierarchy."""

    dtlb: TLBLevelParams = field(default_factory=lambda: TLBLevelParams(
        name="dTLB", entries=64, ways=4, latency=1))
    stlb: TLBLevelParams = field(default_factory=lambda: TLBLevelParams(
        name="STLB", entries=1536, ways=12, latency=8))
    #: Page-table walk latency on an STLB miss (cycles).  Walks mostly hit
    #: the cache hierarchy's page-table entries, so this sits between an
    #: L2 and an LLC round trip.
    walk_latency: int = 60
    #: dTLB hits are folded into the load pipeline (no extra cycles).
    enabled: bool = True


@dataclass(slots=True)
class TLBStats(StatsStruct):
    """Translation statistics."""

    dtlb_accesses: int = 0
    dtlb_misses: int = 0
    stlb_misses: int = 0


class _TLBLevel:
    """A set-associative translation cache (LRU).

    Recency is the dict's *insertion order*: a hit moves the page to the
    back (pop + reinsert, both O(1)) and eviction takes the front
    (``next(iter(...))``).  This is exactly equivalent to the earlier
    per-entry tick counters -- touches here are strictly ordered and
    ticks were unique, so ascending tick order and insertion order were
    always the same permutation -- but replaces the O(ways) min-scan per
    fill with O(1) operations.  (The data caches can NOT use this trick:
    their ``last_touch`` times are not monotone; see cache.py.)
    """

    __slots__ = ("params", "_sets", "_set_mask", "_ways")

    def __init__(self, params: TLBLevelParams) -> None:
        self.params = params
        self._sets: List[Dict[int, None]] = [
            dict() for _ in range(params.sets)]
        self._set_mask = params.sets - 1
        self._ways = params.ways

    def lookup(self, page: int) -> bool:
        """Touch-and-test; returns hit."""
        set_ = self._sets[page & self._set_mask]
        if page in set_:
            del set_[page]          # move to back: most recently used
            set_[page] = None
            return True
        return False

    def fill(self, page: int) -> None:
        set_ = self._sets[page & self._set_mask]
        if page in set_:
            return
        if len(set_) >= self._ways:
            del set_[next(iter(set_))]   # front of dict: LRU victim
        set_[page] = None


class TLBHierarchy:
    """dTLB -> STLB -> page walk.

    The simulate loop (``System._stepper``) translates each load: it
    counts the dTLB access and, on a page change, probes the dTLB set
    itself (a hit costs nothing: it overlaps the AGU, and moves the page
    to the back of the set) or adds :meth:`_miss`'s latency to the
    load's issue time.
    """

    def __init__(self, params: Optional[TLBParams] = None) -> None:
        self.params = params if params is not None else TLBParams()
        self.stats = TLBStats()
        self._dtlb = _TLBLevel(self.params.dtlb)
        self._stlb = _TLBLevel(self.params.stlb)
        # Hot-path hoists: the stepper's dTLB-hit path reads the set
        # array, and the miss path the latencies, instead of chasing
        # params chains.
        self._enabled = self.params.enabled
        self._dtlb_sets = self._dtlb._sets
        self._dtlb_mask = self._dtlb._set_mask
        self._stlb_latency = self.params.stlb.latency
        self._walk_latency = self.params.walk_latency

    def _miss(self, page: int) -> int:
        """dTLB miss: the STLB latency, plus the walk on an STLB miss."""
        self.stats.dtlb_misses += 1
        if self._stlb.lookup(page):
            self._dtlb.fill(page)
            return self._stlb_latency
        self.stats.stlb_misses += 1
        self._stlb.fill(page)
        self._dtlb.fill(page)
        return self._stlb_latency + self._walk_latency

    def reset_stats(self) -> None:
        self.stats.reset()
