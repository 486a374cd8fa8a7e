"""The GhostMinion speculative cache (GM).

A small (2 KB) cache accessed in parallel with the L1D that holds the data of
speculative loads until they commit (Section II-C).  Fills from the memory
hierarchy bypass L1D/L2/LLC and land only here; on commit the data moves to
the L1D (on-commit write) or, if the GM line has been evicted in the interim,
the hierarchy is re-fetched.

TimeGuarding / strictness ordering is modelled with per-line instruction
timestamps: an insertion prefers invalid ways, then evicts the *youngest*
line (largest timestamp).  An older instruction therefore never has its
observable GM contents destroyed by a younger (possibly transient)
instruction, which is the property GhostMinion's TimeGuarding enforces.  If
every resident line is strictly older than the inserting instruction, the
insertion is dropped: a younger instruction may not evict state an older
instruction can still observe.

Role in the on-access/on-commit pipeline: the GM is what makes
speculation invisible at access time -- wrong-path loads fill only here
and are squashed in place, so neither the caches nor an on-access
prefetcher ever see them.  The price is paid at commit time, when every
committed load's data must move GM->L1D (or be re-fetched if evicted),
doubling L1D traffic (Section III-A).  That commit stream is exactly
where the paper's mechanisms attach: the SUF (Section IV) consults the
2-bit hit level recorded at access time to drop/truncate redundant
commit updates (``stats.commit_drops_suf`` / ``suf_accuracy``), and TSB
(Section V) trains at commit with X-LQ-preserved access-time timing --
both orchestrated by :mod:`repro.sim.hierarchy`, whose speculative load
and commit action call :meth:`GhostMinionCache.fill` and
:meth:`apply_until` here and inline :meth:`lookup` and :meth:`take`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .params import GhostMinionParams
from .stats import GhostMinionStats


class GMLine:
    """One GM line."""

    __slots__ = ("timestamp", "fill_time", "fetch_latency", "transient")

    def __init__(self, timestamp: int, fill_time: int, fetch_latency: int,
                 transient: bool = False) -> None:
        #: Program-order sequence number of the inserting instruction.
        self.timestamp = timestamp
        #: Cycle at which the data arrives in the GM.
        self.fill_time = fill_time
        #: Cycles the fetch took to reach the GM (used by TSB training).
        self.fetch_latency = fetch_latency
        #: Inserted by a wrong-path load.  Once its branch resolves the line
        #: is dead (it will never be committed), so TimeGuarding lets anyone
        #: reclaim it -- without this, squashed lines would accumulate as
        #: unevictable "oldest" residents and wedge the GM.
        self.transient = transient


class GhostMinionCache:
    """The GM: a tiny timestamp-ordered speculative cache."""

    def __init__(self, params: GhostMinionParams,
                 stats: Optional[GhostMinionStats] = None) -> None:
        self.params = params
        self.stats = stats if stats is not None else GhostMinionStats()
        self._set_mask = params.sets - 1
        self._ways = params.ways
        self.sets: List[Dict[int, GMLine]] = [
            dict() for _ in range(params.sets)]
        #: Fills whose data has not physically arrived yet.  Installing a
        #: line (and evicting a victim) only when its fill time passes keeps
        #: GM occupancy at its physical level -- roughly the MSHR-bounded
        #: number of outstanding misses -- instead of the much larger number
        #: of *queued* loads the one-pass simulator knows about early.
        self._pending: Dict[int, GMLine] = {}
        self._pending_heap: List[Tuple[int, int]] = []
        #: Insertions dropped to preserve strictness ordering.
        self.ordering_drops = 0
        #: Optional :class:`repro.obs.events.EventTrace` (``None`` = off).
        self.events = None

    @property
    def latency(self) -> int:
        return self.params.latency

    def _set_of(self, block: int) -> Dict[int, GMLine]:
        return self.sets[block & self._set_mask]

    def lookup(self, block: int, time: Optional[int] = None
               ) -> Optional[GMLine]:
        """Return the GM line for ``block`` if present or in flight (and
        filled by ``time``, when given)."""
        line = self.sets[block & self._set_mask].get(block)
        if line is None:
            line = self._pending.get(block)
            if line is None:
                return None
        if time is not None and line.fill_time > time:
            return None
        return line

    def fill(self, block: int, time: int, timestamp: int,
             fetch_latency: int, transient: bool = False) -> None:
        """Register a speculative fill arriving at cycle ``time``.

        The line becomes eligible for installation (and may evict a victim)
        once :meth:`apply_until` passes its fill time.
        """
        existing = self._set_of(block).get(block)
        if existing is None:
            existing = self._pending.get(block)
        if existing is not None:
            # Keep the oldest observer's view; refresh the fill time only if
            # the line was still in flight.
            existing.fill_time = min(existing.fill_time, time)
            existing.timestamp = min(existing.timestamp, timestamp)
            existing.transient = existing.transient and transient
            return
        self._pending[block] = GMLine(timestamp, time, fetch_latency,
                                      transient)
        heapq.heappush(self._pending_heap, (time, block))
        self.stats.gm_fills += 1
        if self.events is not None:
            self.events.emit("gm_fill", time, block, "GM")

    def apply_until(self, now: int) -> None:
        """Install all pending fills whose data has arrived by ``now``."""
        heap = self._pending_heap
        while heap and heap[0][0] <= now:
            _, block = heapq.heappop(heap)
            line = self._pending.pop(block, None)
            if line is not None:
                self._install(block, line)

    def _install(self, block: int, line: GMLine) -> None:
        set_ = self._set_of(block)
        if block in set_:
            return
        if len(set_) >= self._ways:
            # Explicit scans (no genexp/lambda allocation per install),
            # preserving insertion-order tie-breaks of the next()/max()
            # forms they replaced.
            # Reclaim a squashed line first: nothing can observe it anymore.
            timestamp = line.timestamp
            victim_block = None
            for b, ln in set_.items():
                if ln.transient and ln.timestamp < timestamp:
                    victim_block = b
                    break
            if victim_block is None:
                victim_ts = None
                for b, ln in set_.items():
                    ts = ln.timestamp
                    if victim_ts is None or ts > victim_ts:
                        victim_ts = ts
                        victim_block = b
                if victim_ts < timestamp:
                    # Everyone resident is older: a younger instruction must
                    # not evict state an older one may still observe
                    # (TimeGuarding).
                    self.ordering_drops += 1
                    if self.events is not None:
                        self.events.emit("gm_drop", line.fill_time, block,
                                         "GM")
                    return
            del set_[victim_block]
        set_[block] = line

    def take(self, block: int) -> Optional[GMLine]:
        """Remove and return the line (commit moves the data to L1D)."""
        line = self.sets[block & self._set_mask].pop(block, None)
        if line is None:
            line = self._pending.pop(block, None)
        return line

    def invalidate(self, block: int) -> None:
        self._set_of(block).pop(block, None)
        self._pending.pop(block, None)

    def flush(self) -> None:
        """Drop all speculative state (e.g., on a domain switch)."""
        for set_ in self.sets:
            set_.clear()
        self._pending.clear()
        self._pending_heap.clear()

    def occupancy(self) -> int:
        return sum(len(set_) for set_ in self.sets)

    def state_signature(self) -> tuple:
        return tuple(
            tuple(sorted((blk, ln.timestamp) for blk, ln in set_.items()))
            for set_ in self.sets)
