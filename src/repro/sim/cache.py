"""Set-associative cache level with MSHRs, port contention, and a PQ.

This is the workhorse substrate of the reproduction.  Each
:class:`CacheLevel` models:

* a set-associative array with LRU replacement, whose set is the
  block's low bits or, on a keyed level (the ``rand-llc`` LLC), a
  keyed hash of the block;
* a finite pool of MSHRs -- misses wait for a free MSHR, and the wait time is
  the mechanism behind the MSHR-pressure results of Section III-A;
* finite tag/port bandwidth (``ports`` accesses per cycle);
* a prefetch queue (PQ) bounding in-flight prefetches;
* in-flight fills: a block inserted with a future ``fill_time`` services
  later requests only once the data has actually arrived (requests arriving
  earlier merge, which is how classic *late prefetches* are detected).

The model is functional rather than event-driven: the hierarchy walk
(:func:`repro.sim.flatwalk.make_flat_descent`) is called with the cycle at
which a request arrives and returns the cycle at which data is available.
The simulator guarantees requests are generated in (near) non-decreasing
time order, so next-free bookkeeping for ports, MSHRs, and the PQ models
contention faithfully.  This module holds each level's state and the
operations one level performs alone: merges, fills, evictions,
writebacks and commit writes.  A level does not issue prefetches: the
hierarchy's one issuer (:func:`repro.sim.hierarchy.make_prefetch_issuer`)
reads its tags, in-flight entries, PQ and MSHRs to decide each drop.

Where the secure pipeline touches this module: a speculative load under
GhostMinion walks the hierarchy with ``update=False, fill=False`` (the
*invisible* walk -- observe latency, change nothing), and its commit later
arrives as ``commit_write`` / a ``REQ_COMMIT`` walk, the redundant
traffic Section III-A measures and the SUF (Section IV) filters.  The
``LEVEL_*`` constants below are the SUF's 2-bit hit-level encoding; the
latency each level returns also feeds TSB's X-LQ (Section V) so
commit-time training sees access-time timing.

Hot-path conventions (docs/PERFORMANCE.md): the walk passes arguments
positionally (keyword passing costs ~3x in CPython), request types are
compared with ``is`` against the interned ``REQ_*`` constants, and
:class:`Line` is slotted.  None of this changes behaviour -- the
golden-stats tests pin bit-identical counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .params import CacheParams
from .stats import CacheStats, REQ_COMMIT, REQ_LOAD, REQ_WRITEBACK

#: Hierarchy levels used for SUF hit-level encoding (Section IV).
LEVEL_L1D = 0
LEVEL_L2 = 1
LEVEL_LLC = 2
LEVEL_DRAM = 3

LEVEL_NAMES = ("L1D", "L2", "LLC", "DRAM")

#: Key of the keyed set index (``CacheParams.keyed_index``).  A real
#: deployment re-keys periodically; one fixed key keeps every attack and
#: golden run deterministic.
INDEX_KEY = 0x5DEECE66D

_MASK64 = (1 << 64) - 1


class Line:
    """One cache line's metadata."""

    __slots__ = ("last_touch", "fill_time", "prefetched", "was_demand_hit",
                 "dirty", "gm_propagate", "wbb", "latency", "rrpv")

    def __init__(self, last_touch: int, fill_time: int,
                 prefetched: bool = False, dirty: bool = False,
                 gm_propagate: bool = False, wbb: bool = False,
                 latency: int = 0) -> None:
        self.last_touch = last_touch
        self.fill_time = fill_time
        self.prefetched = prefetched
        #: Set once a demand access hits this line (prefetch usefulness).
        self.was_demand_hit = False
        self.dirty = dirty
        #: Fetch latency of the fill that installed this line (Berti keeps
        #: this alongside prefetched L1D lines; Section V-C).
        self.latency = latency
        #: SRRIP re-reference prediction value (unused under LRU).
        self.rrpv = 2
        #: GhostMinion: this line carries committed data that must be written
        #: back (even when clean) to the next level upon eviction, so that
        #: the non-speculative hierarchy eventually receives the data
        #: (Fig. 2, flow 2a).  SUF clears this bit when the next level
        #: already holds the line (Section IV).
        self.gm_propagate = gm_propagate
        #: The ``gm_propagate`` value for the line installed at the *next*
        #: level by our writeback (the "L2 writeback bit" stored alongside
        #: L1D lines in Fig. 7).
        self.wbb = wbb


# An outstanding miss, for merging concurrent requests.  A plain tuple
# ``(fill_time, is_prefetch, issue_time)``: the entries are created once
# per true miss on the hottest path in the simulator, and a tuple pack
# beats a slotted-class constructor call there.
_MSHREntry = Tuple[int, bool, int]


class _PortBucket:
    """Per-cycle port bandwidth accounting.

    Unlike a next-free-slot pool, a bucket lets events be charged at their
    *own* cycle even when the simulator processes them out of time order
    (e.g. a writeback charged at a future fill time must not block a demand
    arriving at an earlier cycle).
    """

    __slots__ = ("ports", "counts", "_acquires")

    def __init__(self, ports: int) -> None:
        self.ports = ports
        self.counts: Dict[int, int] = {}
        self._acquires = 0

    def acquire(self, time: int) -> int:
        """Charge one access at or after ``time``; return its start cycle."""
        counts = self.counts
        count = counts.get(time, 0)
        if count >= self.ports:
            # Slow path: walk forward to the first cycle with a free port.
            ports = self.ports
            get = counts.get
            time += 1
            count = get(time, 0)
            while count >= ports:
                time += 1
                count = get(time, 0)
        counts[time] = count + 1
        self._acquires += 1
        if self._acquires >= 8192 and len(counts) > 65536:
            self._acquires = 0
            horizon = time - 100000
            for key in [k for k in counts if k < horizon]:
                del counts[key]
        return time


class _KeyedSets(list):
    """A keyed level's set array, subscripted by the block itself.

    ``sets[block]`` is the set that a splitmix64 finalizer over ``block
    ^ INDEX_KEY`` selects, as in the Random-and-Safe and CEASER caches:
    an attacker who does not know the key cannot build an eviction set
    for a chosen set.  The level keeps ``_set_mask = -1``, so every
    ``sets[block & mask]`` site indexes through the hash unchanged,
    while tags, in-flight entries, fills, writebacks and DRAM keep the
    physical block.
    """

    __slots__ = ("_mask",)

    def __init__(self, count: int) -> None:
        super().__init__({} for _ in range(count))
        self._mask = count - 1

    def __getitem__(self, block: int) -> Dict[int, Line]:
        z = (block ^ INDEX_KEY) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return list.__getitem__(self, (z ^ (z >> 31)) & self._mask)


class CacheLevel:
    """One level of the cache hierarchy."""

    def __init__(self, params: CacheParams, level: int,
                 next_level: "MemoryBackend") -> None:
        self.params = params
        self.level = level
        self.name = LEVEL_NAMES[level]
        self.next = next_level
        self.stats = CacheStats()
        #: Optional :class:`repro.obs.events.EventTrace`; ``None`` keeps
        #: every emission site down to a single attribute check.
        self.events = None

        if params.replacement not in ("lru", "srrip", "random"):
            raise ValueError(
                f"unknown replacement policy {params.replacement!r}")
        self._policy = params.replacement
        self._victim_seed = 0x9E3779B9
        if params.keyed_index:
            self._set_mask = -1
            self.sets: List[Dict[int, Line]] = _KeyedSets(params.sets)
        else:
            self._set_mask = params.sets - 1
            self.sets = [{} for _ in range(params.sets)]
        self._ports = _PortBucket(params.ports)
        # The MSHRs and the prefetch queue: each a pool of interchangeable
        # slots, kept as the *sorted* list of their next-free times.  A
        # miss or an issued prefetch takes the head (the earliest free
        # slot, so "is one free at t?" is ``times[0] <= t``) and
        # ``insort``s its release time; the slots busy at ``t`` are
        # ``len(times) - bisect_right(times, t)``.  The walks and the
        # prefetch issuer mutate these lists in place, never rebind them.
        self._mshr_times: List[int] = [0] * params.mshrs
        self._pq_times: List[int] = [0] * params.pq_entries
        self._outstanding: Dict[int, _MSHREntry] = {}
        # Hot-path hoists, read once by every walk built over this level
        # (flatwalk): immutable params read on every access, and the
        # bound port-acquire method (skips one attribute lookup + frame
        # per charge).  The walk is the hottest code in the whole
        # simulator; see docs/PERFORMANCE.md.
        self._latency = params.latency
        self._ways = params.ways
        self._port_acquire = self._ports.acquire
        # Port fast-path hoists: with a free port at the request cycle
        # the charge is one dict store and the start cycle is the
        # request cycle itself; only saturated cycles take the
        # walk-forward method call.
        self._port_counts = self._ports.counts
        self._port_n = params.ports
        # Identity-stable aliases of the per-request-type counter dicts:
        # ``stats`` is never rebound and ``StatsStruct.reset`` zeroes the
        # dicts in place, so one attribute hop per bump is saved on the
        # three hottest counters.
        self._accesses = self.stats.accesses
        self._hits = self.stats.hits
        self._misses = self.stats.misses

    # ------------------------------------------------------------------
    # basic array operations
    # ------------------------------------------------------------------

    def _set_of(self, block: int) -> Dict[int, Line]:
        return self.sets[block & self._set_mask]

    def lookup(self, block: int) -> Optional[Line]:
        """Return the line for ``block`` without touching any state."""
        return self._set_of(block).get(block)

    def contains(self, block: int, time: Optional[int] = None) -> bool:
        """True when ``block`` is present (and filled, if ``time`` given)."""
        line = self.lookup(block)
        if line is None:
            return False
        if time is not None and line.fill_time > time:
            return False
        return True

    def state_signature(self) -> Tuple:
        """A hashable snapshot of tags + replacement state + dirty bits.

        Used by security tests to assert that speculative execution leaves
        non-speculative cache state untouched (invisible speculation).
        """
        return tuple(
            tuple(sorted((blk, ln.last_touch, ln.dirty)
                         for blk, ln in set_.items()))
            for set_ in self.sets)

    # ------------------------------------------------------------------
    # probes and merges (the walk itself is flatwalk.make_flat_descent)
    # ------------------------------------------------------------------

    def probe(self, block: int, time: int, rtype: str) -> bool:
        """Tag probe without a descent, fills, or replacement update.

        Models the L1D lookup performed in parallel with a GM access: it
        consumes a port and is counted as an access, but a probe miss does
        not start a fetch and is *not* counted as a demand miss (the GM
        provided the data).
        """
        self._accesses[rtype] += 1
        self._port_acquire(time)
        line = self.sets[block & self._set_mask].get(block)
        hit = line is not None and line.fill_time <= time
        if hit:
            self._hits[rtype] += 1
        return hit

    def _merge(self, block: int, fill_time: int, was_prefetch: bool,
               start: int, rtype: str, demand: bool, count_useful: bool,
               line: Optional[Line]) -> Tuple[int, int]:
        """A request merges with an in-flight fill for the same block."""
        stats = self.stats
        self._misses[rtype] += 1
        stats.mshr_merges += 1
        if demand and was_prefetch:
            stats.demand_merged_into_prefetch += 1
            if count_useful:
                counted = False
                if line is not None and not line.was_demand_hit:
                    line.was_demand_hit = True
                    stats.prefetches_useful += 1
                    counted = True
                elif line is None:
                    stats.prefetches_useful += 1
                    counted = True
                if counted and self.events is not None:
                    self.events.emit("pf_use", start, block, self.name)
        completion = max(fill_time, start + self._latency)
        if rtype is REQ_LOAD:
            stats.load_miss_latency_sum += completion - start
            stats.load_miss_latency_count += 1
        return completion, self.level

    # ------------------------------------------------------------------
    # fills, insertions, writebacks
    # ------------------------------------------------------------------

    def insert(self, block: int, time: int, prefetched: bool = False,
               dirty: bool = False, gm_propagate: bool = False,
               wbb: bool = False, latency: int = 0) -> None:
        """Install ``block`` at this level, evicting the LRU victim."""
        set_ = self.sets[block & self._set_mask]
        existing = set_.get(block)
        if existing is not None:
            existing.last_touch = time
            existing.dirty = existing.dirty or dirty
            existing.gm_propagate = existing.gm_propagate or gm_propagate
            existing.wbb = existing.wbb or wbb
            return
        if len(set_) >= self._ways:
            # Recycle the evicted Line object in place of a fresh
            # allocation: nine slot stores instead of a constructor call
            # per conflict fill, on the hottest insert path.
            line = self._evict(set_, time)
            line.last_touch = time
            line.fill_time = time
            line.prefetched = prefetched
            line.was_demand_hit = False
            line.dirty = dirty
            line.latency = latency
            line.rrpv = 2
            line.gm_propagate = gm_propagate
            line.wbb = wbb
            set_[block] = line
        else:
            set_[block] = Line(time, time, prefetched, dirty, gm_propagate,
                               wbb, latency)
        if prefetched:
            self.stats.prefetch_fills += 1
        if self.events is not None:
            self.events.emit("pf_fill" if prefetched else "fill", time,
                             block, self.name)

    def _select_victim(self, set_: Dict[int, Line]) -> int:
        if self._policy == "lru":
            # Explicit scan instead of min(key=lambda ...): no closure
            # allocation per eviction.  Strict < keeps min()'s tie-break
            # (first key in insertion order); last_touch is NOT monotone
            # here -- a demand hit can move it backwards relative to a
            # fill-time initialisation -- so an O(1) recency list would
            # pick different victims.  The TLB, whose ticks are strictly
            # monotone, gets the O(1) treatment instead (see tlb.py).
            items = iter(set_.items())
            victim, line = next(items)
            victim_touch = line.last_touch
            for block, line in items:
                touch = line.last_touch
                if touch < victim_touch:
                    victim_touch = touch
                    victim = block
            return victim
        if self._policy == "srrip":
            # Find a distant-re-reference line, aging the set as needed.
            while True:
                for block, line in set_.items():
                    if line.rrpv >= 3:
                        return block
                for line in set_.values():
                    line.rrpv += 1
        # Deterministic pseudo-random (xorshift) pick.
        seed = self._victim_seed
        seed ^= (seed << 13) & 0xFFFFFFFF
        seed ^= seed >> 17
        seed ^= (seed << 5) & 0xFFFFFFFF
        self._victim_seed = seed
        keys = list(set_)
        return keys[seed % len(keys)]

    def _evict(self, set_: Dict[int, Line], time: int) -> Line:
        victim_block = self._select_victim(set_)
        victim = set_.pop(victim_block)
        self.stats.evictions += 1
        if self.events is not None:
            self.events.emit("evict", time, victim_block, self.name)
        if victim.prefetched and not victim.was_demand_hit:
            self.stats.prefetches_useless += 1
        if victim.dirty or victim.gm_propagate:
            self.stats.writebacks_out += 1
            self.next.receive_writeback(victim_block, time, victim.dirty,
                                        victim.wbb)
        return victim

    def receive_writeback(self, block: int, time: int, dirty: bool = False,
                          gm_propagate: bool = False,
                          wbb: bool = False) -> None:
        """Accept an eviction from the level above (no read recursion)."""
        self._accesses[REQ_WRITEBACK] += 1
        self._port_acquire(time)
        line = self.sets[block & self._set_mask].get(block)
        if line is not None:
            self._hits[REQ_WRITEBACK] += 1
            line.dirty = line.dirty or dirty
            line.last_touch = time
            line.gm_propagate = line.gm_propagate or gm_propagate
            line.wbb = line.wbb or wbb
            return
        self._misses[REQ_WRITEBACK] += 1
        self.insert(block, time, False, dirty, gm_propagate, wbb)

    def commit_write(self, block: int, time: int, gm_propagate: bool = True,
                     wbb: bool = True) -> None:
        """Accept a GhostMinion on-commit write (GM -> this level).

        Counted as a *commit request* in the traffic breakdown (Fig. 3).
        """
        self._accesses[REQ_COMMIT] += 1
        self._port_acquire(time)
        line = self.sets[block & self._set_mask].get(block)
        if line is not None:
            self._hits[REQ_COMMIT] += 1
            line.last_touch = time
            line.gm_propagate = line.gm_propagate or gm_propagate
            line.wbb = line.wbb or wbb
            return
        self.insert(block, time, False, False, gm_propagate, wbb)

    def reset_stats(self) -> None:
        self.stats.reset()


class MemoryBackend:
    """The last level's writeback sink in front of the DRAM channel.

    The LLC's ``next``: a dirty line evicted from it is written to
    :class:`~repro.sim.dram.DRAMChannel`.  Reads reach DRAM through the
    hierarchy walks, which take the channel directly.
    """

    def __init__(self, dram) -> None:
        self.dram = dram

    def receive_writeback(self, block: int, time: int, dirty: bool = False,
                          gm_propagate: bool = False,
                          wbb: bool = False) -> None:
        del gm_propagate, wbb
        if dirty:
            self.dram.access(block, time, False)
