"""Memory-hierarchy assembly: L1D/L2/LLC/DRAM plus the GhostMinion paths.

Two operating modes:

* **non-secure** -- a conventional hierarchy: demand loads fill every level
  on the return path, wrong-path (transient) loads pollute caches freely.
* **secure (GhostMinion)** -- speculative loads probe the GM and L1D in
  parallel; on a GM miss the hierarchy is walked *without* updating any
  state, and the response fills only the GM.  On commit, the data moves
  GM -> L1D (an *on-commit write*) or is *re-fetched* into the hierarchy if
  the GM line was evicted, exactly the flows of Fig. 2.  The Secure Update
  Filter (Section IV) optionally drops or truncates these commit-time
  updates based on the 2-bit hit level recorded at access time.

The CPU model calls :meth:`MemoryHierarchy.demand_load` at a load's access
time and, in secure mode, :meth:`MemoryHierarchy.commit_load` at its commit
time with the hit level the load recorded in its load-queue entry.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .cache import (CacheLevel, LEVEL_L1D, LEVEL_L2, LEVEL_LLC,
                    MemoryBackend, ScrambledBackend)
from .flatwalk import make_flat_descent, make_refetch_batch
from .dram import DRAMChannel
from .ghostminion import GhostMinionCache
from .params import SystemParams
from .stats import GhostMinionStats, REQ_COMMIT, REQ_LOAD


class LoadResult(NamedTuple):
    """Outcome of one demand load."""

    completion: int
    #: Level that provided the data (SUF hit level; GM hits report L1D/0).
    hit_level: int
    #: Whether the GM (not L1D) provided the data (secure mode only).
    gm_hit: bool
    #: Cycles from access to data availability (the *fetch latency* Berti
    #: and TSB train on).
    fetch_latency: int


class MemoryHierarchy:
    """L1D + L2 + LLC + DRAM, optionally fronted by a GhostMinion GM."""

    def __init__(self, params: SystemParams, *, secure: bool = False,
                 commit_filter=None, shared_llc: CacheLevel = None,
                 shared_dram: DRAMChannel = None,
                 llc_scramble: int = 0) -> None:
        if commit_filter is not None and not secure:
            raise ValueError("SUF only applies to a secure cache system")
        self.params = params
        self.secure = secure
        #: Optional SUF decision function ``hit_level -> decision`` with
        #: ``drop``/``gm_propagate``/``wbb`` fields (``repro.core.suf``).
        #: Injected by the system so the substrate stays contribution-free.
        self.commit_filter = commit_filter

        self.dram = shared_dram if shared_dram is not None \
            else DRAMChannel(params.dram)
        backend = MemoryBackend(self.dram)
        self.llc = shared_llc if shared_llc is not None \
            else CacheLevel(params.llc, LEVEL_LLC, backend)
        #: What the L2 sees below it: the LLC itself, or -- under the
        #: ``rand-llc`` mitigation -- a keyed index-randomization adapter
        #: in front of it (``repro.security.mitigations``).  Sharing a
        #: multicore LLC composes: each core's hierarchy wraps the shared
        #: level with the same seed, so the scramble stays coherent.
        self.llc_front = ScrambledBackend(self.llc, llc_scramble) \
            if llc_scramble else self.llc
        self.l2 = CacheLevel(params.l2, LEVEL_L2, self.llc_front)
        self.l1d = CacheLevel(params.l1d, LEVEL_L1D, self.l2)

        self.gm_stats = GhostMinionStats()
        self.gm = GhostMinionCache(params.gm, self.gm_stats) if secure \
            else None
        # Hot-path hoists (demand_load runs once per load): bound methods
        # of the fixed collaborators and the constants behind a GM hit's
        # latency and the prefetch-demotion threshold.
        #: The hierarchy walks (flatwalk.make_flat_descent) rooted at the
        #: L1D, the L2 and the LLC, one per prefetch fill level.  The
        #: upper two cross ``llc_front``, so under rand-llc the LLC and
        #: DRAM see the scrambled block; the LLC walk is entered by
        #: ``llc_front.issue_prefetch``, which scrambles first.  The
        #: closures live here, never on the levels they walk: a level
        #: holding a closure over its own bound methods would be a
        #: reference cycle, and a finished system must be freed by
        #: refcounting alone.
        self._l1d_access = make_flat_descent(
            (self.l1d, self.l2, self.llc_front), self.dram)
        self._l2_access = make_flat_descent(
            (self.l2, self.llc_front), self.dram)
        self._llc_access = make_flat_descent((self.llc,), self.dram)
        #: Batched commit re-fetch resolver (see flatwalk); ``None`` when
        #: the chain is scrambled and the drain must re-fetch per block.
        self._refetch_batch = make_refetch_batch(
            (self.l1d, self.l2, self.llc), self.dram) \
            if secure and self.llc_front is self.llc else None
        self._l1d_mshrs = params.l1d.mshrs
        #: Identity-stable alias of the L1D MSHR next-free times (the pool
        #: mutates the list in place); read by the prefetch-demotion check.
        self._l1d_mshr_times = self.l1d._mshrs.times
        self._gm_hit_latency = max(self.gm.latency, params.l1d.latency) \
            if secure else 0
        self._gm_latency = params.gm.latency if secure else 0
        self._l1d_commit_write = self.l1d.commit_write
        self._l1d_contains = self.l1d.contains
        #: The commit filter's contract is a *pure* function of the 2-bit
        #: hit level (repro.core.suf), so its four possible decisions are
        #: memoized lazily instead of re-deriving one per committed load.
        self._filter_memo = {}
        #: Alias of the GM's pending-fill heap (identity is stable: the
        #: GM clears it in place).  Callers peek it to skip apply_until
        #: calls when no pending fill is due yet -- the common case.
        self._gm_heap = self.gm._pending_heap if secure else None
        #: Optional :class:`repro.obs.events.EventTrace` for commit-path
        #: (GM/SUF) events; attached via :meth:`attach_events`.
        self.events = None

    def attach_events(self, events) -> None:
        """Enable structured event tracing on every component.

        Shared levels (a multi-core LLC/DRAM) are attached too: their
        events then interleave all cores' traffic, which is the point.
        """
        self.events = events
        for level in self.levels():
            level.events = events
        if self.gm is not None:
            self.gm.events = events

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------

    def demand_load(self, block: int, time: int, timestamp: int,
                    *, wrong_path: bool = False) -> LoadResult:
        """Execute one load's data access at its (speculative) access time."""
        count_useful = not wrong_path
        if not self.secure:
            completion, served = self._l1d_access(
                block, time, REQ_LOAD, True, True, count_useful)
            return LoadResult(completion, served, False, completion - time)
        return self._speculative_load(block, time, timestamp, count_useful)

    def _speculative_load(self, block: int, time: int, timestamp: int,
                          count_useful: bool) -> LoadResult:
        gm = self.gm
        heap = self._gm_heap
        if heap and heap[0][0] <= time:
            gm.apply_until(time)
        gm_line = gm.lookup(block)
        if gm_line is not None:
            # GM hit (possibly still in flight).  The L1D is probed in
            # parallel but provides nothing and updates nothing.  The GM
            # array itself reads in 1 cycle, but load-to-use still goes
            # through the normal load pipeline, so a GM hit is never faster
            # than an L1D hit.
            self.gm_stats.gm_hits += 1
            self.l1d.probe(block, time, REQ_LOAD)
            completion = max(time + self._gm_hit_latency, gm_line.fill_time)
            return LoadResult(completion, LEVEL_L1D, True, completion - time)

        # GM miss: walk the hierarchy invisibly; fill only the GM.
        self.gm_stats.gm_misses += 1
        completion, served = self._l1d_access(
            block, time, REQ_LOAD, False, False, count_useful)
        fetch_latency = completion - time
        if served != LEVEL_L1D:
            # L1D-provided data takes no GM entry: the L1D already holds the
            # line, so commit will merely re-touch it (the redundant LRU
            # update SUF filters).  Only data from L2/LLC/DRAM -- which the
            # invisible walk did not install anywhere -- parks in the GM
            # awaiting its on-commit write.
            gm.fill(block, completion, timestamp, fetch_latency,
                    not count_useful)
        return LoadResult(completion, served, False, fetch_latency)

    # ------------------------------------------------------------------
    # commit path (secure mode)
    # ------------------------------------------------------------------

    def commit_load(self, block: int, time: int, hit_level: int) -> int:
        """Perform GhostMinion's commit-time hierarchy update for a load.

        ``hit_level`` is the 2-bit level recorded in the load-queue entry at
        access time (Fig. 7, step 1).  With a SUF ``commit_filter``
        installed, updates for L1D-provided data are dropped and writeback
        propagation is truncated at the level below the provider (steps
        2-4).

        Returns the latency of the commit-time update -- the (misleading)
        value a naive on-commit Berti observes as its "fetch latency"
        (Section V-B).
        """
        if not self.secure:
            return 0
        stats = self.gm_stats
        heap = self._gm_heap
        if heap and heap[0][0] <= time:
            self.gm.apply_until(time)
        gm_line = self.gm.take(block)

        if self.commit_filter is not None:
            decision = self._filter_memo.get(hit_level)
            if decision is None:
                decision = self._filter_memo[hit_level] = \
                    self.commit_filter(hit_level)
        else:
            decision = None
        if decision is not None and decision.drop:
            stats.commit_drops_suf += 1
            if self._l1d_contains(block):
                stats.suf_correct += 1
            else:
                stats.suf_mispredict += 1
            if self.events is not None:
                self.events.emit("suf_drop", time, block, "SUF")
            return 0

        if gm_line is not None:
            # On-commit write: the line moves GM -> L1D.
            stats.commit_writes += 1
            if self.events is not None:
                self.events.emit("gm_commit_write", time, block, "GM")
            if decision is not None:
                gm_propagate, wbb = decision.gm_propagate, decision.wbb
                self._record_suf_stop(block, hit_level, time)
            else:
                gm_propagate, wbb = True, True
            self._l1d_commit_write(block, time, gm_propagate, wbb)
            return self._gm_latency

        # The GM line was evicted before commit (or, for L1D-provided
        # data, never existed): re-fetch into the non-speculative
        # hierarchy (Fig. 2, flow 2b).
        stats.commit_refetches += 1
        if hit_level > LEVEL_L1D:
            stats.gm_lost_before_commit += 1
        if self.events is not None:
            self.events.emit("gm_refetch", time, block, "GM")
        completion, _ = self._l1d_access(block, time, REQ_COMMIT)
        return completion - time

    def _record_suf_stop(self, block: int, hit_level: int,
                         time: int) -> None:
        """Account a truncated propagation decision, made at commit
        ``time``, and its correctness."""
        stats = self.gm_stats
        if hit_level == LEVEL_L2:
            provider = self.l2
        elif hit_level == LEVEL_LLC:
            provider = self.llc_front
        else:
            return
        stats.wb_stopped_suf += 1
        if provider.contains(block):
            stats.suf_correct += 1
        else:
            stats.suf_mispredict += 1
        if self.events is not None:
            self.events.emit("suf_stop", time, block, "SUF")

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------

    def issue_prefetch(self, block: int, time: int, fill_level: int) -> bool:
        """Issue a prefetch that fills down to ``fill_level`` (0/1/2).

        L1D-destined prefetches are demoted to the L2 when the L1D MSHRs
        are half occupied -- Berti's orchestration rule (Section V-A), which
        keeps prefetch bursts from starving demand misses of MSHRs.  All
        prefetching throttles when the DRAM channel's low-priority queue is
        saturated (they would arrive uselessly late anyway).
        """
        # Inline of dram.backlogged(time) with the default margin -- this
        # runs once per prefetch request, mostly to say "no".
        dram = self.dram
        reference = time + dram._service
        bus_free = dram._bus_free
        if bus_free > reference:
            reference = bus_free
        if dram._bus_free_low - reference > dram._backlog_margin:
            if fill_level <= LEVEL_L1D:
                return self.l1d._drop_prefetch(block, time)
            if fill_level == LEVEL_L2:
                return self.l2._drop_prefetch(block, time)
            if self.llc_front is not self.llc:
                # The LLC's events carry the block it sees: scrambled.
                block = self.llc_front.scramble(block)
            return self.llc._drop_prefetch(block, time)
        if fill_level <= LEVEL_L1D:
            # Inline of l1d.mshr_occupancy: the pool list is sorted, so
            # the busy count (next-free strictly after ``time``) is one
            # bisect.
            times = self._l1d_mshr_times
            if 2 * (len(times) - bisect_right(times, time)) \
                    >= self._l1d_mshrs:
                fill_level = LEVEL_L2
            else:
                return self.l1d.issue_prefetch(block, time,
                                               self._l1d_access)
        if fill_level == LEVEL_L2:
            return self.l2.issue_prefetch(block, time, self._l2_access)
        return self.llc_front.issue_prefetch(block, time, self._llc_access)

    # ------------------------------------------------------------------

    def flush_speculative(self) -> None:
        """Drop all speculative state (domain switch)."""
        if self.gm is not None:
            self.gm.flush()

    def levels(self):
        return (self.l1d, self.l2, self.llc)

    def reset_stats(self) -> None:
        for level in self.levels():
            level.reset_stats()
        self.dram.reset_stats()
        self.gm_stats.reset()
