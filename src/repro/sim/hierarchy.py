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

Each GhostMinion flow has one implementation, a closure built here
(:func:`make_speculative_load`, :func:`make_commit_load`).  The simulate
loop calls ``MemoryHierarchy.speculative_load`` at a secure load's access
time (a non-secure load takes the L1D walk), and the commit drain calls
``MemoryHierarchy.commit_load`` at its commit time with the hit level the
load recorded in its load-queue entry.  :meth:`MemoryHierarchy.demand_load`
wraps the access in a :class:`LoadResult` for per-load callers.

The prefetch path has one implementation too, the issuer that
:func:`make_prefetch_issuer` builds: the DRAM-backlog throttle, Berti's
L1D-MSHR demotion, then the drop checks of the level a request fills.
The simulate loop and the commit drain call
``MemoryHierarchy.issue_prefetches`` with each prefetcher's request
list (through ``System._make_issuer``);
:meth:`MemoryHierarchy.issue_prefetch` sends it one request.

Every level, the walks, the commit and DRAM see the one physical block.
The ``rand-llc`` LLC is a keyed level (``CacheParams.keyed_index``) that
hashes the block into its set index inside its own set array, so nothing
here knows about it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import NamedTuple

from .cache import (CacheLevel, LEVEL_L1D, LEVEL_L2, LEVEL_LLC,
                    MemoryBackend)
from .flatwalk import make_flat_descent, make_refetch_batch
from .dram import DRAMChannel
from .ghostminion import GhostMinionCache
from .params import SystemParams
from .stats import GhostMinionStats, REQ_COMMIT, REQ_LOAD, REQ_PREFETCH


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


def make_speculative_load(gm: GhostMinionCache, l1d: CacheLevel, walk,
                          hit_latency: int):
    """Build GhostMinion's speculative load (Fig. 2, flow 1).

    ``speculative_load(block, time, timestamp, count_useful)`` returns
    ``(completion, level, gm_hit)``.  The GM and the L1D are probed in
    parallel.  On a GM miss, ``walk`` (the L1D-rooted descent) runs
    invisibly, with ``update=False, fill=False``, and data from below
    the L1D fills only the GM.  ``timestamp`` orders the fill for
    TimeGuarding, and a load that does not ``count_useful`` (a
    wrong-path one) fills a transient line.
    """
    stats = gm.stats
    heap = gm._pending_heap
    apply_until = gm.apply_until
    gm_sets = gm.sets
    gm_mask = gm._set_mask
    gm_pending = gm._pending
    gm_fill = gm.fill
    probe = l1d.probe

    def speculative_load(block, time, timestamp, count_useful):
        if heap and heap[0][0] <= time:
            apply_until(time)
        # GhostMinionCache.lookup, inlined: the resident set, then the
        # fills still in flight.
        line = gm_sets[block & gm_mask].get(block)
        if line is None:
            line = gm_pending.get(block)
        if line is not None:
            # GM hit (possibly still in flight).  The L1D is probed in
            # parallel but provides nothing and updates nothing.  The GM
            # array itself reads in 1 cycle, but load-to-use still goes
            # through the normal load pipeline, so a GM hit is never
            # faster than an L1D hit.
            stats.gm_hits += 1
            probe(block, time, REQ_LOAD)
            completion = time + hit_latency
            if line.fill_time > completion:
                completion = line.fill_time
            return completion, LEVEL_L1D, True
        stats.gm_misses += 1
        completion, served = walk(block, time, REQ_LOAD, False, False,
                                  count_useful)
        if served != LEVEL_L1D:
            # L1D-provided data takes no GM entry: the L1D already holds
            # the line, so commit will merely re-touch it (the redundant
            # LRU update SUF filters).  Only data from L2/LLC/DRAM --
            # which the invisible walk did not install anywhere -- parks
            # in the GM awaiting its on-commit write.
            gm_fill(block, completion, timestamp, completion - time,
                    not count_useful)
        return completion, served, False

    return speculative_load


def make_commit_load(gm: GhostMinionCache, l1d: CacheLevel, l2: CacheLevel,
                     llc: CacheLevel, walk, commit_filter,
                     write_latency: int):
    """Build GhostMinion's commit-time hierarchy update for one load.

    ``commit_load(block, time, hit_level, refetches=None)`` performs the
    on-commit write (Fig. 2, flow 2a) or, when the GM line is gone, the
    re-fetch (flow 2b).  ``hit_level`` is the 2-bit level recorded in
    the load-queue entry at access time (Fig. 7, step 1).  With a SUF
    ``commit_filter``, updates for L1D-provided data are dropped and
    writeback propagation is truncated at the level below the provider
    (steps 2-4).  Events go to ``gm.events`` when one is attached.

    Returns the latency of the commit-time update -- the (misleading)
    value a naive on-commit Berti observes as its "fetch latency"
    (Section V-B).  Given a ``refetches`` list, a re-fetch is appended
    to it as ``(block, time)`` for the caller's batched resolver
    (``flatwalk.make_refetch_batch``) instead of walking, and counts 0.
    """
    stats = gm.stats
    heap = gm._pending_heap
    apply_until = gm.apply_until
    gm_sets = gm.sets
    gm_mask = gm._set_mask
    gm_pending = gm._pending
    l1d_contains = l1d.contains
    l1d_commit_write = l1d.commit_write
    # Where SUF truncates propagation: the provider below the L1D.
    providers = {LEVEL_L2: l2.contains, LEVEL_LLC: llc.contains}
    # The filter's contract is a *pure* function of the 2-bit hit level
    # (repro.core.suf), so its four possible decisions are memoized.
    decisions = {}

    def commit_load(block, time, hit_level, refetches=None):
        if heap and heap[0][0] <= time:
            apply_until(time)
        # GhostMinionCache.take, inlined.
        line = gm_sets[block & gm_mask].pop(block, None)
        if line is None:
            line = gm_pending.pop(block, None)
        events = gm.events
        if commit_filter is not None:
            decision = decisions.get(hit_level)
            if decision is None:
                decision = decisions[hit_level] = commit_filter(hit_level)
            if decision.drop:
                stats.commit_drops_suf += 1
                if l1d_contains(block):
                    stats.suf_correct += 1
                else:
                    stats.suf_mispredict += 1
                if events is not None:
                    events.emit("suf_drop", time, block, "SUF")
                return 0
        else:
            decision = None

        if line is not None:
            # On-commit write: the line moves GM -> L1D.
            stats.commit_writes += 1
            if events is not None:
                events.emit("gm_commit_write", time, block, "GM")
            if decision is None:
                l1d_commit_write(block, time, True, True)
                return write_latency
            provider_contains = providers.get(hit_level)
            if provider_contains is not None:
                # A truncated propagation: correct when the provider
                # still holds the line.
                stats.wb_stopped_suf += 1
                if provider_contains(block):
                    stats.suf_correct += 1
                else:
                    stats.suf_mispredict += 1
                if events is not None:
                    events.emit("suf_stop", time, block, "SUF")
            l1d_commit_write(block, time, decision.gm_propagate,
                             decision.wbb)
            return write_latency

        # The GM line was evicted before commit (or, for L1D-provided
        # data, never existed): re-fetch into the non-speculative
        # hierarchy.
        stats.commit_refetches += 1
        if hit_level > LEVEL_L1D:
            stats.gm_lost_before_commit += 1
        if events is not None:
            events.emit("gm_refetch", time, block, "GM")
        if refetches is not None:
            refetches.append((block, time))
            return 0
        completion, _ = walk(block, time, REQ_COMMIT)
        return completion - time

    return commit_load


def make_prefetch_issuer(l1d: CacheLevel, l2: CacheLevel, llc: CacheLevel,
                         dram: DRAMChannel, walks):
    """Build the prefetch issuer: ``issue(requests, time)``.

    ``requests`` is a prefetcher's ``[(block, fill_level), ...]`` and
    ``walks`` holds the descents rooted at the L1D, the L2 and the LLC.
    Each request meets, in order:

    * the DRAM-backlog throttle.  While the channel's low-priority bus
      runs more than ``prefetch_backlog_margin`` cycles beyond both the
      demand bus and one uncontended row-miss service from now, the
      request is dropped and charged to the level it asked for: it would
      arrive uselessly late;
    * Berti's orchestration rule (Section V-A): an L1D request goes to
      the L2 instead while half the L1D MSHRs are busy, so that prefetch
      bursts do not starve demand misses of MSHRs;
    * its level's drop checks: the line is resident or in flight, the PQ
      is full, the MSHRs are full (hardware drops a prefetch rather than
      queue it for an MSHR ahead of demand misses).

    A request that passes all three enters the memory system through its
    level's walk and holds a PQ slot until its fill.  The throttle and
    the demotion read DRAM and L1D MSHR state that only such a request
    changes (a drop bumps one counter), so they are evaluated once per
    call and again after each request that enters.  ``pf_drop`` and
    ``pf_issue`` go to the level's ``events``, as attached at call time,
    in request order.  Like the walks, the closure captures no hierarchy.
    """
    l1_access, l2_access, llc_access = walks
    l1_stats = l1d.stats
    l1_sets = l1d.sets
    l1_mask = l1d._set_mask
    l1_outstanding = l1d._outstanding
    l1_pq = l1d._pq_times
    l1_mshr = l1d._mshr_times
    l1_mshrs = l1d.params.mshrs
    l2_stats = l2.stats
    l2_sets = l2.sets
    l2_mask = l2._set_mask
    l2_outstanding = l2._outstanding
    l2_pq = l2._pq_times
    l2_mshr = l2._mshr_times
    llc_stats = llc.stats
    llc_sets = llc.sets
    llc_mask = llc._set_mask
    llc_outstanding = llc._outstanding
    llc_pq = llc._pq_times
    llc_mshr = llc._mshr_times
    service = dram._service
    margin = dram._backlog_margin

    # Fill levels are compared as literals (0, 1, 2: ``LEVEL_L1D``,
    # ``LEVEL_L2``, ``LEVEL_LLC``), saving a global read per request.
    def issue(requests, time):
        stale = True
        for block, fill_level in requests:
            if stale:
                stale = False
                reference = time + service
                bus_free = dram._bus_free
                if bus_free > reference:
                    reference = bus_free
                backlogged = dram._bus_free_low - reference > margin
                # Unused while backlogged: every request of the call is
                # dropped.
                demote = not backlogged and 2 * (
                    len(l1_mshr) - bisect_right(l1_mshr, time)) >= l1_mshrs
            if fill_level <= 0:
                if backlogged or (not demote and (
                        block in l1_sets[block & l1_mask]
                        or block in l1_outstanding
                        or l1_pq[0] > time or l1_mshr[0] > time)):
                    l1_stats.prefetches_dropped += 1
                    if l1d.events is not None:
                        l1d.events.emit("pf_drop", time, block, "L1D")
                    continue
                if not demote:
                    l1_stats.prefetches_issued += 1
                    if l1d.events is not None:
                        l1d.events.emit("pf_issue", time, block, "L1D")
                    completion = l1_access(block, time, REQ_PREFETCH)[0]
                    # The walk never touches the PQ, so the head is still
                    # the slot this prefetch claimed.
                    del l1_pq[0]
                    insort(l1_pq, completion)
                    stale = True
                    continue
                fill_level = 1
            if fill_level == 1:
                if backlogged or block in l2_sets[block & l2_mask] \
                        or block in l2_outstanding \
                        or l2_pq[0] > time or l2_mshr[0] > time:
                    l2_stats.prefetches_dropped += 1
                    if l2.events is not None:
                        l2.events.emit("pf_drop", time, block, "L2")
                    continue
                l2_stats.prefetches_issued += 1
                if l2.events is not None:
                    l2.events.emit("pf_issue", time, block, "L2")
                completion = l2_access(block, time, REQ_PREFETCH)[0]
                del l2_pq[0]
                insort(l2_pq, completion)
            elif backlogged or block in llc_sets[block & llc_mask] \
                    or block in llc_outstanding \
                    or llc_pq[0] > time or llc_mshr[0] > time:
                llc_stats.prefetches_dropped += 1
                if llc.events is not None:
                    llc.events.emit("pf_drop", time, block, "LLC")
                continue
            else:
                llc_stats.prefetches_issued += 1
                if llc.events is not None:
                    llc.events.emit("pf_issue", time, block, "LLC")
                completion = llc_access(block, time, REQ_PREFETCH)[0]
                del llc_pq[0]
                insort(llc_pq, completion)
            stale = True

    return issue


def _no_commit_action(block: int, time: int, hit_level: int,
                      refetches=None) -> int:
    """A non-secure hierarchy's commit: the access already updated it."""
    return 0


class MemoryHierarchy:
    """L1D + L2 + LLC + DRAM, optionally fronted by a GhostMinion GM."""

    def __init__(self, params: SystemParams, *, secure: bool = False,
                 commit_filter=None, shared_llc: CacheLevel = None,
                 shared_dram: DRAMChannel = None) -> None:
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
        self.l2 = CacheLevel(params.l2, LEVEL_L2, self.llc)
        self.l1d = CacheLevel(params.l1d, LEVEL_L1D, self.l2)

        self.gm_stats = GhostMinionStats()
        self.gm = GhostMinionCache(params.gm, self.gm_stats) if secure \
            else None
        #: The hierarchy walks (flatwalk.make_flat_descent) rooted at the
        #: L1D, the L2 and the LLC, one per prefetch fill level.  The
        #: closures live here, never on the levels they walk: a level
        #: holding a closure over its own bound methods would be a
        #: reference cycle, and a finished system must be freed by
        #: refcounting alone.
        self._l1d_access = make_flat_descent(
            (self.l1d, self.l2, self.llc), self.dram)
        self._l2_access = make_flat_descent((self.l2, self.llc), self.dram)
        self._llc_access = make_flat_descent((self.llc,), self.dram)
        #: Batched commit re-fetch resolver (see flatwalk); ``None``
        #: without a GM.
        self._refetch_batch = make_refetch_batch(
            (self.l1d, self.l2, self.llc), self.dram) if secure else None
        #: The prefetch issuer, ``issue_prefetches(requests, time)``
        #: (:func:`make_prefetch_issuer`), over the three walks.
        self.issue_prefetches = make_prefetch_issuer(
            self.l1d, self.l2, self.llc, self.dram,
            (self._l1d_access, self._l2_access, self._llc_access))
        #: GhostMinion's two per-load actions, built once over the
        #: collaborators above: ``speculative_load`` (``None`` without a
        #: GM) and ``commit_load``.  Like the walks and the issuer, they
        #: capture no hierarchy.
        if secure:
            self.speculative_load = make_speculative_load(
                self.gm, self.l1d, self._l1d_access,
                max(self.gm.latency, params.l1d.latency))
            self.commit_load = make_commit_load(
                self.gm, self.l1d, self.l2, self.llc,
                self._l1d_access, commit_filter, params.gm.latency)
        else:
            self.speculative_load = None
            self.commit_load = _no_commit_action

    def attach_events(self, events) -> None:
        """Enable structured event tracing on every component.

        Shared levels (a multi-core LLC/DRAM) are attached too: their
        events then interleave all cores' traffic, which is the point.
        """
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
        completion, served, gm_hit = self.speculative_load(
            block, time, timestamp, count_useful)
        return LoadResult(completion, served, gm_hit, completion - time)

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------

    def issue_prefetch(self, block: int, time: int, fill_level: int) -> None:
        """Issue one prefetch that fills down to ``fill_level`` (0/1/2).

        One request through :attr:`issue_prefetches`; its counters and
        events say whether it entered the memory system.
        """
        self.issue_prefetches(((block, fill_level),), time)

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
