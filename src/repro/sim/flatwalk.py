"""The cache-hierarchy walk: one frame for the whole descent.

``make_flat_descent`` builds the closure that every request takes
through the cache levels: demand loads and stores, GhostMinion's
invisible probe (``update=False, fill=False``), commit re-fetches and
prefetches.  A miss claims the level's MSHR and descends, charging each
level's port, to the level that hits, to an in-flight fill it merges
with, or to DRAM; the unwind then releases each MSHR at the completion
time and installs the line (``fill=True``) or leaves an in-flight entry
for later requests to merge with (``fill=False``).

Every collaborator is hoisted into closure cells once instead of re-read
through ``self`` per call.  The entry level is fully specialized
(individual cells, no per-level tuple unpack) because most calls resolve
there: under GhostMinion every speculative load takes this path and the
majority are L1D hits.  Deeper levels run a generic loop over per-level
hoist tuples -- by then the call is a miss descent and the unpack is
amortized by the MSHR/DRAM work.

Every level and DRAM see the one physical block; a keyed LLC (rand-llc)
hashes it into its set index inside its own ``sets`` array.  With events
attached, the walk emits ``pf_use`` at its plain hits;
``CacheLevel._merge``, ``insert`` and ``_evict`` emit the rest.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Tuple

from .cache import LEVEL_DRAM
from .stats import REQ_COMMIT, REQ_LOAD, REQ_PREFETCH, REQ_STORE


def _hoist(lvl):
    """A level's collaborators, in the walks' unpack order."""
    return (lvl.sets, lvl._set_mask, lvl._port_counts, lvl._port_n,
            lvl._ports, lvl._port_acquire, lvl._latency, lvl._outstanding,
            lvl._mshr_times, lvl.stats, lvl._accesses, lvl._hits,
            lvl._misses, lvl, lvl.level)


def make_flat_descent(levels: Tuple, dram):
    """Build a one-frame walk of ``levels`` terminating in ``dram``.

    ``levels[0]`` is the ``CacheLevel`` the walk is rooted at.  The walk
    returns ``(completion_time, served_level)``.  ``update=False``
    leaves replacement state alone on hits, and ``fill=False`` installs
    nothing (the data bypasses to the GM) but still claims MSHRs and
    ports.
    """
    lower = tuple(_hoist(lvl) for lvl in levels[1:])
    entry = levels[0]
    # Entry-level collaborators as individual closure cells.
    e_sets = entry.sets
    e_mask = entry._set_mask
    e_counts = entry._port_counts
    e_port_n = entry._port_n
    e_ports = entry._ports
    e_port_acquire = entry._port_acquire
    e_latency = entry._latency
    e_outstanding = entry._outstanding
    e_mshr_times = entry._mshr_times
    e_stats = entry.stats
    e_accesses = entry._accesses
    e_hits = entry._hits
    e_misses = entry._misses
    e_merge = entry._merge
    e_insert = entry.insert
    e_level = entry.level
    dram_access = dram.access

    def descend(block, time, rtype, update=True, fill=True,
                count_useful=True):
        # ------------------------------------------------------- entry
        e_accesses[rtype] += 1
        # _PortBucket.acquire's free-port arm, inlined (the trim counter
        # is kept, so the occasional slow-path call still prunes).
        pc = e_counts.get(time, 0)
        if pc < e_port_n:
            e_counts[time] = pc + 1
            e_ports._acquires += 1
            start = time
        else:
            start = e_port_acquire(time)
        line = e_sets[block & e_mask].get(block)
        if line is not None:
            ready = start + e_latency
            if line.fill_time <= ready:
                # Plain hit: the overwhelmingly common outcome.
                e_hits[rtype] += 1
                if update:
                    line.last_touch = time
                    line.rrpv = 0
                    if rtype is REQ_STORE:
                        line.dirty = True
                if line.prefetched and count_useful \
                        and not line.was_demand_hit \
                        and (rtype is REQ_LOAD or rtype is REQ_STORE):
                    line.was_demand_hit = True
                    e_stats.prefetches_useful += 1
                    if entry.events is not None:
                        entry.events.emit("pf_use", time, block, entry.name)
                return ready, e_level
            return e_merge(block, line.fill_time, line.prefetched, start,
                           rtype, rtype is REQ_LOAD or rtype is REQ_STORE,
                           count_useful, line)
        entry_o = e_outstanding.get(block)
        if entry_o is not None:
            entry_fill = entry_o[0]
            if entry_fill <= start:
                # Stale entry from a bypassing (fill=False) miss: the data
                # is no longer in flight here.
                del e_outstanding[block]
                entry_o = None
            else:
                return e_merge(block, entry_fill, entry_o[1], start,
                               rtype,
                               rtype is REQ_LOAD or rtype is REQ_STORE,
                               count_useful, None)
        # True miss at the entry level: claim an MSHR (the head of the
        # sorted ``_mshr_times``, see CacheLevel) and take the generic
        # descent below.  The slot stays popped until the unwind inserts
        # its fill time; the descent between cannot observe the
        # one-short pool.
        demand = rtype is REQ_LOAD or rtype is REQ_STORE
        is_store = rtype is REQ_STORE
        is_load = rtype is REQ_LOAD
        is_pf = rtype is REQ_PREFETCH
        e_misses[rtype] += 1
        free_at = e_mshr_times[0]
        e_stats.mshr_occupancy_sum += \
            len(e_mshr_times) - bisect_right(e_mshr_times, start)
        e_stats.mshr_occupancy_samples += 1
        if free_at > start:
            e_stats.mshr_full_events += 1
            e_stats.mshr_full_wait_cycles += free_at - start
            alloc = free_at
        else:
            alloc = start
        del e_mshr_times[0]
        pending = [(e_mshr_times, e_stats, e_outstanding, e_insert, time,
                    start)]
        t = alloc + e_latency
        # ------------------------------------------------- lower levels
        completion = served = None
        for (sets, mask, counts, port_n, ports, port_acquire, latency,
             outstanding, mshr_times, stats, accesses, hits, misses,
             lvl_obj, lvl_num) in lower:
            accesses[rtype] += 1
            pc = counts.get(t, 0)
            if pc < port_n:
                counts[t] = pc + 1
                ports._acquires += 1
                start = t
            else:
                start = port_acquire(t)
            line = sets[block & mask].get(block)
            if line is not None:
                ready = start + latency
                if line.fill_time <= ready:
                    hits[rtype] += 1
                    if update:
                        line.last_touch = t
                        line.rrpv = 0
                        if is_store:
                            line.dirty = True
                    if line.prefetched and count_useful \
                            and not line.was_demand_hit and demand:
                        line.was_demand_hit = True
                        stats.prefetches_useful += 1
                        if lvl_obj.events is not None:
                            lvl_obj.events.emit("pf_use", t, block,
                                                lvl_obj.name)
                    completion = ready
                    served = lvl_num
                    break
                completion, served = lvl_obj._merge(
                    block, line.fill_time, line.prefetched, start, rtype,
                    demand, count_useful, line)
                break
            entry_o = outstanding.get(block)
            if entry_o is not None:
                entry_fill = entry_o[0]
                if entry_fill <= start:
                    del outstanding[block]
                else:
                    completion, served = lvl_obj._merge(
                        block, entry_fill, entry_o[1], start, rtype,
                        demand, count_useful, None)
                    break
            misses[rtype] += 1
            free_at = mshr_times[0]
            stats.mshr_occupancy_sum += \
                len(mshr_times) - bisect_right(mshr_times, start)
            stats.mshr_occupancy_samples += 1
            if free_at > start:
                stats.mshr_full_events += 1
                stats.mshr_full_wait_cycles += free_at - start
                alloc = free_at
            else:
                alloc = start
            del mshr_times[0]
            pending.append((mshr_times, stats, outstanding,
                            lvl_obj.insert, t, start))
            t = alloc + latency
        else:
            completion = dram_access(block, t, demand)
            served = LEVEL_DRAM
        # Unwind inner-first: release the MSHR at the completion time,
        # then install the line (fill) or leave the in-flight entry a
        # later request merges with.
        for (mshr_times, stats, outstanding, insert, arrival,
             start) in reversed(pending):
            insort(mshr_times, completion)
            if fill:
                insert(block, completion, is_pf, is_store,
                       latency=completion - arrival)
            else:
                outstanding[block] = (completion, is_pf, start)
            if is_load:
                stats.load_miss_latency_sum += completion - arrival
                stats.load_miss_latency_count += 1
        return completion, served

    return descend


def make_refetch_batch(levels: Tuple, dram):
    """Build a batched resolver for GhostMinion commit re-fetches.

    Takes ``[(block, t_ret), ...]`` -- the re-fetches of one drained
    commit window, in commit order -- and returns the per-block
    completion times.  Compared to per-block :func:`make_flat_descent`
    calls this amortizes two things:

    * the level collaborators (sets, port buckets, MSHR pools, stats)
      are bound to locals once per *window* instead of once per block;
    * blocks that miss every cache level are resolved through a single
      ``DRAMChannel.access_batch`` handoff at the end of the pass, so
      the DRAM bank/bus cursor bookkeeping is amortized over the whole
      window.

    Semantics note (reviewed, pinned by the figure-tolerance check
    rather than bit-identity): blocks that hit or merge in the cache
    chain complete -- fills included -- immediately and in commit
    order, exactly like the sequential walk.  DRAM-bound blocks charge
    their port/MSHR slots in commit order during the pass, but their
    *fills* land after the shared DRAM handoff.  A later re-fetch in
    the same window therefore probes tags that do not yet hold an
    earlier DRAM-bound block's fill; the sequential walk would have
    merged with that in-flight fill.  Re-fetches to the same block
    within one window are rare (distinct committed loads to one line),
    the per-block latency is still computed individually from that
    block's own descent and DRAM service, and GhostMinion's
    timestamp-ordering invariants are untouched (the drain applies GM
    updates before collecting the window).

    A DRAM-bound re-fetch holds one MSHR per level until the handoff.
    When a window holds every slot of a level's pool, the DRAM-bound
    re-fetches collected so far are handed off at that point, which
    frees their slots, and the pass continues.

    A commit re-fetch is no demand request, so the batch emits no
    ``pf_use``; its other events come from ``_merge`` and ``insert``.
    """
    hoists = tuple(_hoist(lvl) for lvl in levels)
    dram_batch = dram.access_batch

    def handoff(dram_reqs, dram_pend, results):
        completions = dram_batch(dram_reqs, False)
        for (idx, block, pending), completion in zip(dram_pend,
                                                     completions):
            for mshr_times, insert, arrival in reversed(pending):
                insort(mshr_times, completion)
                insert(block, completion, False, False,
                       latency=completion - arrival)
            results[idx] = completion
        dram_reqs.clear()
        dram_pend.clear()

    def refetch_batch(pairs):
        results = [0] * len(pairs)
        dram_reqs = []
        dram_pend = []
        for idx, (block, t) in enumerate(pairs):
            pending = []
            completion = None
            for (sets, mask, counts, port_n, ports, port_acquire,
                 latency, outstanding, mshr_times, stats, accesses,
                 hits, misses, lvl_obj, _lvl_num) in hoists:
                accesses[REQ_COMMIT] += 1
                pc = counts.get(t, 0)
                if pc < port_n:
                    counts[t] = pc + 1
                    ports._acquires += 1
                    start = t
                else:
                    start = port_acquire(t)
                line = sets[block & mask].get(block)
                if line is not None:
                    ready = start + latency
                    if line.fill_time <= ready:
                        hits[REQ_COMMIT] += 1
                        line.last_touch = t
                        line.rrpv = 0
                        completion = ready
                        break
                    completion, _ = lvl_obj._merge(
                        block, line.fill_time, line.prefetched, start,
                        REQ_COMMIT, False, True, line)
                    break
                entry_o = outstanding.get(block)
                if entry_o is not None:
                    entry_fill = entry_o[0]
                    if entry_fill <= start:
                        del outstanding[block]
                    else:
                        completion, _ = lvl_obj._merge(
                            block, entry_fill, entry_o[1], start,
                            REQ_COMMIT, False, True, None)
                        break
                misses[REQ_COMMIT] += 1
                if not mshr_times:
                    # Every slot is held by this window's DRAM-bound
                    # re-fetches: hand them off to free the pool.
                    handoff(dram_reqs, dram_pend, results)
                free_at = mshr_times[0]
                stats.mshr_occupancy_sum += \
                    len(mshr_times) - bisect_right(mshr_times, start)
                stats.mshr_occupancy_samples += 1
                if free_at > start:
                    stats.mshr_full_events += 1
                    stats.mshr_full_wait_cycles += free_at - start
                    alloc = free_at
                else:
                    alloc = start
                del mshr_times[0]
                pending.append((mshr_times, lvl_obj.insert, t))
                t = alloc + latency
            else:
                # Missed every level: queue for the shared DRAM handoff.
                dram_reqs.append((block, t))
                dram_pend.append((idx, block, pending))
                continue
            for mshr_times, insert, arrival in reversed(pending):
                insort(mshr_times, completion)
                insert(block, completion, False, False,
                       latency=completion - arrival)
            results[idx] = completion
        if dram_reqs:
            handoff(dram_reqs, dram_pend, results)
        return results

    return refetch_batch
