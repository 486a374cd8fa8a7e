"""Set-associative cache level: hits, LRU, MSHRs, ports, prefetch queue."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import (CacheLevel, LEVEL_DRAM, LEVEL_L1D, LEVEL_L2,
                             LEVEL_LLC, MemoryBackend, _PortBucket)
from repro.sim.dram import DRAMChannel
from repro.sim.flatwalk import make_flat_descent
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import CacheParams, DRAMParams, baseline
from repro.sim.stats import REQ_COMMIT, REQ_LOAD, REQ_STORE


def small_cache(ways=2, sets_kb=None, mshrs=4, ports=2, pq=4,
                latency=5, next_level=None, keyed=False):
    """A 2-way, 8-set cache in front of a (fast) DRAM by default."""
    params = CacheParams(name="T", size_kb=1, ways=ways, latency=latency,
                         mshrs=mshrs, ports=ports, pq_entries=pq,
                         keyed_index=keyed)
    if next_level is None:
        next_level = MemoryBackend(DRAMChannel(DRAMParams()))
    return CacheLevel(params, LEVEL_L1D, next_level)


def walk(level):
    """The hierarchy walk rooted at ``level``, down its ``next`` chain."""
    levels = [level]
    while isinstance(levels[-1].next, CacheLevel):
        levels.append(levels[-1].next)
    return make_flat_descent(tuple(levels), levels[-1].next.dram)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        access = walk(cache)
        done, served = access(5, 0, REQ_LOAD)
        assert served == LEVEL_DRAM
        assert cache.stats.misses[REQ_LOAD] == 1
        done2, served2 = access(5, done + 10, REQ_LOAD)
        assert served2 == LEVEL_L1D
        assert done2 == done + 10 + cache.params.latency
        assert cache.stats.hits[REQ_LOAD] == 1

    def test_hit_latency(self):
        cache = small_cache(latency=7)
        access = walk(cache)
        cache.insert(3, 0)
        done, _ = access(3, 100, REQ_LOAD)
        assert done == 107

    def test_in_flight_fill_merges(self):
        cache = small_cache()
        access = walk(cache)
        done, _ = access(5, 0, REQ_LOAD)
        # A second request before the fill arrives merges with it.
        done2, _ = access(5, 1, REQ_LOAD)
        assert done2 == done
        assert cache.stats.mshr_merges == 1
        assert cache.stats.misses[REQ_LOAD] == 2

    def test_store_sets_dirty(self):
        cache = small_cache()
        access = walk(cache)
        cache.insert(5, 0)
        access(5, 10, REQ_STORE)
        assert cache.lookup(5).dirty


class TestLRU:
    def test_evicts_least_recent(self):
        cache = small_cache(ways=2)
        access = walk(cache)
        cache.insert(0, time=1)    # set 0
        cache.insert(8, time=2)    # set 0 (8 % 8 == 0)
        access(0, 10, REQ_LOAD)    # touch 0
        cache.insert(16, time=20)  # evicts 8 (LRU), not 0
        assert cache.contains(0)
        assert not cache.contains(8)
        assert cache.contains(16)
        assert cache.stats.evictions == 1

    def test_probe_does_not_update_lru(self):
        cache = small_cache(ways=2)
        cache.insert(0, time=1)
        cache.insert(8, time=2)
        cache.probe(0, 10, REQ_LOAD)    # GhostMinion-style probe
        cache.insert(16, time=20)       # must still evict 0
        assert not cache.contains(0)

    def test_no_update_access_keeps_lru(self):
        cache = small_cache(ways=2)
        access = walk(cache)
        cache.insert(0, time=1)
        cache.insert(8, time=2)
        access(0, 10, REQ_LOAD, update=False)
        cache.insert(16, time=20)
        assert not cache.contains(0)


class TestInvisibleWalk:
    def test_fill_false_leaves_no_line(self):
        cache = small_cache()
        access = walk(cache)
        access(5, 0, REQ_LOAD, update=False, fill=False)
        assert not cache.contains(5)

    def test_fill_false_propagates_downstream(self):
        l2 = small_cache()
        l1 = small_cache(next_level=l2)
        walk(l1)(5, 0, REQ_LOAD, update=False, fill=False)
        assert not l1.contains(5)
        assert not l2.contains(5)

    def test_fill_false_still_uses_mshr(self):
        cache = small_cache(mshrs=1)
        access = walk(cache)
        access(5, 0, REQ_LOAD, update=False, fill=False)
        # The invisible miss holds the only MSHR: the next miss waits.
        access(13, 1, REQ_LOAD)
        assert cache.stats.mshr_full_events == 1

    def test_stale_outstanding_expires(self):
        cache = small_cache()
        access = walk(cache)
        done, _ = access(5, 0, REQ_LOAD, fill=False)
        # Long after the fill, the block is no longer in flight here:
        # a new request is a fresh miss, not a merge.
        access(5, done + 1000, REQ_LOAD)
        assert cache.stats.mshr_merges == 0
        assert cache.stats.misses[REQ_LOAD] == 2


class TestMSHR:
    def test_full_mshrs_delay_miss(self):
        cache = small_cache(mshrs=2)
        access = walk(cache)
        d1, _ = access(0, 0, REQ_LOAD)
        access(8, 0, REQ_LOAD)
        d3, _ = access(16, 0, REQ_LOAD)
        assert cache.stats.mshr_full_events == 1
        assert cache.stats.mshr_full_wait_cycles > 0
        assert d3 > d1

    def test_occupancy_sampling(self):
        cache = small_cache(mshrs=4)
        access = walk(cache)
        access(0, 0, REQ_LOAD)
        access(8, 0, REQ_LOAD)
        assert cache.stats.mshr_occupancy_samples == 2
        assert cache.stats.mshr_occupancy_sum == 1  # 0 then 1 busy

    def test_load_miss_latency_recorded(self):
        cache = small_cache()
        access = walk(cache)
        done, _ = access(0, 0, REQ_LOAD)
        assert cache.stats.load_miss_latency_count == 1
        assert cache.stats.load_miss_latency_sum == done


class TestWritebacks:
    def test_dirty_eviction_writes_back(self):
        l2 = small_cache()
        l1 = small_cache(ways=1, next_level=l2)
        l1.insert(0, 1, dirty=True)
        l1.insert(16, 2)  # evicts dirty 0 (1-way cache has 16 sets)
        assert l2.contains(0)
        assert l2.lookup(0).dirty
        assert l1.stats.writebacks_out == 1

    def test_clean_eviction_silent(self):
        l2 = small_cache()
        l1 = small_cache(ways=1, next_level=l2)
        l1.insert(0, 1)
        l1.insert(16, 2)
        assert not l2.contains(0)
        assert l1.stats.writebacks_out == 0

    def test_gm_propagate_clean_eviction_writes_back(self):
        """GhostMinion commit data propagates down on (clean) eviction."""
        l2 = small_cache()
        l1 = small_cache(ways=1, next_level=l2)
        l1.insert(0, 1, gm_propagate=True, wbb=True)
        l1.insert(16, 2)
        assert l2.contains(0)
        # The next hop's line carries the passed-along wbb (here True).
        assert l2.lookup(0).gm_propagate

    def test_wbb_chain_stops_propagation(self):
        """SUF's writeback bit truncates the chain one hop early."""
        l3 = small_cache()
        l2 = small_cache(ways=1, next_level=l3)
        l1 = small_cache(ways=1, next_level=l2)
        l1.insert(0, 1, gm_propagate=True, wbb=False)  # stop after L2
        l1.insert(16, 2)  # evict 0 -> L2
        assert l2.contains(0)
        assert not l2.lookup(0).gm_propagate
        l2.insert(16, 3)  # evict 0 from L2: must NOT reach L3
        assert not l3.contains(0)

    def test_suf_cleared_propagate_is_silent(self):
        l2 = small_cache()
        l1 = small_cache(ways=1, next_level=l2)
        l1.insert(0, 1, gm_propagate=False, wbb=False)
        l1.insert(16, 2)
        assert not l2.contains(0)


class TestCommitWrite:
    def test_counts_commit_traffic(self):
        cache = small_cache()
        cache.commit_write(5, 10, gm_propagate=True, wbb=True)
        assert cache.stats.accesses[REQ_COMMIT] == 1
        assert cache.contains(5)
        assert cache.lookup(5).gm_propagate

    def test_existing_line_updated(self):
        cache = small_cache()
        cache.insert(5, 0)
        cache.commit_write(5, 10, gm_propagate=True, wbb=False)
        assert cache.stats.hits[REQ_COMMIT] == 1
        assert cache.lookup(5).gm_propagate


def hierarchy_with(level, ways=2, mshrs=4, pq=4):
    """A Table II hierarchy whose ``level`` is a small (1 KB) cache, and
    that level's walk.  Prefetches reach a level only through the
    hierarchy's issuer."""
    name = ("l1d", "l2", "llc")[level]
    params = baseline()
    small = replace(getattr(params, name), size_kb=1, ways=ways,
                    mshrs=mshrs, pq_entries=pq)
    h = MemoryHierarchy(replace(params, **{name: small}))
    return h, h.levels()[level], (h._l1d_access, h._l2_access,
                                  h._llc_access)[level]


LEVELS = (LEVEL_L1D, LEVEL_L2, LEVEL_LLC)


class TestPrefetchQueue:
    def test_issue_and_fill(self):
        for level in LEVELS:
            h, cache, _ = hierarchy_with(level)
            h.issue_prefetch(5, 0, level)
            assert cache.stats.prefetches_issued == 1
            assert cache.stats.prefetch_fills == 1
            assert cache.lookup(5).prefetched

    def test_duplicate_dropped(self):
        for level in LEVELS:
            h, cache, _ = hierarchy_with(level)
            cache.insert(5, 0)
            h.issue_prefetch(5, 1, level)
            assert cache.stats.prefetches_dropped == 1
            assert cache.stats.prefetches_issued == 0

    def test_in_flight_duplicate_dropped(self):
        for level in LEVELS:
            h, cache, access = hierarchy_with(level)
            access(5, 0, REQ_LOAD, fill=False)
            h.issue_prefetch(5, 1, level)
            assert cache.stats.prefetches_dropped == 1

    def test_pq_full_drops(self):
        for level in LEVELS:
            h, cache, _ = hierarchy_with(level, pq=2, mshrs=8)
            h.issue_prefetches([(0, level), (8, level), (16, level)], 0)
            assert cache.stats.prefetches_issued == 2
            assert cache.stats.prefetches_dropped == 1

    def test_mshr_full_drops_prefetch(self):
        for level in (LEVEL_L2, LEVEL_LLC):
            h, cache, access = hierarchy_with(level, mshrs=2, pq=8)
            access(0, 0, REQ_LOAD)
            access(8, 0, REQ_LOAD)
            h.issue_prefetch(16, 0, level)
            assert cache.stats.prefetches_dropped == 1
        # At the L1D the same pressure demotes the request to the L2
        # first (Berti's orchestration rule).
        h, cache, access = hierarchy_with(LEVEL_L1D, mshrs=2, pq=8)
        access(0, 0, REQ_LOAD)
        access(8, 0, REQ_LOAD)
        h.issue_prefetch(16, 0, LEVEL_L1D)
        assert cache.stats.prefetches_dropped == 0
        assert h.l2.stats.prefetches_issued == 1

    def test_usefulness_tracking(self):
        for level in LEVELS:
            h, cache, access = hierarchy_with(level)
            h.issue_prefetch(5, 0, level)
            access(5, 500, REQ_LOAD)
            assert cache.stats.prefetches_useful == 1
            # A second demand hit does not double-count.
            access(5, 600, REQ_LOAD)
            assert cache.stats.prefetches_useful == 1

    def test_useless_counted_on_eviction(self):
        for level in LEVELS:
            h, cache, _ = hierarchy_with(level, ways=1)
            h.issue_prefetch(0, 0, level)
            cache.insert(16, 5000)  # evict the never-used prefetch
            assert cache.stats.prefetches_useless == 1

    def test_late_prefetch_merge_detected(self):
        for level in LEVELS:
            h, cache, access = hierarchy_with(level)
            h.issue_prefetch(5, 0, level)
            access(5, 1, REQ_LOAD)  # merges with the in-flight prefetch
            assert cache.stats.demand_merged_into_prefetch == 1
            assert cache.stats.prefetches_useful == 1


class TestPortBucket:
    def test_capacity_per_cycle(self):
        ports = _PortBucket(2)
        assert ports.acquire(10) == 10
        assert ports.acquire(10) == 10
        assert ports.acquire(10) == 11

    def test_out_of_order_charges(self):
        """A future-time charge must not delay an earlier request."""
        ports = _PortBucket(1)
        assert ports.acquire(100) == 100
        assert ports.acquire(5) == 5

    def test_spills_forward(self):
        ports = _PortBucket(1)
        ports.acquire(0)
        ports.acquire(0)
        ports.acquire(0)
        assert ports.acquire(0) == 3


class _WritebackLog:
    """A next level that records the blocks written back to it."""

    def __init__(self):
        self.blocks = []

    def receive_writeback(self, block, time, dirty=False,
                          gm_propagate=False, wbb=False):
        self.blocks.append(block)


class TestKeyedIndex:
    """A keyed level hashes only the set index (the rand-llc LLC)."""

    def test_blocks_sharing_low_bits_spread_over_sets(self):
        plain, keyed = small_cache(), small_cache(keyed=True)
        sets = plain.params.sets
        blocks = [i * sets for i in range(2 * sets)]
        for t, block in enumerate(blocks):
            plain.insert(block, t)
            keyed.insert(block, t)
        # Unkeyed, every block maps to set 0 and only its two ways stay.
        assert sum(1 for set_ in plain.sets if set_) == 1
        assert sum(1 for set_ in keyed.sets if set_) > 1
        assert keyed.stats.evictions < plain.stats.evictions

    def test_tags_and_writebacks_stay_physical(self):
        log = _WritebackLog()
        cache = small_cache(keyed=True, next_level=log)
        blocks = list(range(100, 164))
        for t, block in enumerate(blocks):
            cache.insert(block, t, dirty=True)
        resident = [block for set_ in cache.sets for block in set_]
        assert all(cache.contains(block) for block in resident)
        assert sorted(resident + log.blocks) == blocks

    def test_walk_hands_dram_the_physical_block(self):
        dram = DRAMChannel(DRAMParams())
        cache = small_cache(keyed=True, next_level=MemoryBackend(dram))
        seen = []
        access = dram.access

        def spy(block, time, demand=True):
            seen.append(block)
            return access(block, time, demand)

        dram.access = spy
        walk(cache)(12345, 0, REQ_LOAD)
        assert seen == [12345]
        assert cache.contains(12345)


class TestSignature:
    def test_state_signature_reflects_contents(self):
        c1 = small_cache()
        c2 = small_cache()
        assert c1.state_signature() == c2.state_signature()
        c1.insert(5, 0)
        assert c1.state_signature() != c2.state_signature()


@settings(max_examples=30, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=200),
                       min_size=1, max_size=60))
def test_set_capacity_invariant(blocks):
    """No set ever exceeds its associativity, whatever the access mix."""
    cache = small_cache(ways=2)
    access = walk(cache)
    t = 0
    for block in blocks:
        t += 10
        access(block, t, REQ_LOAD)
    assert all(len(s) <= 2 for s in cache.sets)


@settings(max_examples=30, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=1, max_size=40))
def test_accesses_equal_hits_plus_misses(blocks):
    """With full accesses (no probes), counts reconcile."""
    cache = small_cache(ways=4)
    access = walk(cache)
    t = 0
    for block in blocks:
        t += 1000  # far apart: no merges
        access(block, t, REQ_LOAD)
    stats = cache.stats
    assert stats.accesses[REQ_LOAD] == \
        stats.hits[REQ_LOAD] + stats.misses[REQ_LOAD]
