"""Replacement policies: LRU (Table II default), SRRIP, random."""

import pytest

from repro.sim.cache import CacheLevel, LEVEL_L1D, MemoryBackend
from repro.sim.dram import DRAMChannel
from repro.sim.flatwalk import make_flat_descent
from repro.sim.params import CacheParams, DRAMParams
from repro.sim.stats import REQ_LOAD


def make_cache(policy, ways=4):
    params = CacheParams(name="T", size_kb=1, ways=ways, latency=5,
                         mshrs=4, replacement=policy)
    return CacheLevel(params, LEVEL_L1D,
                      MemoryBackend(DRAMChannel(DRAMParams())))


def walk(cache):
    """The walk rooted at ``cache`` (its ``next`` is the DRAM sink)."""
    return make_flat_descent((cache,), cache.next.dram)


def same_set_blocks(cache, count):
    """Blocks all mapping to set 0."""
    return [i * cache.params.sets for i in range(count)]


class TestPolicySelection:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="replacement"):
            make_cache("mru")

    def test_default_is_lru(self):
        params = CacheParams(name="T", size_kb=1, ways=4, latency=5,
                             mshrs=4)
        assert params.replacement == "lru"


class TestLRU:
    def test_recency_protects(self):
        cache = make_cache("lru")
        blocks = same_set_blocks(cache, 5)
        for t, block in enumerate(blocks[:4]):
            cache.insert(block, t + 1)
        walk(cache)(blocks[0], 100, REQ_LOAD)      # refresh the oldest
        cache.insert(blocks[4], 200)               # evicts blocks[1]
        assert cache.contains(blocks[0])
        assert not cache.contains(blocks[1])


class TestSRRIP:
    def test_rereferenced_lines_protected(self):
        cache = make_cache("srrip")
        blocks = same_set_blocks(cache, 5)
        for t, block in enumerate(blocks[:4]):
            cache.insert(block, t + 1)
        # Re-reference block 0 twice: rrpv -> 0.
        walk(cache)(blocks[0], 50, REQ_LOAD)
        cache.insert(blocks[4], 100)
        assert cache.contains(blocks[0])

    def test_aging_finds_victim(self):
        cache = make_cache("srrip")
        blocks = same_set_blocks(cache, 5)
        access = walk(cache)
        for t, block in enumerate(blocks[:4]):
            cache.insert(block, t + 1)
            access(block, 10 + t, REQ_LOAD)         # all rrpv=0
        cache.insert(blocks[4], 100)                # must still evict one
        assert sum(cache.contains(b) for b in blocks) == 4


class TestRandom:
    def test_deterministic(self):
        c1, c2 = make_cache("random"), make_cache("random")
        blocks = same_set_blocks(c1, 8)
        for cache in (c1, c2):
            for t, block in enumerate(blocks):
                cache.insert(block, t + 1)
        assert c1.state_signature() == c2.state_signature()

    def test_capacity_respected(self):
        cache = make_cache("random")
        blocks = same_set_blocks(cache, 20)
        for t, block in enumerate(blocks):
            cache.insert(block, t + 1)
        assert all(len(s) <= 4 for s in cache.sets)


class TestEndToEnd:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "random"])
    def test_system_runs_with_policy(self, policy):
        from dataclasses import replace
        from repro.sim.params import baseline
        from repro.sim.system import System
        from repro.workloads.synthetic import stream_trace
        params = baseline()
        params = replace(params, l1d=replace(params.l1d,
                                             replacement=policy))
        trace = stream_trace("rp", 1000, streams=2, seed=8)
        result = System(params=params).run(trace)
        assert result.ipc > 0
