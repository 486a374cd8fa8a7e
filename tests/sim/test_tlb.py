"""TLB hierarchy (Table II "TLBs" row)."""

from repro.sim.params import baseline
from repro.sim.system import System
from repro.sim.tlb import (PAGE_SHIFT, TLBHierarchy, TLBLevelParams,
                           TLBParams)
from repro.workloads.trace import Trace, load


def make_tlb(**kw):
    return TLBHierarchy(TLBParams(**kw))


class TestParams:
    def test_table2_defaults(self):
        params = baseline().tlb
        assert params.dtlb.entries == 64
        assert params.dtlb.ways == 4
        assert params.dtlb.latency == 1
        assert params.stlb.entries == 1536
        assert params.stlb.ways == 12
        assert params.stlb.latency == 8

    def test_set_counts(self):
        params = baseline().tlb
        assert params.dtlb.sets == 16
        assert params.stlb.sets == 128


class TestTranslation:
    def test_cold_miss_pays_walk(self):
        tlb = make_tlb()
        latency = tlb.translate(0x1000)
        assert latency == tlb.params.stlb.latency \
            + tlb.params.walk_latency
        assert tlb.stats.stlb_misses == 1

    def test_dtlb_hit_is_free(self):
        tlb = make_tlb()
        tlb.translate(0x1000)
        assert tlb.translate(0x1008) == 0   # same page
        assert tlb.stats.dtlb_misses == 1

    def test_stlb_catches_dtlb_capacity_misses(self):
        tlb = make_tlb()
        pages = range(0, 80)   # more than the 64-entry dTLB
        for page in pages:
            tlb.translate(page << PAGE_SHIFT)
        # Re-touching an early page misses the dTLB but hits the STLB.
        latency = tlb.translate(0)
        assert latency == tlb.params.stlb.latency
        assert tlb.stats.stlb_misses == 80

    def test_block_translation(self):
        # A 64-byte block's address is ``block << 6``: blocks 0-63 share
        # page 0, block 64 starts the next page.
        tlb = make_tlb()
        tlb.translate(0 << 6)
        assert tlb.translate(63 << 6) == 0
        assert tlb.translate(64 << 6) > 0

    def test_disabled_costs_nothing(self):
        tlb = make_tlb(enabled=False)
        assert tlb.translate(0x1000) == 0
        assert tlb.stats.dtlb_accesses == 0

    def test_flush(self):
        tlb = make_tlb()
        tlb.translate(0x1000)
        tlb.flush()
        assert tlb.translate(0x1000) > 0

    def test_lru_within_set(self):
        small = TLBParams(dtlb=TLBLevelParams("d", 2, 2, 1),
                          stlb=TLBLevelParams("s", 4, 4, 8))
        tlb = TLBHierarchy(small)
        tlb.translate(0 << PAGE_SHIFT)
        tlb.translate(2 << PAGE_SHIFT)   # 1-set dTLB: {0, 2}
        tlb.translate(0 << PAGE_SHIFT)   # touch 0
        tlb.translate(4 << PAGE_SHIFT)   # evicts 2
        assert tlb.translate(0 << PAGE_SHIFT) == 0


class TestSystemIntegration:
    def test_tlb_stats_in_result(self):
        trace = Trace("t", [load(1, i * 4096) for i in range(32)])
        result = System().run(trace, warmup=0.0)
        assert result.tlb is not None
        assert result.tlb.dtlb_accesses == 32
        assert result.tlb.stlb_misses == 32   # one new page per load

    def test_tlb_misses_slow_loads(self):
        # 64 pages touched round-robin: thrashes the 64-entry dTLB just at
        # capacity; compare against the same trace within one page.
        spread = Trace("spread",
                       [load(1, (i % 100) * 4096) for i in range(400)])
        dense = Trace("dense", [load(1, (i % 64) * 64) for i in range(400)])
        r_spread = System().run(spread, warmup=0.0)
        r_dense = System().run(dense, warmup=0.0)
        assert r_spread.tlb.dtlb_misses > r_dense.tlb.dtlb_misses
