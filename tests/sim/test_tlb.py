"""TLB hierarchy (Table II "TLBs" row), through ``System`` runs."""

from dataclasses import replace

from repro.sim.params import CoreParams, baseline
from repro.sim.system import System
from repro.sim.tlb import PAGE_SHIFT, TLBLevelParams, TLBParams
from repro.workloads.trace import Trace, load


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


def translated(blocks, tlb=None):
    """Replay one load per block, each block L1D-resident, through a
    one-entry LQ, with the TLB ``tlb`` (``None``: Table II's) and with
    none.  Each load issues when the previous one completes, so a run
    takes ``1 + sum(translation + L1D latency)`` cycles, and the
    difference is the translation cycles alone.  Returns that difference
    and the TLB run's stats."""
    def run(tlb_params):
        params = replace(baseline(), core=CoreParams(lq_entries=1),
                         tlb=tlb_params)
        system = System(params)
        for block in blocks:
            system.hierarchy.l1d.insert(block, 0)
        return system.run(Trace("t", [load(1, block << 6)
                                      for block in blocks]), warmup=0.0)
    on = run(tlb if tlb is not None else TLBParams())
    off = run(TLBParams(enabled=False))
    assert off.cycles == 1 + len(blocks) * baseline().l1d.latency
    return on.cycles - off.cycles, on.tlb


def page_block(page):
    """A block of ``page``, in L1D set ``page % 64``."""
    return (page << (PAGE_SHIFT - 6)) + page % 64


WALK = TLBParams().stlb.latency + TLBParams().walk_latency


class TestTranslation:
    def test_cold_miss_pays_walk(self):
        delta, stats = translated([page_block(1)])
        assert delta == WALK
        assert stats.dtlb_misses == stats.stlb_misses == 1

    def test_dtlb_hit_is_free(self):
        # Another block of a page in the dTLB costs nothing, right after
        # that page's load and after a load of another page.
        blocks = [page_block(1), page_block(1) + 1, page_block(2),
                  page_block(1) + 2]
        delta, stats = translated(blocks)
        assert delta == 2 * WALK
        assert stats.dtlb_accesses == 4
        assert stats.dtlb_misses == 2

    def test_stlb_catches_dtlb_capacity_misses(self):
        # Page 64 evicts page 0 from dTLB set 0 (16 sets of 4 ways);
        # touching page 0 again misses the dTLB and hits the STLB.
        pages = list(range(65)) + [0]
        delta, stats = translated([page_block(page) for page in pages])
        assert delta == 65 * WALK + TLBParams().stlb.latency
        assert stats.dtlb_misses == 66
        assert stats.stlb_misses == 65

    def test_block_translation(self):
        # A 64-byte block's address is ``block << 6``: blocks 0-63 share
        # page 0, block 64 starts the next page.
        delta, stats = translated([0, 63, 64])
        assert delta == 2 * WALK
        assert stats.dtlb_misses == 2

    def test_disabled_costs_nothing(self):
        disabled = TLBParams(enabled=False)
        delta, stats = translated([page_block(1), page_block(2)], disabled)
        assert delta == 0
        assert stats.dtlb_accesses == 0

    def test_lru_within_set(self):
        # A one-set, two-way dTLB: touching page 0 again makes page 2 the
        # LRU entry, so page 4 evicts it and the last touch of page 0
        # hits.  Three walks; evicting page 0 instead would add an STLB
        # hit and a fourth dTLB miss.
        small = TLBParams(dtlb=TLBLevelParams("d", 2, 2, 1),
                          stlb=TLBLevelParams("s", 4, 4, 8))
        pages = [0, 2, 0, 4, 0]
        delta, stats = translated([page_block(page) for page in pages],
                                  small)
        assert delta == 3 * (8 + small.walk_latency)
        assert stats.dtlb_misses == stats.stlb_misses == 3


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
