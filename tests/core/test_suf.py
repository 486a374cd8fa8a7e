"""The Secure Update Filter: decision rule, hit levels and storage."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.suf import (HIT_DRAM, HIT_L1D, HIT_L2, HIT_LLC,
                            HitLevelQueue, suf_decide)
from repro.sim.cache import LEVEL_DRAM, LEVEL_L1D, LEVEL_L2, LEVEL_LLC
from repro.sim.system import System
from repro.workloads.trace import Trace, alu, load


class TestEncoding:
    def test_matches_hierarchy_levels(self):
        """The contribution's 2-bit encoding equals the simulator's level
        indices (asserted because suf.py redefines them)."""
        assert HIT_L1D == LEVEL_L1D
        assert HIT_L2 == LEVEL_L2
        assert HIT_LLC == LEVEL_LLC
        assert HIT_DRAM == LEVEL_DRAM


class TestDecide:
    """Section IV's filtering rule, case by case."""

    def test_l1d_drops_everything(self):
        decision = suf_decide(HIT_L1D)
        assert decision.drop
        assert not decision.gm_propagate and not decision.wbb

    def test_l2_stops_at_l1d(self):
        decision = suf_decide(HIT_L2)
        assert not decision.drop
        assert not decision.gm_propagate  # L2 already has the line

    def test_llc_propagates_to_l2_only(self):
        decision = suf_decide(HIT_LLC)
        assert not decision.drop
        assert decision.gm_propagate and not decision.wbb

    def test_dram_full_propagation(self):
        decision = suf_decide(HIT_DRAM)
        assert not decision.drop
        assert decision.gm_propagate and decision.wbb

    @given(level=st.integers(min_value=0, max_value=3))
    def test_monotone_propagation_depth(self, level):
        """Deeper providers always propagate at least as far."""
        decision = suf_decide(level)
        depth = (0 if decision.drop else
                 1 + int(decision.gm_propagate) + int(decision.wbb))
        expected = {HIT_L1D: 0, HIT_L2: 1, HIT_LLC: 2, HIT_DRAM: 3}
        assert depth == expected[level]


class TestHitLevelQueue:
    """A load's hit level travels with its commit payload to SUF.

    An LQ lap is checked by ``tests/sim/test_cpu.py::TestLoadQueue::
    test_suf_reads_each_loads_own_hit_level``, and that the levels are
    the four 2-bit codes by ``TestEncoding``.
    """

    def test_record_read_roundtrip(self):
        """Each level a load read at access drives SUF at its commit:
        the L1D hit's update is dropped, the L2 and LLC hits' writes
        stop below their provider, the DRAM miss's propagates fully."""
        system = System(secure=True, suf=True)
        hierarchy = system.hierarchy
        hierarchy.l1d.insert(1, 0)
        hierarchy.l2.insert(2, 0)
        hierarchy.llc.insert(3, 0)
        records = [load(1, block << 6) for block in (1, 2, 3, 4)]
        gm = system.run(Trace("t", records + [alu(2)] * 20),
                        warmup=0.0).gm
        assert gm.commit_drops_suf == 1
        assert gm.commit_writes == 3
        assert gm.wb_stopped_suf == 2
        assert gm.suf_correct == 3
        assert gm.suf_mispredict == 0

    def test_storage_is_paper_012kb(self):
        hlq = HitLevelQueue(lq_entries=128, l1d_lines=768)
        assert hlq.storage_bits() == 128 * 2 + 768
        assert abs(hlq.storage_bits() / 8 / 1024 - 0.12) < 0.01
