"""Out-of-order core timing: the dispatch, load-queue and retire rules.

Each rule is checked on a small hand-built trace run through ``System``,
which applies it per record (``System._stepper``), against a closed-form
cycle count.  ``warmup=0`` keeps every record measured, so a run's
``cycles`` is its last retire cycle.  The TLB is off, so a load reaches
the data cache ``load_issue_latency`` after dispatch.
"""

from dataclasses import replace

from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import CoreParams, baseline
from repro.sim.system import System
from repro.sim.tlb import TLBParams
from repro.workloads.trace import (FLAG_BRANCH, FLAG_MISPREDICT,
                                   FLAG_WRONG_PATH, Trace, alu, load)

MISPREDICT = (1, -1, FLAG_BRANCH | FLAG_MISPREDICT)
WRONG_ALU = (2, -1, FLAG_WRONG_PATH)


def make_params(**core):
    return replace(baseline(), core=CoreParams(**core),
                   tlb=TLBParams(enabled=False))


def make_system(**core):
    return System(make_params(**core))


def cycles(records, warmup=0.0, **core):
    return make_system(**core).run(Trace("t", records), warmup).cycles


def dram_completion(block, **core):
    """When a load of ``block`` dispatched at cycle 0 into an idle
    hierarchy completes: it reaches the L1D ``load_issue_latency`` later
    and misses to DRAM."""
    params = make_params(**core)
    hierarchy = MemoryHierarchy(params)
    return hierarchy.demand_load(block, params.core.load_issue_latency,
                                 1).completion


class TestDispatch:
    def test_issue_width_per_cycle(self):
        # Six one-cycle ALU records dispatch ``issue_width`` per cycle and
        # each retires a cycle after dispatch (retire width 4).
        six = [alu(1)] * 6
        assert cycles(six, issue_width=1, alu_latency=1) == 6
        assert cycles(six, issue_width=2, alu_latency=1) == 3
        assert cycles(six, issue_width=6, alu_latency=1) == 2

    def test_rob_limits_dispatch(self):
        # Four 100-cycle records fill a 4-entry ROB at cycle 0; the next
        # four dispatch when the first retires, at 100, and retire at 200.
        eight = [alu(1)] * 8
        assert cycles(eight, issue_width=4, rob_entries=4, lq_entries=4,
                      alu_latency=100) == 200
        # With room in the ROB the second four dispatch at cycle 1.
        assert cycles(eight, issue_width=4, alu_latency=100) == 101

    def test_wrong_path_skips_rob_check(self):
        # Wrong-path records neither wait for nor hold a ROB entry: with
        # one committed record in a 2-entry ROB, the three wrong-path
        # records dispatch at cycles 1-3 and the next committed record
        # at 4, not at 100 when the first one retires.
        records = [alu(1)] + [WRONG_ALU] * 3 + [alu(1)]
        assert cycles(records, issue_width=1, rob_entries=2, lq_entries=2,
                      alu_latency=100) == 104

    def test_redirect_stalls_frontend(self):
        # The mispredicted branch dispatches at 0 and resolves at 1; the
        # next committed record dispatches after the refill penalty.
        penalty = 15
        records = [MISPREDICT, alu(1)]
        assert cycles(records, issue_width=1, alu_latency=1,
                      mispredict_penalty=penalty) == 1 + penalty + 1

    def test_redirect_in_past_ignored(self):
        # Thirty wrong-path records take the front end to cycle 31, past
        # the redirect at 16: the committed record dispatches at 31.
        records = [MISPREDICT] + [WRONG_ALU] * 30 + [alu(1)]
        assert cycles(records, issue_width=1, alu_latency=1,
                      mispredict_penalty=15) == 32


class TestRetire:
    def test_in_order(self):
        # Four ALU records behind a DRAM miss wait for it: three retire
        # in its cycle, the fourth in the next (retire width 4).
        completion = dram_completion(0)
        assert completion > 100
        assert cycles([load(1, 0)] + [alu(1)] * 4) == completion + 1

    def test_retire_width(self):
        # Six records dispatched together retire ``retire_width`` per
        # cycle from cycle 1.
        six = [alu(1)] * 6
        for width, expected in ((1, 6), (2, 3), (4, 2), (6, 1)):
            assert cycles(six, issue_width=6, retire_width=width,
                          alu_latency=1) == expected, width

    def test_retire_after_dispatch(self):
        # A zero-latency record still retires a cycle after dispatch.
        assert cycles([alu(1)] * 6, issue_width=1, alu_latency=0) == 6

    def test_final_retire_tracks_max(self):
        # The measured cycles run from the last retire at the warm-up
        # reset (the third record's, at 3) to the run's last retire (6).
        system = make_system(issue_width=1, alu_latency=1)
        result = system.run(Trace("t", [alu(1)] * 6), warmup=0.5)
        assert system.core.final_retire == 6
        assert result.committed == 3
        assert result.cycles == 3


class TestLoadQueue:
    def test_lq_backpressure(self):
        # Three loads of one block dispatched together.  With a free LQ
        # entry each, the second and third merge with the first's miss
        # and complete with it.  With one entry, each waits for the
        # previous load to complete and then hits the L1D.
        completion = dram_completion(0)
        l1d_latency = baseline().l1d.latency
        three = [load(1, 0)] * 3
        assert cycles(three) == completion
        assert cycles(three, lq_entries=1) == completion + 2 * l1d_latency

    def test_suf_reads_each_loads_own_hit_level(self):
        # A load's SUF hit level stays with it until its commit, although
        # its LQ entry frees at completion.  With 4 LQ entries and 352
        # ROB entries, the fifth load issues when the DRAM miss completes,
        # before the miss commits.  SUF must still see the miss's level:
        # it writes the miss's GM line to the L1D and drops the four L1D
        # hits' updates, all correctly.
        system = System(make_params(lq_entries=4, rob_entries=352),
                        secure=True, suf=True)
        hits = [(i + 1) * 64 for i in range(4)]
        for block in hits:
            system.hierarchy.l1d.insert(block, 0)
        records = [load(1, 1000 << 12)]
        records += [load(2, block << 6) for block in hits]
        records += [alu(3)] * 20
        gm = system.run(Trace("t", records), warmup=0.0).gm
        assert gm.commit_writes == 1
        assert gm.commit_drops_suf == 4
        assert gm.suf_mispredict == 0

    def test_xlq_fields_stay_with_their_load(self, xlq_run):
        # Five DRAM misses through a 4-entry LQ: the fifth issues when the
        # first completes, before the first commits.  Each commit still
        # trains TSB on its own load's access cycle and fetch latency.
        blocks = [(1000 + i) << 6 for i in range(5)]
        records = [load(1, block << 6) for block in blocks]
        records += [alu(2)] * 20
        _, _, access, commit = xlq_run(
            make_params(lq_entries=4, rob_entries=352), records)
        own = {event.block: (event.access_cycle, event.fetch_latency)
               for event in access}
        assert len(set(own.values())) == 5
        for event in commit:
            assert (event.access_cycle, event.fetch_latency) \
                == own[event.block], event.block
        assert [event.block for event in commit] == blocks
