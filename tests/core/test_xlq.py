"""The X-LQ (TSB's timing-preservation fields), through ``System``.

Each committed load carries its X-LQ fields to its commit, and the commit
drain rebuilds TSB's training event from them.  These runs record both
event streams of one secure system (``xlq_run``, tests/conftest.py): the
on-access events a shadow prefetcher sees and the on-commit events a
``requires_xlq`` prefetcher trains on.  Warm-up is 0 and the TLB is off.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.xlq import LAT_MASK, XLQ
from repro.prefetchers.base import FILL_L1D, PrefetchRequest
from repro.security.attacks import _domain_flush
from repro.sim.params import CoreParams, DRAMParams, baseline
from repro.sim.tlb import TLBParams
from repro.workloads.trace import (FLAG_BRANCH, FLAG_MISPREDICT, Trace,
                                   alu, load)

MISPREDICT = (3, -1, FLAG_BRANCH | FLAG_MISPREDICT)
WRAP = 1 << 16


def make_params(dram=None, **core):
    return replace(baseline(), core=CoreParams(**core),
                   tlb=TLBParams(enabled=False), dram=dram or DRAMParams())


def miss(block):
    """A load of a block no earlier record touched: a DRAM miss."""
    return load(1, block << 6)


def tail():
    """ALU records that let the last loads retire."""
    return [alu(2)] * 20


def misses_of(access):
    return [event for event in access if event.hit_level >= 1]


def same_fields(access_event, commit_event):
    """Every field but ``cycle`` (the access versus the commit cycle)."""
    return access_event._replace(cycle=commit_event.cycle) == commit_event


class TestRecording:
    def test_miss_then_fill(self, xlq_run):
        """An L1D miss trains at commit on its access cycle and its fetch
        latency, not on the commit cycle and the on-commit write."""
        _, _, access, commit = xlq_run(make_params(),
                                       [miss(1000)] + tail())
        [event] = commit
        assert same_fields(access[0], event)
        assert event.cycle > event.access_cycle
        assert event.fetch_latency > baseline().llc.latency
        assert not event.prefetch_hit

    def test_prefetch_hit_sets_hitp(self, xlq_run):
        """A hit on a prefetched line sets Hitp and carries that line's
        fetch latency instead of the load's own L1D latency."""
        block = 1000
        # The first load's commit (at about 200) prefetches the next
        # block into the L1D; the mispredict holds the second load back
        # until cycle 1001, after that prefetch has filled.
        records = [miss(block), MISPREDICT, load(1, (block + 1) << 6)]
        system, _, access, commit = xlq_run(
            make_params(mispredict_penalty=1000), records + tail(),
            issue={block: [PrefetchRequest(block + 1, FILL_L1D)]})
        hit = [event for event in commit if event.block == block + 1]
        [event] = hit
        assert event.prefetch_hit
        line = system.hierarchy.l1d.lookup(block + 1)
        assert event.fetch_latency == line.latency
        assert access[-1].block == block + 1 and access[-1].prefetch_hit
        assert access[-1].fetch_latency < event.fetch_latency
        assert event.access_cycle == access[-1].access_cycle

    def test_regular_hit_leaves_invalid(self, xlq_run):
        """Plain L1D hits take no X-LQ entry: no training at commit."""
        def resident(system):
            system.hierarchy.l1d.insert(1000, 0)

        _, _, access, commit = xlq_run(
            make_params(), [load(1, 1000 << 6)] + tail(), setup=resident)
        assert [event.hit_level for event in access] == [0]
        assert commit == []

    def test_read_invalidates(self, xlq_run):
        """A commit reads its own load's fields once: with one LQ entry,
        a plain hit that follows a miss through the same entry trains
        nothing."""
        records = [miss(1000), load(1, 1000 << 6)] + tail()
        _, _, access, commit = xlq_run(make_params(lq_entries=1), records)
        assert [event.hit_level for event in access] == [3, 0]
        assert [event.block for event in commit] == [1000]

    def test_slot_isolation(self, xlq_run):
        """A wrong-path load's fields reach no commit: only the
        committed miss trains, and the committed hit after the
        wrong-path miss takes no entry."""
        wrong = load(1, 2000 << 6, wrong_path=True)
        records = [miss(1000), wrong, load(1, 1000 << 6)] + tail()
        _, _, access, commit = xlq_run(make_params(lq_entries=2), records)
        assert [event.block for event in access] == [1000, 2000, 1000]
        [event] = commit
        assert same_fields(access[0], event)


@pytest.fixture(scope="module")
def long_run(xlq_run):
    """A DRAM miss, a GM hit on the same block and a mispredict, 1,400
    times: each 150-cycle redirect moves the clock past 3 x 2^16 cycles
    in about 4,000 records, and a miss issues every 152 cycles, so some
    miss is in flight across every wrap of the 16-bit timestamp."""
    records = []
    for k in range(1400):
        block = (1 << 20) + k * 97
        records += [miss(block), load(1, block << 6), MISPREDICT]
    return xlq_run(make_params(mispredict_penalty=150), records + tail())


class TestTimestampWraparound:
    def test_16bit_reconstruction(self, long_run):
        """Access cycles are stored in 16 bits and rebuilt at commit,
        field by field equal to the access-time event, across three
        wraps."""
        _, _, access, commit = long_run
        assert commit[-1].cycle > 3 * WRAP
        misses = misses_of(access)
        assert len(misses) == 1400 == len(commit)
        for access_event, commit_event in zip(misses, commit):
            assert same_fields(access_event, commit_event), commit_event
        straddle = [event for event in commit
                    if event.access_cycle // WRAP != event.cycle // WRAP]
        assert len(straddle) >= 3

    def test_large_absolute_cycles(self, long_run):
        """The rebuilt access cycle is absolute, not its 16-bit residue:
        each lies within one wrap before its commit."""
        _, _, _, commit = long_run
        assert max(event.access_cycle for event in commit) > 3 * WRAP
        for event in commit:
            assert 0 < event.cycle - event.access_cycle < WRAP

    def test_latency_saturates_at_12_bits(self, xlq_run):
        """A DRAM latency beyond 12 bits reads 4,095 at commit."""
        params = make_params(dram=DRAMParams(controller_latency=5000))
        _, _, access, commit = xlq_run(params, [miss(1000)] + tail())
        [event] = commit
        assert access[0].fetch_latency > LAT_MASK
        assert event.fetch_latency == LAT_MASK
        assert event.access_cycle == access[0].access_cycle


class TestFlush:
    def test_domain_switch_clears_all(self, xlq_run):
        """No X-LQ fields cross a domain switch: after the victim's run
        and the switch, the next domain's commits train only on its own
        loads' fields."""
        system, _, access, commit = xlq_run(make_params(),
                                            [miss(1000)] + tail())
        assert len(commit) == 1
        _domain_flush(system)
        system.run(Trace("next", [miss(3000), miss(3001)] + tail()),
                   warmup=0.0)
        later = commit[1:]
        assert [event.block for event in later] == [3000, 3001]
        for access_event, commit_event in zip(misses_of(access)[1:],
                                              later):
            assert same_fields(access_event, commit_event)


class TestStorage:
    def test_paper_047kb(self):
        xlq = XLQ(entries=128)
        assert xlq.storage_bits() == 128 * (1 + 1 + 16 + 12)
        assert abs(xlq.storage_bits() / 8 / 1024 - 0.47) < 0.01


@settings(max_examples=30, deadline=None)
@given(wrap=st.integers(min_value=1, max_value=3),
       before=st.integers(min_value=0, max_value=600))
def test_reconstruction_within_window(xlq_run, wrap, before):
    """An access up to 600 cycles before a wrap rebuilds exactly at
    commit, whichever side of the wrap the commit falls on.  The
    mispredict's redirect sets the load's access cycle: dispatch at
    ``1 + penalty``, access one cycle later."""
    penalty = wrap * WRAP - before - 2
    records = [MISPREDICT, miss(1000)] + tail()
    _, _, access, commit = xlq_run(make_params(mispredict_penalty=penalty),
                                   records)
    [event] = commit
    assert access[0].access_cycle == wrap * WRAP - before
    assert same_fields(access[0], event)
