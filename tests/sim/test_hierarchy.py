"""Memory hierarchy: demand paths, GhostMinion flows, SUF integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.suf import suf_decide
from repro.obs import EventTrace
from repro.security.mitigations import randomized_llc_params
from repro.sim.cache import LEVEL_DRAM, LEVEL_L1D, LEVEL_L2, LEVEL_LLC
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import baseline
from repro.sim.stats import REQ_COMMIT


def make_hierarchy(secure=False, suf=False):
    return MemoryHierarchy(baseline(), secure=secure,
                           commit_filter=suf_decide if suf else None)


class TestNonSecurePath:
    def test_miss_fills_all_levels(self):
        h = make_hierarchy()
        result = h.demand_load(5, 0, timestamp=1)
        assert result.hit_level == LEVEL_DRAM
        assert h.l1d.contains(5)
        assert h.l2.contains(5)
        assert h.llc.contains(5)

    def test_l1d_hit_level(self):
        h = make_hierarchy()
        first = h.demand_load(5, 0, timestamp=1)
        second = h.demand_load(5, first.completion + 10, timestamp=2)
        assert second.hit_level == LEVEL_L1D
        assert second.fetch_latency == h.params.l1d.latency

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        t = 0
        target = 5
        h.demand_load(target, t, timestamp=1)
        # Evict block 5 from the 12-way L1D set by loading 12 conflicting
        # blocks (same set: stride = number of sets).
        sets = h.params.l1d.sets
        t = 100000
        for i in range(1, 13):
            h.demand_load(target + i * sets, t, timestamp=1 + i)
            t += 1000
        result = h.demand_load(target, t + 1000, timestamp=99)
        assert result.hit_level == LEVEL_L2

    def test_fetch_latency_is_observed_latency(self):
        h = make_hierarchy()
        result = h.demand_load(5, 0, timestamp=1)
        assert result.fetch_latency == result.completion - 0
        assert result.fetch_latency > 100  # DRAM-scale


class TestSecureSpeculativePath:
    def test_invisible_miss(self):
        """A speculative miss fills only the GM (Fig. 2, flow 1)."""
        h = make_hierarchy(secure=True)
        result = h.demand_load(5, 0, timestamp=1)
        assert result.hit_level == LEVEL_DRAM
        assert not result.gm_hit
        assert not h.l1d.contains(5)
        assert not h.l2.contains(5)
        assert not h.llc.contains(5)
        assert h.gm.lookup(5) is not None

    def test_gm_hit_on_reuse(self):
        h = make_hierarchy(secure=True)
        first = h.demand_load(5, 0, timestamp=1)
        second = h.demand_load(5, first.completion + 5, timestamp=2)
        assert second.gm_hit
        assert second.hit_level == LEVEL_L1D  # the 2-bit "00" encoding
        assert h.gm_stats.gm_hits == 1

    def test_gm_hit_never_faster_than_l1d(self):
        h = make_hierarchy(secure=True)
        first = h.demand_load(5, 0, timestamp=1)
        t = first.completion + 10
        second = h.demand_load(5, t, timestamp=2)
        assert second.completion - t >= h.params.l1d.latency

    def test_l1d_hit_takes_no_gm_entry(self):
        """L1D-provided data parks nowhere: commit just re-touches L1D."""
        h = make_hierarchy(secure=True)
        h.l1d.insert(5, 0)
        result = h.demand_load(5, 10, timestamp=1)
        assert result.hit_level == LEVEL_L1D
        assert not result.gm_hit
        assert h.gm.lookup(5) is None

    def test_spec_hits_do_not_touch_replacement(self):
        h = make_hierarchy(secure=True)
        h.l2.insert(7, 0)
        sig = h.l2.state_signature()
        h.demand_load(7, 10, timestamp=1)
        assert h.l2.state_signature() == sig


class TestCommitPath:
    def _spec_then_commit(self, h, block=5, hit_level=None):
        result = h.demand_load(block, 0, timestamp=1)
        level = hit_level if hit_level is not None else result.hit_level
        h.commit_load(block, result.completion + 50, level)
        return result

    def test_commit_write_moves_gm_to_l1d(self):
        h = make_hierarchy(secure=True)
        self._spec_then_commit(h)
        assert h.l1d.contains(5)
        assert h.gm.lookup(5) is None
        assert h.gm_stats.commit_writes == 1

    def test_commit_refetch_on_gm_eviction(self):
        h = make_hierarchy(secure=True)
        result = h.demand_load(5, 0, timestamp=1)
        h.gm.invalidate(5)
        h.commit_load(5, result.completion + 50, result.hit_level)
        assert h.gm_stats.commit_refetches == 1
        assert h.l1d.contains(5)

    def test_commit_write_propagates_on_eviction(self):
        """Without SUF, commit data reaches L2 when evicted from L1D."""
        h = make_hierarchy(secure=True)
        self._spec_then_commit(h)
        sets = h.params.l1d.sets
        t = 10 ** 6
        for i in range(1, 13):
            h.l1d.insert(5 + i * sets, t + i)
        assert not h.l1d.contains(5)
        assert h.l2.contains(5)

    def test_suf_drops_l1d_hits(self):
        h = make_hierarchy(secure=True, suf=True)
        h.l1d.insert(5, 0)
        result = h.demand_load(5, 10, timestamp=1)
        h.commit_load(5, result.completion + 50, result.hit_level)
        assert h.gm_stats.commit_drops_suf == 1
        assert h.gm_stats.commit_writes == 0
        assert h.gm_stats.commit_refetches == 0
        assert h.gm_stats.suf_correct == 1

    def test_suf_mispredict_detected(self):
        h = make_hierarchy(secure=True, suf=True)
        h.l1d.insert(5, 0)
        result = h.demand_load(5, 10, timestamp=1)
        # The line is evicted between access and commit.
        sets = h.params.l1d.sets
        for i in range(1, 13):
            h.l1d.insert(5 + i * sets, 1000 + i)
        h.commit_load(5, result.completion + 5000, result.hit_level)
        assert h.gm_stats.suf_mispredict == 1

    def test_suf_stops_propagation_for_l2_hits(self):
        """Data served by the L2: commit write installs in L1D but must
        not propagate back to the L2 on eviction (it is already there)."""
        h = make_hierarchy(secure=True, suf=True)
        h.l2.insert(5, 0)
        result = h.demand_load(5, 10, timestamp=1)
        assert result.hit_level == LEVEL_L2
        h.commit_load(5, result.completion + 50, result.hit_level)
        assert h.l1d.contains(5)
        line = h.l1d.lookup(5)
        assert not line.gm_propagate
        assert h.gm_stats.wb_stopped_suf == 1

    def test_suf_llc_hit_propagates_to_l2_only(self):
        h = make_hierarchy(secure=True, suf=True)
        h.llc.insert(5, 0)
        result = h.demand_load(5, 10, timestamp=1)
        assert result.hit_level == LEVEL_LLC
        h.commit_load(5, result.completion + 50, result.hit_level)
        line = h.l1d.lookup(5)
        assert line.gm_propagate and not line.wbb

    def test_suf_dram_full_propagation(self):
        h = make_hierarchy(secure=True, suf=True)
        result = h.demand_load(5, 0, timestamp=1)
        assert result.hit_level == LEVEL_DRAM
        h.commit_load(5, result.completion + 50, result.hit_level)
        line = h.l1d.lookup(5)
        assert line.gm_propagate and line.wbb

    def test_commit_latency_returned(self):
        """The naive on-commit Berti 'fetch latency' (Section V-B)."""
        h = make_hierarchy(secure=True)
        result = h.demand_load(5, 0, timestamp=1)
        latency = h.commit_load(5, result.completion + 50,
                                result.hit_level)
        assert latency == h.params.gm.latency

    def test_nonsecure_commit_is_noop(self):
        h = make_hierarchy()
        assert h.commit_load(5, 100, LEVEL_DRAM) == 0

    def test_suf_requires_secure(self):
        with pytest.raises(ValueError, match="SUF"):
            MemoryHierarchy(baseline(), secure=False,
                            commit_filter=suf_decide)


class TestPrefetchIssue:
    def test_fill_levels(self):
        h = make_hierarchy()
        h.issue_prefetch(5, 0, LEVEL_L1D)
        assert h.l1d.contains(5)
        h.issue_prefetch(900, 0, LEVEL_L2)
        assert not h.l1d.contains(900)
        assert h.l2.contains(900)
        h.issue_prefetch(1800, 0, LEVEL_LLC)
        assert not h.l2.contains(1800)
        assert h.llc.contains(1800)
        assert [level.stats.prefetches_issued for level in h.levels()] \
            == [1, 1, 1]

    def test_l1_demotes_under_mshr_pressure(self):
        h = make_hierarchy()
        # Occupy half the L1D MSHRs with demand misses.
        for i in range(8):
            h.demand_load(1000 + i * 64, 0, timestamp=i)
        h.issue_prefetch(5, 1, LEVEL_L1D)
        assert not h.l1d.contains(5)
        assert h.l2.contains(5)
        assert h.l1d.stats.prefetches_issued == 0
        assert h.l2.stats.prefetches_issued == 1

    def test_backpressure_drops(self):
        h = make_hierarchy()
        # Saturate the low-priority DRAM lane.
        for i in range(100):
            h.dram.access(i * 4096, 0, demand=False)
        h.issue_prefetch(5, 0, LEVEL_L1D)
        assert h.l1d.stats.prefetches_dropped == 1
        assert not h.l1d.contains(5)


def at_backlog_margin(h, time):
    """Put the DRAM low-priority bus exactly at the prefetch throttle's
    margin at ``time``: not yet backlogged, but one more low-priority
    request makes it so."""
    dram = h.dram
    dram._bus_free_low = time + dram._service + dram._backlog_margin


def pf_events(h):
    return [event for event in h.l1d.events.events()
            if event[0] in ("pf_drop", "pf_issue")]


class TestPrefetchIssuer:
    """The hierarchy's one prefetch issuer, ``issue_prefetches``."""

    @staticmethod
    def traced(params=None):
        h = MemoryHierarchy(params if params is not None else baseline())
        h.attach_events(EventTrace())
        return h

    @pytest.mark.parametrize("level", [LEVEL_L1D, LEVEL_L2, LEVEL_LLC])
    def test_throttle_charges_the_requested_level(self, level):
        h = self.traced()
        # Half the L1D MSHRs busy: an L1D request would be demoted to the
        # L2, but the throttle comes first and charges the L1D.
        for i in range(8):
            h.demand_load(1000 + i * 64, 0, timestamp=i)
        for i in range(100):
            h.dram.access(i * 4096, 0, demand=False)
        h.issue_prefetches([(5, level), (6, level)], 1)
        dropped = [lvl.stats.prefetches_dropped for lvl in h.levels()]
        assert dropped == [2 if lvl == level else 0 for lvl in range(3)]
        assert all(lvl.stats.prefetches_issued == 0 for lvl in h.levels())
        unit = ("L1D", "L2", "LLC")[level]
        assert pf_events(h) == [("pf_drop", 1, 5, unit),
                                ("pf_drop", 1, 6, unit)]

    def test_events_follow_request_order(self):
        h = make_hierarchy()
        h.l1d.insert(5, 0)
        h.l2.insert(7, 0)
        h.attach_events(EventTrace())
        h.issue_prefetches([(5, LEVEL_L1D), (6, LEVEL_L1D), (7, LEVEL_L2),
                            (8, LEVEL_LLC)], 10)
        events = h.l1d.events.events()
        assert pf_events(h) == [("pf_drop", 10, 5, "L1D"),
                                ("pf_issue", 10, 6, "L1D"),
                                ("pf_drop", 10, 7, "L2"),
                                ("pf_issue", 10, 8, "LLC")]
        # Each issue comes before the fills its walk makes.
        kinds = [(kind, block, unit) for kind, _, block, unit in events]
        assert kinds == [("pf_drop", 5, "L1D"), ("pf_issue", 6, "L1D"),
                         ("pf_fill", 6, "LLC"), ("pf_fill", 6, "L2"),
                         ("pf_fill", 6, "L1D"), ("pf_drop", 7, "L2"),
                         ("pf_issue", 8, "LLC"), ("pf_fill", 8, "LLC")]

    @pytest.mark.parametrize("level", [LEVEL_L1D, LEVEL_L2, LEVEL_LLC])
    def test_an_issue_is_seen_by_the_next_request(self, level):
        # The throttle is evaluated once per call, and again after a
        # request enters the memory system: the first prefetch's DRAM
        # read takes the channel past the margin, so the second one of
        # the same call is dropped.
        h = make_hierarchy()
        at_backlog_margin(h, 100)
        h.issue_prefetches([(5, level), (6, level)], 100)
        stats = h.levels()[level].stats
        assert (stats.prefetches_issued, stats.prefetches_dropped) == (1, 1)
        assert h.levels()[level].contains(5)

    def test_an_l1d_issue_can_demote_the_next_request(self):
        # Seven of 16 L1D MSHRs busy: the first L1D prefetch takes the
        # eighth, so the second one of the call is demoted to the L2.
        h = make_hierarchy()
        for i in range(7):
            h.demand_load(1000 + i * 64, 0, timestamp=i)
        h.issue_prefetches([(5, LEVEL_L1D), (6, LEVEL_L1D)], 1)
        assert h.l1d.stats.prefetches_issued == 1
        assert h.l2.stats.prefetches_issued == 1
        assert h.l1d.contains(5) and not h.l1d.contains(6)
        assert h.l2.contains(6)

    def test_keyed_llc(self):
        """rand-llc: the LLC's drop check finds a line through the keyed
        set index."""
        h = MemoryHierarchy(randomized_llc_params(baseline()))
        sets = h.params.llc.sets
        h.llc.insert(3 * sets, 0)
        h.issue_prefetches([(3 * sets, LEVEL_LLC), (5 * sets, LEVEL_LLC),
                            (5 * sets, LEVEL_LLC)], 10)
        assert h.llc.stats.prefetches_issued == 1
        assert h.llc.stats.prefetches_dropped == 2
        assert h.llc.contains(5 * sets)

    @staticmethod
    def _state(h):
        return ([level.stats.snapshot() for level in h.levels()],
                h.dram.stats.snapshot(), h.dram._bus_free,
                h.dram._bus_free_low)

    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(st.tuples(
        st.integers(0, 40),
        st.lists(st.tuples(st.integers(0, 4095), st.integers(0, 2)),
                 max_size=24)), max_size=30),
        keyed=st.booleans(), backlogged=st.booleans())
    def test_one_call_matches_one_request_at_a_time(self, calls, keyed,
                                                    backlogged):
        """Evaluating the throttle and the demotion once per call, and
        again only after a request enters, equals evaluating them for
        every request: same counters, DRAM cursors and events."""
        params = randomized_llc_params(baseline()) if keyed \
            else baseline()
        batched, single = self.traced(params), self.traced(params)
        if backlogged:
            # Saturate the low-priority DRAM lane, as a prefetch burst
            # would.
            for h in (batched, single):
                for i in range(100):
                    h.dram.access(i * 4096, 0, False)
        time = 0
        for gap, requests in calls:
            time += gap
            batched.issue_prefetches(requests, time)
            for block, fill_level in requests:
                single.issue_prefetch(block, time, fill_level)
            assert self._state(batched) == self._state(single)
        assert batched.l1d.events.events() == single.l1d.events.events()


class TestFlush:
    def test_flush_speculative_clears_gm(self):
        h = make_hierarchy(secure=True)
        h.demand_load(5, 0, timestamp=1)
        h.flush_speculative()
        assert h.gm.lookup(5) is None

    def test_reset_stats(self):
        h = make_hierarchy(secure=True)
        h.demand_load(5, 0, timestamp=1)
        h.reset_stats()
        assert h.l1d.stats.total_accesses() == 0
        assert h.gm_stats.gm_misses == 0
        assert h.dram.stats.requests == 0


class TestRefetchBatchResolver:
    """The batched re-fetch resolver itself (``_refetch_batch``).

    Installed only for secure plain-chain hierarchies; for windows
    without duplicate blocks its completions and resulting cache state
    must be bit-identical to the sequential REQ_COMMIT descent it
    amortizes.
    """

    def _twins(self):
        return make_hierarchy(secure=True), make_hierarchy(secure=True)

    def test_installed_only_when_secure(self):
        assert make_hierarchy(secure=True)._refetch_batch is not None
        assert make_hierarchy()._refetch_batch is None

    def test_resident_blocks_match_sequential(self):
        seq, bat = self._twins()
        sets = seq.params.l1d.sets
        blocks = [5, 9, 5 + sets, 17, 9 + 2 * sets]
        for h in (seq, bat):
            for b in blocks:
                h.l1d.insert(b, 0)
        pairs = [(b, 1000 + 40 * i) for i, b in enumerate(blocks)]
        want = [seq._l1d_access(b, t, REQ_COMMIT)[0] for b, t in pairs]
        assert bat._refetch_batch(pairs) == want
        assert bat.l1d.state_signature() == seq.l1d.state_signature()

    def test_dram_bound_blocks_match_sequential(self):
        # Distinct DRAM-bound blocks: the deferred shared handoff must
        # still give each block its individual descent + DRAM service.
        seq, bat = self._twins()
        pairs = [(10_000 * (i + 1), 500 + 10 * i) for i in range(6)]
        want = [seq._l1d_access(b, t, REQ_COMMIT)[0] for b, t in pairs]
        got = bat._refetch_batch(pairs)
        assert got == want
        for name in ("l1d", "l2", "llc"):
            assert getattr(bat, name).state_signature() == \
                getattr(seq, name).state_signature(), name
        # Per-block latencies are individual: the bus serializes the
        # window, so completions are strictly increasing, not one shared
        # completion stamped on every block.
        assert len(set(got)) == len(got)

    def test_dram_bound_fills_land_in_caches(self):
        _, bat = self._twins()
        blocks = [10_000, 20_000, 30_000]
        done = bat._refetch_batch([(b, 100) for b in blocks])
        for b, completion in zip(blocks, done):
            assert bat.l1d.contains(b)
            assert completion > 100 + bat.params.llc.latency

    def test_empty_window(self):
        _, bat = self._twins()
        assert bat._refetch_batch([]) == []
