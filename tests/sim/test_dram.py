"""Open-page DRAM channel model."""

from dataclasses import replace

from repro.sim.cache import LEVEL_L2
from repro.sim.dram import DRAMChannel
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import DRAMParams, baseline


def make_channel(**kw):
    return DRAMChannel(DRAMParams(**kw))


def hierarchy_over(**kw):
    """A Table II hierarchy over a channel with these DRAM params.  The
    channel's prefetch throttle is applied by the hierarchy's prefetch
    issuer, so that is where it is observed."""
    return MemoryHierarchy(replace(baseline(), dram=DRAMParams(**kw)))


def throttles(hierarchy, time):
    """Whether the issuer drops an L2 prefetch of a cold block at
    ``time``: with the L2's PQ and MSHRs idle, only the DRAM-backlog
    throttle drops it."""
    stats = hierarchy.l2.stats
    dropped = stats.prefetches_dropped
    block = (1 << 30) + stats.prefetches_issued + dropped
    hierarchy.issue_prefetch(block, time, LEVEL_L2)
    return stats.prefetches_dropped > dropped


class TestRowBuffer:
    def test_first_access_is_row_miss(self):
        dram = make_channel()
        done = dram.access(0, time=0)
        p = dram.params
        assert done == p.controller_latency + p.t_rp + p.t_rcd + p.t_cas \
            + p.bus_cycles_per_line
        assert dram.stats.row_misses == 1

    def test_same_row_hits(self):
        dram = make_channel()
        dram.access(0, time=0)
        t = 1000
        done = dram.access(1, time=t)  # same 4 KB row
        p = dram.params
        assert done == t + p.controller_latency + p.t_cas \
            + p.bus_cycles_per_line
        assert dram.stats.row_hits == 1

    def test_row_conflict_misses(self):
        dram = make_channel(banks=1)
        dram.access(0, time=0)
        dram.access(64, time=1000)   # a different row, same (only) bank
        assert dram.stats.row_misses == 2


class TestContention:
    def test_bank_serializes(self):
        dram = make_channel(banks=1)
        d1 = dram.access(0, time=0)
        d2 = dram.access(0, time=0)
        assert d2 > d1

    def test_banks_overlap(self):
        dram = make_channel()
        # Find two blocks in different banks.
        base = dram.access(1 << 20, time=0)
        alone = base - 0
        dram2 = make_channel()
        times = [dram2.access(b << 14, time=0) for b in range(8)]
        # Several requests to distinct banks complete much sooner than
        # 8x the serialized latency.
        assert max(times) < 8 * alone

    def test_bus_serializes_everything(self):
        dram = make_channel()
        done = [dram.access(b << 14, time=0) for b in range(16)]
        p = dram.params
        # Every transfer occupies the bus for bus_cycles_per_line.
        assert max(done) >= min(done) + 15 * p.bus_cycles_per_line

    def test_gb_aligned_streams_spread_over_banks(self):
        """The bank hash must not map GB-aligned arrays onto one bank."""
        dram = make_channel()
        rows_per_gb = (1 << 30) // dram.params.row_buffer_bytes
        blocks = [i * rows_per_gb * 64 for i in range(1, 7)]
        banks = set()
        for block in blocks:
            row = block // (dram.params.row_buffer_bytes // 64)
            h = row & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 33
            h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 33
            banks.add(h % dram.params.banks)
        assert len(banks) >= 3


class TestDemandPriority:
    def test_prefetch_backlog_does_not_delay_demands(self):
        dram = make_channel(banks=1)
        # Queue a deep low-priority backlog.
        for i in range(10):
            dram.access(i * 64, time=0, demand=False)
        # A demand arriving now is served against the demand-side bank
        # state, not behind the prefetch queue.
        done = dram.access(1 << 20, time=0)
        p = dram.params
        assert done <= p.controller_latency + p.t_rp + p.t_rcd + p.t_cas \
            + 11 * p.bus_cycles_per_line

    def test_demand_backlog_delays_prefetches(self):
        dram = make_channel(banks=1)
        d_done = dram.access(0, time=0)
        p_done = dram.access(1 << 20, time=0, demand=False)
        assert p_done > d_done - dram.params.bus_cycles_per_line

    def test_backlogged_signal(self):
        # A deep low-priority queue throttles prefetches.
        h = hierarchy_over(banks=1)
        assert not throttles(h, 0)
        for i in range(20):
            h.dram.access(i * 1 << 20, time=0, demand=False)
        assert throttles(h, 0)

    def test_backlogged_ignores_demand_queue(self):
        # Demand traffic, however deep, does not.
        h = hierarchy_over(banks=1)
        for i in range(20):
            h.dram.access(i * 1 << 20, time=0, demand=True)
        assert not throttles(h, 0)


class TestStats:
    def test_request_count(self):
        dram = make_channel()
        for i in range(5):
            dram.access(i * 64, time=i * 1000)
        assert dram.stats.requests == 5
        assert dram.stats.row_hits + dram.stats.row_misses == 5

    def test_row_hit_rate(self):
        dram = make_channel()
        dram.access(0, 0)
        dram.access(1, 5000)
        assert dram.stats.row_hit_rate() == 0.5

    def test_reset(self):
        dram = make_channel()
        dram.access(0, 0)
        dram.reset_stats()
        assert dram.stats.requests == 0


class TestAdversarialArrivalOrder:
    """Requests arriving with *decreasing* time must never corrupt the
    next-free bookkeeping.

    The docstring only promises accuracy for roughly non-decreasing
    arrivals, but the multicore merge can present slightly out-of-order
    times at chunk boundaries -- the cursors must stay monotone and the
    backlog signal non-negative regardless.
    """

    def _cursors(self, dram):
        return (list(dram._bank_free), list(dram._bank_free_low),
                dram._bus_free, dram._bus_free_low)

    def test_decreasing_times_keep_cursors_monotone(self):
        dram = make_channel(banks=2)
        p = dram.params
        min_service = p.controller_latency + p.t_cas + p.bus_cycles_per_line
        prev = self._cursors(dram)
        times = [50_000, 20_000, 19_999, 5_000, 0]
        for i, t in enumerate(times):
            done = dram.access(i << 14, time=t, demand=(i % 2 == 0))
            # Completion never precedes the request's own arrival.
            assert done >= t + min_service
            cur = self._cursors(dram)
            # Bank and bus next-free cursors never move backwards, so an
            # early-time straggler cannot un-busy a bank or the bus.
            for prev_bank, cur_bank in zip(prev[0], cur[0]):
                assert cur_bank >= prev_bank
            for prev_bank, cur_bank in zip(prev[1], cur[1]):
                assert cur_bank >= prev_bank
            assert cur[2] >= prev[2]
            assert cur[3] >= prev[3]
            prev = cur

    def test_backlog_never_negative_under_reordering(self):
        # A burst of low-priority traffic followed by a demand request
        # arriving with an *older* timestamp.  The throttle measures the
        # backlog from each prefetch's own time: the burst still holds
        # one at its own cycle, and one far past it counts no backlog.
        h = hierarchy_over(banks=1)
        for i in range(8):
            h.dram.access(i << 20, time=1000, demand=False)
        h.dram.access(99 << 20, time=0, demand=True)
        assert throttles(h, 1000)
        assert not throttles(h, 10**9)

    def test_same_bank_decreasing_times_serialize(self):
        dram = make_channel(banks=1)
        d1 = dram.access(0, time=10_000)
        d2 = dram.access(1 << 20, time=0)  # different row, same bank
        # The straggler queues behind the already-scheduled request
        # instead of being double-charged or served in the past.
        assert d2 >= d1
        assert dram.stats.requests == 2
        assert dram.stats.row_hits + dram.stats.row_misses == 2

    def test_mixed_priority_decreasing_times(self):
        dram = make_channel(banks=1)
        done = []
        for i, (t, demand) in enumerate(
                [(9000, True), (8000, False), (100, True), (0, False)]):
            done.append(dram.access(i << 20, time=t, demand=demand))
        # Low-priority completions never precede the demand bus they
        # queue behind at the moment they were scheduled.
        assert done[1] >= done[0]
        assert done[3] >= done[2]


class TestAccessBatch:
    """``access_batch`` amortizes bank bookkeeping without changing it:
    completions, stats and every cursor must be bit-identical to the
    scalar ``access`` loop it replaces."""

    #: A mixed workload: row hits, row conflicts, bank spread, and a few
    #: decreasing-time stragglers (the adversarial-order cases above).
    REQUESTS = ([(i << 14, i * 100) for i in range(12)]
                + [(3 << 14, 900), (0, 850), (5 << 20, 840)]
                + [(i << 20, 2000) for i in range(6)])

    def _cursors(self, dram):
        return (list(dram._bank_free), list(dram._bank_free_low),
                dram._bus_free, dram._bus_free_low,
                list(dram._open_row))

    def _stats(self, dram):
        s = dram.stats
        return (s.requests, s.row_hits, s.row_misses)

    def test_batch_matches_scalar_demand(self):
        self._check(demand=True)

    def test_batch_matches_scalar_low_priority(self):
        self._check(demand=False)

    def _check(self, demand):
        scalar = make_channel(banks=4)
        batch = make_channel(banks=4)
        want = [scalar.access(block, t, demand)
                for block, t in self.REQUESTS]
        got = batch.access_batch(self.REQUESTS, demand)
        assert got == want
        assert self._cursors(batch) == self._cursors(scalar)
        assert self._stats(batch) == self._stats(scalar)

    def test_interleaving_batches_with_scalar_accesses(self):
        # State carried across batch boundaries (and mixed with scalar
        # calls) stays exact: split the request list arbitrarily.
        reference = make_channel(banks=4)
        mixed = make_channel(banks=4)
        want = [reference.access(block, t, i % 2 == 0)
                for i, (block, t) in enumerate(self.REQUESTS)]
        got = []
        i = 0
        for size, as_batch in ((3, True), (1, False), (7, True),
                               (2, False), (8, True)):
            chunk = self.REQUESTS[i:i + size]
            if as_batch:
                # access_batch takes one priority per batch; split the
                # chunk by the alternating priority of the reference.
                for j, (block, t) in enumerate(chunk):
                    got.extend(mixed.access_batch(
                        [(block, t)], (i + j) % 2 == 0))
            else:
                got.extend(mixed.access(block, t, (i + j2) % 2 == 0)
                           for j2, (block, t) in enumerate(chunk))
            i += size
        assert got == want
        assert self._cursors(mixed) == self._cursors(reference)

    def test_empty_batch(self):
        dram = make_channel()
        before = self._cursors(dram)
        assert dram.access_batch([]) == []
        assert self._cursors(dram) == before
        assert dram.stats.requests == 0

    def test_batched_cursors_monotone_under_reordering(self):
        # The adversarial-order guarantee carries over to the batch
        # form: decreasing arrival times within one batch never move a
        # bank/bus cursor backwards.
        dram = make_channel(banks=2)
        prev = (list(dram._bank_free), list(dram._bank_free_low),
                dram._bus_free, dram._bus_free_low)
        batches = [[(0 << 14, 50_000), (1 << 14, 20_000)],
                   [(2 << 14, 19_999), (3 << 14, 5_000), (4 << 14, 0)]]
        for batch_no, requests in enumerate(batches):
            dram.access_batch(requests, demand=batch_no % 2 == 0)
            cur = (list(dram._bank_free), list(dram._bank_free_low),
                   dram._bus_free, dram._bus_free_low)
            for prev_bank, cur_bank in zip(prev[0], cur[0]):
                assert cur_bank >= prev_bank
            for prev_bank, cur_bank in zip(prev[1], cur[1]):
                assert cur_bank >= prev_bank
            assert cur[2] >= prev[2]
            assert cur[3] >= prev[3]
            prev = cur


class TestBackloggedMargin:
    """``DRAMParams.prefetch_backlog_margin`` sets the throttle."""

    def test_explicit_margin_overrides_default(self):
        def throttled(**margin):
            h = hierarchy_over(banks=1, **margin)
            for i in range(20):
                h.dram.access(i << 20, time=0, demand=False)
            return throttles(h, 0)

        assert throttled()  # default margin: deep queue
        # A margin far above the backlog turns the throttle off; a zero
        # margin keeps it on.
        assert not throttled(prefetch_backlog_margin=10**9)
        assert throttled(prefetch_backlog_margin=0)
