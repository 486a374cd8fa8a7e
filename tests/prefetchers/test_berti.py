"""Berti's timely-delta learning -- including the Fig. 8 mechanism.

The decisive behaviour: Berti only learns deltas whose trigger access is at
least one fetch latency older than the trained access, so what it learns
depends entirely on which timestamps/latency the training events carry:

* on-access events (true access times, true latency) -> deltas that lead
  the stream by the fetch latency;
* naive on-commit events (commit times, ~1-cycle on-commit write latency)
  -> the useless +1 delta of Fig. 8 (red);
* TSB events (commit-ordered history, but X-LQ-preserved access time and
  GM fetch latency) -> the timely delta of Fig. 8 (green).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timely import make_timely
from repro.core.tsb import TSBPrefetcher
from repro.prefetchers.base import FILL_L1D, PrefetchRequest, TrainingEvent
from repro.prefetchers.berti import BertiPrefetcher
from repro.security.prefender import AccessObfuscationShim


def stream_events(n, *, period, latency, ip=1, start_block=0,
                  access_equals_cycle=True, commit_lag=0):
    """Events for a unit-stride stream: one block every ``period`` cycles.

    ``commit_lag`` shifts the training cycle after the access (commit-time
    training); ``access_equals_cycle`` selects whether the event's
    ``access_cycle`` carries the true access time (TSB) or just the
    training time (naive).
    """
    events = []
    for i in range(n):
        access = i * period
        cycle = access + commit_lag
        events.append(TrainingEvent(
            ip=ip, block=start_block + i, hit=False, cycle=cycle,
            access_cycle=access if access_equals_cycle else cycle,
            fetch_latency=latency, hit_level=3))
    return events


def run(pf, events):
    return [pf.train(e) for e in events]


class TestTimelyLearning:
    def test_learns_latency_covering_delta(self):
        """With latency 4 periods, the learned delta must be >= 4."""
        pf = BertiPrefetcher()
        results = run(pf, stream_events(60, period=10, latency=40))
        issued = [r for r in results if r]
        assert issued
        deltas = {req.block - e.block
                  for e, r in zip(stream_events(60, period=10, latency=40),
                                  results) for req in r}
        assert deltas
        assert min(deltas) >= 4

    def test_short_latency_allows_small_delta(self):
        pf = BertiPrefetcher()
        results = run(pf, stream_events(60, period=10, latency=10))
        deltas = {req.block - i for i, r in enumerate(results)
                  for req in r}
        assert 1 in deltas or 2 in deltas

    def test_latency_beyond_history_learns_nothing(self):
        """Deltas the 16-deep history cannot reach are never learned."""
        pf = BertiPrefetcher()
        results = run(pf, stream_events(60, period=10, latency=1000))
        assert all(not r for r in results)

    def test_coverage_threshold_filters_noise(self):
        """Random per-IP deltas never reach the coverage thresholds."""
        import random
        rng = random.Random(3)
        pf = BertiPrefetcher()
        events = [TrainingEvent(ip=1, block=rng.randrange(10 ** 6),
                                hit=False, cycle=i * 10,
                                access_cycle=i * 10, fetch_latency=20,
                                hit_level=3)
                  for i in range(100)]
        results = run(pf, events)
        assert sum(len(r) for r in results) < 10

    def test_min_observations_gate(self):
        pf = BertiPrefetcher()
        events = stream_events(pf.MIN_OBSERVATIONS - 1, period=10,
                               latency=10)
        results = run(pf, events)
        assert all(not r for r in results)

    def test_high_coverage_fills_l1(self):
        pf = BertiPrefetcher()
        results = run(pf, stream_events(80, period=10, latency=10))
        fills = {req.fill_level for r in results for req in r}
        assert FILL_L1D in fills

    def test_hits_do_not_learn(self):
        pf = BertiPrefetcher()
        events = [e._replace(hit=True)
                  for e in stream_events(60, period=10, latency=10)]
        results = run(pf, events)
        assert all(not r for r in results)

    def test_prefetch_hits_do_learn(self):
        pf = BertiPrefetcher()
        events = [e._replace(hit=True, prefetch_hit=True)
                  for e in stream_events(60, period=10, latency=10)]
        results = run(pf, events)
        assert any(results)


class TestFig8Mechanism:
    """The paper's Fig. 8 timeline, in miniature.

    A unit-stride load stream with a 3-cycle fetch-to-GM latency and a
    1-cycle on-commit write; accesses are 1 cycle apart and commit 2
    cycles after their access.
    """

    PERIOD = 1
    FETCH_LATENCY = 3
    COMMIT_LAG = 2

    def test_naive_on_commit_learns_late_delta(self):
        """Red timeline: training sees the 1-cycle write latency at commit
        times, learns +1, whose prefetches would always arrive late."""
        pf = BertiPrefetcher()
        events = stream_events(
            60, period=self.PERIOD, latency=1,       # on-commit write
            access_equals_cycle=False, commit_lag=self.COMMIT_LAG)
        results = run(pf, events)
        deltas = {req.block - e.block for e, r in zip(events, results)
                  for req in r}
        assert deltas and min(deltas) == 1
        # A +1 prefetch issued at commit of block b fetches data that
        # arrives FETCH_LATENCY after commit; the demand for b+1 came at
        # access(b)+1, i.e. before the commit itself: always late.
        assert self.COMMIT_LAG + self.FETCH_LATENCY > self.PERIOD

    def test_tsb_learns_timely_delta(self):
        """Green timeline: with the X-LQ's access time and true latency,
        the learned delta covers commit lag + fetch latency."""
        pf = BertiPrefetcher()
        events = stream_events(
            60, period=self.PERIOD, latency=self.FETCH_LATENCY,
            access_equals_cycle=True, commit_lag=self.COMMIT_LAG)
        results = run(pf, events)
        deltas = {req.block - e.block for e, r in zip(events, results)
                  for req in r}
        assert deltas
        # Timely: trigger at commit(b) = access(b)+2; data for b+delta
        # arrives at commit(b)+3 <= access(b+delta) iff delta >= 5.
        assert min(deltas) >= self.FETCH_LATENCY + self.COMMIT_LAG


class TestHousekeeping:
    def test_per_ip_tables_bounded(self):
        pf = BertiPrefetcher()
        for ip in range(40):
            run(pf, stream_events(20, period=10, latency=10, ip=ip,
                                  start_block=ip * 1000))
        assert len(pf._history) <= pf.MAX_IPS
        assert len(pf._deltas) <= pf.MAX_IPS

    def test_flush(self):
        pf = BertiPrefetcher()
        run(pf, stream_events(60, period=10, latency=10))
        pf.flush()
        assert not pf._history and not pf._deltas

    def test_storage_order_of_table_iii(self):
        # Table III lists Berti at 2.55 KB.
        assert 0.5 <= BertiPrefetcher().storage_kb() <= 4.0


def expected_requests(pf, event):
    """``train``'s result for ``event``, recomputed from the IP's table."""
    table = pf._deltas.get(event.ip)
    if table is None or table.observations < pf.MIN_OBSERVATIONS:
        return []
    deltas = table.best_deltas(pf.L1_COVERAGE, pf.L2_COVERAGE)
    targets = [PrefetchRequest(event.block + delta, fill)
               for delta, fill in deltas if event.block + delta >= 0]
    return targets[:pf.MAX_ISSUE]


#: Field ranges of one random training event: IP, block, kind (miss, hit,
#: prefetch hit), repeat the previous IP and block, cycles since the
#: previous event, fetch latency and commit lag.  Few IPs and blocks, plus
#: repeats, so that one table often sees the same block again.  An event
#: is drawn as one integer: one draw per event keeps the streams, long
#: enough for the tables to warm up, quick to generate.
_FIELDS = (3, 25, 3, 2, 13, 41, 9)
_STREAMS = st.lists(st.integers(0, math.prod(_FIELDS) - 1),
                    min_size=100, max_size=300)


def _fields(word):
    fields = []
    for size in _FIELDS:
        word, value = divmod(word, size)
        fields.append(value)
    return fields


class TestRequestReuse:
    """``train`` returns the list it built last time while the trigger
    block and the IP's best-delta list are unchanged.  These tests pin
    that it never returns a stale list."""

    def test_learning_on_the_same_block_rebuilds(self):
        pf = BertiPrefetcher()
        run(pf, stream_events(40, period=10, latency=10))
        # Misses that cannot learn (no trigger is timely under this
        # latency) fill the IP's history with block 1000.
        cycle = 400
        for _ in range(pf.HISTORY_PER_IP):
            cycle += 10
            pf.train(TrainingEvent(ip=1, block=1000, hit=False, cycle=cycle,
                                   access_cycle=cycle, fetch_latency=10 ** 6,
                                   hit_level=3))
        hit = TrainingEvent(ip=1, block=1007, hit=True, cycle=cycle + 10,
                            access_cycle=cycle + 10, fetch_latency=10,
                            hit_level=0)
        first = pf.train(hit)
        # A miss on the same block learns +7 once per history entry,
        # which puts +7 first among the best deltas.
        second = pf.train(hit._replace(hit=False, cycle=cycle + 20,
                                       access_cycle=cycle + 20,
                                       hit_level=3))
        assert [r.block for r in first] == [1008, 1009, 1010, 1011]
        assert [r.block for r in second] == [1014, 1008, 1009, 1010]

    @pytest.mark.parametrize("cls", [BertiPrefetcher, TSBPrefetcher])
    @settings(max_examples=60, deadline=None)
    @given(words=_STREAMS)
    def test_every_result_matches_the_tables(self, cls, words):
        pf = cls()
        cycle = 0
        ip = block = 0
        for word in words:
            next_ip, next_block, kind, repeat, gap, latency, lag = \
                _fields(word)
            if not repeat:
                ip, block = next_ip, next_block
            cycle += gap
            event = TrainingEvent(
                ip=ip, block=block, hit=kind > 0, cycle=cycle,
                access_cycle=cycle - lag, fetch_latency=latency,
                hit_level=0 if kind else 3, prefetch_hit=kind == 2)
            assert pf.train(event) == expected_requests(pf, event)

    @pytest.mark.parametrize("wrap", [AccessObfuscationShim, make_timely],
                             ids=["prefender", "ts-berti"])
    def test_wrappers_leave_the_shared_list_alone(self, wrap):
        inner = BertiPrefetcher()
        pf = wrap(inner)
        run(pf, stream_events(40, period=10, latency=10))
        hit = TrainingEvent(ip=1, block=39, hit=True, cycle=400,
                            access_cycle=400, fetch_latency=10, hit_level=0)
        pf.train(hit)
        shared = inner._deltas[1]._requests
        snapshot = list(shared)
        assert snapshot
        pf.train(hit)
        assert inner.train(hit) is shared
        assert shared == snapshot
