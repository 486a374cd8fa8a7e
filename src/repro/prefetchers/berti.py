"""Berti: an accurate local-delta data prefetcher (MICRO 2022).

Berti is *self-timing*: it learns, per load IP, the deltas that would have
produced a **timely** prefetch, by combining each fill's measured fetch
latency with a per-IP history of recent accesses.  The best-covered deltas
are prefetched into L1D (high coverage) or L2 (medium coverage).

Training (Section V-A of the reproduced paper):

1. *Measure fetch latency* -- the simulator passes the observed latency of
   each demand fill in the :class:`~repro.prefetchers.base.TrainingEvent`.
2. *Learn timely deltas* -- an earlier access at time ``t_j`` could have
   triggered a timely prefetch for an access at time ``t`` with latency
   ``L`` iff ``t_j + L <= t``; the timely deltas are
   ``block - block_j`` over qualifying history entries.
3. *Compute per-delta coverage* -- counters per (IP, delta), periodically
   halved, give each delta's coverage ratio.

**Timing-mode behaviour falls out of the event fields.**  With on-access
training the event carries the true access time and fetch latency.  With
naive on-commit training the event carries commit times and the misleading
GM->L1D on-commit write latency, reproducing the paper's Fig. 8 failure
(deltas timely at commit, late at access).  TSB feeds commit-time history
but the *X-LQ-preserved* access time and GM fill latency, so the timeliness
window is computed against the access stream (Section V-C).

Configuration per Table III: 128-entry history table (16 IPs x 8 accesses),
16-IP delta table with 16 deltas each (~2.55 KB).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from operator import itemgetter
from typing import Dict, List, Tuple

from .base import (FILL_L1D, FILL_L2, PrefetchRequest, Prefetcher,
                   TrainingEvent)

#: C-level count extractor for the coverage sort in ``best_deltas``.
_BY_COUNT = itemgetter(2)
#: Direct tuple construction for requests: skips the NamedTuple's Python
#: ``__new__`` frame on the per-issue path while keeping the public type.
_tuple_new = tuple.__new__


class _DeltaTable:
    """Per-IP delta coverage counters.

    ``best_deltas`` is pure in (counters, observations, thresholds), and
    both inputs change only inside :meth:`observe` -- so its result is
    cached and invalidated there.  Most training events read the table
    without observing (plain issue path), making this the difference
    between one sort per *table update* and one sort per *load*.
    """

    __slots__ = ("counters", "observations", "_best", "_best_key", "_ones",
                 "_req_block", "_req_deltas", "_requests")

    def __init__(self) -> None:
        self.counters: Dict[int, int] = {}
        self.observations = 0
        self._best: List[Tuple[int, int]] = None
        self._best_key: Tuple[float, float] = None
        #: The request list :meth:`BertiPrefetcher.train` last built from
        #: this table, with the trigger block and the ``best_deltas`` list
        #: object it was built from.
        self._req_block: int = None
        self._req_deltas: List[Tuple[int, int]] = None
        self._requests: List[PrefetchRequest] = None
        #: Count-1 entries in dict (= insertion) order, or ``None`` when
        #: stale (rebuilt lazily).  The weakest-delta replacement below is
        #: overwhelmingly "evict the first count-1 entry, append the new
        #: delta": count-1 entries are only ever *created* at the dict
        #: tail (new insertions) or as the unique decay survivor, so a
        #: deque mirrors their dict order exactly and turns the per-delta
        #: min-scan into an O(1) popleft.  Entries promoted past count 1
        #: go stale in place and are skipped on pop.
        self._ones: deque = None

    def observe(self, timely_deltas: List[int], max_deltas: int) -> None:
        self._best = None
        self.observations += 1
        counters = self.counters
        counters_get = counters.get
        ones = self._ones
        for delta in timely_deltas:
            count = counters_get(delta)
            if count is not None:
                counters[delta] = count + 1
            elif len(counters) < max_deltas:
                counters[delta] = 1
                if ones is not None:
                    ones.append(delta)
            else:
                # Replace the weakest delta, decay-style.  The victim is
                # the *first* entry (insertion order) holding the minimal
                # count -- the same tie-break as a keyed min over items.
                if ones is None:
                    ones = self._ones = deque(
                        d for d, c in counters.items() if c == 1)
                weakest = None
                while ones:
                    candidate = ones.popleft()
                    if counters.get(candidate) == 1:
                        weakest = candidate
                        break
                if weakest is not None:
                    # Minimal count is 1 and ``weakest`` is its first
                    # holder: evict it, append the newcomer.
                    del counters[weakest]
                    counters[delta] = 1
                    ones.append(delta)
                else:
                    # No count-1 entries: scan for the true minimum.
                    weakest_count = min(counters.values())
                    for weakest, count in counters.items():
                        if count == weakest_count:
                            break
                    weakest_count -= 1
                    counters[weakest] = weakest_count
                    if weakest_count == 1:
                        # The decayed entry is now the *only* count-1
                        # entry, so the (empty) deque stays ordered.
                        ones.append(weakest)
        if self.observations >= 16:
            self.observations >>= 1
            self.counters = {d: c >> 1 for d, c in counters.items()
                             if c >> 1 > 0}
            self._ones = None

    def best_deltas(self, l1_threshold: float,
                    l2_threshold: float) -> List[Tuple[int, int]]:
        """Return ``[(delta, fill_level)]`` above the coverage thresholds.

        Callers must treat the returned list as read-only (it is cached).
        """
        key = (l1_threshold, l2_threshold)
        if self._best is not None and self._best_key == key:
            return self._best
        result = []
        observations = self.observations
        if observations:
            # ``count / observations >= t`` is compared as
            # ``count >= t * observations``: exhaustively verified
            # equivalent for counts <= 256 and observations <= 64 (the
            # table halves observations at 16, so the reachable domain is
            # far smaller) -- this drops one float division per delta.
            need_l1 = l1_threshold * observations
            need_l2 = l2_threshold * observations
            # The count rides along as a third element so the sort key is
            # a C-level itemgetter instead of a per-compare dict probe;
            # reverse=True is stable, so ties keep insertion order exactly
            # like the ascending sort on -count did.
            for delta, count in self.counters.items():
                if count >= need_l1:
                    result.append((delta, FILL_L1D, count))
                elif count >= need_l2:
                    result.append((delta, FILL_L2, count))
            if result:
                result.sort(key=_BY_COUNT, reverse=True)
                result = [(delta, fill) for delta, fill, _ in result]
        self._best = result
        self._best_key = key
        return result


class BertiPrefetcher(Prefetcher):
    """Local-delta self-timing prefetcher."""

    name = "berti"
    train_level = 0

    #: Coverage thresholds for orchestrating fills (MICRO'22: 0.65/0.35).
    L1_COVERAGE = 0.65
    L2_COVERAGE = 0.40
    #: Minimum observations before a delta table is trusted (keeps noisy,
    #: young tables from issuing garbage).
    MIN_OBSERVATIONS = 8
    #: Max distinct deltas tracked per IP (Table III: 16).
    MAX_DELTAS = 16
    #: History accesses kept per IP (128 total / 8 IPs).  Depth 16 lets the
    #: search window reach far enough back to find deltas timely under
    #: DRAM-scale fetch latencies.
    HISTORY_PER_IP = 16
    MAX_IPS = 8
    #: Max prefetches issued per training event.
    MAX_ISSUE = 4

    def __init__(self) -> None:
        self._history: "OrderedDict[int, Deque[Tuple[int, int]]]" = \
            OrderedDict()
        self._deltas: "OrderedDict[int, _DeltaTable]" = OrderedDict()
        #: The coverage thresholds never change at run time; the shared
        #: key tuple makes the per-event delta-cache check one comparison.
        self._cov_key = (self.L1_COVERAGE, self.L2_COVERAGE)
        # Class constants bound as instance attributes: ``train`` runs per
        # load, and instance-dict reads beat class-dict fallbacks there.
        self._history_per_ip = self.HISTORY_PER_IP
        self._max_ips = self.MAX_IPS
        self._min_observations = self.MIN_OBSERVATIONS
        # Same-IP streaks are common in load streams; remembering the last
        # trained IP's history (always most-recently-used, so its
        # move-to-end is a no-op) skips the table probe on a streak.
        self._last_ip = None
        self._last_history = None
        self._dt_ip = None
        self._dt_table = None

    # ------------------------------------------------------------------

    def train(self, event: TrainingEvent) -> List[PrefetchRequest]:
        # One C-level unpack instead of seven attribute descriptor reads.
        (ip, block, hit, cycle, access_cycle, fetch_latency, _hit_level,
         prefetch_hit) = event
        if ip == self._last_ip:
            history = self._last_history
        else:
            history_table = self._history
            history = history_table.get(ip)
            if history is None:
                history = deque(maxlen=self._history_per_ip)
                history_table[ip] = history
                if len(history_table) > self._max_ips:
                    history_table.popitem(last=False)
            else:
                history_table.move_to_end(ip)
            self._last_ip = ip
            self._last_history = history

        # Berti trains on misses and prefetched-line hits only (the
        # accesses a prefetch could have covered); plain hits take no
        # training action (Section V-C).
        table = None
        if not hit or prefetch_hit:
            # 2. Learn timely deltas: entries whose prefetch, issued at
            # their timestamp, would have completed by the time this access
            # needed the data.  ``access_cycle - fetch_latency`` is the
            # latest trigger time that still yields a timely prefetch.
            # History timestamps are *nearly* sorted but not monotone:
            # on-access, a load's timestamp is its issue cycle, which
            # carries its own dTLB-miss penalty or LQ-full stall that a
            # younger load need not pay.  So the scan cannot early-break
            # on the first too-late entry: cutting off out-of-order
            # stragglers measurably shifts the learned delta sets (at
            # test scale it flips the secure-dampens-on-access-prefetching
            # property).
            window_end = access_cycle - fetch_latency
            timely = [block - old_block
                      for old_block, t_j in history
                      if t_j <= window_end and old_block != block]
            if timely:
                table = self._delta_table(ip)
                table.observe(timely, self.MAX_DELTAS)

            # Record the access in the history (timestamped with the
            # training stream's own clock: access order on-access, commit
            # order on-commit).
            history.append((block, cycle))

        # Issue prefetches for the best-covered deltas (reusing the table
        # the learning step already looked up, when it did; the delta-table
        # memo covers the same-IP streak case without a dict probe).
        if table is None:
            table = self._dt_table if ip == self._dt_ip \
                else self._deltas.get(ip)
        if table is None or table.observations < self._min_observations:
            return []
        # Inline of ``table.best_deltas``'s cache hit -- the common case:
        # most events read the table without having observed new deltas.
        deltas = table._best
        if deltas is None or table._best_key != self._cov_key:
            deltas = table.best_deltas(self.L1_COVERAGE, self.L2_COVERAGE)
        if not deltas:
            return []
        # The request list is a pure function of the trigger block and the
        # delta list.  A recomputed delta list is a new object (``observe``
        # drops the cached one, and the table still holds the old one, so
        # the two cannot share an identity), so the same block over the
        # same list object gets back the list built last time, unchanged.
        # This is not the prefetch-dedup filter docs/PERFORMANCE.md
        # rejected: no request is withheld, each one still reaches the
        # issuer and is dropped or issued and counted there.
        if deltas is table._req_deltas and block == table._req_block:
            return table._requests
        requests = []
        max_issue = self.MAX_ISSUE
        for delta, fill in deltas:
            target = block + delta
            if target >= 0:
                requests.append(_tuple_new(PrefetchRequest, (target, fill)))
                if len(requests) >= max_issue:
                    break
        table._req_block = block
        table._req_deltas = deltas
        table._requests = requests
        return requests

    def _delta_table(self, ip: int) -> _DeltaTable:
        # The memoized IP is always the most recently observed one, so it
        # is still resident and already at the recency tail (its
        # move-to-end would be a no-op); evictions below can never remove
        # it because the memo is refreshed in the same call that inserts.
        if ip == self._dt_ip:
            return self._dt_table
        table = self._deltas.get(ip)
        if table is None:
            table = _DeltaTable()
            self._deltas[ip] = table
            if len(self._deltas) > self.MAX_IPS:
                self._deltas.popitem(last=False)
        else:
            self._deltas.move_to_end(ip)
        self._dt_ip = ip
        self._dt_table = table
        return table

    # ------------------------------------------------------------------

    def flush(self) -> None:
        self._history.clear()
        self._deltas.clear()
        self._last_ip = None
        self._last_history = None
        self._dt_ip = None
        self._dt_table = None

    def storage_bits(self) -> int:
        history_bits = self.MAX_IPS * self.HISTORY_PER_IP * (42 + 16)
        delta_bits = self.MAX_IPS * self.MAX_DELTAS * (13 + 4)
        tag_bits = self.MAX_IPS * 2 * 12
        return history_bits + delta_bits + tag_bits
