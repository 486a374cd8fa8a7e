"""Open-page DRAM channel model.

Models the timing behaviour that matters to the paper's experiments:

* per-bank row buffers with open-page policy (row hits pay tCAS only, row
  misses pay tRP + tRCD + tCAS);
* per-bank busy time (a bank serves one command sequence at a time);
* a shared data bus with finite bandwidth (64-byte lines at 6400 MT/s);
* a fixed controller queueing latency.

The model is *functional*: ``access`` is called with the cycle at which the
request reaches the controller and returns the cycle at which the line is
delivered.  Requests are expected to arrive in roughly non-decreasing time
order (the simulator processes core events in merged time order), which makes
per-bank and bus next-free bookkeeping accurate enough to reproduce
contention trends.  FR-FCFS is approximated by the open-page row-buffer
policy itself: a burst of same-row requests arriving together all enjoy row
hits.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .params import DRAMParams
from .stats import DRAMStats


class DRAMChannel:
    """One DRAM channel shared by all cores of a chip."""

    def __init__(self, params: DRAMParams, line_size: int = 64) -> None:
        self.params = params
        self.stats = DRAMStats()
        self._line_size = line_size
        #: Row-buffer blocks per row.
        self._blocks_per_row = max(1, params.row_buffer_bytes // line_size)
        #: Open row per bank (-1 = closed / unknown).
        self._open_row = [-1] * params.banks
        #: Cycle at which each bank becomes free for *demand* requests.
        self._bank_free = [0] * params.banks
        #: Backlog horizon for low-priority (prefetch / commit-update /
        #: writeback) requests per bank.  FR-FCFS controllers serve demands
        #: first, so a prefetch backlog delays only other prefetches; both
        #: classes share the banks' real busy time through ``_bank_free``.
        self._bank_free_low = [0] * params.banks
        #: Shared data bus, same two-priority split.
        self._bus_free = 0
        self._bus_free_low = 0
        # Hot-path hoists: ``access`` runs once per DRAM-bound request,
        # so the fixed timing sums are folded once here instead of
        # re-derived from params on every call.
        self._ctrl_latency = params.controller_latency
        self._t_row_hit = params.t_cas
        self._t_row_miss = params.t_rp + params.t_rcd + params.t_cas
        self._bus_cycles = params.bus_cycles_per_line
        self._banks = params.banks
        #: The prefetch throttle's terms, read by the hierarchy's prefetch
        #: issuer (``hierarchy.make_prefetch_issuer``): prefetches are
        #: dropped while the low-priority bus runs more than
        #: ``_backlog_margin`` cycles beyond both the demand bus and one
        #: uncontended row-miss service (``_service``) from now.  That
        #: backlog is what a demand merging with an in-flight prefetch
        #: inherits, so the margin also bounds the worst late-prefetch
        #: penalty; a single in-flight prefetch is never backlog, and
        #: demand queueing does not count against prefetching.
        self._service = (params.controller_latency + params.t_rp
                         + params.t_rcd + params.t_cas
                         + params.bus_cycles_per_line)
        self._backlog_margin = params.prefetch_backlog_margin
        #: row -> bank memo: the splitmix64 finalizer costs four 64-bit
        #: multiplies/shifts per access, and the set of distinct rows a
        #: workload touches is small (footprint / row size), so a dict
        #: probe wins.  Bounded by the trace footprint; cleared never --
        #: the mapping is pure.
        self._bank_memo: dict = {}

    def access(self, block: int, time: int, demand: bool = True) -> int:
        """Serve one 64-byte line request; return the delivery cycle.

        ``demand=False`` marks low-priority traffic (prefetches, commit-time
        hierarchy updates, writebacks): it queues behind both classes but
        never pushes demand requests back.
        """
        row = block // self._blocks_per_row
        bank = self._bank_memo.get(row)
        if bank is None:
            # Hashed bank indexing: plain ``row % banks`` maps GB-aligned
            # arrays (whose rows differ only in high bits) onto one bank and
            # serializes independent streams; real controllers XOR address
            # bits for the same reason.  splitmix64 finalizer for good
            # avalanche.
            h = row & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 33
            h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 33
            bank = self._bank_memo[row] = h % self._banks

        stats = self.stats
        start = max(time + self._ctrl_latency, self._bank_free[bank])
        if not demand:
            start = max(start, self._bank_free_low[bank])
        if self._open_row[bank] == row:
            ready = start + self._t_row_hit
            stats.row_hits += 1
        else:
            ready = start + self._t_row_miss
            self._open_row[bank] = row
            stats.row_misses += 1
        stats.requests += 1

        if demand:
            # The bank is busy until its data hits the bus.
            self._bank_free[bank] = ready
            bus_start = max(ready, self._bus_free)
            done = bus_start + self._bus_cycles
            self._bus_free = done
        else:
            self._bank_free_low[bank] = ready
            bus_start = max(ready, self._bus_free, self._bus_free_low)
            done = bus_start + self._bus_cycles
            self._bus_free_low = done
        return done

    def access_batch(self, requests: Sequence[Tuple[int, int]],
                     demand: bool = True) -> List[int]:
        """Serve a batch of ``(block, time)`` requests; return completions.

        Produces exactly the completions of calling :meth:`access` once
        per request in order -- the batch form exists to amortize the
        bank-cursor bookkeeping: the per-request fixed timing sums, the
        bank/row lists, the shared bus cursors, and the stats counters
        are bound to locals once for the whole batch and written back
        once at the end, instead of being re-read through ``self`` and
        re-stored per request.  Callers batch naturally time-ordered
        windows (a drained commit window's re-fetches, a prescanned
        access run), which is the same arrival discipline the scalar
        path expects.
        """
        bank_memo = self._bank_memo
        bank_memo_get = bank_memo.get
        blocks_per_row = self._blocks_per_row
        banks = self._banks
        ctrl = self._ctrl_latency
        t_hit = self._t_row_hit
        t_miss = self._t_row_miss
        bus_cycles = self._bus_cycles
        open_row = self._open_row
        bank_free = self._bank_free
        bank_free_low = self._bank_free_low
        bus_free = self._bus_free
        bus_free_low = self._bus_free_low
        row_hits = row_misses = 0
        completions = []
        append = completions.append
        for block, time in requests:
            row = block // blocks_per_row
            bank = bank_memo_get(row)
            if bank is None:
                h = row & 0xFFFFFFFFFFFFFFFF
                h ^= h >> 33
                h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
                h ^= h >> 33
                bank = bank_memo[row] = h % banks
            start = time + ctrl
            free = bank_free[bank]
            if free > start:
                start = free
            if not demand:
                free = bank_free_low[bank]
                if free > start:
                    start = free
            if open_row[bank] == row:
                ready = start + t_hit
                row_hits += 1
            else:
                ready = start + t_miss
                open_row[bank] = row
                row_misses += 1
            if demand:
                bank_free[bank] = ready
                bus_start = ready if ready > bus_free else bus_free
                bus_free = bus_start + bus_cycles
                append(bus_free)
            else:
                bank_free_low[bank] = ready
                bus_start = ready if ready > bus_free else bus_free
                if bus_free_low > bus_start:
                    bus_start = bus_free_low
                bus_free_low = bus_start + bus_cycles
                append(bus_free_low)
        if demand:
            self._bus_free = bus_free
        else:
            self._bus_free_low = bus_free_low
        stats = self.stats
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        stats.requests += len(completions)
        return completions

    def reset_stats(self) -> None:
        self.stats.reset()
