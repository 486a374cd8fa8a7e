"""Single-core system: core + hierarchy + prefetcher + contribution glue.

:class:`System` wires the Table II core model, a (secure or non-secure)
memory hierarchy, one data prefetcher in a chosen training mode, and the
paper's mechanisms (SUF hit-level queue, TSB's X-LQ, the Fig. 6 miss
classifier).  :meth:`System.run` replays a trace and returns a
:class:`SimResult` with every statistic the paper's figures need.

Event ordering: the loop processes instructions in program order.  Demand
accesses happen at dispatch time and commit actions are queued by retire
time; both streams are monotone, so draining the commit queue up to each new
dispatch time yields a globally time-ordered event sequence -- cache, GM,
MSHR, and DRAM contention are therefore seen in the right order by both the
speculative and the commit paths.

On-access vs on-commit.  Every load produces up to two events, and the
training mode decides which one the prefetcher sees:

* **access time** (dispatch): the load probes the hierarchy.  Non-secure
  systems update the caches and -- in ``MODE_ON_ACCESS`` -- train the
  prefetcher here, including on wrong-path loads (the transient-training
  channel of Section III-B).  Secure systems instead do GhostMinion's
  *invisible* walk: probe L1D without updating recency, fill only the GM.
* **commit time** (retire): only committed-path loads get here.  The
  secure hierarchy replays the load's effect onto L1D (commit write, or
  re-fetch if the GM line was lost), and ``MODE_ON_COMMIT`` prefetchers
  train on this stream only -- they never observe a transient load.

The paper's two mechanisms hook into the commit path:

* **SUF** (Section IV): at access time the serving level (GM/L1D/L2+) is
  recorded in 2 bits in the LQ (:class:`~repro.core.suf.HitLevelQueue`);
  at commit, :func:`~repro.core.suf.suf_decide` uses it to drop or
  truncate the redundant commit-time hierarchy update before it spends
  L1D ports/MSHRs.
* **TSB** (Section V): at access time the true issue cycle and fetch
  latency are stored in the X-LQ (:class:`~repro.core.xlq.XLQ`); at
  commit the :class:`TrainingEvent` is reconstructed with those values,
  so Berti's delta timing reflects *access-time* reality even though
  training happens at commit.

Performance note: there is one simulate loop, :meth:`System._stepper`.
It runs over the trace's prescanned plan (:mod:`repro.sim.batch`) and,
with the commit drain (:meth:`System._make_drainer`) and the prefetch
issuer (:meth:`System._make_issuer`), inlines the per-load fast paths
(speculative load, L1D plain hit, commit decision, X-LQ read, dTLB hit,
prefetch drop checks) with all per-record state in locals.  The
corresponding methods on :class:`~repro.sim.hierarchy.MemoryHierarchy`
and :class:`~repro.sim.cpu.CoreModel` remain the readable reference
implementations.  docs/PERFORMANCE.md has the inventory;
tests/sim/test_golden_stats.py pins the statistics bit for bit.
"""

from __future__ import annotations

import gc

from bisect import bisect_right, insort
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.classification import MissClassifier
from ..core.suf import HitLevelQueue, suf_decide
from ..core.xlq import LAT_MASK, TS_MASK, XLQ
from ..obs import EventTrace, IntervalSampler, MetricRegistry, ObsConfig
from ..prefetchers.base import (MODE_ON_ACCESS, MODE_ON_COMMIT, Prefetcher,
                                TrainingEvent)
from ..workloads.trace import Trace
from .batch import plan_for
from .cpu import CoreModel
from .delay import DelayOnMissPolicy
from .hierarchy import MemoryHierarchy
from .params import SystemParams, baseline
from .stats import (CacheStats, CoreStats, DRAMStats, GhostMinionStats,
                    REQ_COMMIT, REQ_LOAD, REQ_PREFETCH, REQ_STORE)
from .tlb import TLBHierarchy, TLBStats

#: Sentinel "sample threshold" used when interval sampling is disabled:
#: committed-instruction counts never reach it, so the stepper's only
#: per-record observability cost is one integer comparison.
_NEVER = float("inf")

#: Shared "no prefetcher" commit metadata -- the consumer (on-commit
#: training feedback) only reads it when a prefetcher exists, so one
#: constant tuple serves every load instead of a fresh allocation each.
_NO_PF_META = (False, False, False, False, False, False)


@contextmanager
def collector_paused():
    """Keep the cyclic garbage collector off for the block (re-entrant).

    Building and running a system allocates tens of thousands of
    container objects, and every allocation brings the collector's next
    scan closer, now and then a full scan of everything alive (trace
    pools included).  None of that work is needed: a system holds no
    reference cycles, so refcounting frees it, whole, once the last
    reference goes (tests/sim/test_teardown.py).
    The previous collector state is restored on exit, so nested uses --
    a job around a run -- leave it as the outermost caller found it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class SimResult:
    """Everything measured by one simulation run."""

    label: str
    trace_name: str
    committed: int
    cycles: int
    ipc: float
    core: CoreStats
    l1d: CacheStats
    l2: CacheStats
    llc: CacheStats
    gm: Optional[GhostMinionStats]
    dram: DRAMStats
    tlb: Optional[TLBStats]
    classification: Optional[Dict[str, int]]
    prefetcher_name: str
    train_level: int
    train_mode: str
    secure: bool
    suf: bool
    extras: Dict[str, float] = field(default_factory=dict)
    #: Interval time-series records (``obs.sample_interval > 0`` only).
    timeseries: Optional[List[Dict[str, float]]] = None

    def kilo_instructions(self) -> float:
        return self.committed / 1000.0

    def apki(self, level_stats: CacheStats) -> float:
        ki = self.kilo_instructions()
        return level_stats.total_accesses() / ki if ki else 0.0

    def mpki(self, level_stats: CacheStats) -> float:
        ki = self.kilo_instructions()
        return level_stats.demand_misses() / ki if ki else 0.0


class System:
    """One core and its memory system, in one of the paper's configurations.

    Parameters
    ----------
    params:
        Hardware configuration (defaults to Table II).
    secure:
        Use the GhostMinion secure cache system.
    suf:
        Enable the Secure Update Filter (requires ``secure``).
    prefetcher:
        A :class:`Prefetcher` instance, or ``None``.  TSB instances (with a
        ``requires_xlq`` attribute) automatically get X-LQ-sourced training
        events.
    train_mode:
        ``"on-access"`` or ``"on-commit"``.
    shadow:
        Optional on-access shadow prefetcher enabling the Fig. 6 miss
        taxonomy.  Pass a *fresh* instance of the same prefetcher type.
    classify:
        Collect the miss taxonomy even without a shadow (late/uncovered
        only).
    """

    def __init__(self, params: Optional[SystemParams] = None, *,
                 secure: bool = False, suf: bool = False,
                 delay_mitigation: bool = False,
                 prefetcher: Optional[Prefetcher] = None,
                 train_mode: str = MODE_ON_ACCESS,
                 shadow: Optional[Prefetcher] = None,
                 classify: bool = False,
                 shared_llc=None, shared_dram=None,
                 llc_scramble: int = 0,
                 obs: Optional[ObsConfig] = None,
                 label: Optional[str] = None) -> None:
        if params is None:
            params = baseline()
        if train_mode not in (MODE_ON_ACCESS, MODE_ON_COMMIT):
            raise ValueError(f"unknown train mode {train_mode!r}")
        if suf and not secure:
            raise ValueError("SUF requires the secure cache system")
        if delay_mitigation and secure:
            raise ValueError("pick one mitigation: GhostMinion (secure) "
                             "or delay-on-miss (delay_mitigation)")
        self.params = params
        self.secure = secure
        self.suf = suf
        self.delay_policy = DelayOnMissPolicy() if delay_mitigation \
            else None
        self.prefetcher = prefetcher
        self.train_mode = train_mode
        #: Non-zero key enables the randomized-index LLC front
        #: (:class:`~repro.sim.cache.ScrambledBackend`; the ``rand-llc``
        #: mitigation).  Zero keeps the conventional hierarchy
        #: bit-identical to every pinned configuration.
        self.llc_scramble = llc_scramble

        self.hierarchy = MemoryHierarchy(
            params, secure=secure,
            commit_filter=suf_decide if suf else None,
            shared_llc=shared_llc, shared_dram=shared_dram,
            llc_scramble=llc_scramble)
        self.core = CoreModel(params.core)
        self.core_stats = CoreStats()
        self.tlb = TLBHierarchy(params.tlb)

        #: SUF's LQ-side hit-level storage (step 1 of Fig. 7).
        self.hit_levels = HitLevelQueue(params.core.lq_entries,
                                        params.l1d.blocks) if suf else None
        #: TSB's X-LQ: instantiated when the prefetcher asks for it.
        self.use_xlq = bool(getattr(prefetcher, "requires_xlq", False))
        self.xlq: Optional[XLQ] = getattr(prefetcher, "xlq", None) \
            if self.use_xlq else None
        if self.use_xlq and self.xlq is None:
            self.xlq = XLQ(params.core.lq_entries)

        self.classifier = MissClassifier(
            shadow, commit_mode=(train_mode == MODE_ON_COMMIT)) \
            if (shadow is not None or classify) and prefetcher is not None \
            else None
        #: TS wrappers expose ``note_demand`` for lateness feedback.
        self._ts_feedback = hasattr(prefetcher, "note_demand")

        #: Observability: interval sampler and event trace, both ``None``
        #: when disabled so the hot loop pays a single attribute check.
        self.obs = obs if obs is not None else ObsConfig()
        self.sampler = IntervalSampler(self.obs.sample_interval) \
            if self.obs.sample_interval else None
        self.events = EventTrace(self.obs.trace_capacity) \
            if self.obs.trace_events else None
        if self.events is not None:
            self.hierarchy.attach_events(self.events)

        self.label = label if label is not None else self._default_label()

        #: Queued commit actions: (retire_time, is_load, payload).
        self._commit_q: Deque[Tuple] = deque()
        #: Load commits have work to do only in secure mode (GhostMinion
        #: on-commit write / re-fetch) or under on-commit training; in
        #: every other configuration the per-load queue entry would be
        #: dead weight, so it is never enqueued.  Store commits always
        #: enqueue (the L1D write happens at retire time), and their
        #: drain timing is unaffected: each entry is processed at the
        #: first dispatch past its own retire time either way.
        self._commit_loads = secure or (
            prefetcher is not None and train_mode == MODE_ON_COMMIT)
        self._pending_redirect = 0
        self._seq = 0
        self._warmup_cycle = 0
        #: Lazily built commit-drain and prefetch-issue closures (see
        #: :meth:`_make_drainer`, :meth:`_make_issuer`).
        self._drainer = None
        self._issuer = None

    def _default_label(self) -> str:
        pf = self.prefetcher.name if self.prefetcher else "no-pref"
        if self.secure:
            system = "secure"
        elif self.delay_policy is not None:
            system = "delay"
        else:
            system = "non-secure"
        parts = [pf, self.train_mode, system]
        if self.suf:
            parts.append("suf")
        if self.llc_scramble:
            parts.append("rand-llc")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, trace: Trace, warmup: float = 0.2) -> SimResult:
        """Replay ``trace``; measure everything after the warm-up fraction.

        ``warmup`` is the fraction of committed instructions used to warm
        caches and predictor tables before statistics are reset.
        """
        # The loop allocates only objects that refcounting frees (the
        # system itself included, once released): collector scans here
        # would cost time and free nothing.
        with collector_paused():
            for _ in self.stepper(trace, warmup, chunk=0):
                pass
        return self.finalize(trace)

    def stepper(self, trace: Trace, warmup: float = 0.2,
                chunk: int = 32):
        """Incrementally replay ``trace``, yielding every ``chunk``
        committed-path instructions (``chunk=0`` never yields).

        The multi-core driver interleaves several systems' steppers by
        time; :meth:`finalize` must be called after exhaustion.
        """
        if not 0.0 <= warmup < 1.0:
            raise ValueError(f"warmup must be in [0, 1), got {warmup!r}")
        return self._stepper(trace, warmup, chunk)

    def _stepper(self, trace: Trace, warmup: float, chunk: int):
        """The simulate loop, run over the trace's prescanned plan.

        A one-time prescan (:mod:`repro.sim.batch`, vectorized under
        NumPy) classifies every record into a small-int code and
        precomputes the pure-address work: block numbers, dTLB same-page
        runs, and the committed-record prefix counts.  The outer loop
        binary-searches those prefix counts to place every boundary --
        warm-up reset, sampler interval, multicore yield -- at an exact
        record index, so the inner loop carries **zero** per-record
        boundary checks, flag tests, or address arithmetic.

        The inner loop is deliberately *flat*: the per-record core model
        (dispatch / LQ / retire -- :class:`~repro.sim.cpu.CoreModel` is
        the readable reference implementation) and the per-load pipeline
        are inlined with their state held in local variables.  The
        locals are written back to ``self.core`` at every yield, sample,
        and warm-up reset, so external readers (``MulticoreSystem``'s
        ``current_cycle`` ordering, the interval sampler's occupancy
        probes, :meth:`finalize`) always observe coherent state.

        Committed and wrong-path loads run one pipeline.  ``wrong`` is
        tested only where a transient load behaves differently: the
        delay-on-miss squash, usefulness marking, the GM fill's transient
        flag, the SUF / X-LQ / TS bookkeeping it skips, and retire.  The
        L1D plain-hit arms replicate the hierarchy walk's entry plain-hit
        arm (``flatwalk.make_flat_descent``); their guard,
        ``fill_time <= issue_time + latency``, is conservative
        (any load it accepts would be a plain hit under any port
        schedule), so the full walk only runs for misses and in-flight
        fills.
        """
        plan = plan_for(trace)
        n = plan.n
        codes = plan.codes
        blocks = plan.blocks
        ips = plan.ips
        cum = plan.cum
        same_page = plan.same_page
        committed_total = plan.committed_total
        index_of_committed = plan.index_of_committed

        warmup_target = int(trace.committed_count * warmup)
        if warmup_target >= trace.committed_count:
            # Float-rounding guard: the warm-up reset must always leave at
            # least one measured instruction on a non-empty trace.
            warmup_target = max(trace.committed_count - 1, 0)
        warmed = warmup_target == 0
        committed = 0
        since_yield = 0

        core = self.core
        stats = self.core_stats
        # Core counters, localized like the cursors below; written back
        # with them at every sync point.
        n_instr = stats.committed_instructions
        n_loads = stats.committed_loads
        n_stores = stats.committed_stores
        n_wrong_loads = stats.wrong_path_loads
        n_mispredicts = stats.branch_mispredicts
        sampler = self.sampler
        commit_q = self._commit_q
        commit_append = commit_q.append
        drain_commits = self._drainer
        if drain_commits is None:
            drain_commits = self._drainer = self._make_drainer()
        delay_policy = self.delay_policy
        core_params = self.params.core
        issue_latency = core_params.load_issue_latency
        alu_latency = core_params.alu_latency
        penalty = core_params.mispredict_penalty
        sample_at = sampler.next_at if sampler is not None else _NEVER
        #: ``seq`` of record ``j`` (0-based) is ``seq_base + j + 1``; it
        #: is only consumed by the secure GM fill, so it is computed there
        #: instead of being incremented per record.
        seq_base = self._seq
        pending_redirect = self._pending_redirect

        rob = core._rob
        lq = core._lq
        rob_append = rob.append
        rob_popleft = rob.popleft
        lq_append = lq.append
        lq_popleft = lq.popleft
        # Local occupancy counters: every committed record pops at most
        # one ROB entry and appends exactly one (loads do the same to
        # the LQ), so occupancy only grows while a queue is filling and
        # then pins at capacity -- the per-record ``len()`` calls become
        # int compares.  Nothing outside this generator touches the
        # deques while it runs.
        rob_len = len(rob)
        lq_len = len(lq)
        rob_entries = core._rob_entries
        issue_width = core._issue_width
        retire_width_m1 = core._retire_width_m1
        lq_entries = core._lq_entries
        dispatch_cycle = core._dispatch_cycle
        dispatch_slot = core._dispatch_slot
        retire_cycle = core._retire_cycle
        retire_slot = core._retire_slot
        load_seq = core._load_seq
        final_retire = core.final_retire

        hierarchy = self.hierarchy
        secure = hierarchy.secure
        l1d_access = hierarchy._l1d_access
        l1d = hierarchy.l1d
        if secure:
            gm = hierarchy.gm
            gm_apply = gm.apply_until
            gm_fill = gm.fill
            gm_heap = hierarchy._gm_heap
            gm_stats = hierarchy.gm_stats
            gm_hit_latency = hierarchy._gm_hit_latency
            l1d_probe = l1d.probe
            # GhostMinionCache.lookup (no time bound), inlined below: a
            # resident-set probe falling back to the pending-fill dict.
            gm_sets = gm.sets
            gm_mask = gm._set_mask
            gm_pending = gm._pending
        # L1D plain-hit fast-path collaborators (see flatwalk; the
        # inline below replicates the walk's entry plain-hit arm exactly
        # and only fires when the guard proves that arm would be taken).
        l1_sets = l1d.sets
        l1_mask = l1d._set_mask
        l1_latency = l1d._latency
        l1_accesses = l1d._accesses
        l1_hits = l1d._hits
        l1_port_acquire = l1d._port_acquire
        # Port-bucket fast path (see _PortBucket.acquire): with a free
        # port at ``issue_time`` the charge is one dict store and the
        # start cycle is ``issue_time`` itself, so the plain-hit arms
        # below inline that case and only call ``acquire`` when the
        # cycle is saturated (the walk-forward slow path).  The trim
        # bookkeeping stays exact: ``_acquires`` is counted here too,
        # and the occasional slow-path call runs the trim.
        l1_port_bucket = l1d._ports
        l1_port_counts = l1_port_bucket.counts
        l1_port_n = l1_port_bucket.ports
        l1_stats_all = l1d.stats
        l1_level = l1d.level
        l1d_contains = l1d.contains
        tlb = self.tlb
        tlb_enabled = tlb._enabled
        tlb_stats = tlb.stats
        dtlb_sets = tlb._dtlb_sets
        dtlb_mask = tlb._dtlb_mask
        tlb_miss = tlb._miss
        prefetcher = self.prefetcher
        # Prefetch-outcome bookkeeping (late/useful detection via stats
        # deltas) only matters when something consumes it; without a
        # prefetcher the whole pre/post read pair is skipped and the
        # commit metadata is a shared constant.
        track = prefetcher is not None
        if track:
            l1_stats = l1d.stats
            l2_stats = hierarchy.l2.stats
            train_l1 = prefetcher.train_level == 0
            train = prefetcher.train
        classifier = self.classifier
        on_access = self.train_mode == MODE_ON_ACCESS
        ts_feedback = self._ts_feedback
        hit_levels = self.hit_levels
        if hit_levels is not None:
            # HitLevelQueue.record, inlined below: the 2-bit range check
            # is vacuous (the sim only produces levels 0..3), leaving a
            # modulo and a list store per committed load.
            hl_levels = hit_levels._levels
            hl_entries = hit_levels.lq_entries
        xlq = self.xlq
        if xlq is not None:
            # XLQ.record_miss + record_fill, fused and inlined: the fill
            # always follows its miss immediately here, so the validity
            # re-check inside record_fill is vacuous.
            xlq_slots = xlq._slots
            xlq_entries = xlq.entries
        commit_loads = self._commit_loads
        issue_requests = self._issuer
        if issue_requests is None:
            issue_requests = self._issuer = self._make_issuer()
        # Direct tuple construction for training events: skips the
        # NamedTuple's Python ``__new__`` frame on the per-load path.
        tuple_new = tuple.__new__
        # Commit-queue head cache: the queue is appended in retire order
        # and popped only by ``drain_commits`` (nothing outside this
        # generator touches it while it runs), so the head's due time
        # only changes on a drain or when an append undercuts it.  The
        # per-record "any commit due?" test is then one int compare
        # instead of a deque truth test plus an indexed peek.
        next_commit = commit_q[0][0] if commit_q else _NEVER

        i = 0
        while i < n:
            # Earliest boundary ahead, as a committed-record count; the
            # prefix-count search turns it into an exclusive record index.
            # Every candidate is strictly greater than ``committed`` (each
            # boundary is advanced past the count once it fires), so the
            # block is never empty.
            bound = warmup_target if not warmed else None
            if sampler is not None:
                c_sample = committed + sample_at - n_instr
                if bound is None or c_sample < bound:
                    bound = c_sample
            if chunk:
                c_yield = committed + chunk - since_yield
                if bound is None or c_yield < bound:
                    bound = c_yield
            if bound is None or bound > committed_total:
                stop = n
            else:
                stop = index_of_committed(bound) + 1

            for j in range(i, stop):
                code = codes[j]
                if code < 5:  # committed-path record
                    if pending_redirect:
                        # CoreModel.redirect, inlined.
                        if pending_redirect > dispatch_cycle:
                            dispatch_cycle = pending_redirect
                            dispatch_slot = 0
                        pending_redirect = 0
                    # CoreModel.dispatch, inlined.
                    if rob_len >= rob_entries:
                        oldest = rob_popleft()
                        if oldest > dispatch_cycle:
                            dispatch_cycle = oldest
                            dispatch_slot = 0
                    else:
                        rob_len += 1
                # A wrong-path record also takes its dispatch slot and can
                # trigger commit drains, but it never redirects, retires,
                # or checks ROB backpressure.
                t_disp = dispatch_cycle
                dispatch_slot += 1
                if dispatch_slot >= issue_width:
                    dispatch_cycle += 1
                    dispatch_slot = 0
                if next_commit <= t_disp:
                    drain_commits(t_disp)
                    next_commit = commit_q[0][0] if commit_q else _NEVER

                if code == 0:  # C_ALU, the most common record
                    completion = t_disp + alu_latency
                    ready = t_disp + 1
                    if completion > ready:
                        ready = completion
                    if ready > retire_cycle:
                        retire_cycle = ready
                        retire_slot = 0
                    elif retire_slot < retire_width_m1:
                        retire_slot += 1
                    else:
                        retire_cycle += 1
                        retire_slot = 0
                    rob_append(retire_cycle)
                    if retire_cycle > final_retire:
                        final_retire = retire_cycle
                elif code == 3 or code == 5:  # C_LOAD, C_WRONG_LOAD
                    wrong = code == 5
                    block = blocks[j]
                    issue_time = t_disp + issue_latency
                    # CoreModel.lq_allocate, inlined.
                    if lq_len >= lq_entries:
                        oldest = lq_popleft()
                        if oldest > issue_time:
                            issue_time = oldest
                    else:
                        lq_len += 1
                    # Address translation precedes the data-cache access;
                    # a dTLB miss pushes the access later (the dTLB-hit
                    # path inlined: move-to-back keeps dict insertion
                    # order == LRU recency order).
                    if tlb_enabled:
                        tlb_stats.dtlb_accesses += 1
                        # The prescan proved same-page loads are
                        # guaranteed dTLB hits whose move-to-back is a
                        # no-op; only page changes probe the dTLB.
                        if not same_page[j]:
                            page = block >> 6
                            set_ = dtlb_sets[page & dtlb_mask]
                            if page in set_:
                                del set_[page]
                                set_[page] = None
                            else:
                                issue_time += tlb_miss(page)
                    if delay_policy is not None:
                        l1d_hit = l1d_contains(block, issue_time)
                        if wrong and not l1d_hit:
                            # Delay-on-miss: a wrong-path miss never clears
                            # the branch horizon, so its request is never
                            # sent -- squashed (CoreModel.lq_complete
                            # inlined).
                            lq_append(issue_time + 1)
                            load_seq += 1
                            n_wrong_loads += 1
                            continue
                        issue_time = delay_policy.issue_time(issue_time,
                                                             l1d_hit)
                    # Lateness/usefulness booleans are computed per arm:
                    # the plain-hit fast paths below cannot change the
                    # merge/useful counters (except the one bump they
                    # perform themselves), so only the full-access arms
                    # pay the four before/after stats reads.  A wrong-path
                    # load marks no prefetch useful (count_useful=False).
                    if secure:
                        # hierarchy._speculative_load, inlined.
                        if gm_heap and gm_heap[0][0] <= issue_time:
                            gm_apply(issue_time)
                        gm_line = gm_sets[block & gm_mask].get(block)
                        if gm_line is None:
                            gm_line = gm_pending.get(block)
                        if gm_line is not None:
                            gm_stats.gm_hits += 1
                            l1d_probe(block, issue_time, REQ_LOAD)
                            completion = issue_time + gm_hit_latency
                            fill_time = gm_line.fill_time
                            if fill_time > completion:
                                completion = fill_time
                            hit_level = 0
                            fetch_latency = completion - issue_time
                            gm_hit = True
                            if track:
                                # A GM hit only probes the L1D tags: no
                                # merge or usefulness change.
                                late_l1 = late_l2 = False
                                useful_l1 = useful_l2 = False
                        else:
                            gm_stats.gm_misses += 1
                            line = l1_sets[block & l1_mask].get(block)
                            if line is not None and line.fill_time \
                                    <= issue_time + l1_latency:
                                # Invisible-walk plain hit (update=False).
                                l1_accesses[REQ_LOAD] += 1
                                pc = l1_port_counts.get(issue_time, 0)
                                if pc < l1_port_n:
                                    l1_port_counts[issue_time] = pc + 1
                                    l1_port_bucket._acquires += 1
                                    completion = issue_time + l1_latency
                                else:
                                    completion = \
                                        l1_port_acquire(issue_time) \
                                        + l1_latency
                                l1_hits[REQ_LOAD] += 1
                                if line.prefetched and not wrong \
                                        and not line.was_demand_hit:
                                    line.was_demand_hit = True
                                    l1_stats_all.prefetches_useful += 1
                                    if l1d.events is not None:
                                        l1d.events.emit(
                                            "pf_use", issue_time, block,
                                            l1d.name)
                                    useful_l1 = True
                                else:
                                    useful_l1 = False
                                late_l1 = late_l2 = useful_l2 = False
                                hit_level = l1_level
                            else:
                                if track:
                                    merged1_pre = \
                                        l1_stats.demand_merged_into_prefetch
                                    useful1_pre = l1_stats.prefetches_useful
                                    merged2_pre = \
                                        l2_stats.demand_merged_into_prefetch
                                    useful2_pre = l2_stats.prefetches_useful
                                completion, hit_level = l1d_access(
                                    block, issue_time, REQ_LOAD, False,
                                    False, not wrong)
                                if track:
                                    late_l1 = \
                                        l1_stats.demand_merged_into_prefetch \
                                        > merged1_pre
                                    useful_l1 = l1_stats.prefetches_useful \
                                        > useful1_pre
                                    late_l2 = \
                                        l2_stats.demand_merged_into_prefetch \
                                        > merged2_pre
                                    useful_l2 = l2_stats.prefetches_useful \
                                        > useful2_pre
                            fetch_latency = completion - issue_time
                            gm_hit = False
                            if hit_level != 0:
                                # A wrong-path fill is transient.
                                gm_fill(block, completion, seq_base + j + 1,
                                        fetch_latency, wrong)
                    else:
                        line = l1_sets[block & l1_mask].get(block)
                        if line is not None and line.fill_time \
                                <= issue_time + l1_latency:
                            # The walk's entry plain-hit arm, inlined.
                            l1_accesses[REQ_LOAD] += 1
                            pc = l1_port_counts.get(issue_time, 0)
                            if pc < l1_port_n:
                                l1_port_counts[issue_time] = pc + 1
                                l1_port_bucket._acquires += 1
                                completion = issue_time + l1_latency
                            else:
                                completion = \
                                    l1_port_acquire(issue_time) + l1_latency
                            l1_hits[REQ_LOAD] += 1
                            line.last_touch = issue_time
                            line.rrpv = 0
                            if line.prefetched and not wrong \
                                    and not line.was_demand_hit:
                                line.was_demand_hit = True
                                l1_stats_all.prefetches_useful += 1
                                if l1d.events is not None:
                                    l1d.events.emit(
                                        "pf_use", issue_time, block,
                                        l1d.name)
                                useful_l1 = True
                            else:
                                useful_l1 = False
                            late_l1 = late_l2 = useful_l2 = False
                            hit_level = l1_level
                        else:
                            if track:
                                merged1_pre = \
                                    l1_stats.demand_merged_into_prefetch
                                useful1_pre = l1_stats.prefetches_useful
                                merged2_pre = \
                                    l2_stats.demand_merged_into_prefetch
                                useful2_pre = l2_stats.prefetches_useful
                            completion, hit_level = l1d_access(
                                block, issue_time, REQ_LOAD, True, True,
                                not wrong)
                            if track:
                                late_l1 = \
                                    l1_stats.demand_merged_into_prefetch \
                                    > merged1_pre
                                useful_l1 = l1_stats.prefetches_useful \
                                    > useful1_pre
                                late_l2 = \
                                    l2_stats.demand_merged_into_prefetch \
                                    > merged2_pre
                                useful_l2 = l2_stats.prefetches_useful \
                                    > useful2_pre
                        fetch_latency = completion - issue_time
                        gm_hit = False
                    # CoreModel.lq_complete, inlined.
                    lq_append(completion)
                    slot = load_seq % lq_entries
                    load_seq += 1
                    miss_l1 = hit_level >= 1

                    if hit_levels is not None and not wrong:
                        hl_levels[slot % hl_entries] = hit_level

                    if track:
                        miss_l2 = hit_level >= 2

                        if xlq is not None and not wrong:
                            if miss_l1 and not gm_hit:
                                entry = xlq_slots[slot % xlq_entries]
                                entry.valid = True
                                entry.hitp = False
                                entry.ts = issue_time & TS_MASK
                                entry.latency = min(fetch_latency, LAT_MASK)
                            elif useful_l1:
                                line = l1d.lookup(block)
                                line_latency = line.latency \
                                    if line is not None else fetch_latency
                                xlq.record_prefetch_hit(slot, issue_time,
                                                        line_latency)

                        if classifier is not None or on_access:
                            # Under on-commit training without a
                            # classifier, nothing consumes an access-time
                            # event -- skip its construction.
                            event = tuple_new(TrainingEvent, (
                                ips[j], block, hit_level == 0, issue_time,
                                issue_time, fetch_latency, hit_level,
                                useful_l1 if train_l1 else useful_l2))

                        if classifier is not None:
                            # A late prefetch may be merged at either
                            # level (L1-fill requests are demoted to the
                            # L2 under MSHR pressure).
                            late_any = late_l1 or late_l2
                            if train_l1 or miss_l1:
                                classifier.on_access(event)
                            if train_l1 and miss_l1:
                                classifier.classify_miss(
                                    block, issue_time, late_any)
                            elif not train_l1 and miss_l2:
                                classifier.classify_miss(
                                    block, issue_time, late_any)

                        if on_access:
                            # Wrong-path loads train as well: the
                            # transient-training channel (Section III-B).
                            if train_l1 or miss_l1:
                                requests = train(event)
                                if requests:
                                    issue_requests(requests, issue_time)
                            if ts_feedback and not wrong:
                                if train_l1:
                                    prefetcher.note_demand(
                                        miss_l1, late_l1, useful_l1)
                                else:
                                    prefetcher.note_demand(
                                        miss_l2, late_l2, useful_l2)

                    if wrong:
                        n_wrong_loads += 1
                        continue
                    n_loads += 1
                    if delay_policy is not None:
                        delay_policy.note_load_completion(completion)
                    # CoreModel.retire, inlined.
                    ready = t_disp + 1
                    if completion > ready:
                        ready = completion
                    if ready > retire_cycle:
                        retire_cycle = ready
                        retire_slot = 0
                    elif retire_slot < retire_width_m1:
                        retire_slot += 1
                    else:
                        retire_cycle += 1
                        retire_slot = 0
                    rob_append(retire_cycle)
                    if retire_cycle > final_retire:
                        final_retire = retire_cycle
                    if commit_loads:
                        meta = (miss_l1, miss_l2, late_l1, late_l2,
                                useful_l1, useful_l2) if track \
                            else _NO_PF_META
                        commit_append((retire_cycle, True,
                                       (ips[j], block, hit_level,
                                        issue_time, fetch_latency, slot,
                                        meta)))
                        if retire_cycle < next_commit:
                            next_commit = retire_cycle
                elif code == 4:  # C_STORE
                    # Stores complete in the ALU pipeline; the L1D write
                    # happens at commit time.
                    ready = t_disp + 1
                    completion = t_disp + alu_latency
                    if completion > ready:
                        ready = completion
                    if ready > retire_cycle:
                        retire_cycle = ready
                        retire_slot = 0
                    elif retire_slot < retire_width_m1:
                        retire_slot += 1
                    else:
                        retire_cycle += 1
                        retire_slot = 0
                    rob_append(retire_cycle)
                    if retire_cycle > final_retire:
                        final_retire = retire_cycle
                    commit_append((retire_cycle, False, blocks[j]))
                    if retire_cycle < next_commit:
                        next_commit = retire_cycle
                    n_stores += 1
                elif code < 3:  # C_BRANCH (1) or C_MISPREDICT (2)
                    completion = t_disp + alu_latency
                    if delay_policy is not None:
                        completion = delay_policy.note_branch(completion)
                    if code == 2:
                        pending_redirect = completion + penalty
                        n_mispredicts += 1
                    ready = t_disp + 1
                    if completion > ready:
                        ready = completion
                    if ready > retire_cycle:
                        retire_cycle = ready
                        retire_slot = 0
                    elif retire_slot < retire_width_m1:
                        retire_slot += 1
                    else:
                        retire_cycle += 1
                        retire_slot = 0
                    rob_append(retire_cycle)
                    if retire_cycle > final_retire:
                        final_retire = retire_cycle
                # C_WRONG_OTHER: nothing further.

            # Block accounting, then the boundary actions: a warm-up reset
            # takes precedence over a coinciding sample; a coinciding
            # yield still fires.
            new_committed = cum[stop - 1]
            delta = new_committed - committed
            committed = new_committed
            n_instr += delta
            i = stop
            if chunk:
                since_yield += delta
            if not warmed and committed >= warmup_target:
                warmed = True
                core._dispatch_cycle = dispatch_cycle
                core._dispatch_slot = dispatch_slot
                core._retire_cycle = retire_cycle
                core._retire_slot = retire_slot
                core._load_seq = load_seq
                core.final_retire = final_retire
                self._reset_measurement()
                n_instr = stats.committed_instructions
                n_loads = stats.committed_loads
                n_stores = stats.committed_stores
                n_wrong_loads = stats.wrong_path_loads
                n_mispredicts = stats.branch_mispredicts
                if sampler is not None:
                    sample_at = sampler.next_at
            elif n_instr >= sample_at:
                stats.committed_instructions = n_instr
                stats.committed_loads = n_loads
                stats.committed_stores = n_stores
                stats.wrong_path_loads = n_wrong_loads
                stats.branch_mispredicts = n_mispredicts
                core._dispatch_cycle = dispatch_cycle
                core._dispatch_slot = dispatch_slot
                core._retire_cycle = retire_cycle
                core._retire_slot = retire_slot
                core._load_seq = load_seq
                core.final_retire = final_retire
                sampler.sample(self)
                sample_at = sampler.next_at
            if chunk and since_yield >= chunk:
                since_yield = 0
                self._seq = seq_base + stop
                self._pending_redirect = pending_redirect
                stats.committed_instructions = n_instr
                stats.committed_loads = n_loads
                stats.committed_stores = n_stores
                stats.wrong_path_loads = n_wrong_loads
                stats.branch_mispredicts = n_mispredicts
                core._dispatch_cycle = dispatch_cycle
                core._dispatch_slot = dispatch_slot
                core._retire_cycle = retire_cycle
                core._retire_slot = retire_slot
                core._load_seq = load_seq
                core.final_retire = final_retire
                yield
        self._seq = seq_base + n
        self._pending_redirect = pending_redirect
        stats.committed_instructions = n_instr
        stats.committed_loads = n_loads
        stats.committed_stores = n_stores
        stats.wrong_path_loads = n_wrong_loads
        stats.branch_mispredicts = n_mispredicts
        core._dispatch_cycle = dispatch_cycle
        core._dispatch_slot = dispatch_slot
        core._retire_cycle = retire_cycle
        core._retire_slot = retire_slot
        core._load_seq = load_seq
        core.final_retire = final_retire

    def finalize(self, trace: Trace) -> SimResult:
        """Complete the run started by :meth:`stepper`; return results."""
        self._drain_commits(None)
        if self.classifier is not None:
            self.classifier.finalize()
        self.core_stats.cycles = max(
            self.core.final_retire - self._warmup_cycle, 1)
        if self.sampler is not None:
            self.sampler.flush(self)
        return self._build_result(trace)

    def measurement_cycle(self) -> int:
        """Cycles elapsed since the warm-up reset (the measured clock)."""
        return self.core.final_retire - self._warmup_cycle

    def metrics(self) -> MetricRegistry:
        """A typed registry over every live stats structure.

        Reads are bound to the stats objects, so one registry built up
        front observes the whole run; snapshots taken mid-run see current
        values.
        """
        registry = MetricRegistry()
        registry.register_struct("core", self.core_stats)
        hierarchy = self.hierarchy
        for prefix, level in (("l1d", hierarchy.l1d), ("l2", hierarchy.l2),
                              ("llc", hierarchy.llc)):
            registry.register_struct(prefix, level.stats)
        if self.secure:
            registry.register_struct("gm", hierarchy.gm_stats)
        registry.register_struct("dram", hierarchy.dram.stats)
        registry.register_struct("tlb", self.tlb.stats)
        registry.gauge("core.ipc", self.core_stats.ipc,
                       description="committed instructions per cycle")
        registry.gauge("dram.row_hit_rate",
                       hierarchy.dram.stats.row_hit_rate,
                       description="row-buffer hit fraction")
        for prefix, level in (("l1d", hierarchy.l1d), ("l2", hierarchy.l2),
                              ("llc", hierarchy.llc)):
            registry.gauge(f"{prefix}.prefetch_accuracy",
                           level.stats.prefetch_accuracy,
                           description="useful / resolved prefetches")
        if self.secure:
            registry.gauge("gm.suf_accuracy", hierarchy.gm_stats.suf_accuracy,
                           description="correct / decided SUF filterings")
        return registry

    # ------------------------------------------------------------------
    # commit stage
    # ------------------------------------------------------------------

    def _drain_commits(self, until: Optional[int]) -> None:
        """Drain queued commit actions due at or before ``until``.

        Delegates to the cached closure from :meth:`_make_drainer`; the
        stepper hoists that closure directly, so the ~20-collaborator
        preamble runs once per system instead of once per drain call.
        """
        drainer = self._drainer
        if drainer is None:
            drainer = self._drainer = self._make_drainer()
        drainer(until)

    def _make_drainer(self):
        queue = self._commit_q
        hierarchy = self.hierarchy
        # A committed store walks the hierarchy from the L1D; its
        # completion is unused.
        store_access = hierarchy._l1d_access
        hit_levels = self.hit_levels
        has_hl = hit_levels is not None
        if has_hl:
            # HitLevelQueue.read, inlined: one modulo + list read.
            hl_levels = hit_levels._levels
            hl_entries = hit_levels.lq_entries
        prefetcher = self.prefetcher
        # hierarchy.commit_load collaborators, hoisted: the whole commit
        # pipeline is inlined below (commit_load remains the readable
        # reference and the public per-load API).
        secure = hierarchy.secure
        events = hierarchy.events
        if secure:
            gm_stats = hierarchy.gm_stats
            gm_heap = hierarchy._gm_heap
            gm_apply = hierarchy.gm.apply_until
            # GhostMinionCache.take, inlined at the drain site: a
            # resident-set pop falling back to the pending-fill dict.
            gm_sets = hierarchy.gm.sets
            gm_mask = hierarchy.gm._set_mask
            gm_pending = hierarchy.gm._pending
            commit_filter = hierarchy.commit_filter
            filter_memo = hierarchy._filter_memo
            l1d_contains = hierarchy._l1d_contains
            l1d_commit_write = hierarchy._l1d_commit_write
            l1d_access = hierarchy._l1d_access
            gm_latency = hierarchy._gm_latency
            record_suf_stop = hierarchy._record_suf_stop
            refetch_batch = hierarchy._refetch_batch
            # Naive on-commit training consumes each re-fetch completion
            # inline (the misleading update latency of Section V-B).
            # Batching would force its training tails behind the window,
            # reordering prefetch issues against the next loads' GM
            # bookkeeping -- a semantic change with nothing to show for
            # it (windows average ~1.1 re-fetches).  That mode keeps the
            # exact sequential per-block walk; batching applies when
            # nothing reads the completion mid-window (no prefetcher,
            # X-LQ training, on-access training).
            if prefetcher is not None \
                    and self.train_mode == MODE_ON_COMMIT \
                    and not self.use_xlq:
                refetch_batch = None
        train_commit = prefetcher is not None \
            and self.train_mode == MODE_ON_COMMIT
        if train_commit:
            train = prefetcher.train
            train_l1 = prefetcher.train_level == 0
            use_xlq = self.use_xlq
            if use_xlq:
                xlq_slots = self.xlq._slots
                xlq_entries = self.xlq.entries
            issue_requests = self._issuer
            if issue_requests is None:
                issue_requests = self._issuer = self._make_issuer()
            ts_feedback = self._ts_feedback
        tuple_new = tuple.__new__

        def drain(until: Optional[int]) -> None:
            # The drained window's re-fetches, batched: GhostMinion's
            # timestamp ordering is applied per load *before* the window
            # is collected, so deferring the hierarchy walks to one
            # shared pass (see flatwalk.make_refetch_batch) keeps GM
            # semantics exact while amortizing the descent and the DRAM
            # bank bookkeeping over the window.
            refetch_pairs = None
            while queue and (until is None or queue[0][0] <= until):
                t_ret, is_load, payload = queue.popleft()
                if not is_load:
                    store_access(payload, t_ret, REQ_STORE)
                    continue
                ip, block, hit_level, issue_time, fetch_latency, slot, meta = \
                    payload
                recorded_level = hl_levels[slot % hl_entries] \
                    if has_hl else hit_level
                # hierarchy.commit_load, inlined.
                if not secure:
                    update_latency = 0
                else:
                    if gm_heap and gm_heap[0][0] <= t_ret:
                        gm_apply(t_ret)
                    gm_line = gm_sets[block & gm_mask].pop(block, None)
                    if gm_line is None:
                        gm_line = gm_pending.pop(block, None)
                    if commit_filter is not None:
                        decision = filter_memo.get(recorded_level)
                        if decision is None:
                            decision = filter_memo[recorded_level] = \
                                commit_filter(recorded_level)
                    else:
                        decision = None
                    if decision is not None and decision.drop:
                        gm_stats.commit_drops_suf += 1
                        if l1d_contains(block):
                            gm_stats.suf_correct += 1
                        else:
                            gm_stats.suf_mispredict += 1
                        if events is not None:
                            events.emit("suf_drop", t_ret, block, "SUF")
                        update_latency = 0
                    elif gm_line is not None:
                        # On-commit write: the line moves GM -> L1D.
                        gm_stats.commit_writes += 1
                        if events is not None:
                            events.emit("gm_commit_write", t_ret, block, "GM")
                        if decision is not None:
                            record_suf_stop(block, recorded_level, t_ret)
                            l1d_commit_write(block, t_ret,
                                             decision.gm_propagate,
                                             decision.wbb)
                        else:
                            l1d_commit_write(block, t_ret, True, True)
                        update_latency = gm_latency
                    else:
                        # GM line evicted before commit (or never existed):
                        # re-fetch into the non-speculative hierarchy.
                        gm_stats.commit_refetches += 1
                        if recorded_level > 0:
                            gm_stats.gm_lost_before_commit += 1
                        if events is not None:
                            events.emit("gm_refetch", t_ret, block, "GM")
                        if refetch_batch is None:
                            completion, _ = l1d_access(block, t_ret,
                                                       REQ_COMMIT)
                            update_latency = completion - t_ret
                        else:
                            if refetch_pairs is None:
                                refetch_pairs = []
                            refetch_pairs.append((block, t_ret))
                            update_latency = 0
                if not train_commit:
                    continue

                (miss_l1, miss_l2, late_l1, late_l2,
                 useful_l1, useful_l2) = meta

                # Build the training event the commit-stage prefetcher sees.
                # Naive on-commit training observes commit-ordered timestamps
                # and the on-commit update latency (the misleading value of
                # Section V-B).  With the X-LQ (TSB), the preserved access
                # time and GM fetch latency are used instead (XLQ.read,
                # inlined: read-and-invalidate the committing load's slot).
                if use_xlq:
                    entry = xlq_slots[slot % xlq_entries]
                    if not entry.valid:
                        # Regular L1D hit: no training action (Section V-C).
                        event = None
                    else:
                        entry.valid = False
                        event = tuple_new(TrainingEvent, (
                            ip, block, hit_level == 0, t_ret,
                            t_ret - ((t_ret - entry.ts) & TS_MASK),
                            entry.latency, hit_level, entry.hitp))
                else:
                    event = tuple_new(TrainingEvent, (
                        ip, block, hit_level == 0, t_ret, t_ret,
                        update_latency if update_latency > 1 else 1,
                        hit_level, useful_l1 if train_l1 else useful_l2))
                if event is not None and (train_l1 or hit_level >= 1):
                    requests = train(event)
                    if requests:
                        issue_requests(requests, t_ret)
                if ts_feedback:
                    if train_l1:
                        prefetcher.note_demand(miss_l1, late_l1, useful_l1)
                    else:
                        prefetcher.note_demand(miss_l2, late_l2, useful_l2)
            if refetch_pairs is not None:
                refetch_batch(refetch_pairs)
        return drain

    def _make_issuer(self):
        """Build the prefetch-issue closure: ``issue(requests, time)``.

        Every request's trigger is logged with the miss classifier
        first, issued or not: the Fig. 6 commit-late definition asks
        when the prefetcher triggered the line, even if the request was
        redundant by then.  The common outcome of a request is a *drop*
        -- line already resident, already in flight, PQ or MSHR full,
        DRAM backlogged -- which the readable reference,
        ``MemoryHierarchy.issue_prefetch``, pays two more call frames to
        discover (``CacheLevel.issue_prefetch`` -> ``_drop_prefetch``).
        The closure replicates that decision chain flat, charging the
        same counters in the same order, and only calls into a walk
        when a prefetch actually enters the memory system.  With event
        tracing attached it loops over the reference instead, so
        emission sites stay in one place.  The closure is stored on the
        system, so it must not capture the system itself (or any of its
        bound methods): that cycle would keep every finished system
        alive until the cyclic collector runs.
        """
        hierarchy = self.hierarchy
        hierarchy_issue = hierarchy.issue_prefetch
        dram = hierarchy.dram
        l1d = hierarchy.l1d
        l2 = hierarchy.l2
        llc = hierarchy.llc
        l1_stats = l1d.stats
        l2_stats = l2.stats
        llc_stats = llc.stats
        l1_sets = l1d.sets
        l1_mask = l1d._set_mask
        l1_outstanding = l1d._outstanding
        l1_pq = l1d._pq_times
        l1_mshr = l1d._mshr_times
        l1_access = hierarchy._l1d_access
        l2_sets = l2.sets
        l2_mask = l2._set_mask
        l2_outstanding = l2._outstanding
        l2_pq = l2._pq_times
        l2_mshr = l2._mshr_times
        l2_access = hierarchy._l2_access
        # The L2's view of the LLC: under rand-llc the scrambling front.
        llc_issue = hierarchy.llc_front.issue_prefetch
        llc_access = hierarchy._llc_access
        mshr_limit = hierarchy._l1d_mshrs
        classifier = self.classifier
        on_real = classifier.on_real_prefetch \
            if classifier is not None else None

        def issue(requests, time):
            if l1d.events is not None or l2.events is not None \
                    or llc.events is not None:
                for pf_block, fill_level in requests:
                    if on_real is not None:
                        on_real(pf_block, time)
                    hierarchy_issue(pf_block, time, fill_level)
                return
            # hierarchy.issue_prefetch, inlined.  Its DRAM backlog
            # throttle and L1D-MSHR demotion test read DRAM and MSHR state
            # that only a request entering the memory system changes (a
            # drop touches a counter and nothing else), so they are
            # evaluated once per call and again only after such a request.
            stale = True
            for pf_block, fill_level in requests:
                if on_real is not None:
                    on_real(pf_block, time)
                if stale:
                    stale = False
                    reference = time + dram._service
                    bus_free = dram._bus_free
                    if bus_free > reference:
                        reference = bus_free
                    backlogged = dram._bus_free_low - reference \
                        > dram._backlog_margin
                    # Berti's orchestration rule: demote to the L2 when
                    # the L1D MSHRs are half occupied.  Unused while
                    # backlogged: every request of the call is dropped.
                    demote = not backlogged and 2 * (
                        len(l1_mshr) - bisect_right(l1_mshr, time)) \
                        >= mshr_limit
                if backlogged:
                    # The throttle runs first, charging the *requested*
                    # fill level's drop counter.
                    if fill_level <= 0:
                        l1_stats.prefetches_dropped += 1
                    elif fill_level == 1:
                        l2_stats.prefetches_dropped += 1
                    else:
                        llc_stats.prefetches_dropped += 1
                    continue
                if fill_level <= 0:
                    if demote:
                        fill_level = 1
                    elif pf_block in l1_sets[pf_block & l1_mask] \
                            or pf_block in l1_outstanding \
                            or l1_pq[0] > time or l1_mshr[0] > time:
                        # CacheLevel.issue_prefetch's drop checks, in
                        # their exact order (resident / in flight, PQ
                        # full, MSHRs full).
                        l1_stats.prefetches_dropped += 1
                        continue
                    else:
                        l1_stats.prefetches_issued += 1
                        completion, _ = l1_access(
                            pf_block, time, REQ_PREFETCH, True, True)
                        del l1_pq[0]
                        insort(l1_pq, completion)
                        stale = True
                        continue
                if fill_level == 1:
                    if pf_block in l2_sets[pf_block & l2_mask] \
                            or pf_block in l2_outstanding \
                            or l2_pq[0] > time or l2_mshr[0] > time:
                        l2_stats.prefetches_dropped += 1
                    else:
                        l2_stats.prefetches_issued += 1
                        completion, _ = l2_access(
                            pf_block, time, REQ_PREFETCH, True, True)
                        del l2_pq[0]
                        insort(l2_pq, completion)
                        stale = True
                else:
                    llc_issue(pf_block, time, llc_access)
                    stale = True
        return issue

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def _reset_measurement(self) -> None:
        self.hierarchy.reset_stats()
        self.core_stats.reset()
        self.tlb.reset_stats()
        if self.delay_policy is not None:
            self.delay_policy.reset_stats()
        if self.classifier is not None:
            self.classifier.resolve(self.core.final_retire)
            for category in self.classifier.counts:
                self.classifier.counts[category] = 0
        self._warmup_cycle = self.core.final_retire
        if self.sampler is not None:
            self.sampler.restart(self)

    def _build_result(self, trace: Trace) -> SimResult:
        stats = self.core_stats
        hierarchy = self.hierarchy
        classification = dict(self.classifier.counts) \
            if self.classifier is not None else None
        prefetcher = self.prefetcher
        extras: Dict[str, float] = {}
        if prefetcher is not None:
            extras["prefetcher_storage_kb"] = prefetcher.storage_kb()
        if self.hit_levels is not None:
            extras["suf_storage_kb"] = self.hit_levels.storage_bits() \
                / 8 / 1024
        if self.delay_policy is not None:
            extras["delayed_loads"] = self.delay_policy.stats.delayed_loads
            extras["avg_delay_cycles"] = \
                self.delay_policy.stats.average_delay()
        if hierarchy.gm is not None:
            extras["gm_ordering_drops"] = hierarchy.gm.ordering_drops
        return SimResult(
            label=self.label,
            trace_name=trace.name,
            committed=stats.committed_instructions,
            cycles=stats.cycles,
            ipc=stats.ipc(),
            core=stats,
            l1d=hierarchy.l1d.stats,
            l2=hierarchy.l2.stats,
            llc=hierarchy.llc.stats,
            gm=hierarchy.gm_stats if self.secure else None,
            dram=hierarchy.dram.stats,
            tlb=self.tlb.stats,
            classification=classification,
            prefetcher_name=prefetcher.name if prefetcher else "none",
            train_level=prefetcher.train_level if prefetcher else 0,
            train_mode=self.train_mode,
            secure=self.secure,
            suf=self.suf,
            extras=extras,
            timeseries=list(self.sampler.records)
            if self.sampler is not None else None,
        )
