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
  recorded in 2 bits in the load's LQ entry
  (:class:`~repro.core.suf.HitLevelQueue` gives its storage); at commit,
  :func:`~repro.core.suf.suf_decide` uses it to drop or truncate the
  redundant commit-time hierarchy update before it spends L1D
  ports/MSHRs.
* **TSB** (Section V): at access time the issue cycle's low 16 bits and
  the fetch latency, saturated at 12 bits, are latched in the load's
  X-LQ entry (:mod:`repro.core.xlq` gives the widths); at commit the
  :class:`TrainingEvent` is rebuilt from them, so Berti's delta timing
  reflects *access-time* reality even though training happens at commit.

Both live in the load's own LQ entry, which only that load reads, at its
commit.  The stepper models the entry as the commit payload it queues
for the load (``(ip, block, hit_level, xlq, meta)``), so no load can
read another's fields whatever the LQ size, and the X-LQ needs no flush
on a domain switch: nothing of it outlives its load's commit.

Performance note: there is one simulate loop, :meth:`System._stepper`.
It runs over the trace's prescanned plan (:mod:`repro.sim.batch`) and
makes one hierarchy call per load: GhostMinion's
``MemoryHierarchy.speculative_load`` when secure, else the L1D walk.
The commit drain (:meth:`System._make_drainer`) makes one
``MemoryHierarchy.commit_load`` call per committed load.  Both hand a
prefetcher's requests to the hierarchy's one prefetch issuer
(``MemoryHierarchy.issue_prefetches``, through
:meth:`System._make_issuer`).  The loop itself runs the core's timing
rules (dispatch, load queue, retire; :mod:`repro.sim.cpu` holds their
state), the load's hit level and X-LQ fields and the dTLB hit, with
all per-record state in locals.  docs/PERFORMANCE.md has the inventory;
tests/sim/test_golden_stats.py pins the statistics bit for bit.  The
``rand-llc`` LLC keys its set index inside its own set array
(``CacheParams.keyed_index``), so neither the loop nor the issuer has a
case for it.
"""

from __future__ import annotations

import gc

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.classification import MissClassifier
from ..core.suf import HitLevelQueue, suf_decide
from ..core.xlq import LAT_MASK, TS_MASK
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
                    REQ_LOAD, REQ_STORE)
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
        ``requires_xlq`` attribute) train at commit on events rebuilt from
        each load's X-LQ fields.
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

        self.hierarchy = MemoryHierarchy(
            params, secure=secure,
            commit_filter=suf_decide if suf else None,
            shared_llc=shared_llc, shared_dram=shared_dram)
        self.core = CoreModel(params.core)
        self.core_stats = CoreStats()
        self.tlb = TLBHierarchy(params.tlb)

        #: TSB's X-LQ: on-commit training events come from the fields
        #: each load carries to its commit.
        self.use_xlq = bool(getattr(prefetcher, "requires_xlq", False))

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

        The inner loop is deliberately *flat*: the per-record core
        timing (dispatch / LQ / retire) runs on local copies of
        :class:`~repro.sim.cpu.CoreModel`'s state, and each load makes
        one hierarchy call.  The locals are written back to
        ``self.core`` once per block, before its boundary action
        (yield, sample, warm-up reset), so external readers
        (``MulticoreSystem``'s ``current_cycle`` ordering, the interval
        sampler's occupancy probes, :meth:`finalize`) always observe
        coherent state.

        Committed and wrong-path loads run one pipeline.  ``wrong`` is
        tested only where a transient load behaves differently: the
        delay-on-miss squash, usefulness marking, the GM fill's transient
        flag, the TS feedback it skips, and retire (a wrong-path load
        queues no commit payload, so it carries no hit level or X-LQ
        fields).
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
        # with them after every block.
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
        #: is only consumed as a secure load's GM timestamp, so it is
        #: computed there instead of being incremented per record.
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
        final_retire = core.final_retire

        hierarchy = self.hierarchy
        secure = hierarchy.secure
        l1d_access = hierarchy._l1d_access
        speculative_load = hierarchy.speculative_load
        l1d = hierarchy.l1d
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
        # Only on-commit training reads a load's X-LQ fields.
        carry_xlq = self.use_xlq and not on_access
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
                        # A mispredict's redirect holds the front end
                        # until the branch resolves plus the refill
                        # penalty; one already in the past is void.
                        if pending_redirect > dispatch_cycle:
                            dispatch_cycle = pending_redirect
                            dispatch_slot = 0
                        pending_redirect = 0
                    # Dispatch: with the ROB full, wait for its oldest
                    # entry to retire.
                    if rob_len >= rob_entries:
                        oldest = rob_popleft()
                        if oldest > dispatch_cycle:
                            dispatch_cycle = oldest
                            dispatch_slot = 0
                    else:
                        rob_len += 1
                # ``issue_width`` records dispatch per cycle.  A
                # wrong-path record also takes its dispatch slot and can
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
                    # With the LQ full, the load issues once its oldest
                    # entry's load completes.
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
                            # sent -- squashed, its LQ entry freed a cycle
                            # after issue.
                            lq_append(issue_time + 1)
                            n_wrong_loads += 1
                            continue
                        issue_time = delay_policy.issue_time(issue_time,
                                                             l1d_hit)
                    # Lateness and usefulness are the load's deltas of the
                    # L1D/L2 merge and usefulness counters.  A wrong-path
                    # load marks no prefetch useful (count_useful=False).
                    if track:
                        merged1_pre = l1_stats.demand_merged_into_prefetch
                        useful1_pre = l1_stats.prefetches_useful
                        merged2_pre = l2_stats.demand_merged_into_prefetch
                        useful2_pre = l2_stats.prefetches_useful
                    if secure:
                        # A wrong-path GM fill is transient.  A GM hit
                        # reads level 0, as an L1D hit does.
                        completion, hit_level, _ = speculative_load(
                            block, issue_time, seq_base + j + 1, not wrong)
                    else:
                        completion, hit_level = l1d_access(
                            block, issue_time, REQ_LOAD, True, True,
                            not wrong)
                    if track:
                        late_l1 = l1_stats.demand_merged_into_prefetch \
                            > merged1_pre
                        useful_l1 = l1_stats.prefetches_useful > useful1_pre
                        late_l2 = l2_stats.demand_merged_into_prefetch \
                            > merged2_pre
                        useful_l2 = l2_stats.prefetches_useful > useful2_pre
                    fetch_latency = completion - issue_time
                    # The LQ entry's occupancy ends at completion; its
                    # hit level and X-LQ fields go with the commit
                    # payload below.
                    lq_append(completion)
                    miss_l1 = hit_level >= 1

                    if track:
                        miss_l2 = hit_level >= 2

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
                    # Retire in order, ``retire_width`` per cycle, no
                    # earlier than completion or a cycle after dispatch.
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
                        # The X-LQ fields (Section V-C): an L1D miss
                        # latches its access cycle and fetch latency, a
                        # hit on a prefetched line sets Hitp and copies
                        # that line's latency, a plain L1D or GM hit
                        # takes no entry (None).
                        xlq = None
                        if track:
                            meta = (miss_l1, miss_l2, late_l1, late_l2,
                                    useful_l1, useful_l2)
                            if carry_xlq:
                                if miss_l1:
                                    xlq = (issue_time & TS_MASK,
                                           min(fetch_latency, LAT_MASK),
                                           False)
                                elif useful_l1:
                                    line = l1d.lookup(block)
                                    line_latency = line.latency \
                                        if line is not None \
                                        else fetch_latency
                                    xlq = (issue_time & TS_MASK,
                                           min(line_latency, LAT_MASK),
                                           True)
                        else:
                            meta = _NO_PF_META
                        commit_append((retire_cycle, True,
                                       (ips[j], block, hit_level, xlq,
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

            # Block accounting and the locals' write-back, then the
            # boundary actions: a warm-up reset takes precedence over a
            # coinciding sample; a coinciding yield still fires.  Every
            # block ends at a boundary or at the trace's end, so this is
            # the loop's only write-back.
            new_committed = cum[stop - 1]
            delta = new_committed - committed
            committed = new_committed
            n_instr += delta
            i = stop
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
            core.final_retire = final_retire
            if chunk:
                since_yield += delta
            if not warmed and committed >= warmup_target:
                warmed = True
                self._reset_measurement()
                n_instr = stats.committed_instructions
                n_loads = stats.committed_loads
                n_stores = stats.committed_stores
                n_wrong_loads = stats.wrong_path_loads
                n_mispredicts = stats.branch_mispredicts
                if sampler is not None:
                    sample_at = sampler.next_at
            elif n_instr >= sample_at:
                sampler.sample(self)
                sample_at = sampler.next_at
            if chunk and since_yield >= chunk:
                since_yield = 0
                yield

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
        stepper hoists that closure directly, so the collaborator
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
        commit_load = hierarchy.commit_load
        prefetcher = self.prefetcher
        train_commit = prefetcher is not None \
            and self.train_mode == MODE_ON_COMMIT
        # A drained window's re-fetches resolve in one batched pass where
        # the hierarchy has a resolver (GhostMinion).
        # Naive on-commit training consumes each re-fetch completion
        # inline (the misleading update latency of Section V-B).
        # Batching would force its training tails behind the window,
        # reordering prefetch issues against the next loads' GM
        # bookkeeping -- a semantic change with nothing to show for it
        # (windows average ~1.1 re-fetches).  That mode keeps the exact
        # sequential per-block walk; batching applies when nothing reads
        # the completion mid-window (no prefetcher, X-LQ training,
        # on-access training).
        refetch_batch = hierarchy._refetch_batch
        if train_commit and not self.use_xlq:
            refetch_batch = None
        if train_commit:
            train = prefetcher.train
            train_l1 = prefetcher.train_level == 0
            use_xlq = self.use_xlq
            issue_requests = self._issuer
            if issue_requests is None:
                issue_requests = self._issuer = self._make_issuer()
            ts_feedback = self._ts_feedback
        tuple_new = tuple.__new__
        # The window's re-fetches, collected by commit_load and emptied
        # after each window: GhostMinion's timestamp ordering is applied
        # per load as the window is collected, so deferring its re-fetch
        # walks to one shared pass (see flatwalk.make_refetch_batch)
        # keeps GM semantics exact while amortizing the descent and the
        # DRAM bank bookkeeping over the window.
        refetches = [] if refetch_batch is not None else None

        def drain(until: Optional[int]) -> None:
            while queue and (until is None or queue[0][0] <= until):
                t_ret, is_load, payload = queue.popleft()
                if not is_load:
                    store_access(payload, t_ret, REQ_STORE)
                    continue
                # The load's own LQ entry: its hit level drives SUF, its
                # X-LQ fields TSB's training.
                ip, block, hit_level, xlq, meta = payload
                update_latency = commit_load(block, t_ret, hit_level,
                                             refetches)
                if not train_commit:
                    continue

                (miss_l1, miss_l2, late_l1, late_l2,
                 useful_l1, useful_l2) = meta

                # Build the training event the commit-stage prefetcher sees.
                # Naive on-commit training observes commit-ordered timestamps
                # and the on-commit update latency (the misleading value of
                # Section V-B).  With the X-LQ (TSB), the preserved access
                # time and GM fetch latency are used instead: the access
                # cycle comes back from its low 16 bits, which holds while
                # the access is less than 2^16 cycles before commit.
                if use_xlq:
                    if xlq is None:
                        # Regular L1D hit: no training action (Section V-C).
                        event = None
                    else:
                        ts, latency, hitp = xlq
                        event = tuple_new(TrainingEvent, (
                            ip, block, hit_level == 0, t_ret,
                            t_ret - ((t_ret - ts) & TS_MASK),
                            latency, hit_level, hitp))
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
            if refetches:
                refetch_batch(refetches)
                refetches.clear()
        return drain

    def _make_issuer(self):
        """The prefetch issuer, ``issue(requests, time)``.

        It is the hierarchy's one issuer
        (:func:`~repro.sim.hierarchy.make_prefetch_issuer`).  With a miss
        classifier attached, every request's trigger is logged first,
        issued or not: the Fig. 6 commit-late definition asks when the
        prefetcher triggered the line, even if the request was redundant
        by then.  The log reads no hierarchy state, so logging a call's
        triggers before issuing any of them changes nothing.  The
        closure is stored on the system, so it must not capture the
        system itself (or any of its bound methods): that cycle would
        keep every finished system alive until the cyclic collector runs.
        """
        issue = self.hierarchy.issue_prefetches
        if self.classifier is None:
            return issue
        on_real = self.classifier.on_real_prefetch

        def logged_issue(requests, time):
            for block, _ in requests:
                on_real(block, time)
            issue(requests, time)
        return logged_issue

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
        if self.suf:
            extras["suf_storage_kb"] = HitLevelQueue(
                self.params.core.lq_entries,
                self.params.l1d.blocks).storage_bits() / 8 / 1024
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
