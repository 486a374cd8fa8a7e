"""Process-pool job executor with timeouts, retries, and crash isolation.

A job is one ``(Config, Trace, Scale, SystemParams)`` simulation.  The
executor fans jobs across worker processes and guarantees:

* **per-job wall-clock timeouts** -- a job that exceeds ``timeout_s`` has
  its worker killed and is retried; the sweep keeps moving;
* **bounded retry with exponential backoff** -- a failed attempt (raised
  exception, killed worker, timeout) is retried up to ``max_retries``
  times, waiting ``backoff_s * 2**(attempt-1)`` between attempts;
* **worker-crash isolation** -- a worker that dies (segfault, ``os._exit``,
  OOM-kill) is detected by its broken pipe, respawned, and only the job it
  was running is retried -- never the rest of the sweep;
* **store integration** -- with a :class:`~repro.exec.store.ResultStore`,
  the parent answers stored jobs without simulating them and writes the
  batch's finished jobs when it returns or unwinds (Ctrl-C, or SIGTERM
  under the CLI), so a rerun resumes from them.  A parent killed outright
  (SIGKILL, the OOM killer) loses the batch it was running;
* **no orphans** -- a worker exits once its parent is gone, even after a
  SIGKILL.

With ``jobs=1`` everything runs serially in-process (no worker processes,
no timeouts) but the retry, fault-injection, and store paths behave
identically -- the degraded mode is the same code path minus the pool.

Workers recreate the ``System`` from the job's picklable description, so
results are bit-identical to the serial path: the simulator is
deterministic in ``(config, trace, scale, params)``.
"""

from __future__ import annotations

import time
import traceback

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None
from collections import deque
from dataclasses import dataclass
from multiprocessing import Pipe, Process, connection
from typing import Any, Dict, List, Optional

from .faults import FaultPlan
from .store import ResultStore


@dataclass(frozen=True)
class Job:
    """One simulation to run, picklable for worker dispatch.

    ``key`` is the stable content hash from :func:`repro.exec.store.
    job_key`; it identifies the job to the store and the fault plan.
    """

    key: str
    config: Any   # repro.experiments.runner.Config
    trace: Any    # repro.workloads.trace.Trace
    scale: Any    # repro.experiments.runner.Scale
    params: Any   # repro.sim.params.SystemParams

    @property
    def label(self) -> str:
        return f"{self.config.label()} @ {self.trace.name}"


@dataclass(frozen=True)
class MixJob:
    """One multicore mix simulation, picklable for worker dispatch.

    The executor treats it exactly like :class:`Job` (same store, retry,
    timeout, and crash-isolation machinery); only :func:`execute_job`
    dispatches on the type.  ``key`` comes from
    :func:`repro.exec.store.mix_job_key`.
    """

    key: str
    config: Any     # repro.experiments.runner.Config
    traces: Any     # tuple of repro.workloads.trace.Trace, one per core
    cores: int
    scale: Any      # repro.experiments.runner.Scale
    params: Any     # repro.sim.params.SystemParams

    @property
    def label(self) -> str:
        mix = "+".join(trace.name for trace in self.traces)
        return f"{self.config.label()} @ {mix}"


@dataclass
class JobOutcome:
    """What happened to one job across all its attempts."""

    job: Job
    result: Any = None
    error: str = ""
    attempts: int = 0
    from_store: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class JobFailure:
    """A permanently failed cell, reported by failure summaries."""

    config_label: str
    trace_name: str
    error: str


def execute_job(job):
    """Run one job's simulation (used by workers and the serial path).

    Build and simulation wall-clock times travel back in the result's
    ``extras`` (``wall_build_s`` / ``wall_simulate_s``), so the parent's
    profiler can account per-phase time even for pool workers.  Two perf
    extras ride along for throughput tracking (docs/PERFORMANCE.md):
    ``instr_per_s`` (committed instructions over simulate wall time) and
    ``max_rss_kb`` (the executing process's peak RSS so far -- in a pool,
    the *worker's* footprint, which is the one that matters for sizing
    ``--jobs``).
    """
    if isinstance(job, MixJob):
        return _execute_mix_job(job)
    from ..experiments.runner import ExperimentRunner
    from ..sim.system import collector_paused
    # Build and run allocate the bulk of a job's objects; a finished
    # system is freed by refcounting, so the collector has nothing to do.
    with collector_paused():
        t0 = time.perf_counter()
        runner = ExperimentRunner(scale=job.scale, params=job.params)
        system = runner.build_system(job.config)
        t1 = time.perf_counter()
        result = system.run(job.trace, warmup=job.scale.warmup)
    _attach_perf_extras(result.extras, t0, t1, result.committed)
    return result


def _execute_mix_job(job: MixJob):
    """Run one multicore mix (see :func:`execute_job` for the extras)."""
    from ..experiments.runner import ExperimentRunner
    from ..sim.system import collector_paused
    with collector_paused():
        t0 = time.perf_counter()
        runner = ExperimentRunner(scale=job.scale, params=job.params)
        mc = runner.build_multicore_system(job.config, job.cores)
        t1 = time.perf_counter()
        result = mc.run(list(job.traces), warmup=job.scale.warmup)
    _attach_perf_extras(result.extras, t0, t1, result.committed)
    return result


def _attach_perf_extras(extras: Dict[str, float], t0: float, t1: float,
                        committed: int) -> None:
    wall_simulate = time.perf_counter() - t1
    extras["wall_build_s"] = t1 - t0
    extras["wall_simulate_s"] = wall_simulate
    if wall_simulate > 0.0:
        extras["instr_per_s"] = committed / wall_simulate
    if resource is not None:
        extras["max_rss_kb"] = float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def failed_result(config, trace_name: str, error: str):
    """A NaN-valued :class:`SimResult` sentinel for a failed cell.

    Aggregates over it go NaN (rendered ``n/a`` by the report layer) and
    ``extras["failed"]`` marks it for failure summaries.
    """
    from ..sim.stats import (CacheStats, CoreStats, DRAMStats)
    from ..sim.system import SimResult
    return SimResult(
        label=config.label(), trace_name=trace_name, committed=0,
        cycles=0, ipc=float("nan"), core=CoreStats(), l1d=CacheStats(),
        l2=CacheStats(), llc=CacheStats(), gm=None, dram=DRAMStats(),
        tlb=None, classification=None, prefetcher_name=config.prefetcher,
        train_level=0, train_mode=config.mode, secure=config.secure,
        suf=config.suf, extras={"failed": 1.0, "error": error})


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_main(conn, parent_conn) -> None:
    """Worker loop: receive (job, attempt, plan), reply ('ok'|'err', ...).

    ``parent_conn`` is the parent's end of this worker's pipe, which a
    forked child inherits.  Closing it first means ``conn.recv()`` sees
    EOF once the parent dies, even by SIGKILL, so the worker exits
    instead of sleeping forever.
    """
    parent_conn.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover
            return
        if message is None:
            return
        job, attempt, plan = message
        try:
            if plan is not None:
                plan.inject(job.key, attempt, in_worker=True)
            result = execute_job(job)
            conn.send(("ok", result))
        except KeyboardInterrupt:  # pragma: no cover - parent handles it
            return
        except BaseException:
            conn.send(("err", traceback.format_exc(limit=4)))


class WorkerHandle:
    """One worker process plus its pipe and in-flight bookkeeping.

    The executor sends ``(job, attempt, plan)`` down the pipe to
    :func:`_worker_main`; ``index`` is the in-flight job's position in
    the batch.
    """

    def __init__(self) -> None:
        self.conn, child = Pipe(duplex=True)
        self.process = Process(target=_worker_main,
                               args=(child, self.conn), daemon=True)
        self.process.start()
        child.close()
        self.index: Optional[int] = None   # in-flight job index
        self.attempt = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(self, index: int, job: Job, attempt: int,
                 plan: Optional[FaultPlan],
                 timeout_s: Optional[float]) -> None:
        self.conn.send((job, attempt, plan))
        self.index = index
        self.attempt = attempt
        self.deadline = (time.monotonic() + timeout_s) \
            if timeout_s else None

    def idle(self) -> None:
        self.index = None
        self.attempt = 0
        self.deadline = None

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
            self.process.join(timeout=2)
        except (BrokenPipeError, OSError):
            pass
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------

class JobExecutor:
    """Runs batches of jobs with retries, timeouts, and a result store."""

    def __init__(self, jobs: int = 1, *,
                 timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_s: float = 0.5,
                 store: Optional[ResultStore] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.store = store
        self.fault_plan = fault_plan if fault_plan is not None \
            else FaultPlan.from_env()
        #: Simulations actually executed (excludes store hits).
        self.simulated = 0
        #: Attempts that failed and were retried or gave up.
        self.failed_attempts = 0

    # -- public entry ---------------------------------------------------

    def run_jobs(self, jobs: List[Job]) -> List[JobOutcome]:
        """Run all jobs; outcomes are returned in input order.

        Never raises for a job failure: a permanently failed job comes
        back with ``ok=False`` and its last error, so one bad cell cannot
        abort a sweep.  An interrupt (Ctrl-C, or SIGTERM under the CLI)
        propagates, but only after every job finished so far is written
        to the store, so a rerun resumes from them.
        """
        outcomes = [JobOutcome(job) for job in jobs]
        todo: List[int] = []
        for i, job in enumerate(jobs):
            cached = self.store.get(job.key) if self.store is not None \
                else None
            if cached is not None:
                outcomes[i].result = cached
                outcomes[i].from_store = True
            else:
                todo.append(i)
        if not todo:
            return outcomes
        try:
            if self.jobs == 1:
                self._run_serial(jobs, outcomes, todo)
            else:
                self._run_parallel(jobs, outcomes, todo)
        finally:
            for i in todo:
                out = outcomes[i]
                if out.ok and self.store is not None:
                    self.store.put(jobs[i].key, out.result)
        return outcomes

    # -- serial path ----------------------------------------------------

    def _run_serial(self, jobs: List[Job], outcomes: List[JobOutcome],
                    todo: List[int]) -> None:
        plan = self.fault_plan if self.fault_plan.active else None
        for i in todo:
            out = outcomes[i]
            for attempt in range(1, self.max_retries + 2):
                out.attempts = attempt
                try:
                    if plan is not None:
                        plan.inject(jobs[i].key, attempt, in_worker=False)
                    out.result = execute_job(jobs[i])
                    self.simulated += 1
                    out.error = ""
                    break
                except Exception as exc:
                    self.failed_attempts += 1
                    out.error = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.max_retries and self.backoff_s:
                        time.sleep(self.backoff_s * 2 ** (attempt - 1))

    # -- parallel path --------------------------------------------------

    def _run_parallel(self, jobs: List[Job], outcomes: List[JobOutcome],
                      todo: List[int]) -> None:
        plan = self.fault_plan if self.fault_plan.active else None
        pending: deque = deque((i, 1) for i in todo)
        ready_at: Dict[int, float] = {}
        remaining = len(todo)
        workers = [WorkerHandle() for _ in range(min(self.jobs, remaining))]
        try:
            while remaining:
                now = time.monotonic()
                self._dispatch_ready(workers, jobs, pending, ready_at,
                                     plan, now)
                busy = [w for w in workers if w.busy]
                if not busy:
                    # Everything left is backing off: sleep to the first.
                    if pending:
                        wake = min(ready_at.get(i, 0.0)
                                   for i, _ in pending)
                        time.sleep(max(0.0, wake - now))
                        continue
                    break  # pragma: no cover - remaining out of sync
                wait_s = self._wait_budget(busy, pending, ready_at, now)
                ready = connection.wait([w.conn for w in busy],
                                        timeout=wait_s)
                for conn in ready:
                    worker = next(w for w in busy if w.conn is conn)
                    remaining -= self._collect(worker, jobs, outcomes,
                                               pending, ready_at)
                remaining -= self._reap_timeouts(workers, jobs, outcomes,
                                                 pending, ready_at)
        finally:
            for worker in workers:
                worker.shutdown()

    def _dispatch_ready(self, workers: List[WorkerHandle], jobs: List[Job],
                        pending: deque, ready_at: Dict[int, float],
                        plan: Optional[FaultPlan], now: float) -> None:
        for worker in workers:
            if worker.busy or not pending:
                continue
            # First pending entry whose backoff has elapsed.
            for _ in range(len(pending)):
                i, attempt = pending.popleft()
                if ready_at.get(i, 0.0) <= now:
                    outcomes_attempt = (i, attempt)
                    break
                pending.append((i, attempt))
            else:
                return  # all pending jobs are still backing off
            i, attempt = outcomes_attempt
            try:
                worker.dispatch(i, jobs[i], attempt, plan, self.timeout_s)
            except (BrokenPipeError, OSError):
                # The idle worker died between jobs: respawn and requeue.
                self._respawn_in_place(worker, kill=False)
                pending.appendleft((i, attempt))

    def _wait_budget(self, busy: List[WorkerHandle], pending: deque,
                     ready_at: Dict[int, float], now: float
                     ) -> Optional[float]:
        """How long to block for worker messages: until the next job
        deadline or backoff expiry, or indefinitely if neither exists."""
        events = [w.deadline for w in busy if w.deadline is not None]
        events += [ready_at[i] for i, _ in pending if i in ready_at]
        if not events:
            return None
        return max(0.0, min(events) - now)

    def _collect(self, worker: WorkerHandle, jobs: List[Job],
                 outcomes: List[JobOutcome], pending: deque,
                 ready_at: Dict[int, float]) -> int:
        """Handle one readable worker; return 1 if its job finished."""
        i, attempt = worker.index, worker.attempt
        try:
            kind, payload = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died mid-job: isolate the crash, respawn in place,
            # and retry only this job.
            worker.process.join(timeout=5)
            exitcode = worker.process.exitcode
            self._respawn_in_place(worker, kill=False)
            return self._record_failure(
                jobs, outcomes, pending, ready_at, i, attempt,
                f"worker died (exit code {exitcode})")
        worker.idle()
        if kind == "ok":
            outcomes[i].result = payload
            outcomes[i].attempts = attempt
            outcomes[i].error = ""
            self.simulated += 1
            return 1
        return self._record_failure(jobs, outcomes, pending, ready_at,
                                    i, attempt, payload.strip())

    def _respawn_in_place(self, worker: WorkerHandle, *, kill: bool) -> None:
        """Replace a dead/hung worker's process and pipe in its handle, so
        the executor's workers list keeps referring to a live process."""
        if kill:
            worker.process.kill()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        fresh = WorkerHandle()
        worker.conn = fresh.conn
        worker.process = fresh.process
        worker.idle()

    def _reap_timeouts(self, workers: List[WorkerHandle], jobs: List[Job],
                       outcomes: List[JobOutcome], pending: deque,
                       ready_at: Dict[int, float]) -> int:
        finished = 0
        now = time.monotonic()
        for worker in workers:
            if not worker.busy or worker.deadline is None \
                    or now < worker.deadline:
                continue
            i, attempt = worker.index, worker.attempt
            self._respawn_in_place(worker, kill=True)
            finished += self._record_failure(
                jobs, outcomes, pending, ready_at, i, attempt,
                f"timed out after {self.timeout_s:.1f}s (worker killed)")
        return finished

    def _record_failure(self, jobs: List[Job],
                        outcomes: List[JobOutcome], pending: deque,
                        ready_at: Dict[int, float], i: int, attempt: int,
                        error: str) -> int:
        """Schedule a retry or finalize the failure; return 1 if final."""
        self.failed_attempts += 1
        outcomes[i].attempts = attempt
        outcomes[i].error = error
        if attempt <= self.max_retries:
            ready_at[i] = time.monotonic() \
                + self.backoff_s * 2 ** (attempt - 1)
            pending.append((i, attempt + 1))
            return 0
        return 1

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        merged = {"simulated": self.simulated,
                  "failed_attempts": self.failed_attempts}
        if self.store is not None:
            merged.update(self.store.stats())
        return merged
