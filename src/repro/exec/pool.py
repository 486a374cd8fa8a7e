"""Process-pool job executor with crash isolation and a result store.

A job is one ``(Config, Trace, Scale, SystemParams)`` simulation.  The
executor fans jobs across worker processes and guarantees:

* **store integration** -- with a :class:`~repro.exec.store.ResultStore`,
  the parent answers stored jobs without simulating them and writes the
  batch's finished jobs when it returns or unwinds (Ctrl-C, or SIGTERM
  under the CLI), so a rerun resumes from them.  A parent killed outright
  (SIGKILL, the OOM killer) loses the batch it was running;
* **a failure reported once** -- a job that raises comes back failed
  with its error.  A job whose worker dies (segfault, ``os._exit``,
  OOM kill) comes back failed as ``worker died (exit code N)``; the
  worker is respawned and the rest of the batch continues.  Nothing is
  retried: a job is deterministic in its inputs, so a retry would fail
  the same way;
* **no orphans** -- a worker exits once its parent is gone, even after a
  SIGKILL.

With ``jobs=1`` everything runs serially in-process, through the same
store and failure paths minus the pool.  A job that never returns holds
its worker (or, serially, the process) until Ctrl-C or SIGTERM.

Workers recreate the ``System`` from the job's picklable description, so
results are bit-identical to the serial path: the simulator is
deterministic in ``(config, trace, scale, params)``.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import Pipe, Process, connection
from typing import Any, List, Optional

from .store import ResultStore


@dataclass(frozen=True)
class Job:
    """One simulation to run, picklable for worker dispatch.

    ``key`` is the stable content hash from :func:`repro.exec.store.
    job_key`; it identifies the job to the store.
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

    The executor treats it exactly like :class:`Job` (same store and
    crash isolation); only :func:`execute_job` dispatches on the type.
    ``key`` comes from :func:`repro.exec.store.mix_job_key`.
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
    """What happened to one job."""

    job: Job
    result: Any = None
    error: str = ""
    from_store: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class JobFailure:
    """A failed cell, reported by failure summaries."""

    config_label: str
    trace_name: str
    error: str


def execute_job(job):
    """Run one job's simulation (used by workers and the serial path).

    Build and simulation wall-clock times travel back in the result's
    ``extras`` (``wall_build_s`` / ``wall_simulate_s``), so the parent's
    profiler can account per-phase time even for pool workers.
    """
    from ..experiments.runner import ExperimentRunner
    from ..sim.system import collector_paused
    # Build and run allocate the bulk of a job's objects; a finished
    # system is freed by refcounting, so the collector has nothing to do.
    with collector_paused():
        t0 = time.perf_counter()
        runner = ExperimentRunner(scale=job.scale, params=job.params)
        if isinstance(job, MixJob):
            system = runner.build_multicore_system(job.config, job.cores)
            t1 = time.perf_counter()
            result = system.run(list(job.traces), warmup=job.scale.warmup)
        else:
            system = runner.build_system(job.config)
            t1 = time.perf_counter()
            result = system.run(job.trace, warmup=job.scale.warmup)
    result.extras["wall_build_s"] = t1 - t0
    result.extras["wall_simulate_s"] = time.perf_counter() - t1
    return result


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
    """Worker loop: receive a job, reply ``('ok'|'err', payload)``.

    ``parent_conn`` is the parent's end of this worker's pipe, which a
    forked child inherits.  Closing it first means ``conn.recv()`` sees
    EOF once the parent dies, even by SIGKILL, so the worker exits
    instead of sleeping forever.
    """
    parent_conn.close()
    while True:
        try:
            job = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover
            return
        if job is None:
            return
        try:
            conn.send(("ok", execute_job(job)))
        except KeyboardInterrupt:  # pragma: no cover - parent handles it
            return
        except BaseException:
            conn.send(("err", traceback.format_exc(limit=4)))


class WorkerHandle:
    """One worker process plus its pipe; ``index`` is the position in
    the batch of the job it is running, ``None`` while idle."""

    def __init__(self) -> None:
        self._start()

    def _start(self) -> None:
        self.conn, child = Pipe(duplex=True)
        self.process = Process(target=_worker_main,
                               args=(child, self.conn), daemon=True)
        self.process.start()
        child.close()
        self.index: Optional[int] = None

    def respawn(self) -> None:
        """Replace a dead worker's process and pipe in this handle."""
        self.conn.close()
        self._start()

    def dispatch(self, index: int, job) -> None:
        """Send ``job``, first respawning a worker that died idle."""
        try:
            self.conn.send(job)
        except OSError:
            self.respawn()
            self.conn.send(job)
        self.index = index

    def shutdown(self) -> None:
        """Stop the worker; one still running a job (the batch was
        interrupted) is killed at once."""
        if self.index is None:
            try:
                self.conn.send(None)
                self.process.join(timeout=2)
            except OSError:
                pass
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------

class JobExecutor:
    """Runs batches of jobs, serially or in a process pool, over an
    optional result store."""

    def __init__(self, jobs: int = 1, *,
                 store: Optional[ResultStore] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.store = store
        #: Simulations actually executed (excludes store hits).
        self.simulated = 0
        #: Jobs that failed: raised, or lost their worker.
        self.failed = 0

    def run_jobs(self, jobs: List[Job]) -> List[JobOutcome]:
        """Run all jobs; outcomes are returned in input order.

        Never raises for a job failure: a failed job comes back with
        ``ok=False`` and its error, so one bad cell cannot abort a sweep.
        An interrupt (Ctrl-C, or SIGTERM under the CLI) propagates, but
        only after every job finished so far is written to the store, so
        a rerun resumes from them.
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

    def _run_serial(self, jobs: List[Job], outcomes: List[JobOutcome],
                    todo: List[int]) -> None:
        for i in todo:
            try:
                result = execute_job(jobs[i])
            except Exception as exc:
                self._fail(outcomes[i], f"{type(exc).__name__}: {exc}")
            else:
                self._succeed(outcomes[i], result)

    def _run_parallel(self, jobs: List[Job], outcomes: List[JobOutcome],
                      todo: List[int]) -> None:
        pending = deque(todo)
        workers = [WorkerHandle() for _ in range(min(self.jobs, len(todo)))]
        try:
            while True:
                for worker in workers:
                    if worker.index is None and pending:
                        i = pending.popleft()
                        worker.dispatch(i, jobs[i])
                busy = [w for w in workers if w.index is not None]
                if not busy:
                    return
                for conn in connection.wait([w.conn for w in busy]):
                    worker = next(w for w in busy if w.conn is conn)
                    self._collect(worker, outcomes)
        finally:
            for worker in workers:
                worker.shutdown()

    def _collect(self, worker: WorkerHandle,
                 outcomes: List[JobOutcome]) -> None:
        """Take one readable worker's reply, or its death, for its job."""
        out = outcomes[worker.index]
        try:
            kind, payload = worker.conn.recv()
        except (EOFError, OSError):
            worker.process.join(timeout=5)
            error = f"worker died (exit code {worker.process.exitcode})"
            worker.respawn()
            self._fail(out, error)
            return
        worker.index = None
        if kind == "ok":
            self._succeed(out, payload)
        else:
            self._fail(out, payload.strip())

    def _succeed(self, out: JobOutcome, result: Any) -> None:
        out.result = result
        self.simulated += 1

    def _fail(self, out: JobOutcome, error: str) -> None:
        out.error = error
        self.failed += 1

    def stats(self) -> dict:
        merged = {"simulated": self.simulated, "failed": self.failed}
        if self.store is not None:
            merged.update(self.store.stats())
        return merged
