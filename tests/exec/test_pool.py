"""Job executor: serial/parallel parity, failures, crash isolation.

Worker crash handling forks real processes, so these tests use a micro
scale (300 loads) to stay fast.  Jobs fail for real: their traces are
:class:`RaisingTrace` or :class:`DyingTrace` copies, whose columns the
simulation reads first thing (the store key reads the buffers
directly, so keying such a job in the parent is safe).
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.pool import (Job, JobExecutor, MixJob, WorkerHandle,
                             execute_job, failed_result)
from repro.exec.store import ResultStore, job_key, mix_job_key
from repro.experiments.runner import BASELINE, Config, Scale
from repro.sim.params import baseline
from repro.workloads.mixes import generate_mixes, workload_pool
from repro.workloads.trace import Trace

SCALE = Scale("micro", 300, 2, 1, 2)
SRC = Path(__file__).resolve().parents[2] / "src"


class RaisingTrace(Trace):
    """A trace whose columns cannot be read: simulating it raises."""

    def columns(self):
        raise RuntimeError("unreadable trace columns")


class DyingTrace(Trace):
    """A trace whose columns kill the process reading them.  Simulate
    it only in a pool worker, never in the test process."""

    def columns(self):
        os._exit(17)


def as_trace(trace, cls):
    """``trace``'s content as a ``cls``."""
    return cls.from_columns(trace.name, *trace.columns(), suite=trace.suite)


def with_trace(job, cls):
    """``job`` with its trace replaced by a ``cls`` copy."""
    return dataclasses.replace(job, trace=as_trace(job.trace, cls))


def count_respawns(monkeypatch):
    """A list that grows by one per worker respawn."""
    respawns = []
    respawn = WorkerHandle.respawn

    def counted(self):
        respawns.append(1)
        respawn(self)

    monkeypatch.setattr(WorkerHandle, "respawn", counted)
    return respawns


def make_jobs(config=BASELINE, n=3):
    params = baseline()
    traces = workload_pool(SCALE.n_loads, spec_count=SCALE.spec_count,
                           gap_count=SCALE.gap_count)[:n]
    return [Job(key=job_key(config, t, SCALE, params), config=config,
                trace=t, scale=SCALE, params=params) for t in traces]


def make_mix_jobs(config=BASELINE, n=2, cores=2):
    params = baseline()
    pool = workload_pool(SCALE.n_loads, spec_count=SCALE.spec_count,
                         gap_count=SCALE.gap_count)
    mixes = generate_mixes(pool, n_mixes=n, cores=cores, seed=7)
    return [MixJob(key=mix_job_key(config, tuple(mix), cores, SCALE,
                                   params),
                   config=config, traces=tuple(mix), cores=cores,
                   scale=SCALE, params=params) for mix in mixes]


@pytest.fixture(scope="module")
def reference():
    """Direct in-process results for the standard job batch."""
    return [execute_job(job) for job in make_jobs()]


def assert_one_failure(ex, outcomes, reference):
    """Job 1 failed, once; jobs 0 and 2 match ``reference``."""
    assert [o.ok for o in outcomes] == [True, False, True]
    assert ex.failed == 1 and ex.simulated == 2
    assert [outcomes[i].result.ipc for i in (0, 2)] == \
        [reference[i].ipc for i in (0, 2)]


class TestSerial:
    def test_basic_batch(self, reference):
        outcomes = JobExecutor(jobs=1).run_jobs(make_jobs())
        assert all(o.ok for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_permanent_failure_isolated(self, reference):
        jobs = make_jobs()
        jobs[1] = with_trace(jobs[1], RaisingTrace)
        ex = JobExecutor(jobs=1)
        outcomes = ex.run_jobs(jobs)
        assert_one_failure(ex, outcomes, reference)
        assert outcomes[1].error == \
            "RuntimeError: unreadable trace columns"


class TestParallel:
    def test_matches_serial(self, reference):
        outcomes = JobExecutor(jobs=2).run_jobs(make_jobs())
        assert all(o.ok for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_worker_exception_fails_once(self, reference, monkeypatch):
        respawns = count_respawns(monkeypatch)
        jobs = make_jobs()
        jobs[1] = with_trace(jobs[1], RaisingTrace)
        ex = JobExecutor(jobs=2)
        outcomes = ex.run_jobs(jobs)
        assert_one_failure(ex, outcomes, reference)
        assert outcomes[1].error.endswith(
            "RuntimeError: unreadable trace columns")
        assert not respawns  # the worker survives a raising job

    def test_dead_worker_respawned(self, tmp_path, monkeypatch):
        # Job 1's worker dies; the job fails once, the worker is
        # respawned, and the other three jobs run and are stored.
        respawns = count_respawns(monkeypatch)
        jobs = make_jobs(n=2) + make_jobs(Config(prefetcher="berti"), n=2)
        jobs[1] = with_trace(jobs[1], DyingTrace)
        store = ResultStore(tmp_path / "store")
        ex = JobExecutor(jobs=2, store=store)
        outcomes = ex.run_jobs(jobs)
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert outcomes[1].error == "worker died (exit code 17)"
        assert ex.failed == 1 and ex.simulated == 3
        assert store.writes == 3
        assert respawns == [1]


    def test_worker_dead_while_idle_is_respawned_on_dispatch(self):
        job = make_jobs(n=1)[0]
        worker = WorkerHandle()
        try:
            dead = worker.process
            dead.kill()
            dead.join(timeout=5)
            worker.dispatch(0, job)
            assert worker.process is not dead
            kind, result = worker.conn.recv()
            assert kind == "ok" and result.ipc == execute_job(job).ipc
            worker.index = None
        finally:
            worker.shutdown()
        assert not worker.process.is_alive()


# Holds two workers, reports their pids, then blocks until killed.
_PARENT_SCRIPT = """
import sys
from repro.exec.pool import WorkerHandle
workers = [WorkerHandle() for _ in range(2)]
print(*(worker.process.pid for worker in workers), flush=True)
sys.stdin.read()
"""


def _running(pid):
    """True while ``pid`` runs; an unreaped zombie has exited."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:  # no procfs: the signal probe is all there is
        return True


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
class TestParentDeath:
    def test_workers_exit_when_parent_is_sigkilled(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH",
                                                            "")
        parent = subprocess.Popen(
            [sys.executable, "-c", _PARENT_SCRIPT], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            parent.kill()  # SIGKILL: no cleanup code runs in the parent
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
            assert not survivors, \
                f"workers {survivors} outlived their SIGKILLed parent"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=10)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            parent.stdin.close()
            parent.stdout.close()


class TestPerfExtras:
    """The per-job wall times are attached by the executing process, so
    a result delivered by a respawned worker carries them too."""

    def assert_perf_extras(self, outcomes):
        for outcome in outcomes:
            assert outcome.ok
            extras = outcome.result.extras
            assert extras["wall_build_s"] >= 0.0
            assert extras["wall_simulate_s"] > 0.0

    def test_extras_present_without_faults(self):
        self.assert_perf_extras(JobExecutor(jobs=1).run_jobs(make_jobs()))

    def test_extras_survive_worker_respawn(self, monkeypatch):
        respawns = count_respawns(monkeypatch)
        jobs = make_jobs()
        jobs[0] = with_trace(jobs[0], DyingTrace)
        outcomes = JobExecutor(jobs=2).run_jobs(jobs)
        assert respawns == [1]
        assert not outcomes[0].ok
        self.assert_perf_extras(outcomes[1:])

    def test_mix_job_extras_survive_worker_respawn(self, monkeypatch):
        respawns = count_respawns(monkeypatch)
        jobs = make_mix_jobs(n=3)
        dying = (as_trace(jobs[0].traces[0], DyingTrace),) \
            + jobs[0].traces[1:]
        jobs[0] = dataclasses.replace(jobs[0], traces=dying)
        outcomes = JobExecutor(jobs=2).run_jobs(jobs)
        assert respawns == [1]
        assert outcomes[0].error == "worker died (exit code 17)"
        self.assert_perf_extras(outcomes[1:])
        for outcome in outcomes[1:]:
            assert len(outcome.result.per_core) == 2


class TestStoreIntegration:
    def test_results_persisted_and_resumed(self, tmp_path, reference):
        store = ResultStore(tmp_path / "store")
        first = JobExecutor(jobs=1, store=store).run_jobs(make_jobs())
        assert all(o.ok and not o.from_store for o in first)
        assert store.writes == len(first)

        fresh = ResultStore(tmp_path / "store")
        ex = JobExecutor(jobs=1, store=fresh)
        second = ex.run_jobs(make_jobs())
        assert all(o.ok and o.from_store for o in second)
        assert ex.simulated == 0 and fresh.hits == len(second)
        assert [o.result.ipc for o in second] == \
            [r.ipc for r in reference]

    def test_failed_jobs_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ex = JobExecutor(jobs=1, store=store)
        outcomes = ex.run_jobs([with_trace(make_jobs(n=1)[0],
                                           RaisingTrace)])
        assert not outcomes[0].ok
        assert store.writes == 0


def _stored(root, jobs):
    """Which jobs a fresh store over ``root`` answers."""
    fresh = ResultStore(root)
    return [fresh.get(job.key) is not None for job in jobs]


class TestInterruptedBatch:
    """A batch cut short by Ctrl-C or SIGTERM still writes the jobs it
    finished, so a rerun over the same store resumes from them."""

    def test_serial_interrupt_keeps_finished_jobs(self, tmp_path,
                                                  monkeypatch):
        calls = []

        def interrupt_third(job):
            calls.append(job.key)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute_job(job)

        monkeypatch.setattr("repro.exec.pool.execute_job", interrupt_third)
        jobs = make_jobs()
        ex = JobExecutor(jobs=1, store=ResultStore(tmp_path / "store"))
        with pytest.raises(KeyboardInterrupt):
            ex.run_jobs(jobs)
        assert _stored(tmp_path / "store", jobs) == [True, True, False]

    def test_parallel_interrupt_keeps_finished_jobs(self, tmp_path,
                                                    monkeypatch):
        collect = JobExecutor._collect

        def interrupt_after_two(self, *args):
            finished = collect(self, *args)
            if self.simulated >= 2:
                raise KeyboardInterrupt
            return finished

        monkeypatch.setattr(JobExecutor, "_collect", interrupt_after_two)
        jobs = make_jobs()
        ex = JobExecutor(jobs=2, store=ResultStore(tmp_path / "store"))
        with pytest.raises(KeyboardInterrupt):
            ex.run_jobs(jobs)
        assert sum(_stored(tmp_path / "store", jobs)) == 2


class TestFailedResult:
    def test_sentinel_is_nan_and_marked(self):
        sentinel = failed_result(Config(prefetcher="berti"), "t", "boom")
        assert sentinel.ipc != sentinel.ipc  # NaN
        assert sentinel.extras["failed"] == 1.0
        assert sentinel.trace_name == "t"

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            JobExecutor(jobs=0)
