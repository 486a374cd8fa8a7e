"""Job executor: serial/parallel parity, retries, timeouts, isolation.

Worker crash/hang handling forks real processes, so these tests use a
micro scale (300 loads) to stay fast.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.faults import ENV_VAR, FaultPlan
from repro.exec.pool import (Job, JobExecutor, MixJob, execute_job,
                             failed_result, resource)
from repro.exec.store import ResultStore, job_key, mix_job_key
from repro.experiments.runner import BASELINE, Config, Scale
from repro.sim.params import baseline
from repro.workloads.mixes import generate_mixes, workload_pool

SCALE = Scale("micro", 300, 2, 1, 2)
SRC = Path(__file__).resolve().parents[2] / "src"


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


class TestSerial:
    def test_basic_batch(self, reference):
        outcomes = JobExecutor(jobs=1).run_jobs(make_jobs())
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_crash_retried(self):
        plan = FaultPlan(crash_every=1, attempts=1)
        ex = JobExecutor(jobs=1, backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs())
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert ex.failed_attempts == len(outcomes)

    def test_permanent_failure_isolated(self):
        plan = FaultPlan(crash_every=1, attempts=99)
        ex = JobExecutor(jobs=1, max_retries=1, backoff_s=0,
                         fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs())
        assert all(not o.ok for o in outcomes)
        assert all("injected crash" in o.error for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)  # 1 + 1 retry


class TestParallel:
    def test_matches_serial(self, reference):
        outcomes = JobExecutor(jobs=2).run_jobs(make_jobs())
        assert all(o.ok for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_worker_exception_retried(self, reference):
        plan = FaultPlan(crash_every=1, attempts=1)
        ex = JobExecutor(jobs=2, backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs())
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_dead_worker_respawned(self, reference):
        plan = FaultPlan(die_every=1, attempts=1)
        ex = JobExecutor(jobs=2, backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs())
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference]

    def test_hung_worker_timed_out_and_retried(self, reference):
        plan = FaultPlan(hang_every=1, attempts=1, hang_s=60)
        ex = JobExecutor(jobs=2, timeout_s=1.0, backoff_s=0,
                         fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs(n=2))
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert ex.failed_attempts == 2
        assert [o.result.ipc for o in outcomes] == \
            [r.ipc for r in reference[:2]]

    def test_permanent_timeout_reported(self):
        plan = FaultPlan(hang_every=1, attempts=99, hang_s=60)
        ex = JobExecutor(jobs=2, timeout_s=0.5, max_retries=0,
                         backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs(n=1))
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error


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
    """The per-job perf extras must survive every recovery path: they are
    attached by the (re)executing process, so a result delivered by a
    respawned worker carries fresh measurements, not none at all."""

    def assert_perf_extras(self, outcomes):
        for outcome in outcomes:
            assert outcome.ok
            extras = outcome.result.extras
            assert extras["wall_build_s"] >= 0.0
            assert extras["wall_simulate_s"] > 0.0
            assert extras["instr_per_s"] > 0.0
            if resource is not None:
                assert extras["max_rss_kb"] > 0.0

    def test_extras_present_without_faults(self):
        self.assert_perf_extras(JobExecutor(jobs=1).run_jobs(make_jobs()))

    def test_extras_survive_worker_respawn(self):
        plan = FaultPlan(die_every=1, attempts=1)
        ex = JobExecutor(jobs=2, backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs())
        assert all(o.attempts == 2 for o in outcomes)
        self.assert_perf_extras(outcomes)

    def test_mix_job_extras_survive_worker_respawn(self):
        plan = FaultPlan(die_every=1, attempts=1)
        ex = JobExecutor(jobs=2, backoff_s=0, fault_plan=plan)
        outcomes = ex.run_jobs(make_mix_jobs())
        assert all(o.attempts == 2 for o in outcomes)
        self.assert_perf_extras(outcomes)
        for outcome in outcomes:
            assert len(outcome.result.per_core) == 2

    def test_extras_survive_env_injected_faults(self, monkeypatch):
        # The REPRO_FAULTS path CI uses: plan parsed from the
        # environment, not passed explicitly.
        monkeypatch.setenv(ENV_VAR, "die:1")
        ex = JobExecutor(jobs=2, backoff_s=0)
        outcomes = ex.run_jobs(make_jobs(n=2))
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        self.assert_perf_extras(outcomes)


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
        plan = FaultPlan(crash_every=1, attempts=99)
        store = ResultStore(tmp_path / "store", fault_plan=plan)
        ex = JobExecutor(jobs=1, max_retries=0, backoff_s=0,
                         store=store, fault_plan=plan)
        outcomes = ex.run_jobs(make_jobs(n=1))
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
        with pytest.raises(ValueError):
            JobExecutor(max_retries=-1)
