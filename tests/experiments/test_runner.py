"""Experiment runner: scales, configs, memoization, prefetcher specs."""

import math
import os

import pytest

from repro.core.timely import TimelyPrefetcher
from repro.core.tsb import TSBPrefetcher
from repro.experiments import (BASELINE, Config, ExperimentError,
                               ExperimentRunner, SCALES, Scale,
                               current_scale)
from repro.prefetchers import MODE_ON_ACCESS, MODE_ON_COMMIT
from repro.workloads.trace import Trace

#: Small enough that executor tests fork and simulate in milliseconds.
MICRO = Scale("micro", 300, 2, 1, 2)


def _boom(job):
    raise RuntimeError("boom")


class DyingTrace(Trace):
    """A trace whose columns kill the process reading them.  Simulate
    it only in a pool worker, never in the test process."""

    def columns(self):
        os._exit(17)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALES["tiny"])


class TestScales:
    def test_known_scales(self):
        assert {"tiny", "small", "medium", "large"} <= set(SCALES)

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert current_scale().name == "medium"

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            current_scale()

    def test_ts_intervals_scale(self):
        assert SCALES["large"].ts_interval_l1 >= \
            SCALES["tiny"].ts_interval_l1
        for scale in SCALES.values():
            assert scale.ts_interval_l2 == 4 * scale.ts_interval_l1

    @pytest.mark.parametrize("warmup", [1.0, 1.5, -0.1])
    def test_warmup_out_of_range_rejected(self, warmup):
        # warmup == 1.0 would leave zero measured instructions; fail at
        # the scale definition, not deep inside a sweep.
        with pytest.raises(ValueError, match="warmup"):
            Scale("bad", 300, 2, 1, 2, warmup=warmup)

    def test_warmup_boundaries_accepted(self):
        assert Scale("w0", 300, 2, 1, 2, warmup=0.0).warmup == 0.0
        assert Scale("w99", 300, 2, 1, 2, warmup=0.99).warmup == 0.99


class TestConfigs:
    def test_labels(self):
        assert BASELINE.label() == "none/OA/NS"
        assert Config.from_spec("on-commit-secure", "berti",
                                suf=True).label() == "berti/OC/S/SUF"

    def test_helpers(self):
        assert Config.from_spec("nonsecure", "ipcp").mode == MODE_ON_ACCESS
        assert Config.from_spec("on-access-secure", "ipcp").secure
        assert Config.from_spec("on-commit-secure", "ipcp").mode == \
            MODE_ON_COMMIT

    def test_timely_secure_names(self):
        def ts(prefetcher, **kwargs):
            return Config.from_spec("timely-secure", prefetcher, **kwargs)
        assert ts("ip-stride").prefetcher == "ts-ip-stride"
        assert ts("berti").prefetcher == "tsb"
        assert ts("berti", suf=True).suf


class TestConfigValidation:
    """Configs fail at construction, not deep inside a sweep."""

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            Config(prefetcher="warp-drive")

    def test_unknown_ts_inner_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            Config(prefetcher="ts-warp-drive")

    def test_valid_specs_accepted(self):
        for spec in ("none", "berti", "tsb", "ts-ip-stride", "spp+ppf"):
            assert Config(prefetcher=spec).prefetcher == spec

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown train mode"):
            Config(mode="sometimes")

    def test_suf_requires_secure(self):
        with pytest.raises(ValueError, match="SUF requires"):
            Config(suf=True)
        assert Config(secure=True, suf=True).suf

    def test_sample_interval_validated(self):
        with pytest.raises(ValueError, match="sample_interval"):
            Config(sample_interval=-1)
        with pytest.raises(ValueError, match="sample_interval"):
            Config(sample_interval=1.5)
        assert Config(sample_interval=500).sample_interval == 500

    def test_helpers_are_keyword_only(self):
        with pytest.raises(TypeError):
            Config.from_spec("on-commit-secure", "berti", True)
        with pytest.raises(TypeError):
            Config.from_spec("timely-secure", "berti", True)


class TestPrefetcherSpecs:
    def test_tsb(self, runner):
        assert isinstance(runner.build_prefetcher("tsb"), TSBPrefetcher)

    def test_ts_wrappers(self, runner):
        pf = runner.build_prefetcher("ts-ip-stride")
        assert isinstance(pf, TimelyPrefetcher)
        assert pf.name == "ts-ip-stride"
        assert pf.monitor.interval_misses == runner.scale.ts_interval_l1

    def test_ts_l2_interval(self, runner):
        pf = runner.build_prefetcher("ts-bingo")
        assert pf.monitor.interval_misses == runner.scale.ts_interval_l2

    def test_none(self, runner):
        assert runner.build_prefetcher("none") is None

    def test_unknown_name_rejected(self, runner):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            runner.build_prefetcher("warp-drive")

    def test_unknown_ts_inner_rejected(self, runner):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            runner.build_prefetcher("ts-warp-drive")


class TestPoolAndMemo:
    def test_pool_sized_by_scale(self, runner):
        pool = runner.pool()
        scale = runner.scale
        assert len(pool) == scale.spec_count + scale.gap_count
        assert runner.spec_pool() and runner.gap_pool()

    def test_trace_lookup(self, runner):
        name = runner.pool()[0].name
        assert runner.trace(name).name == name
        with pytest.raises(KeyError, match="not in the pool at scale"):
            runner.trace("definitely-not-a-trace")

    def test_memoization(self, runner):
        trace = runner.pool()[0]
        before = runner.cached_runs()
        r1 = runner.run(BASELINE, trace)
        mid = runner.cached_runs()
        r2 = runner.run(BASELINE, trace)
        assert r1 is r2
        assert mid == before + 1
        assert runner.cached_runs() == mid

    def test_classify_attaches_shadow(self, runner):
        config = Config(prefetcher="berti", secure=True,
                        mode=MODE_ON_COMMIT, classify=True)
        system = runner.build_system(config)
        assert system.classifier is not None
        assert system.classifier.shadow is not None
        assert system.classifier.shadow.name == "berti"

    def test_mixes(self, runner):
        mixes = runner.mixes()
        assert len(mixes) == runner.scale.mixes
        assert all(len(m) == 4 for m in mixes)


class TestExecutionLayer:
    """Parallel execution, the persistent store, and failsoft mode."""

    def test_parallel_matches_serial(self, tmp_path):
        serial = ExperimentRunner(scale=MICRO)
        parallel = ExperimentRunner(scale=MICRO, jobs=2,
                                    store=tmp_path / "store")
        s = serial.run_pool(BASELINE)
        p = parallel.run_pool(BASELINE)
        assert [r.ipc for r in s] == [r.ipc for r in p]

    def test_resume_hits_store_for_every_job(self, tmp_path):
        first = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        first.run_pool(BASELINE)
        n = len(first.pool())
        assert first.execution_stats()["writes"] == n

        # A fresh runner over the same store re-simulates nothing.
        resumed = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        results = resumed.run_pool(BASELINE)
        stats = resumed.execution_stats()
        assert stats["simulated"] == 0
        assert stats["hits"] == n and stats["misses"] == 0
        assert all(r.ipc > 0 for r in results)

    def test_interrupted_sweep_resumes_partially(self, tmp_path):
        first = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        pool = first.pool()
        first.run_pool(BASELINE, pool[:1])  # "interrupted" after 1 job

        resumed = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        resumed.run_pool(BASELINE, pool)
        stats = resumed.execution_stats()
        assert stats["hits"] == 1
        assert stats["simulated"] == len(pool) - 1

    def test_corrupt_record_quarantined_and_recomputed(self, tmp_path):
        first = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        trace = first.pool()[0]
        first.run(BASELINE, trace)
        (record,) = (tmp_path / "store" / "objects").glob("*/*.rec")
        blob = record.read_bytes()
        record.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))

        second = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        result = second.run(BASELINE, trace)
        stats = second.execution_stats()
        assert stats["quarantined"] == 1 and stats["simulated"] == 1
        assert result.ipc > 0

        third = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        third.run(BASELINE, trace)
        stats = third.execution_stats()
        assert stats["hits"] == 1 and stats["simulated"] == 0

    def test_worker_crash_recovery_under_parallel_sweep(self, tmp_path):
        # One job's worker dies: that cell alone fails, once, and the
        # sweep finishes on the respawned worker.
        runner = ExperimentRunner(scale=MICRO, jobs=2, failsoft=True,
                                  store=tmp_path / "store")
        traces = list(runner.pool())
        dying = traces[1]
        traces[1] = DyingTrace.from_columns(dying.name, *dying.columns(),
                                            suite=dying.suite)
        results = runner.run_pool(BASELINE, traces)
        assert math.isnan(results[1].ipc)
        assert all(r.ipc > 0 for i, r in enumerate(results) if i != 1)
        stats = runner.execution_stats()
        assert stats["failed"] == 1
        assert stats["simulated"] == stats["writes"] == len(traces) - 1
        assert [f.error for f in runner.failures] == \
            ["worker died (exit code 17)"]

    def test_max_retries_accepts_only_zero(self):
        ExperimentRunner(scale=MICRO, max_retries=0)
        with pytest.raises(ValueError, match="max_retries"):
            ExperimentRunner(scale=MICRO, max_retries=2)

    def test_permanent_failure_raises_by_default(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.execute_job", _boom)
        runner = ExperimentRunner(scale=MICRO)
        with pytest.raises(ExperimentError, match="RuntimeError: boom"):
            runner.run(BASELINE, runner.pool()[0])
        assert runner.execution_stats()["failed"] == 1

    def test_failsoft_renders_sentinel(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.execute_job", _boom)
        runner = ExperimentRunner(scale=MICRO, failsoft=True)
        result = runner.run(BASELINE, runner.pool()[0])
        assert math.isnan(result.ipc)
        assert result.extras["failed"] == 1.0
        assert len(runner.failures) == 1
        assert "RuntimeError: boom" in runner.failure_summary()

    def test_unwritable_store_degrades_gracefully(self, capsys):
        runner = ExperimentRunner(scale=MICRO,
                                  store="/dev/null/not-a-dir")
        assert runner.store is None
        assert "without a result store" in capsys.readouterr().err
        assert runner.run(BASELINE, runner.pool()[0]).ipc > 0


class TestObservabilityThroughRunner:
    """Time-series travel through the executor, pool, and store; the
    profiler accounts the sweep's wall-clock."""

    TS = Config(prefetcher="berti", secure=True, mode=MODE_ON_COMMIT,
                sample_interval=100)

    def test_sampled_config_produces_timeseries(self):
        runner = ExperimentRunner(scale=MICRO)
        result = runner.run(self.TS, runner.pool()[0])
        assert result.timeseries
        assert sum(r["instructions"] for r in result.timeseries) == \
            result.committed

    def test_unsampled_config_has_none(self):
        runner = ExperimentRunner(scale=MICRO)
        assert runner.run(BASELINE, runner.pool()[0]).timeseries is None

    def test_timeseries_byte_identical_across_jobs(self):
        """The acceptance bar: jobs=1 and jobs=4 JSONL exports match."""
        from repro.obs import timeseries_jsonl
        serial = ExperimentRunner(scale=MICRO)
        parallel = ExperimentRunner(scale=MICRO, jobs=4)
        s = serial.run_pool(self.TS)
        p = parallel.run_pool(self.TS)
        for rs, rp in zip(s, p):
            assert rs.timeseries
            assert timeseries_jsonl(rs.timeseries) == \
                timeseries_jsonl(rp.timeseries)

    def test_timeseries_survive_the_store(self, tmp_path):
        first = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        trace = first.pool()[0]
        fresh = first.run(self.TS, trace)

        resumed = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        recalled = resumed.run(self.TS, trace)
        assert resumed.execution_stats()["simulated"] == 0
        assert recalled.timeseries == fresh.timeseries

    def test_sampled_and_unsampled_use_distinct_store_keys(self, tmp_path):
        runner = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        trace = runner.pool()[0]
        runner.run(Config(prefetcher="berti"), trace)
        runner.run(Config(prefetcher="berti", sample_interval=100), trace)
        assert runner.execution_stats()["simulated"] == 2

    def test_profiler_accounts_phases(self):
        runner = ExperimentRunner(scale=MICRO)
        runner.run_pool(BASELINE)
        prof = runner.profiler
        n = len(runner.pool())
        assert prof.count("traces") == 1
        assert prof.count("execute") == 1
        assert prof.count("simulate") == n
        assert prof.count("build") == n
        assert prof.seconds("simulate") > 0
        assert "execute=" in runner.profile_summary()

    def test_store_hits_add_no_job_phases(self, tmp_path):
        first = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        first.run_pool(BASELINE)
        resumed = ExperimentRunner(scale=MICRO, store=tmp_path / "store")
        resumed.run_pool(BASELINE)
        assert resumed.profiler.count("simulate") == 0
        assert resumed.profiler.count("execute") == 1

    def test_job_extras_carry_wall_times(self):
        runner = ExperimentRunner(scale=MICRO)
        result = runner.run(BASELINE, runner.pool()[0])
        assert result.extras["wall_simulate_s"] > 0
        assert result.extras["wall_build_s"] >= 0
