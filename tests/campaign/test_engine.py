"""Campaign engine: resume from the store, fail-soft cells."""

import math
from pathlib import Path

import pytest

from repro.campaign import compile_plan, load_spec, run_campaign
from repro.exec.pool import execute_job
from repro.experiments.runner import (SCALES, ExperimentError,
                                      ExperimentRunner)

CAMPAIGNS = Path(__file__).resolve().parents[2] / "campaigns"


def spec(name):
    return load_spec(CAMPAIGNS / f"{name}.json")


class TestResume(object):
    def test_rerun_recomputes_zero_cells(self, tmp_path):
        store = str(tmp_path / "store")
        first = ExperimentRunner(scale=SCALES["tiny"], store=store)
        run_campaign(spec("fig12"), first)
        assert first.execution_stats()["simulated"] > 0

        again = ExperimentRunner(scale=SCALES["tiny"], store=store)
        result = run_campaign(spec("fig12"), again)
        stats = again.execution_stats()
        assert stats["simulated"] == 0
        assert stats["hits"] == compile_plan(spec("fig12"),
                                             SCALES["tiny"]).total_jobs
        assert result.text

    def test_interrupted_campaign_resumes_from_the_store(self,
                                                         tmp_path,
                                                         monkeypatch):
        store = str(tmp_path / "store")
        # Every third job raises and the runner is not failsoft, so the
        # campaign dies after its batch, but the store keeps every job
        # that finished.
        calls = []

        def every_third_raises(job):
            calls.append(job.key)
            if len(calls) % 3 == 0:
                raise RuntimeError("boom")
            return execute_job(job)

        monkeypatch.setattr("repro.exec.pool.execute_job",
                            every_third_raises)
        broken = ExperimentRunner(scale=SCALES["tiny"], store=store,
                                  failsoft=False)
        with pytest.raises(ExperimentError, match="boom"):
            run_campaign(spec("fig12"), broken)
        monkeypatch.undo()
        survived = broken.execution_stats().get("writes", 0)
        assert survived < compile_plan(spec("fig12"),
                                       SCALES["tiny"]).total_jobs

        resumed = ExperimentRunner(scale=SCALES["tiny"], store=store)
        result = run_campaign(spec("fig12"), resumed)
        stats = resumed.execution_stats()
        # Only the cells lost to the interrupt are recomputed.
        assert stats["simulated"] + survived == \
            compile_plan(spec("fig12"), SCALES["tiny"]).total_jobs
        assert stats["hits"] == survived
        assert "n/a" not in result.text

    def test_partial_warm_store_only_runs_the_delta(self, tmp_path):
        store = str(tmp_path / "store")
        subset = {
            "campaign": {"name": "fig12-subset", "description": ""},
            "axes": {},
            "outputs": [{
                "kind": "series",
                "title": "warm",
                "series": [
                    {"label": "on-commit-berti",
                     "metric": "per_trace_speedup",
                     "config": {"mode": "on-commit-secure",
                                "prefetcher": "berti"}},
                ],
            }],
        }
        from repro.campaign import parse_spec
        warm = ExperimentRunner(scale=SCALES["tiny"], store=store)
        run_campaign(parse_spec(subset), warm)
        warmed = warm.execution_stats()["simulated"]
        assert warmed == 12            # baseline + one config x 6

        rest = ExperimentRunner(scale=SCALES["tiny"], store=store)
        run_campaign(spec("fig12"), rest)
        stats = rest.execution_stats()
        assert stats["hits"] == warmed
        assert stats["simulated"] == 12  # the two remaining configs


class TestFailsoft(object):
    def test_failed_cells_render_na(self, tmp_path, monkeypatch):
        # Every job fails: the campaign still renders, with each metric
        # cell as n/a instead of aborting.
        def boom(job):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.exec.pool.execute_job", boom)
        runner = ExperimentRunner(scale=SCALES["tiny"], store=None,
                                  failsoft=True)
        result = run_campaign(spec("fig12"), runner)
        assert "n/a" in result.text
        assert runner.failures
        for values in result.rows.values():
            assert all(math.isnan(v) for v in values)
