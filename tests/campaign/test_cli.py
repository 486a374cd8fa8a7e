"""The ``repro campaign`` subcommand and shared exec-option plumbing."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.exec.options import ExecOptions, exec_arguments

CAMPAIGNS = Path(__file__).resolve().parents[2] / "campaigns"


@pytest.fixture(autouse=True)
def _campaigns_env(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGNS", str(CAMPAIGNS))


class TestDryRun(object):
    def test_prints_plan_without_simulating(self, capsys, tmp_path,
                                            monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(store))
        code = main(["campaign", "fig1", "--dry-run", "--scale",
                     "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'fig1' @ scale tiny" in out
        assert "metric cells: 16" in out
        assert "simulation job(s)" in out
        assert not store.exists()     # no store, no simulation

    def test_spec_path_works_too(self, capsys):
        code = main(["campaign", str(CAMPAIGNS / "fig5.json"),
                     "--dry-run", "--scale", "tiny"])
        assert code == 0
        assert "fig5" in capsys.readouterr().out


def _figure_and_stats(out):
    """A campaign's figure text and its ``[campaign ...]`` counters."""
    figure, _, summary = out.partition("\n[campaign fig12: ")
    return figure, dict(item.split("=") for item in
                        summary.partition("]")[0].split(", "))


class TestRun(object):
    def test_campaign_then_resume_fully_cached(self, capsys, tmp_path):
        store = tmp_path / "store"
        argv = ["campaign", "fig12", "--scale", "tiny", "--jobs", "2",
                "--store", str(store)]
        assert main(argv) == 0
        figure, stats = _figure_and_stats(capsys.readouterr().out)
        assert "Fig. 12" in figure
        assert stats["simulated"] == "24" and stats["failed"] == "0"

        # Damage two records as bit rot and a torn write would: the
        # resume quarantines both and simulates just those two jobs.
        flipped, torn = sorted(store.glob("objects/*/*.rec"))[:2]
        blob = flipped.read_bytes()
        flipped.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        torn.write_bytes(torn.read_bytes()[:torn.stat().st_size // 2])
        assert main(argv + ["--resume"]) == 0
        resumed, stats = _figure_and_stats(capsys.readouterr().out)
        assert stats["quarantined"] == "2" and stats["simulated"] == "2"
        assert resumed == figure

        assert main(argv + ["--resume", "--expect-cached"]) == 0
        cached, stats = _figure_and_stats(capsys.readouterr().out)
        assert stats["simulated"] == "0" and stats["quarantined"] == "0"
        assert cached == figure

    def test_failed_job_renders_na_and_exits_1(self, capsys, monkeypatch):
        from repro.exec.pool import execute_job
        calls = []

        def first_fails(job):
            calls.append(job.key)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return execute_job(job)

        monkeypatch.setattr("repro.exec.pool.execute_job", first_fails)
        assert main(["campaign", "fig12", "--scale", "tiny",
                     "--no-store"]) == 1
        captured = capsys.readouterr()
        figure, stats = _figure_and_stats(captured.out)
        assert "n/a" in figure
        assert stats["failed"] == "1" and stats["simulated"] == "23"
        assert "1 failed run(s) rendered as n/a" in captured.err
        assert "RuntimeError: boom" in captured.err

    def test_resume_requires_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume needs"):
            main(["campaign", "fig12", "--scale", "tiny",
                  "--no-store", "--resume"])

    def test_unknown_campaign_lists_known(self):
        with pytest.raises(SystemExit, match="known.*fig12"):
            main(["campaign", "figNaN", "--dry-run"])

    def test_unknown_scale_env_is_a_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(SystemExit, match="REPRO_SCALE='huge'"):
            main(["campaign", "fig1", "--dry-run"])

    def test_invalid_spec_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"campaign": {"name": "x"}, "outputs": []}')
        with pytest.raises(SystemExit, match="outputs"):
            main(["campaign", str(bad), "--dry-run"])


class TestSharedOptionErrors(object):
    def test_report_unknown_figure_lists_drivers(self, tmp_path):
        """A requested section without ``<name>.txt`` is named, next to
        the results that do exist."""
        for name in ("fig12", "table1"):
            (tmp_path / f"{name}.txt").write_text(f"{name}\n")
        with pytest.raises(SystemExit,
                           match=r"\['fig99'\].*\['fig12', 'table1'\]"):
            main(["report", "fig12", "fig99",
                  "--results-dir", str(tmp_path)])

    def test_campaign_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit,
                           match="--jobs must be a positive"):
            main(["campaign", "fig12", "--jobs", "0", "--no-store"])

    def test_run_validates_exec_flags_identically(self):
        with pytest.raises(SystemExit,
                           match="--jobs must be a positive"):
            main(["run", "bfs", "--jobs", "0"])


class TestExecOptions(object):
    def test_parent_parser_defaults(self):
        import argparse
        parser = argparse.ArgumentParser(parents=[exec_arguments()])
        options = ExecOptions.from_args(parser.parse_args([]))
        assert options.jobs == 1
        assert options.store is not None   # REPRO_STORE fallback

    def test_no_store_wins(self):
        import argparse
        parser = argparse.ArgumentParser(parents=[exec_arguments()])
        args = parser.parse_args(["--no-store", "--store", "x"])
        assert ExecOptions.from_args(args).store is None

    def test_store_env_fallback(self, monkeypatch):
        import argparse
        monkeypatch.setenv("REPRO_STORE", "/tmp/elsewhere")
        parser = argparse.ArgumentParser(parents=[exec_arguments()])
        options = ExecOptions.from_args(parser.parse_args([]))
        assert options.store == "/tmp/elsewhere"

