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


class TestRun(object):
    def test_campaign_then_resume_fully_cached(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["campaign", "fig12", "--scale", "tiny",
                "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Fig. 12" in first
        assert "simulated=24" in first

        assert main(argv + ["--resume", "--expect-cached"]) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second
        # Identical rendering from the store-backed resume.
        assert first.splitlines()[:8] == second.splitlines()[:8]

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
                           match="--timeout must be positive"):
            main(["run", "bfs", "--timeout", "0"])


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

