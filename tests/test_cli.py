"""Command-line interface."""

import json
import re

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.experiments import SCALES, Scale

#: Registered under SCALES for sweep tests so forked jobs finish fast.
MICRO = Scale("micro", 300, 2, 1, 2)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "605.mcf-1554B", "--secure", "--suf",
             "--prefetcher", "tsb", "--mode", "on-commit"])
        assert args.secure and args.suf
        assert args.prefetcher == "tsb"

    def test_figure_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "fig1",
                                       "--scale", "huge"])

    @pytest.mark.parametrize("command", ["figure", "sweep"])
    def test_retired_figure_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "fig1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_retired_timeout_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "fig1", "--scale", "tiny", "--no-store",
                  "--timeout", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timeout 5" in \
            capsys.readouterr().err


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "605.mcf-1554B" in out
        assert "bfs" in out

    def test_run(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "L1D MPKI" in out

    def test_run_secure_shows_gm(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--secure", "--suf"]) == 0
        out = capsys.readouterr().out
        assert "GM" in out and "SUF drops" in out

    def test_run_delay(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--delay"]) == 0
        assert "delayed loads" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "700.fake"])

    def test_compare(self, capsys):
        assert main(["compare", "657.xz-2302B", "--loads", "1500"]) == 0
        out = capsys.readouterr().out
        assert "TSB" in out and "speedup" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_attack_closed(self, capsys):
        assert main(["attack", "--secure", "--mode", "on-commit"]) == 0
        assert "channel closed" in capsys.readouterr().out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit, match="no campaign spec 'fig99'"):
            main(["campaign", "fig99"])

    def test_multicore(self, capsys):
        assert main(["multicore", "--mixes", "1", "--loads", "1200",
                     "--cores", "2", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out and "average" in out

    def test_report_assembles_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1.txt").write_text("Fig. 1: hello\n")
        out_file = tmp_path / "report.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(out_file)]) == 0
        content = out_file.read_text()
        assert "## fig1" in content and "Fig. 1: hello" in content

    def test_report_selects_any_result(self, tmp_path, capsys):
        for name in ("fig1", "table1"):
            (tmp_path / f"{name}.txt").write_text(f"{name} text\n")
        assert main(["report", "table1",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## table1" in out and "table1 text" in out
        assert "fig1" not in out

    def test_report_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no results directory"):
            main(["report", "--results-dir", str(tmp_path / "nope")])


class TestObservabilityCommands:
    def test_run_timeseries_jsonl(self, tmp_path, capsys):
        import json
        from repro.obs import validate_timeseries_record
        out_file = tmp_path / "ts.jsonl"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file),
                     "--sample-interval", "500"]) == 0
        out = capsys.readouterr().out
        assert "time series" in out and "500 instructions" in out
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            validate_timeseries_record(json.loads(line))

    def test_run_timeseries_csv(self, tmp_path):
        out_file = tmp_path / "ts.csv"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file)]) == 0
        header = out_file.read_text().splitlines()[0]
        assert "ipc" in header.split(",")

    def test_run_metrics_dump(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counter   core.committed_instructions" in out
        assert "gauge     core.ipc" in out

    def test_run_negative_sample_interval(self):
        with pytest.raises(SystemExit, match="--sample-interval"):
            main(["run", "657.xz-2302B", "--sample-interval", "-5"])

    def test_trace_stdout(self, capsys):
        import json
        from repro.obs import validate_event
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--limit", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 20
        for line in lines:
            validate_event(json.loads(line))

    def test_trace_output_file(self, tmp_path, capsys):
        import json
        from repro.obs import validate_event
        out_file = tmp_path / "events.jsonl"
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--secure", "--prefetcher", "berti",
                     "--output", str(out_file)]) == 0
        assert "event(s) retained" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            validate_event(json.loads(line))

    def test_trace_capacity_bounds_output(self, tmp_path):
        out_file = tmp_path / "events.jsonl"
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--capacity", "32",
                     "--output", str(out_file)]) == 0
        assert len(out_file.read_text().splitlines()) <= 32

    def test_trace_zero_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["trace", "657.xz-2302B", "--loads", "0"])

    def test_validate_cli(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main
        out_file = tmp_path / "ts.jsonl"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file)]) == 0
        capsys.readouterr()
        assert validate_main([str(out_file), "--kind", "timeseries"]) == 0
        out_file.write_text('{"not": "a record"}\n')
        assert validate_main([str(out_file), "--kind",
                              "timeseries"]) == 1


class TestArgumentValidation:
    def test_multicore_zero_mixes(self):
        with pytest.raises(SystemExit, match="--mixes must be a positive"):
            main(["multicore", "--mixes", "0"])

    def test_run_zero_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["run", "657.xz-2302B", "--loads", "0"])

    def test_compare_negative_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["compare", "657.xz-2302B", "--loads", "-5"])

    def test_figure_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs must be a positive"):
            main(["campaign", "fig1", "--jobs", "0", "--no-store"])

    @pytest.mark.parametrize("command", ["run", "trace", "attack"])
    @pytest.mark.parametrize("flags, message", [
        (["--prefetcher", "nosuch"], "unknown prefetcher 'nosuch'"),
        (["--prefetcher", "ts-nosuch"], "unknown prefetcher 'nosuch'"),
        (["--suf"], "SUF requires the secure cache system"),
    ])
    def test_invalid_config_exits_with_message(self, command, flags,
                                               message):
        workload = [] if command == "attack" \
            else ["657.xz-2302B", "--loads", "200"]
        with pytest.raises(SystemExit, match=message):
            main([command, *workload, *flags])

    @pytest.mark.parametrize("flags, attr, value", [
        (["--prefetcher", "none"], "prefetcher", None),
        (["--secure", "--suf"], "suf", True),
    ])
    def test_attack_flags_reach_the_system(self, monkeypatch, flags, attr,
                                           value):
        """``--prefetcher none`` mounts no prefetcher; ``--suf`` turns
        SUF on."""
        from repro.security import attacks
        real, built = attacks.System, []

        def spy(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(attacks, "System", spy)
        assert main(["attack", *flags]) == 0
        assert [getattr(system, attr) for system in built] == [value]

    @pytest.mark.parametrize("argv, flag", [
        (["run", "657.xz-2302B", "--loads", "200"], "--timeseries"),
        (["trace", "657.xz-2302B", "--loads", "200"], "--output"),
        (["report", "--results-dir", "results"], "--output"),
    ])
    def test_unwritable_output_names_the_flag(self, tmp_path, monkeypatch,
                                              argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "fig1.txt").write_text("Fig. 1\n")
        path = tmp_path / "missing" / "out.jsonl"
        with pytest.raises(SystemExit,
                           match=re.escape(f"{flag}: cannot write {path}")):
            main([*argv, flag, str(path)])


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.COMMANDS, "tables", interrupted)
        assert main(["tables"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestSweep:
    @pytest.fixture(autouse=True)
    def micro_scale(self, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", MICRO)

    def test_sweep_then_cached_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["campaign", "fig1", "fig10", "--scale", "micro",
                "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Fig. 1" in first and "Fig. 10" in first
        assert "[campaign fig1 fig10: " in first and "simulated=" in first
        assert "profile:" in first

        # Everything is in the store now: the rerun must hit for every
        # job, which --expect-cached turns into a hard check.
        assert main(argv + ["--resume", "--expect-cached"]) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second

    def test_unknown_spec_exits_before_simulating(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="no campaign spec 'fig99'"):
            main(["campaign", "fig1", "fig99", "--scale", "micro",
                  "--store", str(store)])
        assert not store.exists()

    def test_specs_must_agree_on_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        with pytest.raises(SystemExit, match="matrix_demo: tiny.*--scale"):
            main(["campaign", "fig1", "matrix_demo", "--dry-run"])

    def test_broken_spec_does_not_stop_the_rest(self, tmp_path, capsys):
        # A trace-scoped cell whose trace is absent at this scale.
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({
            "campaign": {"name": "broken", "description": ""},
            "outputs": [{"kind": "table", "title": "lbm", "columns": ["x"],
                         "rows": [{"label": "lbm", "cells": [
                             {"metric": "speedup",
                              "workload": "619.lbm-2676B"}]}]}]}))
        assert main(["campaign", str(broken), "fig1", "--scale", "micro",
                     "--no-store"]) == 1
        captured = capsys.readouterr()
        assert "[campaign broken failed: KeyError" in captured.err
        assert "Fig. 1" in captured.out
        assert "[campaign broken fig1: " in captured.out

    def test_figure_no_store(self, capsys):
        assert main(["campaign", "fig1", "--scale", "micro",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "store " not in out


class TestSigtermParity:
    def test_sigterm_exits_143(self, monkeypatch, capsys):
        # SIGTERM must unwind like Ctrl-C (finally blocks run, store
        # checkpoints survive) but exit 143 instead of 130.
        import os
        import signal
        import time

        def long_running(args):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)   # the handler interrupts this immediately
            return 0        # pragma: no cover

        monkeypatch.setitem(cli.COMMANDS, "tables", long_running)
        assert main(["tables"]) == 143
        assert "terminated" in capsys.readouterr().err

    def test_handler_restored_after_main(self, monkeypatch):
        import signal

        monkeypatch.setitem(cli.COMMANDS, "tables", lambda args: 0)
        before = signal.getsignal(signal.SIGTERM)
        assert main(["tables"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_mid_campaign_resumes(self, tmp_path, monkeypatch,
                                          capsys):
        # The default serial executor must neither retry a job through
        # SIGTERM nor drop the jobs it finished before the signal.
        import os
        import signal

        from repro.exec.pool import execute_job
        calls = []

        def sigterm_third(job):
            calls.append(job.key)
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGTERM)
            return execute_job(job)

        argv = ["campaign", "fig12", "--scale", "tiny", "--jobs", "1",
                "--store", str(tmp_path / "store")]
        monkeypatch.setattr("repro.exec.pool.execute_job", sigterm_third)
        assert main(argv) == 143
        monkeypatch.undo()
        capsys.readouterr()

        assert main(argv + ["--resume"]) == 0
        figure, _, summary = capsys.readouterr().out.partition(
            "\n[campaign fig12: ")
        stats = dict(item.split("=") for item in
                     summary.partition("]")[0].split(", "))
        assert stats["hits"] == "2" and stats["simulated"] == "22"

        assert main(["campaign", "fig12", "--scale", "tiny",
                     "--no-store"]) == 0
        assert capsys.readouterr().out.startswith(figure + "\n[campaign")

