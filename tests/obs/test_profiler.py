"""Wall-clock phase profiler."""

import pytest

from repro.analysis import format_profile
from repro.obs import PhaseProfiler


class TestPhaseProfiler:
    def test_add_accumulates(self):
        prof = PhaseProfiler()
        prof.add("sim", 1.0)
        prof.add("sim", 2.0)
        assert prof.seconds("sim") == pytest.approx(3.0)
        assert prof.count("sim") == 2
        assert prof.total() == pytest.approx(3.0)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            PhaseProfiler().add("x", -0.1)

    def test_phase_context_manager_times_block(self):
        prof = PhaseProfiler()
        with prof.phase("work"):
            pass
        assert prof.count("work") == 1
        assert prof.seconds("work") >= 0.0

    def test_phase_charges_on_exception(self):
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with prof.phase("boom"):
                raise RuntimeError
        assert prof.count("boom") == 1

    def test_report_sorted_by_time(self):
        prof = PhaseProfiler()
        prof.add("fast", 0.1)
        prof.add("slow", 9.0)
        assert list(prof.report()) == ["slow", "fast"]

    def test_summary_line(self):
        prof = PhaseProfiler()
        assert prof.summary_line() == "profile: no phases"
        prof.add("sim", 1.25, count=2)
        assert prof.summary_line() == "profile: sim=1.25s/2"

    def test_format_profile_renders(self):
        prof = PhaseProfiler()
        prof.add("execute", 4.0, count=2)
        text = format_profile(prof.report())
        assert "execute" in text
        assert "4.000s" in text and "2.000s" in text  # total and mean
