"""Committed figure specs render well-formed, internally-consistent
outputs.

These run at tiny scale with a module-scoped runner, so the memoized
results are shared across all figure tests.
"""

import math
from pathlib import Path

import pytest

from repro.campaign import load_spec, run_campaign
from repro.core.classification import CATEGORIES
from repro.experiments import (ExperimentRunner, SCALES, table1_text,
                               table2_text, table3_rows, table3_text,
                               contribution_storage_text)
from repro.prefetchers import PAPER_PREFETCHERS

CAMPAIGNS = Path(__file__).resolve().parents[2] / "campaigns"


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALES["tiny"])


@pytest.fixture(scope="module")
def figure(runner):
    """Render a committed figure spec on the shared runner."""
    def render(name):
        return run_campaign(load_spec(CAMPAIGNS / f"{name}.json"), runner)
    return render


class TestFig1(object):
    def test_structure(self, figure):
        result = figure("fig1")
        assert set(PAPER_PREFETCHERS) <= set(result.rows)
        for values in result.rows.values():
            assert len(values) == 3
            assert all(v > 0 for v in values)
        assert "Fig. 1" in result.text


class TestFig3(object):
    def test_secure_commit_traffic(self, figure):
        result = figure("fig3")
        # Secure bars carry commit traffic; non-secure never do.
        for name in ("none",) + PAPER_PREFETCHERS:
            ns = dict(zip(result.columns, result.rows[f"{name}/NS"]))
            s = dict(zip(result.columns, result.rows[f"{name}/S"]))
            assert ns["commit"] == 0
            assert s["commit"] > 0

    def test_secure_apki_exceeds_nonsecure(self, figure):
        result = figure("fig3")
        ns_total = sum(result.rows["none/NS"])
        s_total = sum(result.rows["none/S"])
        assert s_total > 1.2 * ns_total


class TestFig5(object):
    def test_rows_per_prefetcher(self, figure):
        result = figure("fig5")
        assert "none" in result.rows
        for name in PAPER_PREFETCHERS:
            assert len(result.rows[name]) == 4


class TestFig6(object):
    def test_taxonomy_structure(self, figure):
        result = figure("fig6")
        assert result.columns == list(CATEGORIES)
        for name in PAPER_PREFETCHERS:
            assert f"{name}/on-access" in result.rows
            assert f"{name}/on-commit" in result.rows

    def test_commit_late_only_on_commit(self, figure):
        """The commit-late category exists only for on-commit training
        (it is defined relative to an on-access shadow)."""
        result = figure("fig6")
        idx = list(CATEGORIES).index("commit_late")
        for name in PAPER_PREFETCHERS:
            assert result.rows[f"{name}/on-access"][idx] == 0.0


class TestFig10Fig11(object):
    def test_fig10_structure(self, figure):
        result = figure("fig10")
        for name in PAPER_PREFETCHERS:
            assert len(result.rows[name]) == 2

    def test_fig11_includes_tsb(self, figure):
        result = figure("fig11")
        assert "tsb" in result.rows


class TestFig12(object):
    def test_per_trace_series(self, runner, figure):
        result = figure("fig12")
        names = {t.name for t in runner.pool()}
        for series in result.series.values():
            assert set(series) == names
            assert all(v > 0 for v in series.values())


class TestFig13(object):
    def test_accuracy_percentages(self, figure):
        result = figure("fig13")
        for label, values in result.rows.items():
            for v in values:
                assert math.isnan(v) or 0.0 <= v <= 100.0


class TestFig14(object):
    def test_energy_normalized(self, figure):
        result = figure("fig14")
        # The secure no-prefetch system must cost more than baseline 1.0.
        assert result.rows["no-pref (secure)"][0] > 1.0


class TestSufStatistics(object):
    def test_accuracy_column(self, figure):
        result = figure("suf_statistics")
        avg = result.rows["average"]
        assert 50.0 <= avg[0] <= 100.0   # accuracy %
        assert avg[1] < avg[2]           # SUF cuts L1D traffic


class TestTables(object):
    def test_table1(self):
        text = table1_text()
        assert "GhostMinion" in text and "STT" in text

    def test_table2(self):
        text = table2_text()
        assert "352-entry ROB" in text
        assert "48 KB" in text

    def test_table3_storage_within_2x_of_paper(self):
        for name, paper_kb, impl_kb in table3_rows():
            assert impl_kb == pytest.approx(paper_kb, rel=1.0), name
        assert "Table III" in table3_text()

    def test_contribution_storage_exact(self):
        text = contribution_storage_text()
        assert "0.12 KB" in text
        assert "0.47 KB" in text
        assert "0.59 KB" in text

    def test_all_figures_registry(self):
        specs = {path.stem for path in CAMPAIGNS.glob("*.json")}
        assert {"fig1", "fig6", "fig12"} <= specs
