"""Shared benchmark infrastructure.

One session-scoped :class:`ExperimentRunner` memoizes simulation results
across all figure benchmarks (most figures share configurations), each
figure renders from its committed spec under ``campaigns/``, and each
benchmark writes its rendered output to ``benchmarks/results/`` so a bench
run leaves the reproduced tables on disk.

Scale comes from ``REPRO_SCALE`` (default ``small``); see DESIGN.md §7.
"""

from pathlib import Path

import pytest

from repro.campaign import load_spec, run_campaign
from repro.experiments import ExperimentRunner

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="session")
def figure(runner):
    """Render one committed figure spec on the shared runner."""
    def render(name):
        return run_campaign(load_spec(CAMPAIGNS / f"{name}.json"), runner)
    return render


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture()
def record(results_dir):
    """Persist and echo one figure's rendered text."""
    def _record(name, text):
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
    return _record
