"""Wall-clock phase profiling for experiment runs.

A :class:`PhaseProfiler` accumulates ``(seconds, count)`` per named phase.
:class:`~repro.experiments.runner.ExperimentRunner` keeps one and wraps its
coarse phases (trace building, job execution) in :meth:`PhaseProfiler.phase`;
worker processes report their finer-grained per-job times (system build vs.
cycle loop) through ``SimResult.extras``, which the runner folds back in
with :meth:`PhaseProfiler.add`.  The result answers "where does the
wall-clock of this sweep go?" without instrumenting the hot loop itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Tuple

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates wall-clock seconds and invocation counts per phase."""

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration for phase {name!r}")
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + count

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block and charge it to ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    # ------------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def report(self) -> Dict[str, Tuple[float, int]]:
        """``{phase: (total_seconds, count)}`` sorted by time, descending."""
        return {name: (self._seconds[name], self._counts[name])
                for name in sorted(self._seconds,
                                   key=lambda n: -self._seconds[n])}

    def total(self) -> float:
        return sum(self._seconds.values())

    def summary_line(self) -> str:
        """Compact one-line rendering for CLI status output."""
        parts = [f"{name}={seconds:.2f}s/{count}"
                 for name, (seconds, count) in self.report().items()]
        return "profile: " + (" ".join(parts) if parts else "no phases")
