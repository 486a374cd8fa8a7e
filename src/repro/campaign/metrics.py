"""Named derived-output metrics the campaign engine can evaluate.

Each metric is a reducer from (runner, configuration[, trace]) to the
value one figure cell plots, built from the ``analysis.metrics``
helpers.  The figures pinned in ``campaigns/golden/figures_golden.json``
depend on their arithmetic, operation order included.

Scopes and kinds
----------------
``scope``
    ``"pool"`` metrics reduce over the runner's whole workload pool and
    take no workload; ``"trace"`` metrics evaluate one named trace.
``kind``
    ``"scalar"`` (a float, table cells), ``"split"`` (a category ->
    value mapping, stacked bars), or ``"series"`` (a per-trace mapping,
    series columns).
``needs_baseline``
    ``"pool"``/``"trace"`` when the metric also consumes the non-secure
    no-prefetch BASELINE result(s); the plan compiler adds those jobs to
    the campaign's cell set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..analysis.metrics import (amean, apki_breakdown, geomean,
                                load_miss_latency, prefetch_accuracy,
                                speedup, suf_accuracy)
from ..core.classification import CATEGORIES
from ..energy.model import energy_per_kilo_instruction
from ..experiments.runner import BASELINE

__all__ = ["METRICS", "Metric"]


@dataclass(frozen=True)
class Metric:
    """One named reducer usable from a campaign spec cell."""

    name: str
    scope: str                      # "pool" | "trace"
    kind: str                       # "scalar" | "split" | "series"
    fn: Callable
    needs_baseline: Optional[str] = None   # None | "pool" | "trace"


METRICS: Dict[str, Metric] = {}


def _register(name: str, scope: str, kind: str,
              needs_baseline: Optional[str] = None):
    def decorate(fn):
        METRICS[name] = Metric(name, scope, kind, fn, needs_baseline)
        return fn
    return decorate


# ----------------------------------------------------------------------
# pool-scope metrics (reduce over the whole workload pool)
# ----------------------------------------------------------------------

@_register("speedup_geomean", "pool", "scalar", needs_baseline="pool")
def _speedup_geomean(runner, config):
    """Geomean per-trace speedup vs the non-secure no-prefetch baseline
    (the Fig. 1/10/11 bar height)."""
    baselines = runner.run_pool(BASELINE)
    results = runner.run_pool(config)
    return geomean(speedup(r, b) for r, b in zip(results, baselines))


@_register("load_miss_latency_amean", "pool", "scalar")
def _load_miss_latency_amean(runner, config):
    """Average L1D load miss latency in cycles (Fig. 4)."""
    return amean(load_miss_latency(r) for r in runner.run_pool(config))


@_register("prefetch_accuracy_amean_pct", "pool", "scalar")
def _prefetch_accuracy_amean_pct(runner, config):
    """Average prefetch accuracy as a percentage (Fig. 13)."""
    return 100 * amean(prefetch_accuracy(r)
                       for r in runner.run_pool(config))


@_register("energy_normalized", "pool", "scalar", needs_baseline="pool")
def _energy_normalized(runner, config):
    """Dynamic EPKI normalized to the non-secure no-prefetch system
    (Fig. 14)."""
    base_energy = amean(energy_per_kilo_instruction(r)
                        for r in runner.run_pool(BASELINE))
    value = amean(energy_per_kilo_instruction(r)
                  for r in runner.run_pool(config))
    return value / base_energy if base_energy else 0.0


@_register("apki_breakdown_amean", "pool", "split")
def _apki_breakdown_amean(runner, config):
    """Average L1D APKI split into load / prefetch / commit (Fig. 3)."""
    splits = [apki_breakdown(r) for r in runner.run_pool(config)]
    return {c: amean(s[c] for s in splits)
            for c in ("load", "prefetch", "commit")}


@_register("taxonomy_mpki", "pool", "split")
def _taxonomy_mpki(runner, config):
    """Average train-level demand MPKI by the Fig. 6 four-mode taxonomy
    (requires a ``classify=True`` configuration)."""
    results = runner.run_pool(config)
    split: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
    for result in results:
        ki = result.kilo_instructions()
        if not ki or result.classification is None:
            continue
        for cat in CATEGORIES:
            split[cat] += result.classification[cat] / ki
    return {c: split[c] / max(len(results), 1) for c in CATEGORIES}


@_register("per_trace_speedup", "pool", "series", needs_baseline="pool")
def _per_trace_speedup(runner, config):
    """Per-trace speedup vs the baseline, keyed by trace name (the
    Fig. 12 series)."""
    runner.run_pool(BASELINE)
    runner.run_pool(config)
    values: Dict[str, float] = {}
    for trace in runner.pool():
        values[trace.name] = speedup(runner.run(config, trace),
                                     runner.run(BASELINE, trace))
    return values


# ----------------------------------------------------------------------
# trace-scope metrics (evaluate one named workload)
# ----------------------------------------------------------------------

@_register("speedup", "trace", "scalar", needs_baseline="trace")
def _speedup_one(runner, config, trace):
    """Speedup vs the baseline on the same trace (Fig. 5a)."""
    return speedup(runner.run(config, trace),
                   runner.run(BASELINE, trace))


@_register("load_miss_latency", "trace", "scalar")
def _load_miss_latency_one(runner, config, trace):
    """L1D load miss latency in cycles on one trace (Fig. 5c)."""
    return load_miss_latency(runner.run(config, trace))


@_register("apki_breakdown", "trace", "split")
def _apki_breakdown_one(runner, config, trace):
    """L1D APKI split on one trace (Fig. 5b)."""
    return apki_breakdown(runner.run(config, trace))


@_register("suf_accuracy_pct", "trace", "scalar")
def _suf_accuracy_pct(runner, config, trace):
    """SUF filter accuracy as a percentage (Section VII-A)."""
    return 100 * suf_accuracy(runner.run(config, trace))


@_register("l1d_apki", "trace", "scalar")
def _l1d_apki(runner, config, trace):
    """Total L1D accesses per kilo instruction (Section VII-A)."""
    result = runner.run(config, trace)
    return result.apki(result.l1d)
