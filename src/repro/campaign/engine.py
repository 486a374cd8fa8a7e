"""Campaign execution: evaluate a compiled spec against a runner.

``run_campaign`` is the only way a figure is rendered: it expands the
spec with the runner's real workload pool, pre-executes every required
simulation as *one* batch through the execution layer (sharded across
workers with ``jobs>1``, deduplicated and resumable through the result
store), then evaluates the spec's outputs into a :class:`FigureResult`.

Fail-soft semantics ride the runner's: a failed simulation memoizes a
NaN-sentinel result, the metric layer propagates NaN, and the report
renderer prints ``n/a`` for that cell instead of aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import amean, geomean
from ..analysis.report import (format_series, format_stacked,
                               format_table)
from ..experiments.runner import BASELINE, Config, ExperimentRunner
from .metrics import METRICS
from .spec import (Cell, CampaignSpec, ExpandedOutput, MulticoreOut,
                   SecurityMatrixOut, SeriesOut, StackedOut, TableOut,
                   expand_outputs)

__all__ = ["FigureResult", "run_campaign"]


@dataclass
class FigureResult:
    """Data + rendered text for one reproduced figure."""

    name: str
    description: str
    columns: List[str]
    rows: Dict[str, List[float]] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _single_core_cells(outputs: Sequence[ExpandedOutput]
                       ) -> List[Cell]:
    cells: List[Cell] = []
    for output in outputs:
        if isinstance(output, TableOut):
            for kind, *rest in output.rows:
                if kind == "cells":
                    cells.extend(c for c in rest[1] if c is not None)
        elif isinstance(output, StackedOut):
            cells.extend(cell for _, cell in output.bars)
        elif isinstance(output, SeriesOut):
            cells.extend(cell for _, cell in output.series)
    return [cell for cell in cells if cell.metric is not None]


def _prefetch(runner: ExperimentRunner,
              outputs: Sequence[ExpandedOutput]) -> None:
    """Submit every single-core simulation the outputs need as one
    batch, so ``jobs>1`` campaigns shard the whole cross-product at
    once instead of pool-by-pool as each metric evaluates."""
    pool = runner.pool()
    by_name = {trace.name: trace for trace in pool}
    todo: Dict[Tuple[Config, str], Tuple[Config, object]] = {}

    def want(config: Config, traces) -> None:
        for trace in traces:
            todo.setdefault((config, trace.name), (config, trace))

    for cell in _single_core_cells(outputs):
        metric = METRICS[cell.metric]
        if metric.scope == "trace":
            trace = by_name.get(cell.workload)
            if trace is None:
                raise KeyError(
                    f"trace {cell.workload!r} not in the pool at "
                    f"scale {runner.scale.name!r}")
            want(cell.config, [trace])
            if metric.needs_baseline == "trace":
                want(BASELINE, [trace])
        else:
            want(cell.config, pool)
            if metric.needs_baseline == "pool":
                want(BASELINE, pool)
    for output in outputs:
        if isinstance(output, SecurityMatrixOut):
            # The matrix's IPC-cost column: every (defense, prefetcher)
            # config over the pool, batched with everything else.
            for _defense, _prefetcher, config in output.cost_configs:
                want(config, pool)
    if todo:
        runner.run_cells(todo.values())


def _evaluate_scalar(runner: ExperimentRunner, cell: Cell) -> float:
    if cell.metric is None:
        return cell.value
    metric = METRICS[cell.metric]
    if metric.scope == "trace":
        return metric.fn(runner, cell.config,
                         runner.trace(cell.workload))
    return metric.fn(runner, cell.config)


def _eval_table(runner: ExperimentRunner,
                output: TableOut) -> FigureResult:
    rows: Dict[str, List[float]] = {}
    for kind, *rest in output.rows:
        if kind == "average":
            # The mean of every data row so far, column-wise (the
            # suf_statistics "average" row); rows below it are not
            # included.
            rows[rest[0]] = [amean(v[i] for v in rows.values())
                             for i in range(len(output.columns))]
            continue
        label, cells = rest
        values: List[Optional[float]] = []
        for cell in cells:
            if cell is None:          # matrix_table exclusion
                values.append(None)
                continue
            values.extend([_evaluate_scalar(runner, cell)]
                          * cell.repeat)
        rows[label] = values
    text = format_table(output.title, output.columns, rows,
                        value_format=output.value_format)
    return FigureResult("", "", list(output.columns), rows, text)


def _eval_stacked(runner: ExperimentRunner,
                  output: StackedOut) -> FigureResult:
    bars: Dict[str, Dict[str, float]] = {}
    for label, cell in output.bars:
        split = METRICS[cell.metric]
        if split.scope == "trace":
            value = split.fn(runner, cell.config,
                             runner.trace(cell.workload))
        else:
            value = split.fn(runner, cell.config)
        bars[label] = value
    text = format_stacked(output.title, output.categories, bars,
                          value_format=output.value_format)
    rows = {label: [split.get(c, 0.0) for c in output.categories]
            for label, split in bars.items()}
    return FigureResult("", "", list(output.categories), rows, text)


def _eval_series(runner: ExperimentRunner,
                 output: SeriesOut) -> FigureResult:
    series: Dict[str, Dict[str, float]] = {}
    for label, cell in output.series:
        series[label] = METRICS[cell.metric].fn(runner, cell.config)
    text = format_series(output.title, series,
                         value_format=output.value_format)
    rows = {label: list(values.values())
            for label, values in series.items()}
    result = FigureResult("", "", list(series), rows, text)
    result.series = series
    return result


def _eval_multicore(runner: ExperimentRunner,
                    output: MulticoreOut) -> FigureResult:
    """The Fig. 15 recipe, parameterized by the spec's config rows:
    weighted speedup over ``cores``-wide mixes normalized to the
    non-secure no-prefetch system, reported geomean/min/max."""
    cores = output.cores
    mixes = runner.mixes(cores=cores)
    if output.n_mixes is not None:
        mixes = mixes[:output.n_mixes]

    # Alone-IPC runs are plain single-core baseline jobs, so they ride
    # the runner's pool and store like every other cell.
    distinct = list({t.name: t for mix in mixes for t in mix}.values())
    runner.run_pool(BASELINE, distinct)

    def alone(mix: Sequence) -> List[float]:
        return [runner.run(BASELINE, t).ipc for t in mix]

    # Normalization baseline: non-secure, no prefetching, same mix.  In
    # failsoft mode a failed mix comes back None (recorded in
    # runner.failures) and drops out of the figure.
    base_results = runner.run_mixes(BASELINE, mixes, cores=cores)
    base_ws = [result.weighted_speedup(alone(mix))
               if result is not None else None
               for mix, result in zip(mixes, base_results)]

    rows: Dict[str, List[float]] = {}
    per_config_norms: Dict[str, List[float]] = {}
    for label, config in output.rows:
        results = runner.run_mixes(config, mixes, cores=cores)
        norms = []
        for mix, base, shared in zip(mixes, base_ws, results):
            if base is None:
                continue
            if shared is None:
                norms.append(float("nan"))
                continue
            ws = shared.weighted_speedup(alone(mix))
            norms.append(ws / base if base else 0.0)
        clean = [n for n in norms if n == n]
        per_config_norms[label] = sorted(clean)
        rows[label] = [geomean(norms),
                       min(clean) if clean else float("nan"),
                       max(clean) if clean else float("nan")]

    title = output.title.replace("{cores}", str(cores)) \
                        .replace("{n_mixes}", str(len(mixes)))
    text = format_table(title, output.columns, rows)
    result = FigureResult("", "", list(output.columns), rows, text)
    result.sorted_norms = per_config_norms
    return result


def _eval_security_matrix(runner: ExperimentRunner,
                          output: SecurityMatrixOut) -> FigureResult:
    """The attack x defense x prefetcher matrix.  Leakage cells run
    in-process through :mod:`repro.security.matrix`; the cost column's
    pool sweeps were already prefetched, so the runner serves them from
    its memo."""
    from ..security.matrix import run_security_matrix
    matrix = run_security_matrix(
        runner, attacks=output.attacks, defenses=output.defenses,
        prefetchers=output.prefetchers,
        secret_bits=output.secret_bits, metric=output.metric,
        cost=output.cost, title=output.title,
        value_format=output.value_format)
    columns = list(output.attacks) + (["ipc_d%"] if output.cost else [])
    leakage = matrix.leakage(output.metric)
    rows: Dict[str, List[float]] = {}
    for prefetcher in output.prefetchers:
        prefix = f"{prefetcher}/" if len(output.prefetchers) > 1 else ""
        for defense in output.defenses:
            values = [leakage[(prefetcher, defense, attack)]
                      for attack in output.attacks]
            if output.cost:
                values.append(matrix.ipc_delta[(prefetcher, defense)])
            rows[f"{prefix}{defense}"] = values
    result = FigureResult("", "", columns, rows, matrix.text)
    result.matrix = matrix
    return result


def run_campaign(spec: CampaignSpec,
                 runner: ExperimentRunner) -> FigureResult:
    """Execute ``spec`` against ``runner`` and render its outputs.

    Returns one :class:`FigureResult` named after the campaign; the
    text joins every output block with blank lines (Fig. 5's panels,
    for instance).  The first output supplies ``columns``/``rows``;
    series outputs additionally attach ``.series``, multicore outputs
    ``.sorted_norms`` and security-matrix outputs ``.matrix``.
    """
    pool_names = [trace.name for trace in runner.pool()]
    outputs = expand_outputs(spec, pool_names)
    _prefetch(runner, outputs)

    blocks: List[FigureResult] = []
    for output in outputs:
        if isinstance(output, TableOut):
            blocks.append(_eval_table(runner, output))
        elif isinstance(output, StackedOut):
            blocks.append(_eval_stacked(runner, output))
        elif isinstance(output, SeriesOut):
            blocks.append(_eval_series(runner, output))
        elif isinstance(output, MulticoreOut):
            blocks.append(_eval_multicore(runner, output))
        elif isinstance(output, SecurityMatrixOut):
            blocks.append(_eval_security_matrix(runner, output))

    first = blocks[0]
    result = FigureResult(spec.name, spec.description, first.columns,
                          first.rows,
                          "\n\n".join(block.text for block in blocks))
    for block in blocks:
        if hasattr(block, "series"):
            result.series = block.series
        if hasattr(block, "sorted_norms"):
            result.sorted_norms = block.sorted_norms
        if hasattr(block, "matrix"):
            result.matrix = block.matrix
    return result
