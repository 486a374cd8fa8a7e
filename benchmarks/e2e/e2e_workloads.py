"""The benchmark's four pinned workloads.

Each workload has a ``build`` (one fresh set of inputs: what ``setup_s``
times) and an ``op`` (one closed-loop operation: a cold run through the
repository's job path, ``ExperimentRunner`` with ``jobs=1`` and a fresh
``ResultStore``, followed by resume passes that must answer from that
store without simulating).  README.md says why each workload exists.

Ops are kept short (under a second for the single runs, about two
seconds for the campaign), so one run holds many of them and its
medians are not at the mercy of a few seconds of a slow host.  An op
given a ``reference`` clock samples it right after the cold pass, so
the caller can bracket the cold pass and the resumes separately.

An op never trusts its own output: it checks committed-instruction
counts, pinned IPCs or the pinned figure, and that every resume pass
returned what the cold pass stored.  Problems come back as strings in
``OpResult.errors``; the caller counts them, it does not raise.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from e2e_tracing import NO_TRACE

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    raise ImportError(f"{SRC / 'repro'}: simulator sources not found; run "
                      f"the benchmark from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# The simulator is imported from the checkout's sources, never from an
# installed copy, so these imports follow the path check above.
from repro.campaign import compile_plan, figcheck, load_spec, run_campaign
from repro.exec.store import ResultStore, stable_digest, trace_fingerprint
from repro.experiments.runner import SCALES, Config, ExperimentRunner, Scale
from repro.sim import system as sim_system
from repro.workloads import gap, prebuilt
from repro.workloads.gap import gap_trace
from repro.workloads.spec import spec_trace
from repro.workloads.trace import Trace

#: The repository's warm-up fraction; statistics start after it.
WARMUP = 0.2
#: Tolerance for pinned IPCs and figure cells (figcheck's rule).
EPSILON = 0.02
#: Resume passes per op; ``resume_ref`` is the median over all of a run's.
RESUMES = 3
PINS_PATH = Path(__file__).with_name("pins.json")
FIG1_SPEC = ROOT / "campaigns" / "fig1.json"

#: SimResult fields that carry modelled behaviour.  ``extras`` is left
#: out: the job path adds host wall times to it.
_DIGEST_FIELDS = ("label", "trace_name", "committed", "cycles", "core",
                  "l1d", "l2", "llc", "gm", "dram", "tlb", "classification")


@dataclass
class Inputs:
    """What one ``build`` produces and every op of a run reuses."""

    scale: Scale
    #: Traces one op simulates (sim workloads) or the trace pool.
    traces: List[Trace]
    #: Committed instructions one cold op simulates, warm-up included.
    instructions: int
    #: Committed instructions of each trace as built (sim workloads), or
    #: the number of jobs a cold render must simulate (campaign).
    expected: List[int]
    #: Pinned per-core IPCs or the pinned fig1 figure; ``None`` when the
    #: seed or the trace length has no pin.
    reference: Optional[object] = None
    spec: Optional[object] = None
    plan: Optional[object] = None


@dataclass
class OpResult:
    """One op's timings, stats digest, checks and modelled results."""

    cold_s: float
    resume_s: List[float] = field(default_factory=list)
    #: What the caller's ``reference`` returned right after the cold
    #: pass; ``None`` when the op is not given one.
    mid_ref: Optional[object] = None
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    #: Per-core / per-job SimResults of the cold pass, kept only when the
    #: op is asked to (``keep_results``).
    results: list = field(default_factory=list)
    store_hits: int = 0
    store_misses: int = 0


def stats_digest(results: Sequence) -> str:
    """Digest of every modelled statistic of ``results``."""
    return stable_digest([{name: getattr(result, name)
                           for name in _DIGEST_FIELDS}
                          for result in results])


def load_pins() -> Dict[str, dict]:
    """Per sim workload, seed -> per-core IPCs; for the campaign, the
    rendered fig1 figure (``{"fig1": {"columns": ..., "rows": ...}}``)."""
    return json.loads(PINS_PATH.read_text())


def _runner(scale: Scale, store_dir: Path) -> ExperimentRunner:
    # No retries: a failing job must show up as a failed op, not be
    # retried behind the timer's back.
    return ExperimentRunner(scale=scale, store=ResultStore(store_dir),
                            max_retries=0)


def _store_counts(runners) -> Tuple[int, int]:
    stats = [runner.store.stats() for runner in runners]
    return (sum(s["hits"] for s in stats), sum(s["misses"] for s in stats))


def _timed(call):
    gc.collect()
    t0 = time.perf_counter()
    value = call()
    return value, time.perf_counter() - t0


def _sample(reference):
    return reference() if reference is not None else None


class SimWorkload:
    """One configuration over one trace (or one trace per core)."""

    def __init__(self, name: str, traces: Sequence[Tuple[str, str, int]],
                 config: Config) -> None:
        self.name = name
        #: ``(kind, name, loads)`` per core; kind is ``spec`` or ``gap``.
        self.trace_specs = tuple(traces)
        self.config = config

    def build(self, seed: int, loads: Optional[int] = None,
              tracer=NO_TRACE) -> Inputs:
        # Graph construction is part of synthesising a GAP trace.
        gap._GRAPH_CACHE.clear()
        traces = []
        for kind, name, default_loads in self.trace_specs:
            n_loads = loads or default_loads
            with tracer.span("workloads.build"):
                if kind == "spec":
                    trace = spec_trace(name, n_loads, seed)
                else:
                    # Same seed offset as the repository's trace pool, so
                    # seed 1 gives the pool's GAP traces.
                    trace = gap_trace(name, n_loads, seed=seed + 41)
            sim_system.plan_for(trace)
            with tracer.span("exec.job_key"):
                trace_fingerprint(trace)
            traces.append(trace)
        pins = load_pins().get(self.name, {}).get(str(seed)) \
            if loads is None else None
        longest = max(loads or spec[2] for spec in self.trace_specs)
        return Inputs(
            scale=Scale(f"e2e-{self.name}", longest, 0, 0, 0, WARMUP),
            traces=traces,
            instructions=sum(t.committed_count for t in traces),
            expected=[t.committed_count for t in traces],
            reference=pins)

    def _submit(self, runner: ExperimentRunner, traces: List[Trace]):
        if len(traces) == 1:
            return [runner.run(self.config, traces[0])]
        return runner.run_mix(self.config, traces,
                              cores=len(traces)).per_core

    def op(self, inputs: Inputs, workdir: Path, tracer=NO_TRACE,
           keep_results: bool = False, reference=None) -> OpResult:
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        try:
            cold_runner = _runner(inputs.scale, store_dir)
            results, cold_s = _timed(
                lambda: self._submit(cold_runner, inputs.traces))
            out = OpResult(cold_s, mid_ref=_sample(reference),
                           digest=stats_digest(results),
                           results=results if keep_results else [])
            out.errors += self._check(inputs, results)
            runners = [cold_runner]
            for _ in range(RESUMES):
                # Fresh trace objects, as a resumed sweep in a new process
                # has: the store key must be derived from the records again.
                fresh = [Trace(t.name, t.records, suite=t.suite)
                         for t in inputs.traces]
                runner = _runner(inputs.scale, store_dir)
                again, seconds = _timed(lambda: self._submit(runner, fresh))
                out.resume_s.append(seconds)
                runners.append(runner)
                simulated = runner.execution_stats()["simulated"]
                if simulated:
                    out.errors.append(f"resume simulated {simulated} job(s)")
                if stats_digest(again) != out.digest:
                    out.errors.append("resume returned different stats")
            out.store_hits, out.store_misses = _store_counts(runners)
            return out
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    @staticmethod
    def _check(inputs: Inputs, results) -> List[str]:
        """Every core simulated exactly the trace setup built (the
        ``instr_per_ref`` numerator) and measured all of it after the
        warm-up; IPCs match their pins."""
        if len(results) != len(inputs.expected):
            return [f"{len(results)} core results for "
                    f"{len(inputs.expected)} traces"]
        errors = []
        for core, (trace, result, want) in enumerate(
                zip(inputs.traces, results, inputs.expected)):
            measured = want - int(want * WARMUP)
            if trace.committed_count != want or result.committed != measured:
                errors.append(
                    f"core {core}: {trace.committed_count} committed "
                    f"instructions simulated, {result.committed} measured; "
                    f"setup built {want}, {measured} to measure")
        for core, (result, pin) in enumerate(
                zip(results, inputs.reference or ())):
            if abs(result.ipc - pin) > EPSILON * max(abs(pin), 1.0):
                errors.append(f"core {core}: IPC {result.ipc:.5f} outside "
                              f"{EPSILON} of pinned {pin:.5f}")
        return errors


def clear_trace_memos() -> None:
    """Forget every in-process trace and graph, as a new process would."""
    prebuilt.clear_memo()
    gap._GRAPH_CACHE.clear()


def figure_cells(figure) -> dict:
    """A rendered figure stripped to the numbers figcheck compares."""
    return {"columns": [str(column) for column in figure.columns],
            "rows": {label: [None if cell is None else float(cell)
                             for cell in cells]
                     for label, cells in figure.rows.items()}}


class CampaignWorkload:
    """``campaigns/fig1.json`` over tiny's trace pool, cold then resumed."""

    name = "campaign-fig1"
    #: Loads per pool trace: tiny's pool (4 SPEC + 2 GAP traces) at a
    #: sixth of tiny's trace length, so one run holds about ten renders.
    LOADS = 500

    def build(self, seed: int, loads: Optional[int] = None,
              tracer=NO_TRACE) -> Inputs:
        # The campaign pins its own trace pool: ``seed`` is not used.
        tiny = SCALES["tiny"]
        n_loads = loads or self.LOADS
        scale = Scale(f"e2e-tiny-{n_loads}", n_loads, tiny.spec_count,
                      tiny.gap_count, tiny.mixes, tiny.warmup)
        clear_trace_memos()
        with tracer.span("workloads.build"):
            pool = prebuilt.cached_workload_pool(
                scale.n_loads, spec_count=scale.spec_count,
                gap_count=scale.gap_count)
        spec = load_spec(FIG1_SPEC)
        plan = compile_plan(spec, scale)
        by_name = {trace.name: trace for trace in pool}
        instructions = sum(
            trace.committed_count for entry in plan.entries
            for trace in (pool if entry.selector == "@pool"
                          else [by_name[entry.selector]]))
        reference = load_pins().get(self.name) if loads is None else None
        return Inputs(scale=scale, traces=pool, instructions=instructions,
                      expected=[plan.total_jobs], reference=reference,
                      spec=spec, plan=plan)

    def _render(self, inputs: Inputs, store_dir: Path, tracer):
        clear_trace_memos()
        runner = _runner(inputs.scale, store_dir)

        def render():
            with tracer.span("campaign"):
                return run_campaign(inputs.spec, runner)
        figure, seconds = _timed(render)
        return runner, figure, seconds

    def op(self, inputs: Inputs, workdir: Path, tracer=NO_TRACE,
           keep_results: bool = False, reference=None) -> OpResult:
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        try:
            cold_runner, figure, cold_s = self._render(inputs, store_dir,
                                                       tracer)
            mid_ref = _sample(reference)
            cells = figure_cells(figure)
            out = OpResult(cold_s, mid_ref=mid_ref,
                           digest=stable_digest(cells))
            simulated = cold_runner.execution_stats()["simulated"]
            if simulated != inputs.expected[0]:
                out.errors.append(f"cold render simulated {simulated} jobs, "
                                  f"plan has {inputs.expected[0]}")
            if inputs.reference is not None:
                out.errors += figcheck.compare(
                    {"fig1": cells}, inputs.reference, EPSILON)
            runners = [cold_runner]
            for _ in range(RESUMES):
                runner, again, seconds = self._render(inputs, store_dir,
                                                      tracer)
                out.resume_s.append(seconds)
                runners.append(runner)
                simulated = runner.execution_stats()["simulated"]
                if simulated:
                    out.errors.append(f"resume simulated {simulated} job(s)")
                if again.text != figure.text:
                    out.errors.append("resume rendered a different figure")
            # Counted before the read-back below, which is not a render's.
            out.store_hits, out.store_misses = _store_counts(runners)
            if keep_results:
                # The cold runner's memo answers these; nothing simulates.
                for entry in inputs.plan.entries:
                    if entry.selector == "@pool":
                        out.results += cold_runner.run_pool(entry.config)
                    else:
                        out.results.append(cold_runner.run(
                            entry.config, cold_runner.trace(entry.selector)))
            return out
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in (
    SimWorkload("secure-mcf", [("spec", "605.mcf-1554B", 20_000)],
                Config.from_spec("timely-secure", "berti", suf=True)),
    SimWorkload("stream-lbm", [("spec", "619.lbm-2676B", 30_000)],
                Config.from_spec("nonsecure", "berti")),
    SimWorkload("gap-mix4", [("gap", "pr", 5_000), ("gap", "bfs", 5_000),
                             ("spec", "605.mcf-1554B", 5_000),
                             ("spec", "619.lbm-2676B", 5_000)],
                Config.from_spec("on-commit-secure", "berti", suf=True)),
    CampaignWorkload(),
)}
