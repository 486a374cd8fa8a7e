"""Shared experiment infrastructure.

Every figure of the paper evaluates the same handful of configurations over
the same workload pool, so :class:`ExperimentRunner` memoizes simulation
results by ``(configuration, trace)`` -- generating Fig. 1 makes Figs. 3, 4,
11, 13, and 14 nearly free.

Scales: the paper simulates 200M-instruction SimPoints; this reproduction
defaults to a laptop-friendly scale selectable with the ``REPRO_SCALE``
environment variable (``small`` / ``medium`` / ``large``) or explicitly per
runner.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.timely import make_timely
from ..core.tsb import TSBPrefetcher
from ..exec.faults import FaultPlan
from ..exec.pool import Job, JobExecutor, JobFailure, MixJob, failed_result
from ..exec.store import ResultStore, StoreError, job_key, mix_job_key
from ..obs import ObsConfig, PhaseProfiler
from ..prefetchers.base import (MODE_ON_ACCESS, MODE_ON_COMMIT, Prefetcher)
from ..prefetchers.registry import is_registered, make_prefetcher
from ..sim.multicore import MulticoreResult, MulticoreSystem
from ..sim.params import SystemParams, baseline
from ..sim.system import SimResult, System
from ..workloads.mixes import generate_mixes
from ..workloads.prebuilt import cached_workload_pool
from ..workloads.trace import Trace


class ExperimentError(RuntimeError):
    """A simulation job failed permanently (retries exhausted)."""


@dataclass(frozen=True)
class Scale:
    """How big the experiments run."""

    name: str
    n_loads: int
    spec_count: int   # 0 = the full SPEC-like pool
    gap_count: int    # 0 = the full GAP-like pool
    mixes: int
    warmup: float = 0.2

    def __post_init__(self) -> None:
        # ``warmup == 1.0`` would leave zero measured instructions (and a
        # warmup_target equal to committed_count that the stepper can
        # never cross); reject it where the scale is *written*, matching
        # the guard inside ``System.stepper``.
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError(
                f"warmup must satisfy 0 <= warmup < 1, got {self.warmup!r}")

    @property
    def ts_interval_l1(self) -> int:
        """Lateness-monitor interval scaled to the trace length (the paper
        uses 512 L1D misses over 200M instructions)."""
        return max(64, min(512, self.n_loads // 64))

    @property
    def ts_interval_l2(self) -> int:
        return 4 * self.ts_interval_l1


SCALES: Dict[str, Scale] = {
    "tiny": Scale("tiny", 3000, 4, 2, 4),
    "small": Scale("small", 8000, 8, 4, 12),
    "medium": Scale("medium", 20000, 0, 0, 24),
    "large": Scale("large", 50000, 0, 0, 60),
}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; known scales: {sorted(SCALES)}"
        ) from None


def _valid_prefetcher_spec(spec: str) -> bool:
    """Whether ``spec`` resolves to a prefetcher at build time."""
    if spec in ("none", "tsb"):
        return True
    if spec.startswith("ts-"):
        return is_registered(spec[3:])
    return is_registered(spec)


#: Mitigation-mode names accepted by :meth:`Config.from_spec`, mapped to
#: (training mode, secure).  ``timely-secure`` additionally rewrites the
#: prefetcher name to its TS variant (``berti`` -> ``tsb``, otherwise
#: ``ts-<name>``), matching Section V-D.
SPEC_MODES = {
    "nonsecure": (MODE_ON_ACCESS, False),
    "on-access-secure": (MODE_ON_ACCESS, True),
    "on-commit-secure": (MODE_ON_COMMIT, True),
    "timely-secure": (MODE_ON_COMMIT, True),
}

#: Mitigation *mechanisms* a config can carry on top of its mode
#: (``Config.mitigation``).  ``none`` covers the conventional and
#: GhostMinion systems (whose machinery rides on ``secure``/``suf``);
#: the others select the additional defenses of
#: :mod:`repro.security.mitigations` (kept in sync by
#: tests/security/test_mitigations.py): ``delay`` = delay-on-miss,
#: ``rand-llc`` = randomized-index LLC, ``prefender`` = access-
#: obfuscation shim around the prefetcher.
CONFIG_MITIGATIONS = ("none", "delay", "rand-llc", "prefender")


@dataclass(frozen=True)
class Config:
    """One evaluated system configuration.

    ``prefetcher`` accepts registry names plus ``"ts-<name>"`` for the
    timely-secure variants (Section V-D) and ``"tsb"`` for Timely Secure
    Berti.  ``classify`` attaches the Fig. 6 miss classifier with an
    on-access shadow copy of the prefetcher.  ``sample_interval > 0``
    collects an interval time-series (``SimResult.timeseries``) every
    that many committed instructions.

    Fields are validated at construction, so an unknown prefetcher or an
    inconsistent combination fails where the config is *written*, not
    deep inside a sweep.
    """

    prefetcher: str = "none"
    secure: bool = False
    suf: bool = False
    mode: str = MODE_ON_ACCESS
    classify: bool = False
    sample_interval: int = 0
    #: Additional defense mechanism (:data:`CONFIG_MITIGATIONS`).  The
    #: default keeps every pre-existing config -- labels, store keys,
    #: golden pins -- exactly as it was.
    mitigation: str = "none"

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ON_ACCESS, MODE_ON_COMMIT):
            raise ValueError(f"unknown train mode {self.mode!r}; expected "
                             f"{MODE_ON_ACCESS!r} or {MODE_ON_COMMIT!r}")
        if not _valid_prefetcher_spec(self.prefetcher):
            raise ValueError(f"unknown prefetcher {self.prefetcher!r} "
                             f"(registry names, 'ts-<name>', 'tsb', or "
                             f"'none')")
        if self.suf and not self.secure:
            raise ValueError("SUF requires the secure cache system")
        if not isinstance(self.sample_interval, int) \
                or self.sample_interval < 0:
            raise ValueError(f"sample_interval must be a non-negative "
                             f"integer, got {self.sample_interval!r}")
        if self.mitigation not in CONFIG_MITIGATIONS:
            raise ValueError(f"unknown mitigation {self.mitigation!r}; "
                             f"known: {list(CONFIG_MITIGATIONS)}")
        if self.mitigation == "delay" and self.secure:
            raise ValueError("pick one mitigation: GhostMinion (secure) "
                             "or delay-on-miss")

    def label(self) -> str:
        parts = [self.prefetcher,
                 "OC" if self.mode == MODE_ON_COMMIT else "OA",
                 "S" if self.secure else "NS"]
        if self.suf:
            parts.append("SUF")
        if self.mitigation != "none":
            parts.append(self.mitigation)
        return "/".join(parts)

    @classmethod
    def from_spec(cls, mode: str = "nonsecure",
                  prefetcher: str = "none", *, suf: bool = False,
                  classify: bool = False,
                  sample_interval: int = 0,
                  mitigation: str = "none") -> "Config":
        """Build a configuration from declarative-spec fields.

        The constructor behind the campaign compiler: ``mode`` is one
        of :data:`SPEC_MODES` (``nonsecure`` / ``on-access-secure`` /
        ``on-commit-secure`` / ``timely-secure``), ``prefetcher`` a
        baseline registry name (``timely-secure`` rewrites it to the TS
        variant).  Validation errors name the offending spec field so
        a bad campaign cell reports *which* knob is wrong.
        """
        if not isinstance(mode, str) or mode not in SPEC_MODES:
            raise ValueError(
                f"config field 'mode': unknown mitigation mode {mode!r};"
                f" known: {sorted(SPEC_MODES)}")
        train_mode, secure = SPEC_MODES[mode]
        name = "none" if prefetcher is None else prefetcher
        if mode == "timely-secure":
            if name == "none":
                raise ValueError("config field 'prefetcher': "
                                 "'timely-secure' needs a prefetcher")
            if name == "berti":
                name = "tsb"
            elif name != "tsb" and not name.startswith("ts-"):
                name = f"ts-{name}"
        if not _valid_prefetcher_spec(name):
            raise ValueError(f"config field 'prefetcher': unknown "
                             f"prefetcher {prefetcher!r}")
        if suf and not secure:
            raise ValueError(
                f"config field 'suf': SUF requires a secure mode, "
                f"got mode={mode!r}")
        if not isinstance(mitigation, str) \
                or mitigation not in CONFIG_MITIGATIONS:
            raise ValueError(
                f"config field 'mitigation': unknown mechanism "
                f"{mitigation!r}; known: {list(CONFIG_MITIGATIONS)}")
        if mitigation == "delay" and secure:
            raise ValueError(
                f"config field 'mitigation': delay-on-miss excludes the "
                f"secure modes, got mode={mode!r}")
        try:
            return cls(prefetcher=name, secure=secure, suf=suf,
                       mode=train_mode, classify=classify,
                       sample_interval=sample_interval,
                       mitigation=mitigation)
        except ValueError as exc:
            raise ValueError(f"config spec invalid: {exc}") from None


#: The non-secure, no-prefetch system every speedup is normalized to.
BASELINE = Config()


class ExperimentRunner:
    """Builds traces, runs configurations, memoizes results.

    Execution routes through :mod:`repro.exec`:

    ``jobs``
        Worker-process count.  ``jobs=1`` (the default) is the classic
        serial in-process path; ``jobs>1`` fans each batch across a
        crash-isolated process pool with per-job timeouts and retries.
    ``store``
        ``None``, a directory path, or a :class:`ResultStore`: a
        persistent content-addressed cache keyed by ``(config, trace,
        scale, params)``.  An unusable store directory degrades
        gracefully to store-less execution with a warning.
    ``failsoft``
        When ``True``, a permanently failed job yields a NaN sentinel
        result (figures render the cell as ``n/a``) and is recorded in
        :attr:`failures`; when ``False`` it raises :class:`ExperimentError`.
    """

    def __init__(self, scale: Optional[Scale] = None,
                 params: Optional[SystemParams] = None, *,
                 jobs: int = 1,
                 store: Union[None, str, "os.PathLike", ResultStore] = None,
                 timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_s: float = 0.5,
                 failsoft: bool = False,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.scale = scale if scale is not None else current_scale()
        self.params = params if params is not None else baseline()
        self.jobs = max(1, int(jobs))
        self.failsoft = failsoft
        self.fault_plan = fault_plan if fault_plan is not None \
            else FaultPlan.from_env()
        self.store = self._open_store(store)
        #: Wall-clock phase accounting (trace generation, execution, and
        #: per-job build/simulate times reported back by the workers).
        self.profiler = PhaseProfiler()
        #: Permanently failed cells (populated in failsoft mode).
        self.failures: List[JobFailure] = []
        #: Per-job simulation throughputs (instr/s) reported by workers;
        #: :meth:`throughput` folds them into one harmonic mean.
        self.job_throughputs: List[float] = []
        self._executor = JobExecutor(
            jobs=self.jobs, timeout_s=timeout_s, max_retries=max_retries,
            backoff_s=backoff_s, store=self.store,
            fault_plan=self.fault_plan)
        self._pool: Optional[List[Trace]] = None
        self._results: Dict[Tuple[Config, str], SimResult] = {}
        self._mix_results: Dict[Tuple[Config, Tuple[str, ...], int],
                                Optional[MulticoreResult]] = {}

    def _open_store(self, store) -> Optional[ResultStore]:
        if store is None or isinstance(store, ResultStore):
            return store
        try:
            return ResultStore(store, fault_plan=self.fault_plan)
        except StoreError as exc:
            print(f"repro: {exc}; continuing without a result store",
                  file=sys.stderr)
            return None

    # ------------------------------------------------------------------
    # workloads
    # ------------------------------------------------------------------

    def pool(self) -> List[Trace]:
        """The combined SPEC-like + GAP-like single-core pool.

        Traces come from the prebuilt cache: memoized in-process, and
        persisted under ``<store>/traces`` when the runner has a result
        store, so a resumed sweep skips trace synthesis entirely.
        """
        if self._pool is None:
            cache_dir = self.store.root / "traces" if self.store else None
            with self.profiler.phase("traces"):
                self._pool = cached_workload_pool(
                    self.scale.n_loads, spec_count=self.scale.spec_count,
                    gap_count=self.scale.gap_count, cache_dir=cache_dir)
        return self._pool

    def spec_pool(self) -> List[Trace]:
        return [t for t in self.pool() if t.suite == "spec"]

    def gap_pool(self) -> List[Trace]:
        return [t for t in self.pool() if t.suite == "gap"]

    def trace(self, name: str) -> Trace:
        for candidate in self.pool():
            if candidate.name == name:
                return candidate
        raise KeyError(f"trace {name!r} not in the pool at scale "
                       f"{self.scale.name!r}")

    def mixes(self, cores: int = 4) -> List[List[Trace]]:
        return generate_mixes(self.pool(), self.scale.mixes, cores=cores)

    # ------------------------------------------------------------------
    # prefetcher construction
    # ------------------------------------------------------------------

    def build_prefetcher(self, name: str) -> Optional[Prefetcher]:
        """Instantiate any prefetcher spec (baseline, ts-*, tsb)."""
        if name in (None, "none"):
            return None
        if name == "tsb":
            return TSBPrefetcher()
        if name.startswith("ts-"):
            inner = make_prefetcher(name[3:])
            interval = self.scale.ts_interval_l1 if inner.train_level == 0 \
                else self.scale.ts_interval_l2
            return make_timely(inner, interval_misses=interval)
        return make_prefetcher(name)

    def _mitigation_knobs(self, config: Config) -> Tuple:
        """Resolve ``config.mitigation`` into constructor-level knobs.

        Returns ``(params, delay, wrap)`` where ``wrap`` transforms the
        prefetcher instance (the PREFENDER shim).  The security module is
        imported lazily: configs without a mitigation -- every
        pre-existing sweep -- never touch it.
        """
        if config.mitigation == "none":
            return self.params, False, None
        if config.mitigation == "delay":
            return self.params, True, None
        if config.mitigation == "rand-llc":
            from ..security.mitigations import randomized_llc_params
            return randomized_llc_params(self.params), False, None
        from ..security.prefender import AccessObfuscationShim
        return self.params, False, AccessObfuscationShim

    def build_system(self, config: Config) -> System:
        prefetcher = self.build_prefetcher(config.prefetcher)
        params, delay, wrap = self._mitigation_knobs(config)
        if wrap is not None and prefetcher is not None:
            prefetcher = wrap(prefetcher)
        shadow = None
        if config.classify and prefetcher is not None:
            shadow_name = config.prefetcher
            if shadow_name.startswith("ts-"):
                shadow_name = shadow_name[3:]
            elif shadow_name == "tsb":
                shadow_name = "berti"
            shadow = make_prefetcher(shadow_name)
        obs = ObsConfig(sample_interval=config.sample_interval) \
            if config.sample_interval else None
        return System(params=params, secure=config.secure,
                      suf=config.suf, delay_mitigation=delay,
                      prefetcher=prefetcher,
                      train_mode=config.mode, shadow=shadow,
                      classify=config.classify, obs=obs,
                      label=config.label())

    def build_core_system(self, config: Config, **kw) -> System:
        """Build one *core* of a multicore system for ``config``.

        ``kw`` carries the shared LLC/DRAM (and params) from
        :class:`~repro.sim.multicore.MulticoreSystem`; the config's
        per-core mitigation knobs (delay-on-miss, the PREFENDER shim) are
        applied here, and the shared LLC carries its own.
        """
        prefetcher = self.build_prefetcher(config.prefetcher)
        _, delay, wrap = self._mitigation_knobs(config)
        if wrap is not None and prefetcher is not None:
            prefetcher = wrap(prefetcher)
        return System(secure=config.secure, suf=config.suf,
                      delay_mitigation=delay, prefetcher=prefetcher,
                      train_mode=config.mode, **kw)

    def build_multicore_system(self, config: Config,
                               cores: int) -> MulticoreSystem:
        """Build a ``cores``-core system for ``config``.

        The shared LLC and DRAM take the config's mitigation params, as
        :meth:`build_system`'s private ones do (``rand-llc`` keys the
        LLC's set index and switches it to random replacement); each core
        comes from :meth:`build_core_system`.
        """
        params = self._mitigation_knobs(config)[0]

        def factory(**kw):
            return self.build_core_system(config, **kw)

        return MulticoreSystem(cores=cores, params=params,
                               system_factory=factory)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _job(self, config: Config, trace: Trace) -> Job:
        return Job(key=job_key(config, trace, self.scale, self.params),
                   config=config, trace=trace, scale=self.scale,
                   params=self.params)

    def _finish(self, outcome) -> SimResult:
        """Turn a job outcome into a result, honouring ``failsoft``."""
        if outcome.ok:
            if not outcome.from_store:
                # Fold the worker-measured phase times into this runner's
                # profiler (store hits did no fresh work).
                extras = outcome.result.extras
                for phase in ("build", "simulate"):
                    seconds = extras.get(f"wall_{phase}_s")
                    if seconds is not None:
                        self.profiler.add(phase, seconds)
                instr_per_s = extras.get("instr_per_s")
                if instr_per_s:
                    self.job_throughputs.append(instr_per_s)
            return outcome.result
        failure = JobFailure(outcome.job.config.label(),
                             outcome.job.trace.name, outcome.error)
        self.failures.append(failure)
        if not self.failsoft:
            raise ExperimentError(
                f"{failure.config_label} on {failure.trace_name} failed "
                f"after {outcome.attempts} attempt(s): {outcome.error}")
        return failed_result(outcome.job.config, outcome.job.trace.name,
                             outcome.error)

    def throughput(self) -> float:
        """Harmonic-mean simulation throughput (instr/s) over fresh jobs.

        The harmonic mean weights every job by its wall time, so one slow
        secure-config cell is not drowned out by many fast baseline cells.
        Returns 0.0 when nothing ran fresh (e.g. a fully store-hit sweep).
        """
        rates = self.job_throughputs
        if not rates:
            return 0.0
        return len(rates) / sum(1.0 / r for r in rates)

    def run(self, config: Config, trace: Trace) -> SimResult:
        """Run (or recall) one configuration on one trace."""
        key = (config, trace.name)
        result = self._results.get(key)
        if result is None:
            with self.profiler.phase("execute"):
                outcome = self._executor.run_jobs(
                    [self._job(config, trace)])[0]
            result = self._finish(outcome)
            self._results[key] = result
        return result

    def run_pool(self, config: Config,
                 traces: Optional[List[Trace]] = None) -> List[SimResult]:
        """Run one configuration over many traces.

        Uncached ``(config, trace)`` pairs are submitted as one batch, so
        with ``jobs>1`` they execute in parallel across the pool.
        """
        if traces is None:
            traces = self.pool()
        missing = [t for t in traces
                   if (config, t.name) not in self._results]
        if missing:
            jobs = [self._job(config, t) for t in missing]
            with self.profiler.phase("execute"):
                outcomes = self._executor.run_jobs(jobs)
            for outcome in outcomes:
                self._results[(config, outcome.job.trace.name)] = \
                    self._finish(outcome)
        return [self._results[(config, t.name)] for t in traces]

    def run_cells(self, cells) -> None:
        """Pre-execute many ``(config, trace)`` cells as *one* batch.

        Unlike :meth:`run_pool` (one configuration at a time), this
        submits every uncached cell -- across configurations -- in a
        single batch, so ``jobs>1`` keeps all workers busy even when the
        per-configuration pools are small.  The campaign engine uses it
        to execute a compiled plan up front; the per-cell results land in
        the same memo that :meth:`run` and :meth:`run_pool` read.
        """
        todo: Dict[Tuple[Config, str], Job] = {}
        for config, trace in cells:
            key = (config, trace.name)
            if key not in self._results and key not in todo:
                todo[key] = self._job(config, trace)
        if todo:
            with self.profiler.phase("execute"):
                outcomes = self._executor.run_jobs(list(todo.values()))
            for key, outcome in zip(todo, outcomes):
                self._results[key] = self._finish(outcome)

    # ------------------------------------------------------------------
    # multicore mixes
    # ------------------------------------------------------------------

    def _mix_job(self, config: Config, mix: List[Trace],
                 cores: int) -> MixJob:
        traces = tuple(mix)
        return MixJob(key=mix_job_key(config, traces, cores, self.scale,
                                      self.params),
                      config=config, traces=traces, cores=cores,
                      scale=self.scale, params=self.params)

    def _finish_mix(self, outcome) -> Optional[MulticoreResult]:
        """Mix-job counterpart of :meth:`_finish`.

        A permanently failed mix becomes ``None`` (callers skip the mix)
        in failsoft mode instead of a NaN ``SimResult``, since a
        :class:`MulticoreResult` has no NaN sentinel shape.
        """
        if outcome.ok:
            if not outcome.from_store:
                extras = outcome.result.extras
                for phase in ("build", "simulate"):
                    seconds = extras.get(f"wall_{phase}_s")
                    if seconds is not None:
                        self.profiler.add(phase, seconds)
                instr_per_s = extras.get("instr_per_s")
                if instr_per_s:
                    self.job_throughputs.append(instr_per_s)
            return outcome.result
        mix_label = "+".join(t.name for t in outcome.job.traces)
        failure = JobFailure(outcome.job.config.label(), mix_label,
                             outcome.error)
        self.failures.append(failure)
        if not self.failsoft:
            raise ExperimentError(
                f"{failure.config_label} on mix {mix_label} failed after "
                f"{outcome.attempts} attempt(s): {outcome.error}")
        return None

    def run_mixes(self, config: Config,
                  mixes: Optional[List[List[Trace]]] = None,
                  cores: int = 4) -> List[Optional[MulticoreResult]]:
        """Run one configuration over many multicore mixes.

        Each mix is an independent shardable job: uncached mixes are
        submitted as one batch through the execution layer, so with
        ``jobs>1`` they run in parallel and with a result store an
        interrupted sweep resumes from the completed mixes.  Returns
        results aligned to the input mixes; a permanently failed mix is
        ``None`` when the runner is failsoft.
        """
        if mixes is None:
            mixes = self.mixes(cores=cores)
        todo: Dict[Tuple[Config, Tuple[str, ...], int], MixJob] = {}
        for mix in mixes:
            key = (config, tuple(t.name for t in mix), cores)
            if key not in self._mix_results and key not in todo:
                todo[key] = self._mix_job(config, mix, cores)
        if todo:
            with self.profiler.phase("execute"):
                outcomes = self._executor.run_jobs(list(todo.values()))
            for key, outcome in zip(todo, outcomes):
                self._mix_results[key] = self._finish_mix(outcome)
        return [self._mix_results[(config, tuple(t.name for t in mix),
                                   cores)]
                for mix in mixes]

    def run_mix(self, config: Config, mix: List[Trace],
                cores: int = 4) -> Optional[MulticoreResult]:
        """Run (or recall) one configuration on one multicore mix."""
        return self.run_mixes(config, [mix], cores=cores)[0]

    def cached_runs(self) -> int:
        return len(self._results)

    # ------------------------------------------------------------------
    # execution-layer introspection
    # ------------------------------------------------------------------

    def execution_stats(self) -> Dict[str, int]:
        """Executor + store counters (simulated, hits, quarantined...)."""
        return self._executor.stats()

    def profile_summary(self) -> str:
        """One-line wall-clock accounting (``profile: execute=...``)."""
        return self.profiler.summary_line()

    def failure_summary(self,
                        failures: Optional[List[JobFailure]] = None
                        ) -> str:
        """Human-readable list of permanently failed cells ('' if none)."""
        if failures is None:
            failures = self.failures
        if not failures:
            return ""
        lines = [f"{len(failures)} failed run(s) rendered as n/a:"]
        for failure in failures:
            reason = failure.error.strip().splitlines()[-1] \
                if failure.error.strip() else "unknown error"
            lines.append(f"  - {failure.config_label} on "
                         f"{failure.trace_name}: {reason}")
        return "\n".join(lines)
