"""Multi-core simulation: private L1D/L2 per core, shared LLC and DRAM.

The paper's 4-core experiments (Section VII-B, Fig. 15) run heterogeneous
mixes with one LLC bank per core and one DRAM channel per four cores.  Here
each core gets its own :class:`~repro.sim.system.System` (private L1D/L2,
private GM in secure mode) in front of a shared LLC and shared DRAM channel.

Cores are interleaved by *current time*: at each arbitration step the core
whose next instruction dispatches earliest executes a **quantum** of
committed instructions, so requests reach the shared levels in
approximately global time order and contention between cores is modelled
the same way as contention within a core.

The quantum is the interleave granularity, with an explicit fairness
bound: a selected core runs at most ``quantum`` committed-path
instructions before control returns to the earliest-core scan, so any
core's clock can lead the globally-earliest core by at most the cycles
one quantum consumes.  Within that lead, shared-LLC/DRAM requests are
charged slightly out of global time order -- exactly the out-of-order
charging the functional port-bucket/cursor timing model is built to
absorb (single-core commit drains already charge this way).  Scheduling
stays fully deterministic for any quantum: the arbitration scan is a
strict-< first-of-ties pass in fixed core order, independent of worker
count or job order.

Weighted speedup follows the paper: ``WS = sum_i IPC_shared_i /
IPC_alone_i``, with the alone-IPC measured on the same configuration but a
private memory system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..workloads.trace import Trace
from .cache import CacheLevel, LEVEL_LLC, MemoryBackend
from .dram import DRAMChannel
from .params import SystemParams, baseline
from .system import SimResult, System, collector_paused

#: Default interleave quantum (committed instructions per scheduling
#: turn).  Coarsened from the original 32 by the PR10 modeled-time pass:
#: at 64 the scheduler scan runs half as often while the fairness lead
#: stays well under a DRAM round trip for the paper's workloads; the
#: figure-level tolerance check (``repro figcheck``) pins the resulting
#: drift to within epsilon of the fine-grained schedule.
DEFAULT_QUANTUM = 64


@dataclass
class MulticoreResult:
    """Results of one multi-core mix run.

    ``extras`` carries executor-side measurements (wall times, instr/s,
    worker peak RSS) when the mix ran as a sharded pool job, mirroring
    ``SimResult.extras``.
    """

    per_core: List[SimResult]
    mix_name: str
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return sum(result.committed for result in self.per_core)

    def ipc(self, core: int) -> float:
        return self.per_core[core].ipc

    def weighted_speedup(self, alone_ipcs: Sequence[float]) -> float:
        """sum_i IPC_shared_i / IPC_alone_i over the mix's cores."""
        total = 0.0
        for result, alone in zip(self.per_core, alone_ipcs):
            if alone > 0:
                total += result.ipc / alone
        return total


class MulticoreSystem:
    """N cores sharing an LLC and a DRAM channel.

    ``system_factory`` builds one per-core :class:`System` given the shared
    LLC and DRAM -- use it to select secure mode, prefetcher, SUF, etc.  A
    fresh factory call is made per core so prefetcher state is private.
    """

    def __init__(self, cores: int = 4,
                 params: Optional[SystemParams] = None,
                 system_factory: Optional[Callable[..., System]] = None,
                 quantum: Optional[int] = None) -> None:
        if params is None:
            params = baseline()
        if quantum is None:
            quantum = DEFAULT_QUANTUM
        elif quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum!r}")
        self.params = params
        self.cores = cores
        self.quantum = quantum

        # One LLC bank per core in the paper; modelled as one shared cache
        # with aggregated capacity and per-bank port/MSHR counts scaled.
        # Every other field (ways, latency, line size, replacement
        # policy, keyed index) is the per-core bank's.
        llc_params = params.llc
        shared_llc_params = replace(
            llc_params, size_kb=llc_params.size_kb * cores,
            mshrs=llc_params.mshrs * cores,
            ports=llc_params.ports * cores,
            pq_entries=llc_params.pq_entries * cores)
        self.dram = DRAMChannel(params.dram)
        self.llc = CacheLevel(shared_llc_params, LEVEL_LLC,
                              MemoryBackend(self.dram))

        if system_factory is None:
            system_factory = System
        self.systems: List[System] = [
            system_factory(params=params, shared_llc=self.llc,
                           shared_dram=self.dram)
            for _ in range(cores)]

    def run(self, mix: Sequence[Trace], warmup: float = 0.2
            ) -> MulticoreResult:
        """Run one trace per core, interleaved in global time order."""
        if len(mix) != self.cores:
            raise ValueError(
                f"mix has {len(mix)} traces for {self.cores} cores")
        runners = [
            _CoreRunner(system, trace, warmup, self.quantum)
            for system, trace in zip(self.systems, mix)]
        active = list(runners)
        # As in System.run: refcounting frees everything the loop
        # allocates, so collector scans would free nothing.
        with collector_paused():
            while active:
                # Advance the core whose next instruction dispatches
                # earliest.  Manual strict-< scan instead of
                # min(key=lambda ...): no closure allocation per step,
                # same first-of-ties pick, and the time read skips the
                # current_time() call frame.
                best = active[0]
                best_time = best.system.core.current_cycle
                for runner in active:
                    t = runner.system.core.current_cycle
                    if t < best_time:
                        best_time = t
                        best = runner
                if not best.step():
                    active.remove(best)
        results = [runner.finish() for runner in runners]
        name = "+".join(trace.name for trace in mix)
        return MulticoreResult(per_core=results, mix_name=name)


class _CoreRunner:
    """Drives one core's :meth:`System.stepper` in interleavable chunks."""

    def __init__(self, system: System, trace: Trace, warmup: float,
                 quantum: int = DEFAULT_QUANTUM) -> None:
        self.system = system
        self.trace = trace
        self.quantum = quantum
        self._gen = system.stepper(trace, warmup, chunk=quantum)
        self._done = False
        self._result: Optional[SimResult] = None

    def current_time(self) -> int:
        return self.system.core.current_cycle

    def step(self) -> bool:
        """Execute a small chunk; False when the trace is exhausted."""
        if self._done:
            return False
        try:
            next(self._gen)
            return True
        except StopIteration:
            self._done = True
            return False

    def finish(self) -> SimResult:
        if self._result is None:
            self._result = self.system.finalize(self.trace)
        return self._result


def run_mix(mix: Sequence[Trace], *, cores: int = 4,
            params: Optional[SystemParams] = None,
            warmup: float = 0.2, quantum: Optional[int] = None,
            **system_kwargs) -> MulticoreResult:
    """Convenience wrapper: run one mix with a uniform per-core config.

    ``system_kwargs`` accepts the same options as :class:`System`
    (``secure``, ``suf``, ``train_mode``, ...).  ``prefetcher_factory``
    (callable) builds a private prefetcher per core.  ``quantum``
    overrides the interleave granularity (see module docstring).
    """
    prefetcher_factory = system_kwargs.pop("prefetcher_factory", None)

    def factory(**kw):
        pf = prefetcher_factory() if prefetcher_factory else None
        return System(prefetcher=pf, **system_kwargs, **kw)

    mc = MulticoreSystem(cores=cores, params=params, system_factory=factory,
                         quantum=quantum)
    return mc.run(mix, warmup=warmup)


def alone_ipcs(mix: Sequence[Trace], *,
               params: Optional[SystemParams] = None,
               warmup: float = 0.2, cache: Optional[Dict] = None,
               **system_kwargs) -> List[float]:
    """Per-trace IPC on a private memory system (for weighted speedup).

    ``cache`` (a dict) memoizes alone runs across mixes keyed by
    (trace name, config label) since mixes repeat traces.
    """
    prefetcher_factory = system_kwargs.pop("prefetcher_factory", None)
    ipcs = []
    for trace in mix:
        key = None
        if cache is not None:
            key = (trace.name, tuple(sorted(system_kwargs.items())))
            if key in cache:
                ipcs.append(cache[key])
                continue
        pf = prefetcher_factory() if prefetcher_factory else None
        system = System(params=params, prefetcher=pf, **system_kwargs)
        ipc = system.run(trace, warmup=warmup).ipc
        if cache is not None:
            cache[key] = ipc
        ipcs.append(ipc)
    return ipcs
