"""A finished system is freed by refcounting alone.

Closures stored on simulator objects (the flat descents and the re-fetch
batch on the hierarchy, the commit drainer and the prefetch issuer on the
system) must not capture the object that stores them: one such cycle
keeps a whole system -- caches, GM, prefetcher tables -- alive until the
cyclic collector runs.  With the collector off, a weakref to a system
that has run must be dead right after its last reference goes, and the
collector must then find nothing to free.
"""

import gc
import weakref

import pytest

from repro.core.tsb import TSBPrefetcher
from repro.exec.pool import Job, MixJob, execute_job
from repro.experiments.runner import SCALES, Config, ExperimentRunner
from repro.obs import ObsConfig
from repro.prefetchers.base import MODE_ON_COMMIT
from repro.sim.params import baseline
from repro.sim.system import System, collector_paused
from repro.workloads.spec import spec_trace

TRACE = spec_trace("605.mcf-1554B", 400, 1)
OTHER = spec_trace("619.lbm-2676B", 400, 1)
SCALE = SCALES["tiny"]

CONFIGS = {
    "nonsecure": Config(),
    "gm-suf-tsb": Config.from_spec("timely-secure", "berti", suf=True),
    "rand-llc": Config.from_spec("nonsecure", "ip-stride",
                                 mitigation="rand-llc"),
    "prefender": Config.from_spec("on-commit-secure", "ipcp",
                                  mitigation="prefender"),
}


def assert_freed_after(run):
    """``run()`` builds and runs something and returns the objects to
    watch; each must die as soon as ``run``'s references are gone."""
    run()  # settles lazy imports and memos outside the measured window
    gc.collect()
    with collector_paused():
        refs = [weakref.ref(obj) for obj in run()]
        alive = [ref() for ref in refs if ref() is not None]
        assert not alive, f"still alive after release: {alive}"
        assert gc.collect() == 0


def system_parts(system):
    hierarchy = system.hierarchy
    return [system, hierarchy, hierarchy.l1d, hierarchy.l2, hierarchy.llc,
            hierarchy.dram]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_core_system(name):
    def run():
        system = ExperimentRunner(scale=SCALE).build_system(CONFIGS[name])
        system.run(TRACE)
        return system_parts(system)

    assert_freed_after(run)


def test_events_attached():
    def run():
        system = System(secure=True, suf=True, prefetcher=TSBPrefetcher(),
                        train_mode=MODE_ON_COMMIT,
                        obs=ObsConfig(trace_events=True))
        system.run(TRACE)
        assert len(system.events)  # the tracing path really ran
        return system_parts(system)

    assert_freed_after(run)


def test_every_core_of_a_multicore_system():
    def run():
        runner = ExperimentRunner(scale=SCALE)
        mc = runner.build_multicore_system(CONFIGS["gm-suf-tsb"], 2)
        mc.run([TRACE, OTHER])
        parts = [mc, mc.llc, mc.dram]
        for system in mc.systems:
            parts += system_parts(system)
        return parts

    assert_freed_after(run)


def test_execute_job(monkeypatch):
    built = []
    build_system = ExperimentRunner.build_system
    build_core_system = ExperimentRunner.build_core_system

    def spy_system(self, config):
        system = build_system(self, config)
        built.append(system)
        return system

    def spy_core_system(self, config, **kw):
        system = build_core_system(self, config, **kw)
        built.append(system)
        return system

    monkeypatch.setattr(ExperimentRunner, "build_system", spy_system)
    monkeypatch.setattr(ExperimentRunner, "build_core_system",
                        spy_core_system)
    config = CONFIGS["gm-suf-tsb"]
    jobs = [Job(key="single", config=config, trace=TRACE, scale=SCALE,
                params=baseline()),
            MixJob(key="mix", config=config, traces=(TRACE, OTHER),
                   cores=2, scale=SCALE, params=baseline())]

    def run():
        built.clear()
        for job in jobs:
            assert execute_job(job).committed > 0
        assert len(built) == 3
        systems = list(built)
        built.clear()
        return systems

    assert_freed_after(run)


def test_collector_paused_restores_state():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner block leaves it paused
        assert gc.isenabled()
        gc.disable()
        with collector_paused():
            pass
        assert not gc.isenabled()  # never enables a collector found off
    finally:
        if was_enabled:
            gc.enable()
