"""Multi-core systems: shared LLC/DRAM, interleaving, weighted speedup."""

from dataclasses import replace

import pytest

from repro.sim.multicore import (DEFAULT_QUANTUM, MulticoreResult,
                                 MulticoreSystem, alone_ipcs, run_mix)
from repro.sim.params import baseline
from repro.sim.system import System
from repro.workloads.synthetic import pointer_chase_trace, stream_trace


@pytest.fixture(scope="module")
def small_mix():
    return [
        stream_trace("mc-a", 1200, streams=2, seed=1),
        pointer_chase_trace("mc-b", 1200, footprint_mb=4, seed=2),
    ]


class TestRunMix:
    def test_per_core_results(self, small_mix):
        result = run_mix(small_mix, cores=2)
        assert isinstance(result, MulticoreResult)
        assert len(result.per_core) == 2
        assert result.per_core[0].trace_name == "mc-a"
        assert all(r.ipc > 0 for r in result.per_core)

    def test_mix_size_checked(self, small_mix):
        with pytest.raises(ValueError, match="mix has"):
            run_mix(small_mix, cores=4)

    def test_sharing_slows_cores(self, small_mix):
        shared = run_mix(small_mix, cores=2)
        alone = alone_ipcs(small_mix)
        for result, solo in zip(shared.per_core, alone):
            assert result.ipc <= solo * 1.05  # contention cannot speed up

    def test_weighted_speedup_range(self, small_mix):
        shared = run_mix(small_mix, cores=2)
        alone = alone_ipcs(small_mix)
        ws = shared.weighted_speedup(alone)
        assert 0 < ws <= 2.1

    def test_secure_mode_per_core_gm(self, small_mix):
        shared = run_mix(small_mix, cores=2, secure=True)
        assert all(r.gm is not None for r in shared.per_core)

    def test_private_prefetchers(self, small_mix):
        from repro.prefetchers import make_prefetcher
        shared = run_mix(small_mix, cores=2,
                         prefetcher_factory=lambda:
                         make_prefetcher("ip-stride"))
        assert all(r.prefetcher_name == "ip-stride"
                   for r in shared.per_core)


class TestSharedResources:
    def test_llc_and_dram_shared(self, small_mix):
        mc = MulticoreSystem(cores=2)
        assert mc.systems[0].hierarchy.llc is mc.systems[1].hierarchy.llc
        assert mc.systems[0].hierarchy.dram is mc.systems[1].hierarchy.dram

    def test_llc_capacity_aggregated(self):
        mc = MulticoreSystem(cores=4)
        assert mc.llc.params.size_kb == 4 * 2048

    def test_llc_scales_bank_resources_only(self):
        bank = baseline().llc
        shared = MulticoreSystem(cores=4).llc.params
        assert (shared.size_kb, shared.mshrs, shared.ports,
                shared.pq_entries) == (4 * bank.size_kb, 4 * bank.mshrs,
                                       4 * bank.ports, 4 * bank.pq_entries)
        assert (shared.ways, shared.latency, shared.line_size,
                shared.replacement) == (bank.ways, bank.latency,
                                        bank.line_size, "lru")

    @pytest.mark.parametrize("policy", ["random", "srrip"])
    def test_llc_keeps_replacement_policy(self, policy):
        params = baseline()
        params = replace(params, llc=replace(params.llc, replacement=policy))
        mc = MulticoreSystem(cores=2, params=params)
        assert mc.llc.params.replacement == policy
        assert mc.llc._policy == policy

    def test_private_l1_l2(self):
        mc = MulticoreSystem(cores=2)
        assert mc.systems[0].hierarchy.l1d is not \
            mc.systems[1].hierarchy.l1d
        assert mc.systems[0].hierarchy.l2 is not mc.systems[1].hierarchy.l2


class TestAloneIpcs:
    def test_matches_single_core_runs(self, small_mix):
        alone = alone_ipcs(small_mix)
        direct = [System().run(t).ipc for t in small_mix]
        assert alone == direct

    def test_cache_reuse(self, small_mix):
        cache = {}
        first = alone_ipcs(small_mix, cache=cache)
        assert len(cache) == 2
        second = alone_ipcs(small_mix, cache=cache)
        assert first == second


class TestInterleaveQuantum:
    """PR10 coarser interleave quantum.

    The quantum bounds unfairness (a selected core runs at most
    ``quantum`` committed instructions before re-arbitration) and the
    arbiter's strict-minimum scan keeps the schedule a pure function of
    the mix -- so runs must be deterministic at any quantum, and the
    quantum itself must stay a scheduling knob, not a results knob.
    """

    def test_default_quantum(self):
        assert MulticoreSystem(cores=2).quantum == DEFAULT_QUANTUM

    def test_quantum_validated(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="quantum"):
                MulticoreSystem(cores=2, quantum=bad)

    def test_run_mix_quantum_validated(self, small_mix):
        with pytest.raises(ValueError, match="quantum"):
            run_mix(small_mix, cores=2, quantum=0)

    def test_deterministic_at_default_quantum(self, small_mix):
        r1 = run_mix(small_mix, cores=2)
        r2 = run_mix(small_mix, cores=2)
        for a, b in zip(r1.per_core, r2.per_core):
            assert a.ipc == b.ipc
            assert a.committed == b.committed
            assert a.l1d.accesses == b.l1d.accesses

    def test_quantum_is_a_scheduling_knob_not_a_results_knob(self, small_mix):
        # Coarsening the quantum reshuffles shared-resource arrival
        # order (reviewed drift, pinned figure-level by repro figcheck);
        # it must not change what work runs or move IPC materially.
        fine = run_mix(small_mix, cores=2, quantum=8)
        coarse = run_mix(small_mix, cores=2, quantum=256)
        for a, b in zip(fine.per_core, coarse.per_core):
            assert a.committed == b.committed
            assert abs(a.ipc - b.ipc) <= 0.10 * a.ipc
