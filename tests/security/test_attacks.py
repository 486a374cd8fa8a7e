"""Security validation: the covert channel and invisibility properties."""

from repro.core import TSBPrefetcher
from repro.prefetchers import (MODE_ON_ACCESS, MODE_ON_COMMIT,
                               make_prefetcher)
from repro.security import (is_cached, probe_latency,
                            run_prefetch_covert_channel,
                            transient_blocks_in_caches)
from repro.sim.system import System
from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_WRONG_PATH, Trace, alu, load)

SECRET = [1, 0, 1, 1, 0, 0, 1, 0]


class TestCovertChannel:
    def test_nonsecure_on_access_leaks(self):
        result = run_prefetch_covert_channel(
            SECRET, secure=False, train_mode=MODE_ON_ACCESS)
        assert result.leaked
        assert result.recovered_bits == SECRET

    def test_secure_cache_alone_does_not_stop_prefetcher_leak(self):
        """GhostMinion without secure prefetching is still vulnerable:
        the on-access prefetcher's fills are architectural (Section I)."""
        result = run_prefetch_covert_channel(
            SECRET, secure=True, train_mode=MODE_ON_ACCESS)
        assert result.leaked

    def test_on_commit_prefetching_closes_channel(self):
        result = run_prefetch_covert_channel(
            SECRET, secure=True, train_mode=MODE_ON_COMMIT)
        assert not result.leaked
        assert all(b is None for b in result.recovered_bits)

    def test_tsb_closes_channel(self):
        """The paper's timely secure prefetcher leaks nothing."""
        result = run_prefetch_covert_channel(
            SECRET, secure=True, train_mode=MODE_ON_COMMIT,
            prefetcher=TSBPrefetcher())
        assert not result.leaked

    def test_on_commit_even_nonsecure_closes_prefetcher_channel(self):
        result = run_prefetch_covert_channel(
            SECRET, secure=False, train_mode=MODE_ON_COMMIT)
        assert not result.leaked

    def test_success_rate_metrics(self):
        result = run_prefetch_covert_channel(
            [1, 0], secure=False, train_mode=MODE_ON_ACCESS)
        assert result.bits_correct == 2
        assert result.success_rate == 1.0


class TestInvisibility:
    """Property: transient execution leaves no trace in the
    non-speculative hierarchy of a secure system."""

    def _run(self, secure, n_wrong=8):
        wrong_base = 1 << 26
        records = [load(1, i * 64) for i in range(8)]
        records.append((2, -1, FLAG_BRANCH | FLAG_MISPREDICT))
        records += [(3, (wrong_base + i) * 64,
                     FLAG_LOAD | FLAG_WRONG_PATH) for i in range(n_wrong)]
        records += [alu(4)] * 200
        system = System(secure=secure)
        system.run(Trace("inv", records), warmup=0.0)
        blocks = [wrong_base + i for i in range(n_wrong)]
        return system, blocks

    def test_transient_blocks_visible_nonsecure(self):
        system, blocks = self._run(secure=False)
        assert transient_blocks_in_caches(system, blocks)

    def test_transient_blocks_invisible_secure(self):
        system, blocks = self._run(secure=True)
        assert transient_blocks_in_caches(system, blocks) == []

    def test_transient_data_flushed_from_gm_on_domain_switch(self):
        system, blocks = self._run(secure=True)
        system.hierarchy.flush_speculative()
        for block in blocks:
            assert system.hierarchy.gm.lookup(block) is None

    def test_committed_loads_do_become_visible(self):
        """Sanity: commitment is what publishes data, and it does."""
        system, _ = self._run(secure=True)
        assert system.hierarchy.l1d.contains(0)


class TestProbePrimitives:
    def test_probe_distinguishes_cached(self):
        system = System()
        result = system.hierarchy.demand_load(5, 0, timestamp=1)
        hot = probe_latency(system, 5, result.completion + 100)
        cold = probe_latency(system, 1 << 20, result.completion + 800)
        assert is_cached(hot)
        assert not is_cached(cold)

    def test_suf_does_not_reopen_the_channel(self):
        """SUF only filters *redundant committed* updates; the covert
        channel stays closed with SUF enabled."""
        result = run_prefetch_covert_channel(
            SECRET, secure=True, suf=True, train_mode=MODE_ON_COMMIT,
            prefetcher=make_prefetcher("ip-stride"))
        assert not result.leaked
