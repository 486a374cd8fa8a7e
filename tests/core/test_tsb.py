"""TSB: Timely Secure Berti, end to end through the simulator.

The unit-level Fig. 8 mechanism lives in
``tests/prefetchers/test_berti.py`` and the X-LQ fields' widths in
``tests/core/test_xlq.py``; these tests exercise TSB wired into the
secure system via the X-LQ.
"""

import pytest

from repro.core.tsb import TSBPrefetcher
from repro.prefetchers import MODE_ON_COMMIT, make_prefetcher
from repro.sim.system import System
from repro.workloads.synthetic import stream_trace


@pytest.fixture(scope="module")
def stream():
    return stream_trace("tsb-stream", 4000, streams=2, stride_blocks=1,
                        elems_per_block=8, footprint_mb=8, seed=11)


class TestWiring:
    def test_requires_xlq_flag(self):
        assert TSBPrefetcher.requires_xlq
        assert not getattr(make_prefetcher("berti"), "requires_xlq",
                           False)

    def test_system_attaches_xlq(self):
        """TSB trains on each load's X-LQ fields, which travel with the
        load's commit payload: the system keeps no X-LQ of its own."""
        sys_ = System(secure=True, prefetcher=TSBPrefetcher(),
                      train_mode=MODE_ON_COMMIT)
        assert sys_.use_xlq
        assert not hasattr(sys_, "xlq")

    def test_plain_berti_has_no_xlq(self):
        sys_ = System(secure=True, prefetcher=make_prefetcher("berti"),
                      train_mode=MODE_ON_COMMIT)
        assert not sys_.use_xlq

    def test_storage_includes_xlq(self):
        tsb = TSBPrefetcher()
        berti = make_prefetcher("berti")
        extra_kb = tsb.storage_kb() - berti.storage_kb()
        assert abs(extra_kb - 0.47) < 0.01


class TestBehaviour:
    def test_tsb_prefetches_where_naive_on_commit_cannot(self, stream):
        """On a fast stream, naive on-commit Berti learns the useless +1
        delta (all its prefetches are duplicate-dropped); TSB issues real,
        useful prefetches."""
        naive = System(secure=True, prefetcher=make_prefetcher("berti"),
                       train_mode=MODE_ON_COMMIT)
        r_naive = naive.run(stream)
        tsb = System(secure=True, prefetcher=TSBPrefetcher(),
                     train_mode=MODE_ON_COMMIT)
        r_tsb = tsb.run(stream)
        issued_naive = (r_naive.l1d.prefetches_issued
                        + r_naive.l2.prefetches_issued)
        issued_tsb = r_tsb.l1d.prefetches_issued \
            + r_tsb.l2.prefetches_issued
        assert issued_tsb > 2 * max(issued_naive, 1)
        assert r_tsb.ipc > r_naive.ipc * 1.05

    def test_tsb_speeds_up_secure_system(self, stream):
        """The headline: TSB recovers performance the naive on-commit
        prefetcher cannot (its prefetches land in time)."""
        base = System(secure=True).run(stream)
        tsb = System(secure=True, prefetcher=TSBPrefetcher(),
                     train_mode=MODE_ON_COMMIT).run(stream)
        assert tsb.ipc > base.ipc * 1.05

    def test_tsb_accuracy_high(self, stream):
        result = System(secure=True, prefetcher=TSBPrefetcher(),
                        train_mode=MODE_ON_COMMIT).run(stream)
        useful = result.l1d.prefetches_useful + result.l2.prefetches_useful
        useless = (result.l1d.prefetches_useless
                   + result.l2.prefetches_useless)
        assert useful / max(useful + useless, 1) > 0.8

    def test_tsb_on_nonsecure_system_works(self, stream):
        """Section VII-A: TSB also applies to non-secure systems."""
        result = System(prefetcher=TSBPrefetcher(),
                        train_mode=MODE_ON_COMMIT).run(stream)
        issued = result.l1d.prefetches_issued + result.l2.prefetches_issued
        assert issued > 0
