"""GAP-like graph workload generators."""

import tracemalloc

import pytest

from repro.workloads import gap
from repro.workloads.gap import (GAP_KERNELS, NEIGHBORS_BASE, OFFSETS_BASE,
                                 PROP_BASE, bfs_trace, build_graph,
                                 gap_traces, pagerank_trace, tc_trace)
from repro.workloads.trace import FLAG_LOAD, FLAG_WRONG_PATH

needs_numpy = pytest.mark.skipif(gap._np is None,
                                 reason="the fast graph path needs NumPy")


def committed_loads(trace):
    return [(ip, vaddr) for ip, vaddr, flags in trace.records
            if flags & FLAG_LOAD and not flags & FLAG_WRONG_PATH]


class TestBuildGraph:
    def test_csr_well_formed(self):
        offsets, neighbors = build_graph(vertices=256, degree=8, seed=1)
        assert len(offsets) == 257
        assert offsets[0] == 0
        assert offsets[-1] == len(neighbors)
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert all(0 <= v < 256 for v in neighbors)

    def test_rows_sorted(self):
        offsets, neighbors = build_graph(vertices=128, degree=6, seed=2)
        for v in range(128):
            row = neighbors[offsets[v]:offsets[v + 1]]
            assert row == sorted(row)

    def test_cached(self):
        g1 = build_graph(vertices=64, degree=4, seed=3)
        g2 = build_graph(vertices=64, degree=4, seed=3)
        assert g1 is g2

    def test_seeded(self):
        g1 = build_graph(vertices=64, degree=4, seed=3)
        g2 = build_graph(vertices=64, degree=4, seed=4)
        assert g1 is not g2


class TestNumpyGraphPath:
    """The NumPy builder against the stdlib loop it must reproduce.

    Production size (65,536 vertices, degree 16), at the seeds of the
    default pool's ``bfs`` and ``pr`` graphs.  The NumPy rows are
    decoded and sorted on first read, so every row is read here.
    """

    @staticmethod
    def build_both(monkeypatch, vertices, degree, seed):
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        fast = build_graph(vertices, degree, seed)
        monkeypatch.setattr(gap, "_np", None)
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        slow = build_graph(vertices, degree, seed)
        monkeypatch.undo()
        return fast, slow

    @needs_numpy
    @pytest.mark.parametrize("seed", [43, 45])
    def test_every_row_equal_at_production_size(self, monkeypatch, seed):
        (offsets, fast), (want_offsets, want) = self.build_both(
            monkeypatch, 65536, 16, seed)
        assert isinstance(fast, gap._LazyNeighbors)  # the fast path ran
        assert isinstance(want, list)
        assert list(offsets) == want_offsets
        assert len(fast) == len(want)
        bad = [v for v in range(65536) if fast.row(v) !=
               want[want_offsets[v]:want_offsets[v + 1]]]
        assert not bad, f"{len(bad)} rows differ, first {bad[:5]}"
        assert all(type(value) is int for value in fast.row(0))
        assert all(type(value) is int for value in offsets[:5])

    @needs_numpy
    def test_build_memory_is_bounded(self, monkeypatch):
        # The graph keeps about 2.6 MiB.  The bound leaves room for a
        # second copy of its vertex-id column while the chunks are
        # joined, not for the whole raw stream (17.5 MiB) at once.
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        tracemalloc.start()
        try:
            offsets, neighbors = build_graph(65536, 16, 43)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(neighbors, gap._LazyNeighbors)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @needs_numpy
    def test_reads_match_a_list(self, monkeypatch):
        (offsets, fast), (_, want) = self.build_both(
            monkeypatch, 256, 8, 1)
        assert isinstance(fast, gap._LazyNeighbors)
        assert list(fast) == want
        n = len(want)
        for index in (0, 1, 17, n - 1, -1, -n):
            assert fast[index] == want[index]
        for cut in (slice(3, 40), slice(offsets[5], offsets[6]),
                    slice(offsets[5] + 1, offsets[5] + 2),
                    slice(None, 10, 3), slice(-7, None), slice(9, 9)):
            assert fast[cut] == want[cut], cut
        with pytest.raises(IndexError):
            fast[n]

    @needs_numpy
    @pytest.mark.parametrize("kernel", ["bfs", "pr"])
    def test_traces_identical_without_numpy(self, monkeypatch, kernel):
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        fast = gap.gap_trace(kernel, 2000, seed=42)
        monkeypatch.setattr(gap, "_np", None)
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        slow = gap.gap_trace(kernel, 2000, seed=42)
        assert fast.records == slow.records


class TestKernels:
    def test_all_kernels_build(self):
        for name, builder in GAP_KERNELS.items():
            trace = builder(f"{name}-t", 800, seed=11)
            assert len(committed_loads(trace)) >= 800, name
            assert trace.suite == "gap"

    def test_bfs_touches_all_three_arrays(self):
        trace = bfs_trace("bfs-t", 1500, vertices=4096, seed=12)
        regions = {vaddr >> 30 for _, vaddr in committed_loads(trace)}
        assert OFFSETS_BASE >> 30 in regions
        assert NEIGHBORS_BASE >> 30 in regions
        assert PROP_BASE >> 30 in regions

    def test_pagerank_offsets_sequential(self):
        trace = pagerank_trace("pr-t", 1500, vertices=4096, seed=13)
        offset_addrs = [vaddr for ip, vaddr in committed_loads(trace)
                        if vaddr >> 30 == OFFSETS_BASE >> 30]
        deltas = [b - a for a, b in zip(offset_addrs, offset_addrs[1:])]
        # PageRank sweeps vertices in order: offsets advance by 8 bytes.
        assert deltas.count(8) > len(deltas) * 0.9

    def test_tc_revisits_neighbor_lists(self):
        trace = tc_trace("tc-t", 1500, vertices=512, seed=14)
        neighbor_addrs = [vaddr for _, vaddr in committed_loads(trace)
                          if vaddr >> 30 == NEIGHBORS_BASE >> 30]
        # Triangle counting re-scans rows: addresses repeat.
        assert len(set(neighbor_addrs)) < len(neighbor_addrs)

    def test_gap_traces_pool(self):
        traces = gap_traces(500, vertices=2048, seed=21)
        assert len(traces) == len(GAP_KERNELS)
        names = {t.name.split("-")[0] for t in traces}
        assert names == set(GAP_KERNELS)

    def test_deterministic(self):
        t1 = bfs_trace("b", 600, vertices=1024, seed=5)
        t2 = bfs_trace("b", 600, vertices=1024, seed=5)
        assert t1.records == t2.records
