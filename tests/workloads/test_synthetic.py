"""Synthetic trace generator behaviour and invariants."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.store import trace_fingerprint
from repro.workloads.synthetic import (TraceBuilder, hot_cold_trace,
                                       interleave, pointer_chase_trace,
                                       region_trace, stream_trace)
from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_STORE, FLAG_WRONG_PATH, Trace)


def loads_of(trace):
    return [(ip, vaddr) for ip, vaddr, flags in trace.records
            if flags & FLAG_LOAD and not flags & FLAG_WRONG_PATH]


class TestTraceBuilder:
    def test_emits_fillers_and_branches(self):
        builder = TraceBuilder("t", filler=2, branch_every=4,
                               mispredict_rate=0.0)
        for i in range(20):
            builder.add_load(0x400, i * 64)
        trace = builder.build()
        kinds = [flags for _, _, flags in trace.records]
        assert sum(1 for f in kinds if f & FLAG_LOAD) == 20
        assert sum(1 for f in kinds if f & FLAG_BRANCH) > 0
        assert sum(1 for f in kinds if f == 0) >= 40  # fillers

    def test_mispredicts_inject_wrong_path(self):
        builder = TraceBuilder("t", mispredict_rate=1.0,
                               wrong_path_loads=3, branch_every=2)
        for i in range(10):
            builder.add_load(0x400, i * 64)
        trace = builder.build()
        wrong = [r for r in trace.records if r[2] & FLAG_WRONG_PATH]
        mispredicts = [r for r in trace.records
                       if r[2] & FLAG_MISPREDICT]
        assert len(mispredicts) > 0
        assert len(wrong) == 3 * len(mispredicts)
        assert all(r[2] & FLAG_LOAD for r in wrong)

    def test_new_ip_unique(self):
        builder = TraceBuilder("t")
        ips = {builder.new_ip() for _ in range(100)}
        assert len(ips) == 100

    def test_deterministic_for_seed(self):
        def build(seed):
            b = TraceBuilder("t", seed=seed, mispredict_rate=0.2)
            for i in range(50):
                b.add_load(0x400, i * 64)
            return b.build().records
        assert build(7) == build(7)
        assert build(7) != build(8)

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.tuples(
               st.sampled_from(["load", "store", "filler"]),
               st.integers(min_value=0, max_value=2**40),
               st.integers(min_value=0, max_value=3)), max_size=60),
           branch_every=st.integers(min_value=1, max_value=6),
           mispredict_rate=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(min_value=0, max_value=1000))
    def test_build_holds_the_appended_records(self, ops, branch_every,
                                              mispredict_rate, seed):
        builder = TraceBuilder("t", suite="spec", seed=seed,
                               branch_every=branch_every,
                               mispredict_rate=mispredict_rate)
        for op, addr, count in ops:
            if op == "load":
                builder.add_load(0x400, addr)
            elif op == "store":
                builder.add_store(0x404, addr)
            else:
                builder.add_filler(count)
        appended = list(builder.records)
        trace = builder.build()
        assert trace.records == appended
        twin = Trace("t", appended, suite="spec")
        assert trace.committed_count == twin.committed_count
        assert trace_fingerprint(trace) == trace_fingerprint(twin)

    def test_address_beyond_int64_is_refused(self):
        # int64 cannot hold 2**63: build() names the field and the
        # record (the load's index among the appended records).
        builder = TraceBuilder("wide", suite="spec", seed=3,
                               branch_every=3, mispredict_rate=0.5,
                               wrong_path_loads=2)
        builder.add_store(0x404, 64)
        builder.add_load(0x400, 2**63)
        index = builder.records.index((0x400, 2**63, FLAG_LOAD))
        assert index > 0
        with pytest.raises(ValueError, match=(
                rf"^trace 'wide': record {index}: vaddr {2**63} "
                r"does not fit in int64$")):
            builder.build()


class TestStreamTrace:
    def test_load_count(self):
        trace = stream_trace("s", 500, streams=2)
        assert len(loads_of(trace)) == 500

    def test_intra_block_locality(self):
        trace = stream_trace("s", 400, streams=1, elems_per_block=8,
                            store_every=0, mispredict_rate=0.0)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        # 8 consecutive accesses share a block.
        assert blocks[0] == blocks[7]
        assert blocks[8] == blocks[0] + 1

    def test_stride_blocks(self):
        trace = stream_trace("s", 64, streams=1, elems_per_block=1,
                            stride_blocks=4, store_every=0,
                            mispredict_rate=0.0)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        deltas = {b2 - b1 for b1, b2 in zip(blocks, blocks[1:])}
        assert deltas == {4}

    def test_streams_use_disjoint_regions(self):
        trace = stream_trace("s", 200, streams=4, mispredict_rate=0.0)
        regions = {vaddr >> 30 for _, vaddr in loads_of(trace)}
        assert len(regions) == 4

    def test_stores_emitted(self):
        trace = stream_trace("s", 100, store_every=4)
        stores = [r for r in trace.records if r[2] & FLAG_STORE]
        assert len(stores) == 25


class TestPointerChaseTrace:
    def test_load_count(self):
        trace = pointer_chase_trace("p", 600)
        assert len(loads_of(trace)) == 600

    def test_hot_fraction_creates_reuse(self):
        trace = pointer_chase_trace("p", 2000, hot_fraction=0.9,
                                    hot_kb=8, seed=5)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        # A 8KB hot set is 128 blocks; with 90% hot loads the distinct
        # block count must be far below the load count.
        assert len(set(blocks)) < len(blocks) // 4

    def test_scan_runs_are_sequential(self):
        trace = pointer_chase_trace("p", 500, hot_fraction=0.0,
                                    scan_fraction=1.0, scan_run=8,
                                    chains=1, seed=2)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        sequential = sum(1 for b1, b2 in zip(blocks, blocks[1:])
                         if b2 - b1 == 1)
        assert sequential > len(blocks) // 2

    def test_zero_hot_zero_scan_is_random(self):
        trace = pointer_chase_trace("p", 500, hot_fraction=0.0,
                                    scan_fraction=0.0, locality=0.0)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        assert len(set(blocks)) > len(blocks) * 0.9


class TestRegionTrace:
    def test_load_count(self):
        trace = region_trace("r", 400)
        assert len(loads_of(trace)) == 400

    def test_footprints_recur(self):
        trace = region_trace("r", 2000, footprints=2, pool_regions=16,
                             churn=0.0, seed=3)
        # With zero churn the same 16 regions repeat: the distinct block
        # count is bounded by pool size x footprint size.
        blocks = {vaddr // 64 for _, vaddr in loads_of(trace)}
        assert len(blocks) <= 16 * 16

    def test_churn_introduces_new_regions(self):
        low = region_trace("r", 2000, pool_regions=16, churn=0.0, seed=3)
        high = region_trace("r", 2000, pool_regions=16, churn=0.5, seed=3)
        blocks_low = {v // 64 for _, v in loads_of(low)}
        blocks_high = {v // 64 for _, v in loads_of(high)}
        assert len(blocks_high) > len(blocks_low)


class TestHotColdTrace:
    def test_mostly_hot(self):
        trace = hot_cold_trace("h", 1000, cold_ratio=0.05, seed=4)
        blocks = [vaddr // 64 for _, vaddr in loads_of(trace)]
        hot_region = [b for b in blocks if b < (2 << 24)]
        assert len(hot_region) > 800


class TestInterleave:
    def test_preserves_all_records(self):
        a = stream_trace("a", 100, mispredict_rate=0.0)
        b = region_trace("b", 100, mispredict_rate=0.0)
        merged = interleave([a, b], "ab")
        assert len(merged.records) == len(a.records) + len(b.records)

    def test_round_robin_chunks(self):
        a = stream_trace("a", 100, mispredict_rate=0.0)
        b = region_trace("b", 100, mispredict_rate=0.0)
        merged = interleave([a, b], "ab", chunk=10)
        assert merged.records[:10] == a.records[:10]
        assert merged.records[10:20] == b.records[:10]


@settings(max_examples=20, deadline=None)
@given(n_loads=st.integers(min_value=1, max_value=300),
       streams=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=1000))
def test_stream_trace_properties(n_loads, streams, seed):
    """Generators always deliver the requested committed loads with
    64-bit-safe, non-negative addresses."""
    trace = stream_trace("s", n_loads, streams=streams, seed=seed)
    loads = loads_of(trace)
    assert len(loads) == n_loads
    assert all(vaddr >= 0 for _, vaddr in loads)
    assert trace.committed_count == sum(
        1 for r in trace.records if not r[2] & FLAG_WRONG_PATH)


class TestBulkStreamTrace:
    """The bulk columnar stream generator must be record-for-record
    identical to the record-by-record TraceBuilder reference path."""

    @given(
        n_loads=st.integers(min_value=0, max_value=600),
        streams=st.integers(min_value=1, max_value=8),
        stride_blocks=st.integers(min_value=1, max_value=8),
        elems_per_block=st.integers(min_value=1, max_value=8),
        footprint_mb=st.integers(min_value=1, max_value=4),
        store_every=st.integers(min_value=0, max_value=5),
        filler=st.integers(min_value=0, max_value=4),
        branch_every=st.integers(min_value=2, max_value=12),
        mispredict_rate=st.sampled_from([0.0, 0.01, 0.3]),
        wrong_path_loads=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=1, max_value=2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, n_loads, streams, stride_blocks,
                               elems_per_block, footprint_mb, store_every,
                               filler, branch_every, mispredict_rate,
                               wrong_path_loads, seed):
        kwargs = dict(
            streams=streams, stride_blocks=stride_blocks,
            elems_per_block=elems_per_block, footprint_mb=footprint_mb,
            store_every=store_every, seed=seed, filler=filler,
            branch_every=branch_every, mispredict_rate=mispredict_rate,
            wrong_path_loads=wrong_path_loads)
        ref = stream_trace("t", n_loads, bulk=False, **kwargs)
        new = stream_trace("t", n_loads, bulk=True, **kwargs)
        assert new.records == ref.records
        assert new.committed_count == ref.committed_count
        assert len(new) == len(ref)

    def test_stdlib_path_matches_reference(self, monkeypatch):
        import repro.workloads.synthetic as synthetic
        monkeypatch.setattr(synthetic, "_np", None)
        kwargs = dict(streams=4, stride_blocks=1, elems_per_block=8,
                      footprint_mb=24, store_every=4, seed=4,
                      mispredict_rate=0.05)
        ref = stream_trace("t", 3000, bulk=False, **kwargs)
        new = stream_trace("t", 3000, bulk=True, **kwargs)
        assert new.records == ref.records

    def test_spec_stream_workloads_match_reference(self):
        # The pinned stream-family SPEC workloads go through the bulk path
        # in production; pin their byte-identity at a realistic size.
        for kwargs in (
                dict(streams=6, stride_blocks=2, elems_per_block=4,
                     footprint_mb=24, seed=3),
                dict(streams=4, stride_blocks=1, elems_per_block=8,
                     footprint_mb=24, store_every=4, seed=4),
                dict(streams=3, stride_blocks=8, elems_per_block=2,
                     footprint_mb=32, seed=6, filler=4)):
            ref = stream_trace("t", 4000, bulk=False, **kwargs)
            new = stream_trace("t", 4000, bulk=True, **kwargs)
            assert new.records == ref.records

    def test_bulk_trace_is_columnar(self):
        trace = stream_trace("t", 500, streams=4)
        ips, vaddrs, flags = trace.columns()
        assert type(ips) is array and ips.typecode == "q"
        assert type(vaddrs) is array and vaddrs.typecode == "q"
        assert type(flags) is bytes
        assert trace.committed_count > 0
        assert all(type(v) is int
                   for v in trace.records[0])  # plain ints, not numpy scalars
