"""Trace record and container behaviour."""

import pickle
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.store import trace_fingerprint
from repro.sim.batch import plan_for
from repro.workloads.io import load_trace, save_trace
from repro.workloads.synthetic import TraceBuilder
from repro.workloads.trace import (BLOCK_SIZE, FLAG_BRANCH, FLAG_LOAD,
                                   FLAG_MISPREDICT, FLAG_STORE,
                                   FLAG_WRONG_PATH, Trace, alu, block_of,
                                   branch, load, store)


class TestRecordBuilders:
    def test_load_record(self):
        ip, vaddr, flags = load(0x400, 0x1000)
        assert ip == 0x400
        assert vaddr == 0x1000
        assert flags == FLAG_LOAD

    def test_wrong_path_load(self):
        _, _, flags = load(0x400, 0x1000, wrong_path=True)
        assert flags & FLAG_LOAD
        assert flags & FLAG_WRONG_PATH

    def test_store_record(self):
        _, vaddr, flags = store(0x404, 0x2000)
        assert vaddr == 0x2000
        assert flags == FLAG_STORE

    def test_alu_record_has_no_memory(self):
        _, vaddr, flags = alu(0x408)
        assert vaddr == -1
        assert flags == 0

    def test_branch_records(self):
        _, _, taken = branch(0x40C)
        assert taken == FLAG_BRANCH
        _, _, misp = branch(0x40C, mispredict=True)
        assert misp == FLAG_BRANCH | FLAG_MISPREDICT


class TestBlockOf:
    def test_block_granularity(self):
        assert block_of(0) == 0
        assert block_of(BLOCK_SIZE - 1) == 0
        assert block_of(BLOCK_SIZE) == 1
        assert block_of(BLOCK_SIZE * 10 + 5) == 10


class TestTrace:
    def test_committed_count_excludes_wrong_path(self):
        records = [load(1, 64), load(1, 128, wrong_path=True), alu(2)]
        trace = Trace("t", records)
        assert len(trace) == 3
        assert trace.committed_count == 2

    def test_footprint_blocks_committed_only(self):
        records = [load(1, 0), load(1, 64), load(1, 64),
                   load(1, 4096, wrong_path=True)]
        trace = Trace("t", records)
        assert trace.footprint_blocks() == 2


class TestColumnarTrace:
    def _cols(self):
        ips = array("q", [0x400, 0x404, 0x408, 0x40c])
        vaddrs = array("q", [64, -1, 128, 256])
        flags = bytes([FLAG_LOAD, 0, FLAG_LOAD | FLAG_WRONG_PATH,
                       FLAG_STORE])
        return ips, vaddrs, flags

    def test_from_columns_matches_eager(self):
        ips, vaddrs, flags = self._cols()
        records = list(zip(ips, vaddrs, flags))
        lazy = Trace.from_columns("t", ips, vaddrs, flags, suite="spec")
        eager = Trace("t", records, suite="spec")
        assert len(lazy) == len(eager) == 4
        assert lazy.committed_count == eager.committed_count == 3
        assert lazy.records == eager.records
        assert lazy.suite == "spec"
        assert lazy.footprint_blocks() == eager.footprint_blocks()

    def test_from_columns_rejects_ragged(self):
        ips, vaddrs, flags = self._cols()
        with pytest.raises(ValueError):
            Trace.from_columns("t", ips, vaddrs, flags[:-1])

    def test_len_and_committed_do_not_materialize(self):
        ips, vaddrs, flags = self._cols()
        trace = Trace.from_columns("t", ips, vaddrs, flags)
        assert len(trace) == 4
        assert trace.committed_count == 3
        assert not [v for v in vars(trace).values() if isinstance(v, list)]
        assert list(trace) == list(zip(ips, vaddrs, flags))

    def test_pickle_ships_columns(self):
        ips, vaddrs, flags = self._cols()
        trace = Trace.from_columns("t", ips, vaddrs, flags)
        plan_for(trace)  # cached on the trace; pickling drops it
        state = trace.__getstate__()
        assert "_batch_plan" not in state
        assert state["_cols"] == (ips, vaddrs, flags)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.columns() == trace.columns()
        assert clone.records == trace.records
        assert clone.committed_count == trace.committed_count
        assert clone.name == trace.name and clone.suite == trace.suite

    def test_eager_trace_pickles_unchanged(self):
        trace = Trace("t", [(1, 64, FLAG_LOAD)])
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.records == trace.records


# ----------------------------------------------------------------------
# one representation: typed columns, however the trace is built
# ----------------------------------------------------------------------

FIELDS = (("ip", 2**63, "int64"), ("vaddr", 2**63, "int64"),
          ("flags", 256, "u8"))


@st.composite
def in_range_records(draw):
    """Records whose values fit their columns; about half of the
    draws also fit ``array('i')``."""
    bits = draw(st.sampled_from([31, 63]))
    value = st.integers(min_value=-2**bits, max_value=2**bits - 1)
    return draw(st.lists(st.tuples(value, value, st.integers(0, 255)),
                         max_size=60))


def out_of_range(field):
    """Values the column of ``field`` cannot hold."""
    limit = FIELDS[field][1]
    low = -limit if field < 2 else 0
    return st.one_of(st.integers(min_value=limit),
                     st.integers(max_value=low - 1))


class TestOneRepresentation:
    @settings(max_examples=100, deadline=None)
    @given(records=in_range_records())
    def test_every_constructor_gives_the_same_columns(self, records):
        ips = [r[0] for r in records]
        vaddrs = [r[1] for r in records]
        flags = [r[2] for r in records]
        q_ips, q_vaddrs = array("q", ips), array("q", vaddrs)
        flag_bytes = bytes(flags)
        kept = Trace.from_columns("t", q_ips, q_vaddrs, flag_bytes,
                                  suite="spec")
        assert kept.columns()[0] is q_ips
        assert kept.columns()[1] is q_vaddrs
        assert kept.columns()[2] is flag_bytes
        with_bytearray = Trace.from_columns("t", q_ips, q_vaddrs,
                                            bytearray(flags), suite="spec")
        assert with_bytearray.columns()[0] is q_ips
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rtrace"
            save_trace(kept, path)
            loaded = load_trace(path)
        traces = [Trace("t", records, suite="spec"),
                  Trace.from_columns("t", ips, vaddrs, flags, suite="spec"),
                  kept, with_bytearray, loaded]
        if all(-2**31 <= v < 2**31 for v in ips + vaddrs):
            traces.append(Trace.from_columns(
                "t", array("i", ips), array("i", vaddrs), array("i", flags),
                suite="spec"))
        committed = sum(1 for f in flags if not f & FLAG_WRONG_PATH)
        key = trace_fingerprint(traces[0])
        for trace in traces:
            got_ips, got_vaddrs, got_flags = trace.columns()
            assert type(got_ips) is array and got_ips.typecode == "q"
            assert type(got_vaddrs) is array and got_vaddrs.typecode == "q"
            assert type(got_flags) is bytes
            assert (list(got_ips), list(got_vaddrs), got_flags) == \
                (ips, vaddrs, flag_bytes)
            assert trace.committed_count == committed
            assert trace_fingerprint(trace) == key

    @settings(max_examples=100, deadline=None)
    @given(records=in_range_records().filter(len), data=st.data())
    def test_out_of_range_value_is_refused(self, records, data):
        index = data.draw(st.integers(0, len(records) - 1), label="record")
        field = data.draw(st.integers(0, 2), label="field")
        value = data.draw(out_of_range(field), label="value")
        records = list(records)
        record = list(records[index])
        record[field] = value
        records[index] = tuple(record)
        name, _, kind = FIELDS[field]
        message = (f"trace 't': record {index}: {name} {value} "
                   f"does not fit in {kind}")
        builder = TraceBuilder("t")
        builder.records.extend(records)
        for build in (lambda: Trace("t", records),
                      lambda: Trace.from_columns(
                          "t", *(list(c) for c in zip(*records))),
                      builder.build):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_records_are_built_on_each_access(self):
        trace = Trace("t", [load(1, 64), alu(2)])
        first = trace.records
        assert first == [(1, 64, FLAG_LOAD), (2, -1, 0)]
        assert trace.records is not first
        assert not [v for v in vars(trace).values() if isinstance(v, list)]
