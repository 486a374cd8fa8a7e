"""Trace serialization round-trips."""

import gzip
import struct

import pytest

from repro.workloads.io import (TraceFormatError, load_trace, save_trace)
from repro.workloads.spec import spec_trace
from repro.workloads.trace import Trace, load


class TestRoundTrip:
    def test_identical_records(self, tmp_path):
        trace = spec_trace("619.lbm-2676B", n_loads=500)
        path = tmp_path / "lbm.rtrace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.records == trace.records
        assert loaded.name == trace.name
        assert loaded.suite == trace.suite
        assert loaded.committed_count == trace.committed_count

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rtrace"
        save_trace(Trace("empty", []), path)
        assert load_trace(path).records == []

    def test_compression_effective(self, tmp_path):
        trace = spec_trace("654.roms-1007B", n_loads=2000)
        path = tmp_path / "roms.rtrace"
        save_trace(trace, path)
        raw_size = len(trace.records) * 17
        assert path.stat().st_size < raw_size / 2

    def test_simulation_equivalence(self, tmp_path):
        from repro.sim.system import System
        trace = spec_trace("657.xz-2302B", n_loads=1000)
        path = tmp_path / "xz.rtrace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert System().run(trace).ipc == System().run(loaded).ipc


class TestErrorHandling:
    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.rtrace"
        with gzip.open(path, "wb") as handle:
            handle.write(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.rtrace"
        with gzip.open(path, "wb") as handle:
            handle.write(struct.pack("<4sHHQ", b"RPRT", 99, 0, 0))
            handle.write(struct.pack("<H", 1) + b"x")
            handle.write(struct.pack("<H", 1) + b"y")
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    @pytest.mark.parametrize("record", [(1, 2**63, 1), (1, 64, 256)])
    def test_unencodable_trace_refused_before_saving(self, tmp_path, record):
        # The Trace constructor refuses a value the file cannot hold, so
        # save_trace is never reached and no file appears.
        path = tmp_path / "wide.rtrace"
        with pytest.raises(ValueError, match="^trace 'wide': record 1: "):
            save_trace(Trace("wide", [load(1, 64), record]), path)
        assert not path.exists()

    def test_rejects_truncation(self, tmp_path):
        trace = Trace("t", [load(1, 64), load(1, 128)])
        path = tmp_path / "t.rtrace"
        save_trace(trace, path)
        data = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(data[:-5]))
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)


class TestColumnarFormat:
    def test_v2_roundtrips_columnar_trace(self, tmp_path):
        from repro.workloads.synthetic import stream_trace
        trace = stream_trace("603.bwa-2931B", 2000, streams=6,
                             stride_blocks=2, elems_per_block=4,
                             footprint_mb=24, seed=3, suite="spec")
        path = tmp_path / "t.rtrace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.records == trace.records
        assert loaded.committed_count == trace.committed_count
        assert loaded.name == trace.name and loaded.suite == trace.suite

    def test_v1_files_still_load(self, tmp_path):
        import gzip
        import struct
        from repro.workloads.io import _HEADER, _RECORD, MAGIC
        records = [(0x400, 64, 1), (0x404, -1, 0)]
        path = tmp_path / "v1.rtrace"
        with gzip.open(path, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, 1, 0, len(records)))
            for blob in (b"old", b"spec"):
                handle.write(struct.pack("<H", len(blob)))
                handle.write(blob)
            for record in records:
                handle.write(_RECORD.pack(*record))
        loaded = load_trace(path)
        assert loaded.records == records
        assert loaded.name == "old"

    def test_truncated_columns_rejected(self, tmp_path):
        import gzip
        trace = Trace("t", [(1, 64, 1), (2, 128, 1)])
        path = tmp_path / "t.rtrace"
        save_trace(trace, path)
        blob = gzip.open(path, "rb").read()
        clipped = tmp_path / "clipped.rtrace"
        with gzip.open(clipped, "wb") as handle:
            handle.write(blob[:-5])
        with pytest.raises(TraceFormatError):
            load_trace(clipped)
