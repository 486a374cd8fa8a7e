"""Result store: atomic records, checksums, quarantine, stable keys."""

import pickle
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.exec.store import (ResultStore, StoreError, job_key,
                              mix_job_key, trace_fingerprint)
from repro.experiments.runner import (BASELINE, SCALES, Config,
                                     ExperimentRunner, Scale)
from repro.sim.batch import prescan
from repro.sim.params import baseline, params_digest
from repro.sim.system import System
from repro.workloads import gap, synthetic
from repro.workloads.gap import gap_trace
from repro.workloads.io import load_trace, save_trace
from repro.workloads.mixes import workload_pool
from repro.workloads.spec import spec_trace
from repro.workloads.trace import Trace, alu, branch, load, store as st

SCALE = Scale("micro", 300, 2, 1, 2)

KEY = "ab" * 32


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(KEY, {"ipc": 1.25, "trace": "x"})
        assert store.get(KEY) == {"ipc": 1.25, "trace": "x"}
        assert store.hits == 1 and store.writes == 1

    def test_miss_counted(self, store):
        assert store.get(KEY) is None
        assert store.misses == 1 and store.hits == 0

    def test_no_temp_files_left(self, store):
        store.put(KEY, [1, 2, 3])
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_overwrite(self, store):
        store.put(KEY, "old")
        store.put(KEY, "new")
        assert store.get(KEY) == "new"


class TestCorruption:
    def _record_path(self, store):
        return next(store.objects.rglob("*.rec"))

    def test_flipped_byte_quarantined(self, store, capsys):
        store.put(KEY, {"v": 7})
        path = self._record_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(KEY) is None
        assert store.quarantined == 1 and store.misses == 1
        assert not path.exists()
        assert list(store.quarantine_dir.iterdir())

    def test_truncated_record_quarantined(self, store):
        store.put(KEY, {"v": 7})
        path = self._record_path(store)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(KEY) is None
        assert store.quarantined == 1

    def test_garbage_record_quarantined(self, store):
        store.put(KEY, {"v": 7})
        self._record_path(store).write_bytes(b"not a record at all")
        assert store.get(KEY) is None
        assert store.quarantined == 1

    def test_key_mismatch_quarantined(self, store):
        other = "cd" * 32
        store.put(KEY, {"v": 7})
        source = self._record_path(store)
        target = store.objects / other[:2] / f"{other}.rec"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.get(other) is None
        assert store.quarantined == 1

    def test_recompute_after_quarantine(self, store):
        store.put(KEY, "good")
        path = self._record_path(store)
        path.write_bytes(b"garbage")
        assert store.get(KEY) is None
        store.put(KEY, "recomputed")
        assert store.get(KEY) == "recomputed"

    def test_quarantine_never_overwrites_an_earlier_copy(self, tmp_path):
        # Two store objects over one root quarantine the same key in
        # turn; each counts its own, and both copies are kept.
        root = tmp_path / "s"
        copies = []
        for value in ("v1", "v2"):
            ResultStore(root).put(KEY, value)
            path = self._record_path(ResultStore(root))
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            copies.append(bytes(blob))
            store = ResultStore(root)
            assert store.get(KEY) is None
            assert store.quarantined == 1
        kept = sorted(store.quarantine_dir.iterdir())
        assert [p.name for p in kept] == [f"{KEY}.rec.1", f"{KEY}.rec.2"]
        assert [p.read_bytes() for p in kept] == copies


class TestRootHandling:
    def test_unusable_root_raises_store_error(self):
        with pytest.raises(StoreError):
            ResultStore("/dev/null/not-a-directory")

    def test_version_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        (root / "format").write_text("999\n")
        with pytest.raises(StoreError, match="format"):
            ResultStore(root)

    def test_reopen_same_version(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put(KEY, 1)
        assert ResultStore(root).get(KEY) == 1


class TestStableKeys:
    def _pool(self):
        return workload_pool(SCALE.n_loads, spec_count=SCALE.spec_count,
                             gap_count=SCALE.gap_count)

    def test_same_inputs_same_key(self):
        params = baseline()
        t1 = self._pool()[0]
        t2 = self._pool()[0]  # regenerated, identical content
        assert trace_fingerprint(t1) == trace_fingerprint(t2)
        assert job_key(BASELINE, t1, SCALE, params) == \
            job_key(BASELINE, t2, SCALE, params)

    def test_key_depends_on_every_input(self):
        params = baseline()
        traces = self._pool()
        base = job_key(BASELINE, traces[0], SCALE, params)
        assert job_key(Config(prefetcher="berti"), traces[0], SCALE,
                       params) != base
        assert job_key(BASELINE, traces[1], SCALE, params) != base
        other_scale = Scale("micro2", 300, 2, 1, 2, warmup=0.5)
        assert job_key(BASELINE, traces[0], other_scale, params) != base
        assert job_key(BASELINE, traces[0], SCALE,
                       params.scaled(2)) != base

    def test_equal_but_differently_typed_inputs_keep_their_keys(self):
        # Scale(warmup=0) == Scale(warmup=0.0), but the two serialize
        # differently and so have always keyed differently; memoizing
        # the canonical parts must not merge them.
        trace = self._pool()[0]
        as_int = Scale("w", 300, 2, 1, 2, warmup=0)
        as_float = Scale("w", 300, 2, 1, 2, warmup=0.0)
        assert as_int == as_float
        params = baseline()
        assert job_key(BASELINE, trace, as_int, params) != \
            job_key(BASELINE, trace, as_float, params)

    def test_params_digest_stable(self):
        assert params_digest(baseline()) == params_digest(baseline())
        assert params_digest(baseline()) != \
            params_digest(baseline().scaled(2))


class TestDurability:
    def test_fsync_defaults_off(self, tmp_path):
        assert ResultStore(tmp_path / "s").fsync is False

    def test_fsync_env_gate(self, tmp_path, monkeypatch):
        from repro.exec.store import FSYNC_ENV
        monkeypatch.setenv(FSYNC_ENV, "1")
        assert ResultStore(tmp_path / "s").fsync is True
        monkeypatch.setenv(FSYNC_ENV, "0")
        assert ResultStore(tmp_path / "s2").fsync is False

    def test_fsync_explicit_overrides_env(self, tmp_path, monkeypatch):
        from repro.exec.store import FSYNC_ENV
        monkeypatch.setenv(FSYNC_ENV, "1")
        assert ResultStore(tmp_path / "s", fsync=False).fsync is False
        monkeypatch.delenv(FSYNC_ENV)
        assert ResultStore(tmp_path / "s2", fsync=True).fsync is True

    def test_fsync_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=True)
        store.put(KEY, {"v": 9})
        assert store.get(KEY) == {"v": 9}


def _pinned_trace(name, n, suite="spec"):
    records = []
    for i in range(n):
        records.append(load(0x400 + i % 3, 0x1000 + 64 * i))
        if i % 4 == 0:
            records.append(st(0x500, 0x8000 + 8 * i))
        if i % 5 == 0:
            records.append(branch(0x600, mispredict=i % 10 == 0))
            records.append(load(0x700, 0x9000 + 64 * i, wrong_path=True))
        records.append(alu(0x800))
    return Trace(name, records, suite=suite)


class TestPinnedKeys:
    """Key values pinned from the store's key derivation.

    Every existing ``.repro-store`` is addressed by these digests: a
    change to key derivation that moves one orphans every stored result,
    so it must show up here.  They moved on purpose twice.  First when
    the keys gained ``MODEL_VERSION`` (at 2, for the keyed rand-llc LLC)
    and ``CacheParams`` gained ``keyed_index``, which moves every params
    digest: records of the older model then miss instead of being
    served.  Then when the trace fingerprint began hashing the
    ``.rtrace`` v2 column bytes instead of decimal text; no simulated
    result moved, so ``MODEL_VERSION`` stayed 2, and a store written
    before re-simulates each job once.  A later ``MODEL_VERSION`` bump
    moves them all again.
    """

    A = _pinned_trace("key-a", 40)
    B = _pinned_trace("key-b", 25, suite="gap")
    CUSTOM = Scale("custom", 1234, 2, 1, 3, 0.1)

    @classmethod
    def inputs(cls):
        """``name -> (key function, arguments)``, built fresh."""
        params = baseline()
        scaled = params.scaled(4)
        tiny, small = SCALES["tiny"], SCALES["small"]
        a, b, custom = cls.A, cls.B, cls.CUSTOM
        return {
            "job_nonsecure": (job_key, (Config(), a, tiny, params)),
            "job_secure_suf_tsb": (job_key, (
                Config.from_spec("timely-secure", "berti", suf=True), a,
                small, params)),
            "job_randllc_scaled": (job_key, (
                Config.from_spec("nonsecure", "ip-stride",
                                 mitigation="rand-llc"), b, custom, scaled)),
            "job_prefender_classify": (job_key, (
                Config.from_spec("on-commit-secure", "ipcp", classify=True,
                                 mitigation="prefender",
                                 sample_interval=500), b, tiny, params)),
            "mix_oc_suf": (mix_job_key, (
                Config.from_spec("on-commit-secure", "berti", suf=True),
                (a, b, a, b), 4, tiny, params)),
            "mix_delay_2core": (mix_job_key, (
                Config.from_spec("nonsecure", "spp", mitigation="delay"),
                (b, a), 2, custom, scaled)),
        }

    @staticmethod
    def keys(inputs):
        return {name: fn(*args) for name, (fn, args) in inputs.items()}

    PINNED = {
        "job_nonsecure":
            "946f348e501873ca53f067040d39bbf6b87ede137f503be6957c5bd901b3ba05",
        "job_secure_suf_tsb":
            "afda449fa2cf78003a32dd61484adc9a9991916e0e88b438ac00578ba64c83b6",
        "job_randllc_scaled":
            "dff34baa3ff30773a3bd6cea0307813bf0c4487cb8b6f5dac408483570eb5a63",
        "job_prefender_classify":
            "820426ab3a8929aa11e7e84255cd9a817cc7a11f0b8156c4fe3195f9ca658613",
        "mix_oc_suf":
            "ee62651c4327ba22175a8f07f83fb454cf8bfc8bdd0b87a52f2557e36e3cfdb9",
        "mix_delay_2core":
            "86d776fde291d1c574f12d34d41795633d1e4468096306e5f34665eb528e5796",
    }

    def test_keys_unchanged(self):
        assert self.keys(self.inputs()) == self.PINNED

    def test_repeated_derivation_is_stable(self):
        # Same objects again: answered from the memoized canonical parts.
        inputs = self.inputs()
        assert self.keys(inputs) == self.PINNED
        assert self.keys(inputs) == self.PINNED


# ----------------------------------------------------------------------
# trace fingerprints over the .rtrace column bytes
# ----------------------------------------------------------------------

INT64 = hst.one_of(
    hst.integers(min_value=-2**63, max_value=2**63 - 1),
    hst.sampled_from([-1, 0, 2**32 - 1, 2**32, 2**63 - 1, -2**63]))
RECORDS = hst.lists(
    hst.tuples(INT64, INT64, hst.integers(min_value=0, max_value=255)),
    max_size=400)


def _fresh(trace):
    """A copy of ``trace`` with no cached fingerprint."""
    return Trace.from_columns(trace.name, *trace.columns(), suite=trace.suite)


def _key(name, records, suite="spec"):
    return trace_fingerprint(Trace(name, records, suite=suite))


class TestTraceFingerprint:
    @settings(max_examples=100, deadline=None)
    @given(records=RECORDS)
    def test_one_key_per_content(self, records):
        built = Trace("t", records, suite="spec")
        ips = [r[0] for r in records]
        vaddrs = [r[1] for r in records]
        flags = [r[2] for r in records]
        as_arrays = Trace.from_columns("t", array("q", ips),
                                       array("q", vaddrs), bytes(flags),
                                       suite="spec")
        as_lists = Trace.from_columns("t", ips, vaddrs, flags, suite="spec")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.rtrace"
            save_trace(built, path)
            loaded = load_trace(path)
        want = trace_fingerprint(built)
        for other in (as_arrays, as_lists, loaded):
            assert trace_fingerprint(other) == want

    @settings(max_examples=100, deadline=None)
    @given(records=RECORDS.filter(len), data=hst.data())
    def test_every_field_and_the_order_are_keyed(self, records, data):
        base = _key("t", records)
        i = data.draw(hst.integers(0, len(records) - 1), label="record")
        field = data.draw(hst.integers(0, 2), label="field")
        values = INT64 if field < 2 else hst.integers(0, 255)
        value = data.draw(values.filter(lambda v: v != records[i][field]),
                          label="value")
        changed = list(records)
        changed[i] = records[i][:field] + (value,) + records[i][field + 1:]
        assert _key("t", changed) != base
        j = data.draw(hst.integers(0, len(records) - 1), label="other")
        swapped = list(records)
        swapped[i], swapped[j] = records[j], records[i]
        assert (_key("t", swapped) == base) == (swapped == records)
        assert _key("u", records) != base
        assert _key("t", records, suite="gap") != base

    @pytest.mark.parametrize("wide, neighbours", [
        ((0x400, 2**64, 1),
         [(0x400, 2**63 - 1, 1), (0x400, -2**63, 1), (0x400, 0, 1)]),
        ((0x400, 64, 300),
         [(0x400, 64, 255), (0x400, 64, 300 & 0xFF), (0x400, 64, 0)]),
    ])
    def test_values_the_format_cannot_hold(self, wide, neighbours):
        # A value outside int64 or u8 is refused when the trace is
        # built, naming its field and record; the in-range values next
        # to it are keyed, each to its own key.
        field, value = (("vaddr", wide[1]) if wide[1] >= 2**63
                        else ("flags", wide[2]))
        with pytest.raises(ValueError, match=(
                f"^trace 't': record 1: {field} {value} does not fit")):
            _key("t", [alu(0x3fc), wide])
        with pytest.raises(ValueError, match=f"record 1: {field} {value}"):
            Trace.from_columns("t", *map(list, zip(alu(0x3fc), wide)))
        keys = {_key("t", [alu(0x3fc), n]) for n in neighbours}
        assert len(keys) == len(neighbours)

    def test_columnar_trace_never_builds_records(self, monkeypatch,
                                                 tmp_path):
        # Record tuples are for inspection only: keying, prescanning,
        # simulating, saving, pickling and a stored runner run of a
        # trace read its columns.
        def no_records(trace):
            raise AssertionError("record tuples built")

        trace = spec_trace("619.lbm-2676B", 300)
        monkeypatch.setattr(Trace, "records", property(no_records))
        monkeypatch.setattr(Trace, "__iter__", no_records)
        trace_fingerprint(trace)
        prescan(trace)
        System().run(trace)
        save_trace(trace, tmp_path / "t.rtrace")
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.columns() == trace.columns()
        runner = ExperimentRunner(SCALE, store=tmp_path / "store")
        runner.run(BASELINE, load_trace(tmp_path / "t.rtrace"))
        assert runner.store.writes == 1
        repr(trace)

    def test_record_built_fingerprint_memory_is_bounded(self):
        # A full-length column copy of stream-lbm's 126,698 records is
        # about 1 MiB per int64 column.  A trace built from records
        # holds the same typed columns, so keying it copies none.
        source = spec_trace("619.lbm-2676B", 30_000, 1)
        trace = Trace(source.name, source.records, suite=source.suite)
        assert len(trace) == 126_698
        tracemalloc.start()
        try:
            key = trace_fingerprint(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == trace_fingerprint(source)
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestPinnedTraceFingerprints:
    """Generator traces keyed as committed.

    The stream generator builds columns in bulk (with NumPy from 1,024
    loads), the GAP generator through ``TraceBuilder``, whose ``build``
    transposes its records into columns (its graph with NumPy when it
    is importable).  CI's ``no-numpy`` job runs these too, so both
    generator paths are tied to the same keys; here the stdlib paths
    are forced for a second run.
    """

    PINNED = {
        ("spec", 300):
            "b821e2e2e499616cd0f6f5e11fa098d2c2d71d8564f25f5a8879d533c21e092e",
        ("spec", 2000):
            "eca7da674e6a1960e6796fa1f5d6c945a97221494119370e1f3baeec76a81a30",
        ("gap", 300):
            "7b7bfe69ff97abd6a50de0f81bf0646d9dd853ea03be6e97753983f6add99d1a",
    }

    @staticmethod
    def build(kind, n_loads):
        if kind == "spec":
            return spec_trace("619.lbm-2676B", n_loads)
        return gap_trace("bfs", n_loads)

    @pytest.mark.parametrize("stdlib", [False, True])
    @pytest.mark.parametrize("kind, n_loads", list(PINNED))
    def test_pinned(self, monkeypatch, kind, n_loads, stdlib):
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        if stdlib:
            monkeypatch.setattr(synthetic, "_np", None)
            monkeypatch.setattr(gap, "_np", None)
        trace = self.build(kind, n_loads)
        assert trace_fingerprint(trace) == self.PINNED[(kind, n_loads)]
        assert trace_fingerprint(_fresh(trace)) == self.PINNED[(kind, n_loads)]
