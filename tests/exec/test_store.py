"""Result store: atomic records, checksums, quarantine, stable keys."""

import pytest

from repro.exec.faults import FaultPlan
from repro.exec.store import (ResultStore, StoreError, job_key,
                              mix_job_key, trace_fingerprint)
from repro.experiments.runner import BASELINE, SCALES, Config, Scale
from repro.sim.params import baseline, params_digest
from repro.workloads.mixes import workload_pool
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

    def test_injected_corruption_once(self, tmp_path):
        plan = FaultPlan(corrupt_every=1)
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, "v1")
        assert store.injected_corruptions == 1
        assert store.get(KEY) is None  # quarantined
        store.put(KEY, "v2")
        # The persisted marker prevents endless re-corruption, even from
        # a fresh store instance over the same directory.
        fresh = ResultStore(tmp_path / "s", fault_plan=plan)
        assert fresh.get(KEY) == "v2"


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


class TestTornWrites:
    def test_injected_torn_write_quarantined_then_healed(self, tmp_path):
        plan = FaultPlan.parse("torn:1")
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, {"v": 7})
        assert store.injected_torn_writes == 1
        # The torn record fails verification and is quarantined, exactly
        # like real filesystem damage.
        assert store.get(KEY) is None
        assert store.quarantined == 1
        # Recompute heals: the marker stops a second tear, even from a
        # fresh store instance over the same directory.
        store.put(KEY, {"v": 7})
        fresh = ResultStore(tmp_path / "s", fault_plan=plan)
        assert fresh.get(KEY) == {"v": 7}
        assert fresh.injected_torn_writes == 0

    def test_torn_write_counted_in_stats(self, tmp_path):
        plan = FaultPlan.parse("torn:1")
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, "x")
        assert store.stats()["injected_torn_writes"] == 1


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
    so it must show up here.  They moved once on purpose, when the keys
    gained ``MODEL_VERSION`` (at 2, for the keyed rand-llc LLC) and
    ``CacheParams`` gained ``keyed_index``, which moves every params
    digest: records of the older model then miss instead of being
    served.  A later ``MODEL_VERSION`` bump moves them all again.
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
            "0df200ae332841a17b3ba4998afd3291b5f3d93bb6b161a4faa109196363d39f",
        "job_secure_suf_tsb":
            "e25dd39b7724f48262cf1b5cec6453c1ca5f5668baa7bfd3f16960293cd1a636",
        "job_randllc_scaled":
            "3f32135207b3e3f374a96ed72d4363778d64b9cabc5376b11509481c167e6a06",
        "job_prefender_classify":
            "cf59b1c556f0070f32ec35f25797d71904493bf79b0c1aa36c6feaf231e29d3e",
        "mix_oc_suf":
            "69fc6a999162b82b7fc230159458e5c868bf709468c1eb878ea42824ce8796d1",
        "mix_delay_2core":
            "dbb705c0a0babdbbdcb67276500dd216d89edc1c743307c76643334c8b2d68a0",
    }

    def test_keys_unchanged(self):
        assert self.keys(self.inputs()) == self.PINNED

    def test_repeated_derivation_is_stable(self):
        # Same objects again: answered from the memoized canonical parts.
        inputs = self.inputs()
        assert self.keys(inputs) == self.PINNED
        assert self.keys(inputs) == self.PINNED
