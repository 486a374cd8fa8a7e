"""Single-core System: end-to-end runs, training modes, measurement."""

import pytest

from repro.core.timely import TimelyPrefetcher
from repro.prefetchers import (MODE_ON_ACCESS, MODE_ON_COMMIT,
                               make_prefetcher)
from repro.prefetchers.base import Prefetcher, PrefetchRequest
from repro.sim.system import System
from repro.workloads.synthetic import pointer_chase_trace
from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_WRONG_PATH, Trace, alu, load, store)


class RecordingPrefetcher(Prefetcher):
    """Captures every training event it sees; never prefetches."""

    name = "recording"
    train_level = 0

    def __init__(self):
        self.events = []

    def train(self, event):
        self.events.append(event)
        return []

    def storage_bits(self):
        return 0


class TestBasicRun:
    def test_deterministic(self, tiny_stream):
        r1 = System().run(tiny_stream)
        r2 = System().run(tiny_stream)
        assert r1.ipc == r2.ipc
        assert r1.l1d.accesses == r2.l1d.accesses

    def test_counts_committed_instructions(self, pure_loads):
        result = System().run(pure_loads, warmup=0.0)
        assert result.committed == 400
        assert result.core.committed_loads == 400

    def test_ipc_positive_and_bounded(self, tiny_stream):
        result = System().run(tiny_stream)
        assert 0 < result.ipc <= 6  # issue width bounds IPC

    def test_warmup_resets_stats(self, pure_loads):
        warm = System().run(pure_loads, warmup=0.5)
        cold = System().run(pure_loads, warmup=0.0)
        # Measured counts cover only the post-warm-up window.
        assert warm.committed == cold.committed // 2
        assert warm.l1d.total_accesses() < cold.l1d.total_accesses()

    def test_label_generation(self):
        sys_ = System(secure=True, suf=True,
                      prefetcher=make_prefetcher("berti"),
                      train_mode=MODE_ON_COMMIT)
        assert sys_.label == "berti/on-commit/secure/suf"

    def test_rejects_suf_without_secure(self):
        with pytest.raises(ValueError):
            System(suf=True)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            System(train_mode="sometimes")


class TestStores:
    def test_store_writes_at_commit(self):
        trace = Trace("t", [load(1, 64), store(2, 64)] + [alu(3)] * 50)
        sys_ = System()
        sys_.run(trace, warmup=0.0)
        line = sys_.hierarchy.l1d.lookup(1)
        assert line is not None and line.dirty

    def test_store_counted(self):
        trace = Trace("t", [store(2, 64)] + [alu(3)] * 20)
        result = System().run(trace, warmup=0.0)
        assert result.core.committed_stores == 1


class TestWrongPath:
    def _trace_with_wrong_path(self):
        records = [load(1, i * 64) for i in range(16)]
        records.append((2, -1, FLAG_BRANCH | FLAG_MISPREDICT))
        wrong_block = 1 << 24
        records += [(3, (wrong_block + i) * 64, FLAG_LOAD | FLAG_WRONG_PATH)
                    for i in range(4)]
        records += [alu(4)] * 100
        return Trace("wp", records), wrong_block

    def test_wrong_path_counted_not_committed(self):
        trace, _ = self._trace_with_wrong_path()
        result = System().run(trace, warmup=0.0)
        assert result.core.wrong_path_loads == 4
        assert result.core.branch_mispredicts == 1
        assert result.committed == trace.committed_count

    def test_wrong_path_pollutes_nonsecure(self):
        trace, wrong_block = self._trace_with_wrong_path()
        sys_ = System()
        sys_.run(trace, warmup=0.0)
        assert sys_.hierarchy.l1d.contains(wrong_block)

    def test_wrong_path_invisible_when_secure(self):
        """The invisible-speculation property (Section II-C)."""
        trace, wrong_block = self._trace_with_wrong_path()
        sys_ = System(secure=True)
        sys_.run(trace, warmup=0.0)
        for level in sys_.hierarchy.levels():
            for i in range(4):
                assert not level.contains(wrong_block + i)

    @pytest.mark.parametrize("secure", [False, True])
    @pytest.mark.parametrize("gap", [2000, 6], ids=["resident", "in-flight"])
    def test_wrong_path_hit_never_marks_prefetch_useful(self, secure, gap):
        """A wrong-path load that finds a prefetched line, filled or
        still in flight, leaves the prefetch unused; a committed load
        to the same line then counts it useful."""
        target = 1 << 20

        class OneShotPrefetcher(RecordingPrefetcher):
            def train(self, event):
                super().train(event)
                return [PrefetchRequest(target)] \
                    if len(self.events) == 1 else []

        def useful(committed_reuse):
            records = [load(1, 0)] + [alu(2)] * gap
            records.append((3, -1, FLAG_BRANCH | FLAG_MISPREDICT))
            records.append((4, target * 64, FLAG_LOAD | FLAG_WRONG_PATH))
            records += [alu(2)] * 10
            if committed_reuse:
                records.append(load(5, target * 64))
            records += [alu(2)] * 10
            result = System(secure=secure,
                            prefetcher=OneShotPrefetcher()).run(
                Trace("wp", records), warmup=0.0)
            assert result.core.wrong_path_loads == 1
            return result.l1d.prefetches_useful

        assert useful(False) == 0
        assert useful(True) == 1

    def test_wrong_path_load_leaves_suf_hit_level_alone(self):
        """SUF's hit-level slot belongs to committed loads: a wrong-path
        load one LQ lap behind a DRAM miss must not overwrite the level
        that miss commits with."""
        lq_entries = System().params.core.lq_entries
        records = [load(1, 0)]  # DRAM miss in LQ slot 0
        records += [load(2, 64 * 64)] * (lq_entries - 1)  # then GM hits
        records.append((3, -1, FLAG_BRANCH | FLAG_MISPREDICT))
        # Wrong-path GM hit in slot lq_entries, which aliases slot 0.
        records.append((4, 64 * 64, FLAG_LOAD | FLAG_WRONG_PATH))
        records += [alu(5)] * 50
        result = System(secure=True, suf=True).run(Trace("wp", records),
                                                    warmup=0.0)
        assert result.core.wrong_path_loads == 1
        # Both DRAM misses commit their line; no SUF drop misfires.
        assert result.gm.commit_writes == 2
        assert result.gm.suf_mispredict == 0

    def test_mispredict_slows_execution(self):
        # ALU-only traces so the redirect bubble is the critical path.
        fast_trace = Trace("a", [(2, -1, FLAG_BRANCH)] + [alu(4)] * 100)
        slow_trace = Trace("b", [(2, -1, FLAG_BRANCH | FLAG_MISPREDICT)]
                           + [alu(4)] * 100)
        fast = System().run(fast_trace, warmup=0.0)
        slow = System().run(slow_trace, warmup=0.0)
        assert slow.cycles > fast.cycles


class TestTrainingModes:
    def _loads(self, n=12):
        return Trace("t", [load(7, i * 64) for i in range(n)]
                     + [alu(1)] * 200)

    def test_on_access_trains_at_access_time(self):
        pf = RecordingPrefetcher()
        System(prefetcher=pf).run(self._loads(), warmup=0.0)
        assert len(pf.events) == 12
        for event in pf.events:
            assert event.cycle == event.access_cycle

    def test_on_access_includes_wrong_path(self):
        pf = RecordingPrefetcher()
        records = [(3, 64, FLAG_LOAD | FLAG_WRONG_PATH)] \
            + [load(1, 128)] + [alu(2)] * 30
        System(prefetcher=pf).run(Trace("t", records), warmup=0.0)
        assert len(pf.events) == 2

    def test_on_commit_trains_at_commit_time(self):
        pf = RecordingPrefetcher()
        System(prefetcher=pf, train_mode=MODE_ON_COMMIT).run(
            self._loads(), warmup=0.0)
        assert len(pf.events) == 12

    def test_on_commit_excludes_wrong_path(self):
        pf = RecordingPrefetcher()
        records = [(3, 64, FLAG_LOAD | FLAG_WRONG_PATH)] \
            + [load(1, 128)] + [alu(2)] * 30
        System(prefetcher=pf, train_mode=MODE_ON_COMMIT).run(
            Trace("t", records), warmup=0.0)
        assert len(pf.events) == 1

    def test_on_commit_event_cycles_lag_access(self):
        pf_access = RecordingPrefetcher()
        pf_commit = RecordingPrefetcher()
        System(prefetcher=pf_access).run(self._loads(), warmup=0.0)
        System(prefetcher=pf_commit, train_mode=MODE_ON_COMMIT).run(
            self._loads(), warmup=0.0)
        access_first = pf_access.events[0].cycle
        commit_first = pf_commit.events[0].cycle
        assert commit_first > access_first

    def test_naive_on_commit_latency_misleading(self):
        """On the secure system, naive commit training observes the tiny
        on-commit write latency, not the fetch latency (Section V-B)."""
        pf = RecordingPrefetcher()
        System(secure=True, prefetcher=pf,
               train_mode=MODE_ON_COMMIT).run(self._loads(), warmup=0.0)
        misses = [e for e in pf.events if not e.hit]
        assert misses
        assert all(e.fetch_latency <= 5 for e in misses)

    def test_on_access_latency_realistic(self):
        pf = RecordingPrefetcher()
        System(secure=True, prefetcher=pf,
               train_mode=MODE_ON_ACCESS).run(self._loads(), warmup=0.0)
        misses = [e for e in pf.events if not e.hit]
        assert any(e.fetch_latency > 100 for e in misses)

    @pytest.mark.parametrize("secure,mode", [
        (False, MODE_ON_ACCESS), (True, MODE_ON_ACCESS),
        (True, MODE_ON_COMMIT)])
    def test_ts_feedback_once_per_committed_load(self, secure, mode):
        """A TS wrapper's lateness feedback sees every committed load
        once and no wrong-path load, even where the wrong path trains."""

        class SpyTimely(TimelyPrefetcher):
            calls = 0

            def note_demand(self, miss, late, useful):
                self.calls += 1
                super().note_demand(miss, late, useful)

        records = []
        for i in range(40):
            records.append(load(1, i * 64))
            if i % 8 == 7:
                records.append((2, -1, FLAG_BRANCH | FLAG_MISPREDICT))
                records += [(3, ((1 << 24) + 4 * i + k) * 64,
                             FLAG_LOAD | FLAG_WRONG_PATH) for k in range(3)]
        records += [alu(4)] * 50
        pf = SpyTimely(make_prefetcher("ip-stride"))
        result = System(secure=secure, prefetcher=pf, train_mode=mode).run(
            Trace("wp", records), warmup=0.0)
        assert result.core.wrong_path_loads == 15
        assert pf.calls == result.core.committed_loads == 40


class TestSecureSystemResult:
    def test_gm_stats_present_when_secure(self, tiny_stream):
        result = System(secure=True).run(tiny_stream)
        assert result.gm is not None
        assert result.gm.gm_fills > 0

    def test_gm_stats_absent_when_nonsecure(self, tiny_stream):
        assert System().run(tiny_stream).gm is None

    def test_commit_traffic_present(self, tiny_stream):
        ns = System().run(tiny_stream)
        s = System(secure=True).run(tiny_stream)
        assert s.l1d.accesses["commit"] > 0
        assert ns.l1d.accesses["commit"] == 0

    def test_suf_cuts_commit_traffic(self, tiny_stream):
        s = System(secure=True).run(tiny_stream)
        f = System(secure=True, suf=True).run(tiny_stream)
        assert f.gm.commit_drops_suf > 0
        assert f.l1d.accesses["commit"] < s.l1d.accesses["commit"]

    def test_suf_accuracy_high_single_core(self, tiny_stream):
        result = System(secure=True, suf=True).run(tiny_stream)
        assert result.gm.suf_accuracy() > 0.9


class TestBatchedCommitDrain:
    """PR10 batched commit re-fetch drain.

    The drain resolves a whole commit window's GhostMinion re-fetches
    through one ``flatwalk.make_refetch_batch`` pass.  GM bookkeeping
    (apply / take / SUF) stays per-load in commit order, so the batch
    must (a) carry every re-fetch, (b) see its window in non-decreasing
    retire-time order -- the order the GM applies ran in -- and (c) for
    windows without duplicate blocks, reproduce the sequential per-block
    walk bit-for-bit.
    """

    def _trace(self):
        return pointer_chase_trace("drain", 3000, footprint_mb=8, seed=1)

    def test_refetches_resolve_through_batch_in_commit_order(self):
        sys_ = System(secure=True)
        hier = sys_.hierarchy
        batches = []
        resolve = hier._refetch_batch

        def recording(pairs):
            batches.append(list(pairs))
            return resolve(pairs)

        hier._refetch_batch = recording
        result = sys_.run(self._trace(), warmup=0.0)
        assert result.gm.commit_refetches > 0
        # Every re-fetch of the run went through the batch resolver ...
        assert sum(len(b) for b in batches) == result.gm.commit_refetches
        # ... and each window arrived in commit (retire-time) order: the
        # per-load gm.apply_until calls the drain issued while collecting
        # it were therefore monotone.
        for window in batches:
            times = [t_ret for _, t_ret in window]
            assert times == sorted(times)

    def test_batched_drain_matches_sequential_reference(self):
        trace = self._trace()
        batched = System(secure=True).run(trace, warmup=0.0)
        reference_sys = System(secure=True)
        # None disables the batch resolver: the drain falls back to one
        # flat-descent REQ_COMMIT walk per block (the pre-PR10 path).
        reference_sys.hierarchy._refetch_batch = None
        reference = reference_sys.run(trace, warmup=0.0)
        assert batched.committed == reference.committed
        assert batched.ipc == reference.ipc
        assert batched.l1d.accesses == reference.l1d.accesses
        assert batched.l1d.hits == reference.l1d.hits
        for field in ("gm_fills", "gm_hits", "commit_writes",
                      "commit_refetches"):
            assert getattr(batched.gm, field) == \
                getattr(reference.gm, field), field
