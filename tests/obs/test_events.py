"""Event-trace ring buffer and schema validation."""

import json

import pytest

from repro.core.tsb import TSBPrefetcher
from repro.obs import (EVENT_KINDS, EVENT_UNITS, EventTrace, ObsConfig,
                       events_jsonl, validate_event)
from repro.prefetchers.base import MODE_ON_COMMIT
from repro.prefetchers.registry import make_prefetcher
from repro.sim.stats import GhostMinionStats
from repro.sim.system import System
from repro.workloads.spec import spec_trace
from repro.workloads.synthetic import stream_trace


class TestRingBuffer:
    def test_emit_and_order(self):
        trace = EventTrace(capacity=10)
        for i in range(3):
            trace.emit("fill", i, 100 + i, "L1D")
        assert len(trace) == 3
        assert trace.total == 3
        assert trace.dropped() == 0
        assert [e[1] for e in trace.events()] == [0, 1, 2]

    def test_wraps_oldest_first(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.emit("fill", i, i, "L2")
        assert len(trace) == 4
        assert trace.total == 10
        assert trace.dropped() == 6
        assert [e[1] for e in trace.events()] == [6, 7, 8, 9]

    def test_records_schema(self):
        trace = EventTrace(capacity=4)
        trace.emit("pf_issue", 5, 42, "LLC")
        (record,) = list(trace.records())
        assert record == {"kind": "pf_issue", "cycle": 5, "block": 42,
                          "unit": "LLC"}
        validate_event(record)

    def test_counts_by_kind(self):
        trace = EventTrace(capacity=8)
        trace.emit("fill", 0, 0, "L1D")
        trace.emit("fill", 1, 1, "L1D")
        trace.emit("evict", 2, 0, "L1D")
        assert trace.counts_by_kind() == {"fill": 2, "evict": 1}

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)


class TestJsonl:
    def test_canonical_lines(self):
        trace = EventTrace(capacity=4)
        trace.emit("fill", 1, 2, "L1D")
        text = events_jsonl(trace)
        assert text == '{"block":2,"cycle":1,"kind":"fill","unit":"L1D"}\n'

    def test_empty(self):
        assert events_jsonl(EventTrace(capacity=4)) == ""


class TestValidateEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate_event({"kind": "nope", "cycle": 0, "block": 0,
                            "unit": "L1D"})

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError, match="unit"):
            validate_event({"kind": "fill", "cycle": 0, "block": 0,
                            "unit": "L9"})

    def test_rejects_extra_and_missing_keys(self):
        with pytest.raises(ValueError):
            validate_event({"kind": "fill", "cycle": 0, "block": 0})
        with pytest.raises(ValueError):
            validate_event({"kind": "fill", "cycle": 0, "block": 0,
                            "unit": "L1D", "x": 1})

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            validate_event({"kind": "fill", "cycle": 0.5, "block": 0,
                            "unit": "L1D"})
        with pytest.raises(ValueError):
            validate_event({"kind": "fill", "cycle": True, "block": 0,
                            "unit": "L1D"})
        with pytest.raises(ValueError):
            validate_event({"kind": "fill", "cycle": -1, "block": 0,
                            "unit": "L1D"})


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def traced(self):
        trace = stream_trace("ev", 6000, streams=2, seed=11)
        from repro.prefetchers.registry import make_prefetcher
        system = System(secure=True, suf=True,
                        prefetcher=make_prefetcher("berti"),
                        obs=ObsConfig(trace_events=True,
                                      trace_capacity=1 << 16))
        system.run(trace)
        return system

    def test_disabled_by_default(self, tiny_stream):
        system = System()
        assert system.events is None
        system.run(tiny_stream)

    def test_all_records_valid(self, traced):
        records = list(traced.events.records())
        assert records
        for record in records:
            validate_event(record)

    def test_emits_expected_kinds(self, traced):
        kinds = set(traced.events.counts_by_kind())
        assert kinds <= set(EVENT_KINDS)
        # A secure SUF run with a prefetcher exercises the main paths.
        for expected in ("fill", "pf_issue", "gm_fill", "gm_commit_write",
                         "suf_drop"):
            assert expected in kinds, expected

    def test_units_are_known(self, traced):
        for record in traced.events.records():
            assert record["unit"] in EVENT_UNITS

    def test_jsonl_round_trips(self, traced):
        text = events_jsonl(traced.events)
        for line in text.splitlines():
            validate_event(json.loads(line))


#: ``System`` arguments (``prefetcher`` as a registry name or "tsb") that
#: reach every prefetch-drop site -- resident or in flight, PQ or MSHRs
#: full, the DRAM-backlog throttle, the rand-llc scramble -- and every
#: GhostMinion commit action, with and without SUF.
IDENTITY_CONFIGS = {
    "berti-oa": {"prefetcher": "berti"},
    "spp-randllc": {"prefetcher": "spp+ppf", "llc_scramble": 0x5DEECE66D},
    "berti-delay": {"prefetcher": "berti", "delay_mitigation": True},
    "berti-oc-gm": {"prefetcher": "berti", "secure": True,
                    "train_mode": MODE_ON_COMMIT},
    "berti-oc-gm-suf": {"prefetcher": "berti", "secure": True, "suf": True,
                        "train_mode": MODE_ON_COMMIT},
    "tsb-suf": {"prefetcher": "tsb", "secure": True, "suf": True,
                "train_mode": MODE_ON_COMMIT},
    "ipcp-oa-gm": {"prefetcher": "ipcp", "secure": True},
}


@pytest.mark.parametrize("workload", ["619.lbm-2676B", "605.mcf-1554B"])
@pytest.mark.parametrize("name", sorted(IDENTITY_CONFIGS))
def test_event_counts_equal_their_counters(name, workload):
    """With no warm-up reset and no event lost from the ring, each kind
    counts what its stats counter counts, and a truncated propagation
    (``suf_stop``) directly follows its on-commit write."""
    kwargs = dict(IDENTITY_CONFIGS[name])
    spec = kwargs.pop("prefetcher")
    kwargs["prefetcher"] = TSBPrefetcher() if spec == "tsb" \
        else make_prefetcher(spec)
    system = System(obs=ObsConfig(trace_events=True,
                                  trace_capacity=1 << 18), **kwargs)
    result = system.run(spec_trace(workload, 6000), warmup=0)
    events = system.events
    assert events.dropped() == 0
    levels = (result.l1d, result.l2, result.llc)
    gm = result.gm if result.gm is not None else GhostMinionStats()
    expected = {
        "pf_drop": sum(level.prefetches_dropped for level in levels),
        "pf_issue": sum(level.prefetches_issued for level in levels),
        "pf_use": sum(level.prefetches_useful for level in levels),
        "suf_drop": gm.commit_drops_suf,
        "suf_stop": gm.wb_stopped_suf,
        "gm_refetch": gm.commit_refetches,
        "gm_commit_write": gm.commit_writes,
    }
    counts = events.counts_by_kind()
    assert {kind: counts.get(kind, 0) for kind in expected} == expected
    records = events.events()
    for previous, (kind, cycle, block, _unit) in zip(records, records[1:]):
        if kind == "suf_stop":
            assert previous[:3] == ("gm_commit_write", cycle, block)
