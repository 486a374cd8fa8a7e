"""Tests of the end-to-end benchmark itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every test runs the real workloads at a reduced trace length, passed as
the ``loads`` argument of the measuring functions.
"""

from __future__ import annotations

import re

import pytest

import run
from e2e_tracing import LAYERS, Tracer, calibrate, instrumented
from e2e_workloads import WORKLOADS, Inputs, load_pins
from repro.workloads.trace import FLAG_WRONG_PATH, Trace

#: Reduced trace length per workload (loads per trace).
LOADS = {"secure-mcf": 3000, "stream-lbm": 3000, "gap-mix4": 1500,
         "campaign-fig1": 400}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = run.load_benchmark()


@pytest.fixture(scope="module")
def traced_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {name: run.finish_record(
        run.measure_traced(name, 1, loads=LOADS[name], out_dir=out), BENCH)
        for name in WORKLOADS}


# ----------------------------------------------------------------------
# declaration
# ----------------------------------------------------------------------

def test_declared_names_and_counts():
    workloads = [w["name"] for w in BENCH["workloads"]]
    end_to_end = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert set(workloads) == set(WORKLOADS)


def test_run_length_is_the_declared_one():
    declared = float(BENCH["run_seconds"])
    assert run._parse([], BENCH).seconds == declared
    assert run._parse(["--seconds", str(BENCH["run_seconds"])],
                      BENCH).seconds == declared
    with pytest.raises(SystemExit):
        run._parse(["--seconds", str(declared + 1)], BENCH)


def test_printed_names_equal_declared(tmp_path, traced_records):
    untraced = run.finish_record(
        run.measure("stream-lbm", 1, 0, loads=LOADS["stream-lbm"],
                    out_dir=tmp_path), BENCH)
    assert set(run.result_line(untraced, BENCH)["metrics"]) \
        == set(untraced["metrics"]) \
        == {m["name"] for m in BENCH["end_to_end"]}
    for record in traced_records.values():
        assert set(record["metrics"]) \
            == {m["name"] for m in BENCH["per_layer"]}


# ----------------------------------------------------------------------
# correctness checks feed the failure count
# ----------------------------------------------------------------------

def test_trace_short_by_one_record_fails_the_op(tmp_path):
    workload = WORKLOADS["secure-mcf"]
    inputs = workload.build(1, LOADS["secure-mcf"])
    records = inputs.traces[0].records
    # Drop the last committed-path record (wrong-path records are not
    # instructions).
    last = max(i for i, (_, _, flags) in enumerate(records)
               if not flags & FLAG_WRONG_PATH)
    short = Trace(inputs.traces[0].name, records[:last] + records[last + 1:],
                  suite=inputs.traces[0].suite)
    perturbed = Inputs(inputs.scale, [short], inputs.instructions,
                       inputs.expected)
    samples = [run._run_op(workload, inputs, tmp_path, 0),
               run._run_op(workload, perturbed, tmp_path, 1)]
    record = run.finish_record({"trace": 0, "samples": samples,
                                "metrics": {}}, BENCH)
    assert samples[0]["errors"] == []
    assert "committed instructions" in samples[1]["errors"][0]
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert record["correct"] is False


def test_an_op_that_raises_is_counted_not_raised(tmp_path):
    class Broken:
        def op(self, inputs, workdir, reference=None):
            raise RuntimeError("boom")

    sample = run._run_op(Broken(), None, tmp_path, 3)
    assert sample == {"op": 3, "errors": ["RuntimeError: boom"]}


def test_times_in_ref_units(tmp_path):
    # Cold passes use the dict loop (first), resumes the hash loop.
    sample = {"cold_s": 2.0, "resume_s": [0.3, 0.6], "instructions": 1000,
              "mid_ref_s": (0.002, 0.001)}
    run._normalise(sample, ref_before=(0.004, 0.009),
                   ref_after=(0.008, 0.005))
    assert sample["instr_per_ref"] == pytest.approx(1000 * 0.003 / 2.0)
    assert sample["resume_ref"] == pytest.approx([100.0, 200.0])
    failed = {"errors": ["RuntimeError: boom"]}
    run._normalise(failed, (0.002, 0.002), (0.003, 0.003))
    assert failed == {"errors": ["RuntimeError: boom"]}
    # An op given the reference clock samples it after its cold pass.
    workload = WORKLOADS["secure-mcf"]
    inputs = workload.build(1, LOADS["secure-mcf"])
    assert run._run_op(workload, inputs, tmp_path, 0)["mid_ref_s"] is None
    mid = run._run_op(workload, inputs, tmp_path, 0,
                      run.reference_s)["mid_ref_s"]
    assert len(mid) == 2 and min(mid) > 0


def test_ops_with_different_stats_are_failed():
    samples = [{"digest": "a", "errors": []}, {"digest": "b", "errors": []},
               {"errors": ["RuntimeError: boom"]}]
    run._check_determinism(samples)
    assert [len(s["errors"]) for s in samples] == [0, 1, 1]


def test_pins_cover_seeds_1_and_2_at_full_length_only():
    pins = load_pins()
    for name in ("secure-mcf", "stream-lbm", "gap-mix4"):
        cores = len(WORKLOADS[name].trace_specs)
        assert {seed: len(ipcs) for seed, ipcs in pins[name].items()} \
            == {"1": cores, "2": cores}
    assert set(pins["campaign-fig1"]) == {"fig1"}
    for name in ("stream-lbm", "campaign-fig1"):
        assert WORKLOADS[name].build(1, LOADS[name]).reference is None


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_stats_equal_untraced(name, traced_records):
    record = traced_records[name]
    untraced, traced = record["samples"]
    assert untraced["digest"] == traced["digest"]
    assert record["failed"] == 0, record["samples"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall(name, traced_records):
    record = traced_records[name]
    self_s = sum(row["self_s"] for row in record["layers"].values())
    wall_s = record["metrics"]["trace.wall_s"]["value"]
    assert self_s == pytest.approx(wall_s, rel=0.01)


def test_layers_fire_where_they_apply(traced_records):
    def calls(name, layer):
        return traced_records[name]["metrics"][f"{layer}.calls"]["value"]

    for name in WORKLOADS:
        for layer in ("system", "cache.descent", "commit.drain",
                      "prefetch.train", "dram.access", "batch.prescan",
                      "runner.build_system", "exec.store_get",
                      "exec.store_put"):
            assert calls(name, layer) > 0, (name, layer)
    assert calls("stream-lbm", "gm.apply") == 0
    assert calls("secure-mcf", "gm.fill") > 0
    assert calls("gap-mix4", "multicore.arbiter") == 1
    assert calls("campaign-fig1", "campaign") == 4


def test_originals_restored_after_traced_op():
    from repro.exec.store import ResultStore
    from repro.sim import hierarchy, multicore, system
    from repro.sim.ghostminion import GhostMinionCache
    from repro.prefetchers.berti import BertiPrefetcher

    owners = [(system.System, "run"), (system.System, "_make_drainer"),
              (multicore._CoreRunner, "step"),
              (hierarchy, "make_flat_descent"), (system, "plan_for"),
              (GhostMinionCache, "apply_until"), (ResultStore, "get"),
              (BertiPrefetcher, "train")]
    before = [vars(owner)[name] for owner, name in owners]
    with pytest.raises(RuntimeError):
        with instrumented(Tracer()):
            assert vars(system.System)["run"] is not before[0]
            raise RuntimeError("leave the block early")
    assert [vars(owner)[name] for owner, name in owners] == before


def test_span_bookkeeping():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_leaf = tracer.wrap("cache.descent", leaf)
    traced_middle = tracer.wrap("system", middle)
    with tracer.span("unattributed"):
        assert traced_middle(1) == 4
    table = tracer.layer_table()
    assert table["cache.descent"]["calls"] == 2
    assert table["system"]["child_spans"] == 2
    assert table["unattributed"]["child_spans"] == 1
    assert list(tracer.parent) == [-1, 0, 1, 1]
    root_ns = tracer.end[0] - tracer.start[0]
    assert sum(table[layer]["self_ns"] for layer in LAYERS) == root_ns


def test_calibration_is_positive():
    cost = calibrate(rounds=5, calls=200)
    assert cost["span_ns"] > 0
    assert 0 <= cost["inner_ns"] <= cost["span_ns"]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

COMPARE_BENCH = {"end_to_end": [{"name": "instr_per_s", "better": "higher",
                                 "bound": 0.1}]}


def _runs(values, seed=1, seconds=25):
    return [{"workload": "w", "seed": seed, "trace": 0, "seconds": seconds,
             "metrics": {"instr_per_s": {"value": v}}} for v in values]


def _verdict(a, b):
    (row,) = run.compare_rows(_runs(a), _runs(b), COMPARE_BENCH)
    return row


def test_compare_verdicts():
    assert _verdict([100, 101, 102], [100, 101, 102])["verdict"] \
        == "within bound"
    assert _verdict([100, 101, 102], [80, 81, 82])["verdict"] \
        == "regressed"
    assert _verdict([60, 100, 140], [100, 101, 102])["verdict"] \
        == "unresolved"


def test_compare_claims_a_gain_from_ten_pairs_only():
    few = _verdict([100, 101, 102], [110, 111, 112])
    assert (few["verdict"], few["wins"], few["pairs"]) \
        == ("too few pairs", 3, 3)
    # Every candidate run beats every baseline run: resolved, but three
    # pairs are still too few for a gain.
    assert _verdict([60, 70, 80], [150, 160, 170])["verdict"] \
        == "too few pairs"
    base = list(range(100, 110))
    assert _verdict(base[:9], [v + 20 for v in base[:9]])["verdict"] \
        == "too few pairs"
    ten = _verdict(base, [v + 20 for v in base])
    assert (ten["verdict"], ten["wins"], ten["pairs"]) \
        == ("improved", 10, 10)


def test_compare_refuses_mixed_run_lengths():
    with pytest.raises(ValueError, match="run lengths"):
        run.compare_rows(_runs([100, 101, 102]),
                         _runs([100, 101, 102], seconds=10), COMPARE_BENCH)
