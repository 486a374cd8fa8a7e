#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, with a per-layer traced run.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
                                  [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in its own fresh child process, one at a time, on one
thread.  The loop is closed: one caller, and an op starts only when the
previous one has finished.  A run measures for ``run_seconds`` of
``BENCHMARK.json``; ``--seconds`` may restate that length but not change
it.  Untraced runs (``--trace 0``) report the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs one untraced and one traced op and
reports the per-layer metrics.  Times are compared in ``ref`` units:
the time a fixed reference loop takes on the host beside each op or
input build (a dict loop for cold passes and builds, a hash loop for
resume passes), which cancels the shared host's changing speed
(``setup_s`` states its refs in seconds of a nominal host).  Every
metric is printed with its unit, and the same medians in host seconds
follow; the last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  The full record, per-op samples
included, is appended to ``--out``.  README.md explains the workloads,
the metrics and the tracer.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Under the repository's ignored bench-output directory.
OUT_DIR = ROOT / "benchmarks" / "results" / "e2e"
DEFAULT_OUT = OUT_DIR / "runs.json"

#: Fresh input builds per run; ``setup_s`` is their median (in
#: ``NOMINAL_REF_S`` seconds).
SETUP_BUILDS = 7
#: A workload process still running after this is killed, so a run always
#: ends within three minutes.
CHILD_TIMEOUT_S = 170.0
#: Traced self times must add up to the traced wall within this share.
CLOSURE_TOLERANCE = 0.01
#: Seed-matched run pairs a gain claim needs (choosing-metrics, section 8).
MIN_PAIRS = 10
#: Passes of each reference loop per host-speed sample; their median is
#: kept, so one interruption does not count.
REFERENCE_PASSES = 5
#: ``setup_s`` is the set-up time in refs, stated in seconds of a
#: nominal host on which one ref takes this long (about what the dict
#: reference loop takes on a 2-vCPU shared Xeon VM).  Host seconds would
#: move with the host's speed, which drifts by a quarter or more from
#: one set of runs to the next.
NOMINAL_REF_S = 0.003
#: Units of a run's medians in host seconds (``record["host"]``).
HOST_UNITS = {"instr_per_s": "instr/s", "resume_s": "s", "ref_s": "s",
              "setup_s": "s"}


def load_benchmark(path: Path = BENCHMARK_JSON) -> dict:
    return json.loads(path.read_text())


def declared_units(bench: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------

def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count, as ``statistics.quantiles`` gives
    them (a single value is its own quartiles)."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_loop() -> int:
    """Fixed plain-Python work: integer arithmetic and stores into a
    1,024-entry dict.  It never changes, so its time tracks the host's
    current speed and nothing else.  Of the loops tried (this one, a
    list-based LRU cache and an object-based one), this one's time
    followed the simulator's most closely on a shared host."""
    table = {}
    total = 0
    for i in range(20000):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


def _hash_reference_loop() -> str:
    """Fixed work shaped like the store-key fingerprint that dominates a
    resume pass: format integer triples to bytes and feed them to
    SHA-256.  Resume passes follow it more closely than the dict loop."""
    digest = hashlib.sha256()
    for i in range(4000):
        digest.update(b"%d,%d,%d;" % (i * 40503, i * 7, i & 3))
    return digest.hexdigest()


def _median_wall(loop) -> float:
    walls = []
    for _ in range(REFERENCE_PASSES):
        t0 = time.perf_counter()
        loop()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def reference_s() -> Tuple[float, float]:
    """Seconds each reference loop takes on the host right now: one
    ``ref`` of cold-pass and set-up time (the dict loop), and one ``ref``
    of resume time (the hash loop)."""
    return _median_wall(_reference_loop), _median_wall(_hash_reference_loop)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_ratios(results, store_hits: int, store_misses: int
                 ) -> Dict[str, float]:
    """Exact ratios of modelled counters over an op's SimResults.

    Shared components (a multicore LLC and DRAM) appear once per core in
    ``results`` and are counted once.
    """
    def unique(objects):
        return list({id(o): o for o in objects if o is not None}.values())

    committed = sum(r.committed for r in results)
    secure = [r for r in results if r.gm is not None]
    levels = unique(s for r in results for s in (r.l1d, r.l2, r.llc))
    issued = sum(s.prefetches_issued for s in levels)
    dropped = sum(s.prefetches_dropped for s in levels)
    drams = unique(r.dram for r in results)
    gm_hits = sum(r.gm.gm_hits for r in secure)
    return {
        "gm.refetch_ratio": _ratio(
            sum(r.gm.commit_refetches for r in secure),
            sum(r.core.committed_loads for r in secure)),
        "prefetch.drop_ratio": _ratio(dropped, issued + dropped),
        "prefetch.useful_ratio": _ratio(
            sum(s.prefetches_useful for s in levels), issued),
        "exec.store_hit_ratio": _ratio(store_hits, store_hits + store_misses),
        "l1d.mpki": _ratio(1000.0 * sum(
            s.demand_misses() for s in unique(r.l1d for r in results)),
            committed),
        "llc.mpki": _ratio(1000.0 * sum(
            s.demand_misses() for s in unique(r.llc for r in results)),
            committed),
        "gm.hit_rate": _ratio(gm_hits, gm_hits + sum(
            r.gm.gm_misses for r in secure)),
        "dram.row_hit_rate": _ratio(sum(d.row_hits for d in drams),
                                    sum(d.requests for d in drams)),
    }


# ----------------------------------------------------------------------
# measurement (runs inside the workload's child process)
# ----------------------------------------------------------------------

def _run_op(workload, inputs, workdir: Path, index: int,
            reference=None) -> dict:
    """One op as a sample; an exception fails the op, never the run."""
    try:
        out = workload.op(inputs, workdir, reference=reference)
    except Exception as exc:  # the run must go on and count it
        return {"op": index, "errors": [f"{type(exc).__name__}: {exc}"]}
    return {"op": index, "cold_s": out.cold_s, "resume_s": out.resume_s,
            "mid_ref_s": out.mid_ref,
            "instructions": inputs.instructions,
            "instr_per_s": inputs.instructions / out.cold_s,
            "digest": out.digest, "errors": out.errors}


def _normalise(sample: dict, ref_before: Tuple[float, float],
               ref_after: Tuple[float, float]) -> None:
    """Add the op's times in ``ref`` units.  The reference loops were
    sampled just before the op, right after its cold pass
    (``mid_ref_s``) and just after the op.  The cold pass is divided by
    the mean dict-loop time of the two samples around it, each resume
    pass by the mean hash-loop time of the two around the resumes."""
    if "cold_s" in sample:
        cold_ref = (ref_before[0] + sample["mid_ref_s"][0]) / 2
        resume_ref = (sample["mid_ref_s"][1] + ref_after[1]) / 2
        sample["ref_s"] = cold_ref
        sample["resume_ref_s"] = resume_ref
        sample["instr_per_ref"] = \
            sample["instructions"] * cold_ref / sample["cold_s"]
        sample["resume_ref"] = [wall / resume_ref
                                for wall in sample["resume_s"]]


def _check_determinism(samples: List[dict]) -> None:
    digests = [s["digest"] for s in samples if "digest" in s]
    for sample in samples:
        if "digest" in sample and sample["digest"] != digests[0]:
            sample["errors"].append("stats differ from the run's first op")


def measure(name: str, seed: int, seconds: float,
            loads: Optional[int] = None, out_dir: Path = OUT_DIR) -> dict:
    """An untraced run: ``SETUP_BUILDS`` input builds, then ops until
    the next one would end past ``seconds`` (at least one op).

    The reference loops are timed before the first op, inside every op
    after its cold pass, and after every op (see :func:`_normalise`).
    ``loads`` shortens every trace (tests); the pins then do not apply.
    """
    from e2e_workloads import WORKLOADS
    workload = WORKLOADS[name]
    workdir = out_dir / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_walls, setup_refs = [], []
    inputs = None
    ref_before = reference_s()
    for _ in range(SETUP_BUILDS):
        inputs = None  # let the previous build go before timing the next
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.build(seed, loads)
        setup_walls.append(time.perf_counter() - t0)
        ref_after = reference_s()
        setup_refs.append(setup_walls[-1] * 2 / (ref_before[0]
                                                 + ref_after[0]))
        ref_before = ref_after
    # The inputs live for the whole run; frozen, the collector no longer
    # walks them before every timed pass.
    gc.freeze()
    samples = []
    start = time.perf_counter()
    while True:
        sample = _run_op(workload, inputs, workdir, len(samples),
                         reference_s)
        ref_after = reference_s()
        _normalise(sample, ref_before, ref_after)
        samples.append(sample)
        ref_before = ref_after
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    gc.unfreeze()
    _check_determinism(samples)
    timed = [s for s in samples if "cold_s" in s]
    metrics, host = {}, {}
    if timed:
        metrics["instr_per_ref"] = summarize(s["instr_per_ref"]
                                             for s in timed)
        metrics["resume_ref"] = summarize(r for s in timed
                                          for r in s["resume_ref"])
        # The same medians in host seconds, for reading, not comparing.
        host = {"instr_per_s": summarize(s["instr_per_s"] for s in timed),
                "resume_s": summarize(r for s in timed
                                      for r in s["resume_s"]),
                "ref_s": summarize(s["ref_s"] for s in timed)}
    metrics["setup_s"] = summarize(refs * NOMINAL_REF_S
                                   for refs in setup_refs)
    host["setup_s"] = summarize(setup_walls)
    metrics["peak_rss_mb"] = summarize([peak_rss_mb()])
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": 0, "loads": loads, "setup_walls": setup_walls,
            "setup_refs": setup_refs, "samples": samples,
            "metrics": metrics, "host": host}


def layer_metrics(table: dict, cost: Dict[str, float],
                  traced_ns: float) -> Dict[str, float]:
    """Per layer: raw self time as % of the traced wall, self time with
    the tracer's calibrated cost removed as % of all such time, and the
    span count."""
    from e2e_tracing import LAYERS, corrected_self_ns
    corrected = {layer: corrected_self_ns(table[layer], cost)
                 for layer in LAYERS}
    corrected_total = sum(corrected.values())
    metrics = {}
    for layer in LAYERS:
        row = table[layer]
        metrics[f"{layer}.self_pct"] = 100.0 * row["self_ns"] / traced_ns
        metrics[f"{layer}.corr_pct"] = \
            100.0 * corrected[layer] / corrected_total
        if layer != "unattributed":
            metrics[f"{layer}.calls"] = row["calls"]
    return metrics


def measure_traced(name: str, seed: int, loads: Optional[int] = None,
                   out_dir: Path = OUT_DIR) -> dict:
    """The traced run: set up and run one untraced op, then set up and
    run one op with every layer wrapped, and check both agree.  The
    dict reference loop is timed around both halves, so
    ``trace.overhead`` compares their times in ``ref`` units."""
    from e2e_tracing import Tracer, calibrate, instrumented
    from e2e_workloads import WORKLOADS
    workload = WORKLOADS[name]
    workdir = out_dir / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)

    gc.collect()
    refs = [_median_wall(_reference_loop)]
    t0 = time.perf_counter_ns()
    inputs = workload.build(seed, loads)
    gc.freeze()  # as in an untraced run
    base = workload.op(inputs, workdir, keep_results=True)
    untraced_ns = time.perf_counter_ns() - t0
    refs.append(_median_wall(_reference_loop))
    gc.unfreeze()
    inputs = None

    cost = calibrate()
    tracer = Tracer()
    gc.collect()
    refs.append(_median_wall(_reference_loop))
    with instrumented(tracer):
        t0 = time.perf_counter_ns()
        with tracer.span("unattributed"):
            inputs = workload.build(seed, loads, tracer)
            gc.freeze()
        tracer.set_op(1)
        with tracer.span("unattributed"):
            traced = workload.op(inputs, workdir, tracer)
        traced_ns = time.perf_counter_ns() - t0
    refs.append(_median_wall(_reference_loop))
    gc.unfreeze()

    table = tracer.layer_table()
    errors = list(traced.errors)
    if traced.digest != base.digest:
        errors.append("traced stats differ from the untraced op's")
    self_sum = sum(row["self_ns"] for row in table.values())
    if abs(self_sum - traced_ns) > CLOSURE_TOLERANCE * traced_ns:
        errors.append(f"self times sum to {self_sum} ns, traced wall is "
                      f"{traced_ns} ns")
    metrics = layer_metrics(table, cost, traced_ns)
    metrics.update({
        "trace.overhead": (traced_ns / (refs[2] + refs[3]))
        / (untraced_ns / (refs[0] + refs[1])) - 1.0,
        "trace.span_ns": cost["span_ns"],
        "trace.wall_s": traced_ns / 1e9,
        "trace.spans": len(tracer),
    })
    metrics.update(model_ratios(base.results, base.store_hits,
                                base.store_misses))
    spans_path = out_dir / f"spans-{name}-s{seed}"
    tracer.write(spans_path)
    return {
        "workload": name, "seed": seed, "trace": 1, "loads": loads,
        "samples": [
            {"op": 0, "traced": False, "cold_s": base.cold_s,
             "resume_s": base.resume_s, "digest": base.digest,
             "errors": base.errors},
            {"op": 1, "traced": True, "cold_s": traced.cold_s,
             "resume_s": traced.resume_s, "digest": traced.digest,
             "errors": errors}],
        "layers": {layer: dict(row, self_s=row["self_ns"] / 1e9)
                   for layer, row in table.items()},
        "calibration": cost,
        "ref_s": refs,
        "untraced_wall_s": untraced_ns / 1e9,
        "spans_file": spans_path.with_suffix(".bin").name,
        "metrics": {key: summarize([value])
                    for key, value in metrics.items()},
    }


def child_main(name: str, seed: str, seconds: str, trace: str,
               path: str) -> None:
    """Entry point of the workload's process: measure, write the record."""
    record = measure_traced(name, int(seed)) if trace == "1" \
        else measure(name, int(seed), float(seconds))
    Path(path).write_text(json.dumps(record))


def run_in_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter and collect its record.
    The child is always waited for; on timeout it is killed first."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".json",
                                dir=OUT_DIR)
    os.close(fd)
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import run; run.child_main(*sys.argv[1:])")
    try:
        child = subprocess.run(
            [sys.executable, "-c", code, name, str(seed), str(seconds),
             str(int(trace)), path], cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"{name}: the workload process failed "
                               f"(exit code {child.returncode})")
        return json.loads(Path(path).read_text())
    finally:
        os.unlink(path)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def finish_record(record: dict, bench: dict) -> dict:
    """Count attempted/failed ops and attach declared units."""
    units = declared_units(bench)
    record["attempted"] = len(record["samples"])
    record["failed"] = sum(1 for s in record["samples"] if s["errors"])
    record["correct"] = record["failed"] == 0
    for key, summary in record["metrics"].items():
        summary["unit"] = units[key]
    for key, summary in record.get("host", {}).items():
        summary["unit"] = HOST_UNITS[key]
    return record


def result_line(record: dict, bench: dict) -> dict:
    """The last line of standard output: every metric ``BENCHMARK.json``
    declares for the run's kind, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    missing = [m["name"] for m in bench[kind]
               if m["name"] not in record["metrics"]]
    if missing:
        raise SystemExit(f"{record['workload']}: no op completed, so "
                         f"{', '.join(missing)} cannot be reported")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {
                "value": record["metrics"][m["name"]]["value"],
                "unit": m["unit"]} for m in bench[kind]}}


def print_record(record: dict) -> None:
    print(f"{record['workload']}: seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, "
          f"{record['attempted']} op(s), {record['failed']} failed")
    for sample in record["samples"]:
        for error in sample["errors"]:
            print(f"  op {sample['op']} FAILED: {error}")
    def show(summaries: dict) -> None:
        for key, s in summaries.items():
            spread = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})" \
                if s["n"] > 1 else ""
            print(f"  {key:28s} {s['value']:>16.6g} {s['unit']}{spread}")

    show(record["metrics"])
    if record.get("host"):
        print("  in host seconds (reported, not compared):")
        show(record["host"])


def append_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _worse_share(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def compare_rows(runs_a: List[dict], runs_b: List[dict],
                 bench: dict) -> List[dict]:
    """Per (end-to-end metric, workload): medians and quartiles of both
    sides, the pair win fraction, and a verdict following the choosing-
    metrics rules (unresolved when either side's spread exceeds the
    bound, unless every B run beats every A run; a gain needs at least
    ``MIN_PAIRS`` pairs).  Both sets must use one run length."""
    rows = []
    untraced_a = [r for r in runs_a if not r["trace"]]
    untraced_b = [r for r in runs_b if not r["trace"]]
    lengths = {r["seconds"] for r in untraced_a + untraced_b}
    if len(lengths) > 1:
        raise ValueError(f"the sets mix run lengths {sorted(lengths)} s; "
                         f"compare runs of one length only")
    workloads = sorted({r["workload"] for r in untraced_a}
                       & {r["workload"] for r in untraced_b})
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            side_a = [r for r in untraced_a if r["workload"] == workload]
            side_b = [r for r in untraced_b if r["workload"] == workload]
            va = [r["metrics"][name]["value"] for r in side_a]
            vb = [r["metrics"][name]["value"] for r in side_b]
            sa, sb = summarize(va), summarize(vb)
            wins = ties = pairs = 0
            for seed in sorted({r["seed"] for r in side_a}):
                pa = [r["metrics"][name]["value"] for r in side_a
                      if r["seed"] == seed]
                pb = [r["metrics"][name]["value"] for r in side_b
                      if r["seed"] == seed]
                for x, y in zip(pa, pb):
                    pairs += 1
                    if x == y:
                        ties += 1
                    elif _worse_share(metric, x, y) < 0:
                        wins += 1
            worse = _worse_share(metric, sa["value"], sb["value"])
            spread = max((sa["q3"] - sa["q1"]) / sa["value"],
                         (sb["q3"] - sb["q1"]) / sb["value"])
            all_better = all(_worse_share(metric, x, y) < 0
                             for x in va for y in vb)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif pairs and wins >= 0.9 * pairs \
                    and abs(sb["value"] - sa["value"]) > sa["q3"] - sa["q1"]:
                verdict = "improved" if pairs >= MIN_PAIRS \
                    else "too few pairs"
            else:
                verdict = "within bound"
            rows.append({"metric": name, "workload": workload,
                         "a": sa, "b": sb, "pairs": pairs, "wins": wins,
                         "ties": ties, "worse": worse, "bound": bound,
                         "spread": spread, "verdict": verdict})
    return rows


def compare(path_a: Path, path_b: Path, bench: dict) -> int:
    try:
        rows = compare_rows(json.loads(path_a.read_text())["runs"],
                            json.loads(path_b.read_text())["runs"], bench)
    except ValueError as exc:
        print(f"run.py compare: {exc}", file=sys.stderr)
        return 2
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'metric':12s} {'workload':14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B wins':>7s} {'B worse':>8s} "
          f"{'bound':>6s}  verdict")
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['metric']:12s} {row['workload']:14s} "
              f"{a['value']:>11.5g} [{a['q1']:.5g}, {a['q3']:.5g}] n={a['n']}"
              f" {b['value']:>11.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
              f"n={b['n']} {row['wins']:>3d}/{row['pairs']:<3d} "
              f"{100 * row['worse']:>+7.2f}% {100 * row['bound']:>5.0f}%  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _parse(argv: List[str], bench: dict) -> argparse.Namespace:
    names = [w["name"] for w in bench["workloads"]]
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two sets of runs, metric by workload.")
        parser.add_argument("a", type=Path, help="baseline set (runs JSON)")
        parser.add_argument("b", type=Path, help="candidate set")
        args = parser.parse_args(argv[1:])
        args.command = "compare"
        return args
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed (default 1)")
    # The run length is the benchmark's, the same for every commit
    # compared; the flag only restates it.
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        choices=(float(bench["run_seconds"]),),
                        help="measuring time per workload; must be "
                             "BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="append the full records here")
    args = parser.parse_args(argv)
    args.command = "run"
    return args


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    args = _parse(sys.argv[1:] if argv is None else argv, bench)
    if args.command == "compare":
        return compare(args.a, args.b, bench)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no simulator sources under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    # Pin the simulator to its defaults and keep native libraries on one
    # thread; the workload processes inherit this environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    # Terminated, the benchmark still stops its workload process: the
    # SystemExit unwinds through subprocess.run, which kills and waits.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    names = [args.workload] if args.workload \
        else [w["name"] for w in bench["workloads"]]
    records = []
    for name in names:
        record = finish_record(
            run_in_child(name, args.seed, args.seconds, bool(args.trace)),
            bench)
        print_record(record)
        append_record(args.out, record)
        records.append(record)
    if len(records) == 1:
        line = result_line(records[0], bench)
    else:
        lines = [result_line(r, bench) for r in records]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}/{key}": value
                            for r, x in zip(records, lines)
                            for key, value in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
