"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the available SPEC-like and GAP-like workloads.
``run``
    Simulate one workload under one configuration and print its metrics.
    ``--timeseries``/``--sample-interval`` export an interval time-series;
    ``--metrics`` dumps the full metric registry.
``trace``
    Simulate one workload with structured event tracing and export the
    events as JSONL (``repro.obs.validate`` checks such files in CI).
``compare``
    Run the paper's standard configurations side by side on one workload.
``campaign``
    Render paper figures: run one or more declarative campaign specs
    (``campaigns/<name>.json`` or any spec file) through the execution
    layer (a process pool and the result store) on one runner; a failed
    cell renders ``n/a`` and the command exits 1.  ``--dry-run`` prints
    the expanded job plans, ``--resume`` continues from the result
    store, ``--expect-cached`` checks that nothing re-simulated.
``tables``
    Print Tables I-III and the contribution storage budget.
``figcheck``
    Render every committed campaign spec and assert each figure metric
    stays within a stated epsilon of the pinned snapshot
    (``campaigns/golden/figures_golden.json``); the semantic gate for
    reviewed modeled-time changes.  ``--update`` re-pins the snapshot.
``attack``
    Mount one attack from the library (``--attack``) under a registered
    defense (``--mitigation``), or the legacy covert channel via the
    ``--secure``/``--suf``/``--mode`` flags.
``security-matrix``
    Render the attack x defense x prefetcher matrix: per-cell leakage
    plus each defense's geomean IPC cost (docs/SECURITY.md).

Signals: every command exits 130 on SIGINT and 143 on SIGTERM.  A
command with a result store first writes the jobs it finished, so a
rerun resumes from them (docs/RESILIENCE.md).

Examples
--------
::

    python -m repro run 605.mcf-1554B --secure --suf --prefetcher tsb
    python -m repro compare 619.lbm-2676B --loads 10000
    python -m repro campaign fig11 --scale tiny --jobs 2
    python -m repro campaign campaigns/fig*.json \
        campaigns/suf_statistics.json --scale small --jobs 4
    python -m repro campaign campaigns/matrix_demo.json --dry-run
    python -m repro figcheck --epsilon 0.02
    python -m repro attack --secure --mode on-commit
    python -m repro attack --attack prime-probe --mitigation rand-llc
    python -m repro security-matrix --scale tiny --jobs 2
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from .analysis.metrics import apki_breakdown, load_miss_latency, mpki
from .exec.options import ExecOptions, default_store, exec_arguments
from .experiments.runner import SCALES, ExperimentRunner, current_scale
from .obs import ObsConfig, events_jsonl, write_timeseries
from .prefetchers.base import MODE_ON_ACCESS, MODE_ON_COMMIT
from .sim.system import System
from .workloads.gap import GAP_KERNELS, gap_traces
from .workloads.spec import SPEC_WORKLOADS, spec_trace
from .workloads.trace import Trace

#: Default result-store directory (overridable via REPRO_STORE or --store).
DEFAULT_STORE = default_store()


def _require_positive(value: int, flag: str) -> int:
    if value <= 0:
        raise SystemExit(f"{flag} must be a positive integer, got {value}")
    return value


def _cannot_write(flag: str, path: str, exc: OSError) -> SystemExit:
    """The clean CLI error for an output file that cannot be written."""
    return SystemExit(f"{flag}: cannot write {path}: {exc.strerror or exc}")


def _exec_options(args) -> ExecOptions:
    """Resolve the shared execution flags, surfacing bad values as
    clean CLI errors."""
    try:
        return ExecOptions.from_args(args)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _exec_runner(args, *, failsoft: bool = True,
                 scale=None) -> ExperimentRunner:
    """An ExperimentRunner wired to the execution layer from CLI flags."""
    return _exec_options(args).make_runner(
        scale=scale if scale is not None else SCALES[args.scale],
        failsoft=failsoft)


def _build_trace(name: str, n_loads: int) -> Trace:
    if name in SPEC_WORKLOADS:
        return spec_trace(name, n_loads)
    for trace in gap_traces(n_loads):
        if trace.name.startswith(name):
            return trace
    raise SystemExit(
        f"unknown workload {name!r}; run `python -m repro workloads`")


def _make_system(args, runner: Optional[ExperimentRunner] = None,
                 obs: Optional[ObsConfig] = None) -> System:
    if runner is None:
        runner = ExperimentRunner(scale=SCALES["small"])
    mode = MODE_ON_COMMIT if args.mode == "on-commit" else MODE_ON_ACCESS
    try:
        prefetcher = runner.build_prefetcher(args.prefetcher)
        return System(secure=args.secure, suf=args.suf,
                      delay_mitigation=getattr(args, "delay", False),
                      prefetcher=prefetcher, train_mode=mode, obs=obs)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_workloads(args) -> int:
    print("SPEC CPU2017-like workloads:")
    for name in SPEC_WORKLOADS:
        print(f"  {name}")
    print("GAP-like kernels:")
    for name in sorted(GAP_KERNELS):
        print(f"  {name}")
    return 0


def cmd_run(args) -> int:
    _exec_options(args)  # same flag validation as every other command
    _require_positive(args.loads, "--loads")
    trace = _build_trace(args.workload, args.loads)
    interval = args.sample_interval
    if interval < 0:
        raise SystemExit(f"--sample-interval must be >= 0, got {interval}")
    if args.timeseries and not interval:
        interval = 1000
    obs = ObsConfig(sample_interval=interval) if interval else None
    system = _make_system(args, obs=obs)
    result = system.run(trace)
    split = apki_breakdown(result)
    print(f"configuration : {system.label}")
    print(f"workload      : {trace.name} "
          f"({result.committed} committed instructions)")
    print(f"IPC           : {result.ipc:.3f}")
    print(f"L1D MPKI      : {mpki(result):.1f}")
    print(f"L1D miss lat. : {load_miss_latency(result):.1f} cycles")
    print(f"L1D APKI      : load={split['load']:.1f} "
          f"prefetch={split['prefetch']:.1f} commit={split['commit']:.1f}")
    if result.gm is not None:
        print(f"GM            : {result.gm.gm_hits} hits, "
              f"{result.gm.commit_writes} commit writes, "
              f"{result.gm.commit_refetches} re-fetches, "
              f"{result.gm.commit_drops_suf} SUF drops "
              f"(accuracy {100 * result.gm.suf_accuracy():.1f}%)")
    if "delayed_loads" in result.extras:
        print(f"delayed loads : {result.extras['delayed_loads']:.0f} "
              f"(avg {result.extras['avg_delay_cycles']:.0f} cycles)")
    if result.timeseries is not None:
        print(f"time series   : {len(result.timeseries)} interval(s) of "
              f"{interval} instructions")
        if args.timeseries:
            try:
                fmt = write_timeseries(result.timeseries, args.timeseries)
            except OSError as exc:
                raise _cannot_write("--timeseries", args.timeseries, exc)
            print(f"wrote {args.timeseries} ({fmt})")
    if args.metrics:
        print()
        for line in system.metrics().describe():
            print(line)
    return 0


def cmd_trace(args) -> int:
    """Simulate one workload with event tracing on; export/print JSONL."""
    _require_positive(args.loads, "--loads")
    _require_positive(args.capacity, "--capacity")
    if args.limit is not None:
        _require_positive(args.limit, "--limit")
    trace = _build_trace(args.workload, args.loads)
    obs = ObsConfig(trace_events=True, trace_capacity=args.capacity)
    system = _make_system(args, obs=obs)
    system.run(trace)
    events = system.events
    text = events_jsonl(events)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _cannot_write("--output", args.output, exc)
        counts = ", ".join(f"{kind}={n}" for kind, n in
                           sorted(events.counts_by_kind().items()))
        print(f"wrote {args.output}: {len(events)} event(s) retained, "
              f"{events.dropped()} dropped ({counts})")
    else:
        lines = text.splitlines()
        if args.limit is not None and len(lines) > args.limit:
            lines = lines[-args.limit:]
        for line in lines:
            print(line)
    return 0


def cmd_compare(args) -> int:
    _require_positive(args.loads, "--loads")
    trace = _build_trace(args.workload, args.loads)
    runner = ExperimentRunner(scale=SCALES["small"])
    configs = [
        ("non-secure, no prefetch", dict()),
        ("GhostMinion, no prefetch", dict(secure=True)),
        ("GhostMinion + on-commit berti",
         dict(secure=True, prefetcher="berti", mode="on-commit")),
        ("GhostMinion + TSB + SUF",
         dict(secure=True, suf=True, prefetcher="tsb", mode="on-commit")),
    ]
    base_ipc = None
    print(f"{'configuration':34s}{'IPC':>8s}{'speedup':>9s}"
          f"{'L1D MPKI':>10s}")
    for label, opts in configs:
        ns = argparse.Namespace(
            secure=opts.get("secure", False), suf=opts.get("suf", False),
            prefetcher=opts.get("prefetcher", "none"),
            mode=opts.get("mode", "on-access"))
        result = _make_system(ns, runner).run(trace)
        if base_ipc is None:
            base_ipc = result.ipc
        print(f"{label:34s}{result.ipc:8.3f}"
              f"{result.ipc / base_ipc:9.3f}{mpki(result):10.1f}")
    return 0


def _resolve_specs(names: List[str]):
    """Load every named spec, or exit naming the unknown or invalid
    ones -- before any runner, store or trace is built."""
    from pathlib import Path

    from .campaign import campaigns_dir, find_campaign_spec, load_spec
    paths = [Path(name) if Path(name).is_file()
             else find_campaign_spec(name) for name in names]
    unknown = [name for name, path in zip(names, paths) if path is None]
    if unknown:
        root = campaigns_dir()
        known = sorted(p.stem for p in root.glob("*.json")) \
            if root else []
        raise SystemExit(
            f"no campaign spec {', '.join(map(repr, unknown))} (not a "
            f"file, and not a committed campaign); known: {known}")
    try:
        return [load_spec(path) for path in paths]
    except ValueError as exc:   # a SpecError, or an unknown REPRO_SCALE
        raise SystemExit(str(exc))


def cmd_campaign(args) -> int:
    """Run one or more declarative campaign specs end to end.

    Every spec resolves before anything runs, and all of them share
    one runner, so their common cells simulate once.  A spec that
    raises is reported on stderr and the rest still render; the exit
    status is then 1.  ``--dry-run`` prints the expanded job plans
    (configs x workloads, estimated cell count) without building a
    trace or simulating; ``--resume`` asserts a persistent store is in
    play so an interrupted campaign continues from the completed cells;
    ``--expect-cached`` additionally fails if anything re-simulated.
    """
    from .campaign import compile_plan, run_campaign
    specs = _resolve_specs(args.specs)
    scales = [spec.resolve_scale(args.scale) for spec in specs]
    if len({scale.name for scale in scales}) > 1:
        pins = ", ".join(f"{spec.name}: {scale.name}"
                         for spec, scale in zip(specs, scales))
        raise SystemExit(f"the specs resolve to different scales ({pins}); "
                         "pick one with --scale")
    scale = scales[0]
    if args.dry_run:
        print("\n\n".join(compile_plan(spec, scale).describe()
                          for spec in specs))
        return 0
    options = _exec_options(args)
    if args.resume and options.store is None:
        raise SystemExit("--resume needs a persistent result store; "
                         "drop --no-store")
    runner = _exec_runner(args, scale=scale)
    broken = False
    for spec in specs:
        try:
            result = run_campaign(spec, runner)
        except Exception as exc:
            # One broken spec (e.g. a trace absent at this scale) must
            # not abort the rest.
            broken = True
            print(f"[campaign {spec.name} failed: "
                  f"{type(exc).__name__}: {exc}]", file=sys.stderr)
            continue
        print(result.text)
        print()
    stats = runner.execution_stats()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()))
    print(f"[campaign {' '.join(spec.name for spec in specs)}: {summary}]")
    print(f"[{runner.profile_summary()}]")
    if runner.failures:
        print(runner.failure_summary(), file=sys.stderr)
    if broken or runner.failures:
        return 1
    if args.expect_cached and stats.get("simulated", 0) > 0:
        print(f"--expect-cached: {stats['simulated']} job(s) were "
              "re-simulated instead of hitting the store",
              file=sys.stderr)
        return 1
    return 0


def cmd_tables(args) -> int:
    from .experiments.tables import (contribution_storage_text,
                                     table1_text, table2_text, table3_text)
    print(table1_text())
    print()
    print(table2_text())
    print()
    print(table3_text())
    print()
    print(contribution_storage_text())
    return 0


def cmd_multicore(args) -> int:
    from .experiments.runner import BASELINE, Config, Scale
    from .workloads.mixes import generate_mixes, mix_name
    _require_positive(args.mixes, "--mixes")
    _require_positive(args.cores, "--cores")
    _require_positive(args.loads, "--loads")
    mode = MODE_ON_COMMIT if args.mode == "on-commit" else MODE_ON_ACCESS
    try:
        config = Config(prefetcher=args.prefetcher, secure=args.secure,
                        suf=args.suf, mode=mode)
    except ValueError as exc:
        raise SystemExit(str(exc))
    scale = Scale("multicore-cli", args.loads, 6, 2, args.mixes)
    runner = _exec_runner(args, scale=scale)
    mixes = generate_mixes(runner.pool(), n_mixes=args.mixes,
                           cores=args.cores, seed=args.seed)
    # Alone-IPC runs (weighted-speedup denominators) are single-core
    # baseline jobs; each mix is one shardable job.  Both batches ride the
    # pool/store, so --jobs fans them out and a re-run resumes.
    distinct = list({t.name: t for mix in mixes for t in mix}.values())
    runner.run_pool(BASELINE, distinct)
    results = runner.run_mixes(config, mixes, cores=args.cores)
    print(f"{'mix':40s}{'weighted speedup':>18s}")
    total = []
    for mix, result in zip(mixes, results):
        if result is None:
            print(f"{mix_name(mix):40s}{'n/a':>18s}")
            continue
        alone = [runner.run(BASELINE, t).ipc for t in mix]
        ws = result.weighted_speedup(alone)
        total.append(ws)
        print(f"{mix_name(mix):40s}{ws:18.3f}")
    if total:
        print(f"{'average':40s}{sum(total) / len(total):18.3f}")
    summary = runner.failure_summary()
    if summary:
        print(summary, file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    """Assemble benchmarks/results/*.txt into one markdown report."""
    from pathlib import Path
    results = Path(args.results_dir)
    if not results.is_dir():
        raise SystemExit(
            f"{results}: no results directory -- run "
            "`pytest benchmarks/ --benchmark-only` first")
    files = sorted(results.glob("*.txt"))
    if args.sections:
        present = [p.stem for p in files]
        missing = [n for n in args.sections if n not in present]
        if missing:
            raise SystemExit(
                f"{results}: no <name>.txt for {missing}; "
                f"present: {present}")
        files = [p for p in files if p.stem in args.sections]
    if not files:
        raise SystemExit(f"{results}: empty -- run the benchmarks first")
    lines = ["# Reproduced tables and figures", "",
             "Generated from `benchmarks/results/` by "
             "`python -m repro report`.", ""]
    for path in files:
        lines.append(f"## {path.stem}")
        lines.append("")
        lines.append("```text")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise _cannot_write("--output", args.output, exc)
        print(f"wrote {args.output} ({len(files)} sections)")
    else:
        print(text)
    return 0


def cmd_figcheck(args) -> int:
    """Figure-level tolerance gate for reviewed semantic changes.

    Renders every committed campaign spec at the snapshot's scale and
    asserts each numeric figure cell stays within ``--epsilon`` of
    campaigns/golden/figures_golden.json; ``--update`` re-pins the
    snapshot (with a provenance header) instead.
    """
    from .campaign import figcheck
    if args.epsilon is None:
        args.epsilon = figcheck.EPSILON
    if not 0 < args.epsilon < 1:
        raise SystemExit(f"--epsilon must be in (0, 1), "
                         f"got {args.epsilon}")
    try:
        # A spec without a scale pin is validated at REPRO_SCALE.
        current_scale()
    except ValueError as exc:
        raise SystemExit(str(exc))
    progress = None if args.quiet else (
        lambda name: print(f"  rendering {name} ...", file=sys.stderr))
    if args.update:
        doc = figcheck.snapshot(progress=progress)
        try:
            path = figcheck.write_snapshot(doc)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(f"pinned {len(doc['figures'])} figures -> {path}")
        return 0
    try:
        ok, problems = figcheck.check(epsilon=args.epsilon,
                                      progress=progress)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    if ok:
        reference = figcheck.load_snapshot()
        print(f"figcheck: {len(reference['figures'])} figures within "
              f"epsilon {args.epsilon:g} of the pinned snapshot")
        return 0
    print(f"figcheck: {len(problems)} figure metric(s) out of "
          f"tolerance (epsilon {args.epsilon:g}):")
    for line in problems:
        print(f"  {line}")
    return 1


def cmd_attack(args) -> int:
    """Mount one attack from the library under one defense.

    ``--attack``/``--mitigation`` select registered names (the security
    matrix's axes); the legacy ``--secure``/``--suf``/``--mode`` flags
    still drive the original covert channel directly.
    """
    from .security.attacks import (run_attack,
                                   run_prefetch_covert_channel)
    secret = [1, 0, 1, 1, 0, 0, 1, 0]
    if args.mitigation is not None or args.attack != "covert-stride":
        if args.secure or args.suf or args.mode != "on-access":
            raise SystemExit(
                "--attack/--mitigation replace the legacy "
                "--secure/--suf/--mode flags; pick one style")
        try:
            result = run_attack(args.attack, args.mitigation or
                                "nonsecure", args.prefetcher, secret)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        mode = MODE_ON_COMMIT if args.mode == "on-commit" \
            else MODE_ON_ACCESS
        runner = ExperimentRunner(scale=SCALES["small"])
        try:
            result = run_prefetch_covert_channel(
                secret, secure=args.secure, suf=args.suf, train_mode=mode,
                prefetcher=runner.build_prefetcher(args.prefetcher))
        except ValueError as exc:
            raise SystemExit(str(exc))
    bits = "".join("?" if b is None else str(b)
                   for b in result.recovered_bits)
    print(f"secret    : {''.join(map(str, secret))}")
    print(f"recovered : {bits}")
    print(f"verdict   : {'LEAKED' if result.leaked else 'channel closed'}")
    return 0


def _csv_names(value: Optional[str]) -> Optional[List[str]]:
    """Split a comma-separated CLI list (``None``/empty -> ``None``)."""
    if not value:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def cmd_security_matrix(args) -> int:
    """Render the attack x defense x prefetcher security matrix.

    Leakage cells run in-process; the IPC-cost column routes each
    defense's pool sweep through the execution layer, so ``--jobs`` and
    ``--store`` behave exactly as they do for ``campaign``.
    """
    from .security.matrix import run_security_matrix
    bits = None
    if args.bits:
        if not all(c in "01" for c in args.bits):
            raise SystemExit(
                f"--bits must be a string of 0s and 1s, got {args.bits!r}")
        bits = [int(c) for c in args.bits]
    runner = _exec_runner(args)
    try:
        matrix = run_security_matrix(
            runner,
            attacks=_csv_names(args.attacks),
            defenses=_csv_names(args.defenses),
            prefetchers=_csv_names(args.prefetchers) or ["ip-stride"],
            secret_bits=bits, metric=args.metric,
            cost=not args.no_cost)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(matrix.text)
    if runner.store is not None:
        print(f"\n[{runner.store.summary()}]")
    if runner.failures:
        print(runner.failure_summary(), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Secure Prefetching for Secure "
                    "Cache Systems' (MICRO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    # One shared parent parser (repro.exec.options) carries the
    # execution/store flags for every simulation-driving command;
    # ExecOptions resolves them identically everywhere.
    exec_parent = exec_arguments()

    sub.add_parser("workloads", help="list available workloads")

    def add_config_flags(p, default_pf="none"):
        p.add_argument("--secure", action="store_true",
                       help="GhostMinion secure cache system")
        p.add_argument("--suf", action="store_true",
                       help="enable the secure update filter")
        p.add_argument("--prefetcher", default=default_pf,
                       help="none, ip-stride, ipcp, bingo, spp+ppf, berti, "
                            "ts-<name>, or tsb")
        p.add_argument("--mode", choices=["on-access", "on-commit"],
                       default="on-access", help="prefetcher training mode")

    run_p = sub.add_parser("run", help="simulate one workload",
                           parents=[exec_parent])
    run_p.add_argument("workload")
    run_p.add_argument("--loads", type=int, default=10000)
    run_p.add_argument("--delay", action="store_true",
                       help="delay-on-miss mitigation instead")
    run_p.add_argument("--timeseries", metavar="FILE", default=None,
                       help="write the interval time-series to FILE "
                            "(.csv for CSV, otherwise JSONL)")
    run_p.add_argument("--sample-interval", type=int, default=0,
                       metavar="N",
                       help="sample every N committed instructions "
                            "(default: 1000 when --timeseries is given)")
    run_p.add_argument("--metrics", action="store_true",
                       help="dump the full metric registry after the run")
    add_config_flags(run_p)

    trc_p = sub.add_parser(
        "trace", help="simulate with event tracing; export JSONL")
    trc_p.add_argument("workload")
    trc_p.add_argument("--loads", type=int, default=10000)
    trc_p.add_argument("--output", metavar="FILE", default=None,
                       help="write events to FILE (default: stdout)")
    trc_p.add_argument("--limit", type=int, default=None, metavar="N",
                       help="print only the last N events (stdout mode)")
    trc_p.add_argument("--capacity", type=int, default=65536,
                       help="ring-buffer capacity (oldest events beyond "
                            "it are dropped)")
    add_config_flags(trc_p)

    cmp_p = sub.add_parser("compare",
                           help="standard configurations side by side")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--loads", type=int, default=10000)

    camp_p = sub.add_parser(
        "campaign", help="render figures from declarative campaign specs",
        parents=[exec_parent])
    camp_p.add_argument("specs", nargs="+", metavar="spec",
                        help="spec file (.json/.toml) or the name of a "
                             "committed campaign under campaigns/")
    camp_p.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="override the spec's scale (default: the "
                             "spec's pin, else the REPRO_SCALE default)")
    camp_p.add_argument("--dry-run", action="store_true",
                        help="print the expanded job plan and estimated "
                             "cell count without simulating")
    camp_p.add_argument("--resume", action="store_true",
                        help="continue an interrupted campaign from the "
                             "result store (requires a store; completed "
                             "cells are never re-simulated)")
    camp_p.add_argument("--expect-cached", action="store_true",
                        help="fail if any job re-simulated instead of "
                             "hitting the store (resume verification)")

    sub.add_parser("tables", help="print Tables I-III")

    fc_p = sub.add_parser(
        "figcheck",
        help="check every campaign figure against the pinned snapshot")
    fc_p.add_argument("--epsilon", type=float, default=None,
                      help="per-cell tolerance (default: the module's "
                           "pinned 0.02; see campaign/figcheck.py for "
                           "the exact rule)")
    fc_p.add_argument("--update", action="store_true",
                      help="re-pin campaigns/golden/figures_golden.json "
                           "from this tree (stamps provenance)")
    fc_p.add_argument("--quiet", action="store_true",
                      help="suppress per-figure progress on stderr")

    atk_p = sub.add_parser("attack", help="mount the covert channel")
    atk_p.add_argument("--attack", default="covert-stride",
                       help="attack from the library (covert-stride, "
                            "prime-probe, stride-inference, "
                            "cross-core-probe)")
    atk_p.add_argument("--mitigation", default=None,
                       help="registered defense name (nonsecure, "
                            "delay-on-miss, ghostminion, rand-llc, "
                            "prefender, ...)")
    add_config_flags(atk_p, default_pf="ip-stride")

    sm_p = sub.add_parser(
        "security-matrix",
        help="render the attack x defense x prefetcher matrix",
        parents=[exec_parent])
    sm_p.add_argument("--scale", choices=sorted(SCALES), default="tiny",
                      help="workload-pool scale for the IPC-cost column "
                           "(default: tiny)")
    sm_p.add_argument("--attacks", default=None, metavar="A,B,...",
                      help="comma-separated attack names "
                           "(default: every registered attack)")
    sm_p.add_argument("--defenses", default=None, metavar="D,E,...",
                      help="comma-separated mitigation names "
                           "(default: the committed matrix rows)")
    sm_p.add_argument("--prefetchers", default=None, metavar="P,Q,...",
                      help="comma-separated prefetcher names, one table "
                           "each (default: ip-stride)")
    sm_p.add_argument("--bits", default=None, metavar="0110...",
                      help="secret bit-string the attacks transmit "
                           "(default: the 8-bit library secret)")
    sm_p.add_argument("--metric", default="bit_success_rate",
                      help="leakage metric per cell: bit_success_rate, "
                           "channel_capacity, or separability")
    sm_p.add_argument("--no-cost", action="store_true",
                      help="skip the IPC-cost column (no workload "
                           "simulations at all)")

    mc_p = sub.add_parser("multicore", help="run 4-core mixes",
                          parents=[exec_parent])
    mc_p.add_argument("--mixes", type=int, default=4)
    mc_p.add_argument("--cores", type=int, default=4)
    mc_p.add_argument("--loads", type=int, default=5000)
    mc_p.add_argument("--seed", type=int, default=7)
    add_config_flags(mc_p)

    rep_p = sub.add_parser(
        "report", help="assemble benchmark results into markdown")
    rep_p.add_argument("sections", nargs="*",
                       help="only these results, by file stem, e.g. fig1 "
                            "or table1 (default: every result)")
    rep_p.add_argument("--results-dir", default="benchmarks/results")
    rep_p.add_argument("--output", default=None)

    return parser


COMMANDS = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "trace": cmd_trace,
    "compare": cmd_compare,
    "campaign": cmd_campaign,
    "tables": cmd_tables,
    "figcheck": cmd_figcheck,
    "attack": cmd_attack,
    "security-matrix": cmd_security_matrix,
    "multicore": cmd_multicore,
    "report": cmd_report,
}


class _Terminated(BaseException):
    """Raised by the SIGTERM handler to unwind like KeyboardInterrupt."""


def _on_sigterm(signum, frame):
    raise _Terminated


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM parity with SIGINT: both unwind cleanly (finally blocks,
    # store checkpoints) and exit with the conventional 128+signal code.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except KeyboardInterrupt:
        # Aborted long sweeps exit cleanly; the result store means a rerun
        # resumes from the last completed job.  128 + SIGINT = 130.
        print("\ninterrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("\nterminated", file=sys.stderr)
        return 143
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
