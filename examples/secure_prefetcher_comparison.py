#!/usr/bin/env python3
"""Compare all five prefetchers across the paper's training regimes.

For each of IP-stride, IPCP, Bingo, SPP+PPF, and Berti, this example runs:

* on-access on the non-secure system (the insecure upper bound);
* naive on-commit on GhostMinion (secure but timeliness-impaired);
* the timely-secure (TS) variant on GhostMinion with SUF -- the paper's
  proposal (TSB for Berti).

It reproduces, at example scale, the ordering of Figs. 1, 10, and 11.
"""

from repro.analysis import amean, geomean, prefetch_accuracy, speedup
from repro.experiments import BASELINE, Config, ExperimentRunner, SCALES
from repro.prefetchers import PAPER_PREFETCHERS


def main() -> None:
    runner = ExperimentRunner(scale=SCALES["tiny"])
    traces = runner.pool()
    print(f"workloads: {', '.join(t.name for t in traces)}\n")

    header = (f"{'prefetcher':12s}{'on-access/NS':>14s}"
              f"{'on-commit/S':>13s}{'TS/S+SUF':>10s}{'TS accuracy':>13s}")
    print(header)
    print("-" * len(header))
    baselines = {t.name: runner.run(BASELINE, t) for t in traces}

    def mean_speedup(config):
        return geomean(
            speedup(runner.run(config, t), baselines[t.name])
            for t in traces)

    for name in PAPER_PREFETCHERS:
        on_access = Config.from_spec("nonsecure", name)
        on_commit = Config.from_spec("on-commit-secure", name)
        ts = Config.from_spec("timely-secure", name, suf=True)
        resolved = [prefetch_accuracy(runner.run(ts, t)) for t in traces]
        resolved = [a for a in resolved if a > 0]
        ts_acc = 100 * amean(resolved) if resolved else 0.0
        print(f"{name:12s}"
              f"{mean_speedup(on_access):14.3f}"
              f"{mean_speedup(on_commit):13.3f}"
              f"{mean_speedup(ts):10.3f}"
              f"{ts_acc:12.1f}%")

    secure_base = mean_speedup(Config.from_spec("on-commit-secure"))
    print(f"\n(no-prefetch GhostMinion reference: {secure_base:.3f})")


if __name__ == "__main__":
    main()
