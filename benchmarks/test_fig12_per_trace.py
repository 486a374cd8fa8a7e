"""Fig. 12: per-trace speedups of on-commit Berti, TSB, and TSB+SUF.

Paper shape: TSB never degrades any trace by more than ~1%; TSB+SUF wins
in most traces, with the largest gains on timeliness-sensitive workloads.
"""

from repro.analysis import geomean


def test_fig12(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig12",), rounds=1,
                                iterations=1)
    record("fig12", result.text)

    oc = result.series["on-commit-berti"]
    tsb = result.series["tsb"]
    tsb_suf = result.series["tsb+suf"]
    # TSB (+SUF) wins on average.
    assert geomean(tsb.values()) >= geomean(oc.values()) - 0.005
    assert geomean(tsb_suf.values()) >= geomean(oc.values())
    # "TSB and TSB+SUF do not degrade performance in any trace" (paper);
    # allow small per-trace noise at reproduction scale.
    regressions = [name for name, value in tsb_suf.items()
                   if value < oc[name] * 0.93]
    assert len(regressions) <= max(1, len(tsb_suf) // 6), regressions
