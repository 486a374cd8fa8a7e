"""Fig. 10: timely-secure (TS) versions vs naive on-commit prefetching.

Paper shape: every TS variant outperforms (or at worst matches) its naive
on-commit version; TSB is the best secure prefetcher.
"""

from repro.prefetchers import PAPER_PREFETCHERS


def test_fig10(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig10",), rounds=1,
                                iterations=1)
    record("fig10", result.text)

    improved = 0
    for name in PAPER_PREFETCHERS:
        oc, ts = result.rows[name]
        if ts >= oc - 0.005:
            improved += 1
    assert improved >= len(PAPER_PREFETCHERS) - 1
    # TSB (the berti row's TS column) leads the secure prefetchers.
    tsb = result.rows["berti"][1]
    others = [result.rows[n][1] for n in PAPER_PREFETCHERS
              if n != "berti"]
    assert tsb >= max(others) - 0.02
