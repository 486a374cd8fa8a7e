"""Fig. 1: prefetcher speedups across the three training regimes.

Paper shape: every prefetcher gains in all regimes; on-access non-secure
is the upper bound; moving to the secure cache system costs a few percent;
moving to on-commit costs a further ~3-4%.
"""

from repro.prefetchers import PAPER_PREFETCHERS


def test_fig1(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig1",), rounds=1,
                                iterations=1)
    record("fig1", result.text)

    berti = dict(zip(result.columns, result.rows["berti"]))
    # The paper's regime ordering for the top prefetcher.
    assert berti["on-access/NS"] >= berti["on-access/S"] - 0.01
    assert berti["on-access/S"] > berti["on-commit/S"] - 0.01
    # No prefetcher collapses below the no-prefetch secure line by much.
    floor = result.rows["no-pref (secure)"][0]
    for name in PAPER_PREFETCHERS:
        assert min(result.rows[name]) > floor - 0.06
