"""Fig. 4: average L1D load miss latency under on-access prefetching.

Paper shape: the secure system raises miss latency for every prefetcher
(additional commit traffic contends for ports/MSHRs/DRAM).
"""

from repro.prefetchers import PAPER_PREFETCHERS


def test_fig4(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig4",), rounds=1,
                                iterations=1)
    record("fig4", result.text)

    raised = 0
    for name in PAPER_PREFETCHERS:
        row = dict(zip(result.columns, result.rows[name]))
        assert row["on-access/NS"] > 0
        if row["on-access/S"] >= row["on-access/NS"]:
            raised += 1
    # The secure system raises latency for most prefetchers.
    assert raised >= len(PAPER_PREFETCHERS) - 1
