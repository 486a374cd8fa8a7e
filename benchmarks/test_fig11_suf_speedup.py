"""Fig. 11: the secure update filter's effect per prefetcher.

Paper shape: SUF improves (or at worst does not hurt) every secure
prefetcher; TSB+SUF is the best overall secure configuration and
approaches the on-access non-secure bound.
"""

from repro.prefetchers import PAPER_PREFETCHERS


def test_fig11(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig11",), rounds=1,
                                iterations=1)
    record("fig11", result.text)

    for name in PAPER_PREFETCHERS:
        oa_ns, oc, oc_suf = result.rows[name]
        assert oc_suf >= oc - 0.01, name       # SUF never hurts
    tsb_row = result.rows["tsb"]
    best_secure = max(max(result.rows[n][1:]) for n in PAPER_PREFETCHERS)
    assert max(tsb_row[1:]) >= best_secure - 0.02
    # TSB+SUF lands above the secure no-prefetch line.
    assert tsb_row[2] > result.rows["no-pref (secure)"][0]
