"""Fig. 14: normalized dynamic energy of the memory hierarchy.

Paper shape: the secure system raises dynamic energy for every
configuration (GM + commit traffic); SUF claws back a large share of the
increase.
"""

from repro.prefetchers import PAPER_PREFETCHERS


def test_fig14(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig14",), rounds=1,
                                iterations=1)
    record("fig14", result.text)

    assert result.rows["no-pref (secure)"][0] > 1.0
    recovered = 0
    for name in PAPER_PREFETCHERS:
        oa_ns, oc_s, oc_suf = result.rows[name]
        assert oc_s > oa_ns * 0.95       # secure costs energy
        if oc_suf <= oc_s + 1e-9:
            recovered += 1
    assert recovered >= len(PAPER_PREFETCHERS) - 1
