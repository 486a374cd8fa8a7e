"""Fig. 3: L1D APKI split into Load / Prefetch / Commit requests.

Paper shape: the secure system's commit requests roughly double L1D
traffic (199 -> 375 APKI without prefetching in the paper); with L1D
prefetchers a prefetch component appears on top.
"""


def test_fig3(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig3",), rounds=1,
                                iterations=1)
    record("fig3", result.text)

    def total(label):
        return sum(result.rows[label])

    def commit(label):
        return dict(zip(result.columns, result.rows[label]))["commit"]

    # Commit requests exist only on the secure system and dominate the
    # increase.
    assert commit("none/NS") == 0
    assert commit("none/S") > 0
    assert total("none/S") > 1.4 * total("none/NS")
    # L1D prefetchers add visible prefetch traffic on the L1D.
    berti_ns = dict(zip(result.columns, result.rows["berti/NS"]))
    assert berti_ns["prefetch"] > 0
