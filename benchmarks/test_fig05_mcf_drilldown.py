"""Fig. 5: the 605.mcf-1554B drill-down (speedup, traffic, latency).

Paper shape: mcf is the stress case -- the secure system's commit traffic
visibly inflates L1D accesses, and prefetchers behave very differently on
the secure vs non-secure system.
"""


def test_fig5(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig5",), rounds=1,
                                iterations=1)
    record("fig5", result.text)

    none_row = dict(zip(result.columns, result.rows["none"]))
    assert none_row["speedup/NS"] == 1.0
    # The drill-down's secure bars exist and stay within sane bounds.
    for label, values in result.rows.items():
        row = dict(zip(result.columns, values))
        assert 0.2 <= row["speedup/S"] <= 4.0, label
        assert row["latency/S"] > 0, label
