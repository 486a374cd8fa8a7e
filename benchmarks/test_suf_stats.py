"""Section VII-A prose numbers: SUF accuracy and traffic reduction.

Paper shape: SUF filters accurately ~99.3% of the time on average
(worst trace 87.3%), and cuts the L1D traffic the secure system added.
"""


def test_suf_statistics(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("suf_statistics",), rounds=1,
                                iterations=1)
    record("suf_statistics", result.text)

    avg_accuracy, apki_suf, apki_plain = result.rows["average"]
    assert avg_accuracy > 85.0
    assert apki_suf < apki_plain
    for trace, (accuracy, *_rest) in result.rows.items():
        if trace != "average":
            assert accuracy > 60.0, trace
