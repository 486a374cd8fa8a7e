"""Fig. 13: prefetch accuracy of baseline and timely-secure versions.

Paper shape: on-commit training costs accuracy; the TS versions recover
it; Berti/TSB sit at the top of the accuracy range (~90%).
"""

import math


def test_fig13(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig13",), rounds=1,
                                iterations=1)
    record("fig13", result.text)

    for label, values in result.rows.items():
        for v in values:
            assert math.isnan(v) or 0.0 <= v <= 100.0, label
    # Berti's on-access accuracy is high (paper: ~90%); TSB's secure
    # accuracy is comparable.
    berti_oa = result.rows["berti"][0]
    tsb_oc = result.rows["tsb"][1]
    assert berti_oa > 60.0
    assert tsb_oc > 60.0
