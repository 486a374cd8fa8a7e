"""Fig. 15: 4-core mixes -- where SUF and TSB matter most.

Paper shape: GhostMinion's multi-core overhead is much larger than
single-core (16.8% in the paper); SUF improves every mix; TSB+SUF is the
best secure configuration.
"""


def test_fig15(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig15",), rounds=1,
                                iterations=1)
    record("fig15", result.text)

    rows = result.rows
    secure = rows["no-pref/S"][0]
    assert secure < 1.0                      # GhostMinion costs WS
    # SUF and TSB recover performance on the secure system.
    assert rows["berti-OC/S+SUF"][0] >= rows["berti-OC/S"][0] - 0.01
    assert rows["tsb+suf"][0] >= rows["berti-OC/S"][0]
    assert rows["tsb+suf"][0] > secure
