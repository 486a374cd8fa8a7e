"""Fig. 6: the demand-miss taxonomy (uncovered / missed opportunity /
late / commit-late) for on-access vs on-commit prefetching.

Paper shape: the *commit-late* category exists only for on-commit
prefetching and is the main source of its extra misses; uncovered misses
do not grow when moving to on-commit.
"""

from repro.core.classification import CAT_COMMIT_LATE, CATEGORIES
from repro.prefetchers import PAPER_PREFETCHERS


def test_fig6(benchmark, figure, record):
    result = benchmark.pedantic(figure, args=("fig6",), rounds=1,
                                iterations=1)
    record("fig6", result.text)

    idx = list(CATEGORIES).index(CAT_COMMIT_LATE)
    commit_late_seen = 0.0
    for name in PAPER_PREFETCHERS:
        on_access = result.rows[f"{name}/on-access"]
        on_commit = result.rows[f"{name}/on-commit"]
        assert on_access[idx] == 0.0        # defined only on-commit
        commit_late_seen += on_commit[idx]
        assert all(v >= 0 for v in on_access + on_commit)
    assert commit_late_seen > 0.0
