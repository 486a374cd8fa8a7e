"""Multi-core experiments beyond Fig. 15 (Section VII-B).

Fig. 15 itself is ``campaigns/fig15.json``, rendered by the campaign
engine.  The SMT proxy below routes every mix simulation through the
runner's execution layer as an independent
:class:`~repro.exec.pool.MixJob`, so ``jobs>1`` shards it across worker
processes and a result store resumes it.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.metrics import amean
from .runner import Config, ExperimentRunner


def smt_accuracy_check(runner: ExperimentRunner,
                       n_mixes: int = 4) -> Dict[str, float]:
    """Section VII-B SMT discussion proxy: SUF accuracy under sharing.

    We approximate the 2-way SMT experiment by running 2-core mixes (two
    threads contending on the shared outer levels) and reporting the
    average SUF accuracy, which the paper finds stays above 99% (dropping
    to ~92% for pathological same-trace mixes).
    """
    mixes = runner.mixes(cores=2)[:n_mixes]
    config = Config(secure=True, suf=True)
    accuracies = []
    for shared in runner.run_mixes(config, mixes, cores=2):
        if shared is None:
            continue
        for result in shared.per_core:
            if result.gm is not None:
                accuracies.append(result.gm.suf_accuracy())
    return {"mean_suf_accuracy": amean(accuracies),
            "min_suf_accuracy": min(accuracies) if accuracies else 0.0}
