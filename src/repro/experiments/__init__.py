"""Experiment infrastructure and the drivers that have no campaign spec.

Every paper figure is a spec under ``campaigns/`` that
:func:`repro.campaign.run_campaign` renders.  What stays here is the
runner they share, the tables and the SMT accuracy proxy.
"""

from .multicore_experiments import smt_accuracy_check
from .runner import (BASELINE, Config, ExperimentError, ExperimentRunner,
                     SCALES, Scale, current_scale)
from .tables import (contribution_storage_text, table1_text, table2_text,
                     table3_rows, table3_text)

__all__ = [
    "smt_accuracy_check",
    "BASELINE", "Config", "ExperimentError", "ExperimentRunner",
    "SCALES", "Scale", "current_scale",
    "contribution_storage_text", "table1_text", "table2_text",
    "table3_rows", "table3_text",
]
