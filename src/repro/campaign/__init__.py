"""Declarative campaign engine: one spec format for every experiment.

A campaign spec (JSON/TOML under ``campaigns/``) declares a
cross-product of configurations x workloads plus derived outputs;
:func:`compile_plan` expands it into store-keyed jobs and
:func:`run_campaign` executes it through the shared runner/exec layer.
Every committed paper figure is one such spec; ``repro campaign`` is
the CLI front door.
"""

from .engine import FigureResult, run_campaign
from .metrics import METRICS, Metric
from .plan import CampaignPlan, PlanEntry, compile_plan
from .spec import (CampaignSpec, SpecError, campaigns_dir,
                   expand_outputs, find_campaign_spec, load_spec,
                   parse_spec, pool_trace_names)

__all__ = [
    "CampaignPlan", "CampaignSpec", "FigureResult", "METRICS", "Metric",
    "PlanEntry", "SpecError", "campaigns_dir", "compile_plan",
    "expand_outputs", "find_campaign_spec", "load_spec", "parse_spec",
    "pool_trace_names", "run_campaign",
]
