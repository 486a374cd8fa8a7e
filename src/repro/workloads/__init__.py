"""Trace containers and synthetic SPEC/GAP-like workload generators."""

from .gap import GAP_KERNELS, build_graph, gap_trace, gap_traces
from .io import TraceFormatError, load_trace, save_trace
from .mixes import generate_mixes, mix_name, workload_pool
from .prebuilt import cached_trace, cached_workload_pool
from .spec import SPEC_WORKLOADS, spec_trace, spec_traces
from .synthetic import (TraceBuilder, hot_cold_trace, interleave,
                        pointer_chase_trace, region_trace, stream_trace)
from .trace import (BLOCK_SHIFT, BLOCK_SIZE, FLAG_BRANCH, FLAG_LOAD,
                    FLAG_MISPREDICT, FLAG_STORE, FLAG_WRONG_PATH, Trace,
                    alu, block_of, branch, load, store)

__all__ = [
    "GAP_KERNELS", "build_graph", "gap_trace", "gap_traces",
    "TraceFormatError", "load_trace", "save_trace",
    "generate_mixes", "mix_name", "workload_pool",
    "cached_trace", "cached_workload_pool",
    "SPEC_WORKLOADS", "spec_trace", "spec_traces",
    "TraceBuilder", "hot_cold_trace", "interleave", "pointer_chase_trace",
    "region_trace", "stream_trace",
    "BLOCK_SHIFT", "BLOCK_SIZE", "FLAG_BRANCH", "FLAG_LOAD",
    "FLAG_MISPREDICT", "FLAG_STORE", "FLAG_WRONG_PATH", "Trace",
    "alu", "block_of", "branch", "load", "store",
]
