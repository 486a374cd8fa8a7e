"""Long random traces through every secure golden config.

A drained commit window can hold more DRAM-bound re-fetches than a
level has MSHRs, and each one holds a slot at every level until the
window's shared DRAM handoff (``flatwalk.make_refetch_batch``).  The
drain must then hand off early instead of reading an empty pool.  The
property strategy in tests/test_properties.py stops at 120 records,
which is too short to fill a window that far; at 350 low-locality
records most traces do.
"""

import random

import pytest

from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_STORE, FLAG_WRONG_PATH, Trace)

try:
    from .goldenlib import build_system
    from .test_golden_stats import CONFIGS
except ImportError:  # direct script run: tests/sim is sys.path[0]
    from goldenlib import build_system
    from test_golden_stats import CONFIGS

#: Committed blocks live here, wrong-path blocks in a disjoint region.
COMMITTED_BASE = 1 << 20
WRONG_BASE = 1 << 26

SECURE_CONFIGS = sorted(name for name, config in CONFIGS.items()
                        if config.get("secure"))


def random_trace(seed: int, records: int = 350,
                 blocks: int = 600) -> Trace:
    """A tests/test_properties.py-style trace over ``blocks`` committed
    blocks, drawn from a seeded generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(records):
        kind = rng.choice(
            ["load", "load", "load", "store", "alu", "branch", "wrong"])
        if kind == "load":
            block = COMMITTED_BASE + rng.randrange(blocks)
            out.append((0x400, block * 64, FLAG_LOAD))
        elif kind == "store":
            block = COMMITTED_BASE + rng.randrange(blocks)
            out.append((0x404, block * 64, FLAG_STORE))
        elif kind == "alu":
            out.append((0x408, -1, 0))
        elif kind == "branch":
            out.append((0x40C, -1, FLAG_BRANCH))
        else:
            out.append((0x40C, -1, FLAG_BRANCH | FLAG_MISPREDICT))
            for _ in range(rng.randint(1, 4)):
                block = WRONG_BASE + rng.randrange(400)
                out.append((0x410, block * 64,
                            FLAG_LOAD | FLAG_WRONG_PATH))
    out += [(0x500, -1, 0)] * 30   # drain tail
    return Trace(f"refetch-{seed}", out)


@pytest.mark.parametrize("name", SECURE_CONFIGS)
def test_long_random_traces_drain(name):
    for seed in range(20):
        trace = random_trace(seed)
        result = build_system(CONFIGS[name]).run(trace, warmup=0.0)
        assert result.committed == trace.committed_count
