"""Golden-file regression tests: optimizations must stay bit-identical.

Hot-path optimization work is only allowed to make the simulator
*faster*, never *accidentally different*: every stats counter must
match the pinned snapshot.  These tests replay six pinned
configurations on a fixed synthetic trace and compare the full stats
snapshot -- core, all cache levels, GhostMinion, DRAM, TLB,
classification and extras -- against golden JSON.

Regenerate only when simulator *semantics* deliberately change (the
PR10 modeled-time pass is such a change; see docs/PERFORMANCE.md)::

    PYTHONPATH=src python tests/sim/test_golden_stats.py
    # or, during a test run:
    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim

Every regeneration stamps a provenance header (tree commit, generator,
timestamp) into the snapshot; the figure-level tolerance check
(``repro figcheck``) is the semantic gate for deliberate drifts.
(Any counter drift without a matching golden update is a bug.)
"""

from pathlib import Path

import pytest

from repro.obs import ObsConfig

try:
    from .goldenlib import (assert_provenance, build_system, load_golden,
                            write_golden)
except ImportError:  # direct script run: tests/sim is sys.path[0]
    from goldenlib import (assert_provenance, build_system, load_golden,
                           write_golden)

GOLDEN_PATH = Path(__file__).parent / "golden" / "stats_golden.json"

#: Pinned replay: workload / length / warm-up must match the golden header.
GOLDEN_WORKLOAD = "605.mcf-1554B"
GOLDEN_LOADS = 6000
GOLDEN_WARMUP = 0.2

#: Config kwargs in :func:`goldenlib.build_system` form, one snapshot
#: each: the unprotected baseline, a classic on-access prefetcher, and
#: the paper's full secure stack (GhostMinion + SUF + TSB on-commit).
#: The last three pin how wrong-path loads reach the hierarchy: the
#: delay-on-miss squash, transient GM fills with transient training and
#: classification, and LLC-level prefetch fills behind the rand-llc
#: index scramble.
CONFIGS = {
    "baseline": {},
    "berti_on_access": {"prefetcher": "berti"},
    "secure_tsb_suf_oc": {"secure": True, "suf": True,
                          "prefetcher": "tsb", "on_commit": True},
    "delay_berti_oa": {"prefetcher": "berti", "delay_mitigation": True},
    "secure_berti_oa_classify": {"secure": True, "prefetcher": "berti",
                                 "classify": True},
    "randllc_spp_oa": {"prefetcher": "spp", "llc_scramble": 0x5DEECE66D},
}

#: Every config runs once more with events attached: tracing must leave
#: every counter equal to the golden.
TRACED_OBS = ObsConfig(trace_events=True, trace_capacity=1 << 16)

#: ``counts_by_kind()`` of each traced config.  Recorded when traced runs
#: still took a separate recursive walk, so equal counts show that the
#: one walk emits the same events; ``pf_drop`` since also counts the
#: DRAM-backlog throttle's drops, which that walk did not emit.
GOLDEN_EVENT_COUNTS = {
    "baseline": {"evict": 2293, "fill": 6371},
    "berti_on_access": {"evict": 2352, "fill": 6352, "pf_drop": 6339,
                        "pf_fill": 716, "pf_issue": 365, "pf_use": 24},
    "delay_berti_oa": {"evict": 2701, "fill": 2890, "pf_drop": 9575,
                       "pf_fill": 4215, "pf_issue": 2197, "pf_use": 1682},
    "randllc_spp_oa": {"evict": 2292, "fill": 5951, "pf_drop": 12154,
                       "pf_fill": 684, "pf_issue": 396, "pf_use": 226},
    "secure_berti_oa_classify": {
        "evict": 2244, "fill": 4461, "gm_commit_write": 2652,
        "gm_drop": 223, "gm_fill": 2946, "gm_refetch": 3348,
        "pf_drop": 5625, "pf_fill": 704, "pf_issue": 353, "pf_use": 15},
    "secure_tsb_suf_oc": {
        "evict": 2322, "fill": 4572, "gm_commit_write": 2796,
        "gm_drop": 260, "gm_fill": 3132, "gm_refetch": 293,
        "pf_drop": 1780, "pf_fill": 355, "pf_issue": 174,
        "suf_drop": 2911, "suf_stop": 1181},
}


def _run(name, obs=None):
    """One pinned replay: its stats snapshot and its event trace."""
    from repro.workloads.spec import spec_trace

    trace = spec_trace(GOLDEN_WORKLOAD, GOLDEN_LOADS)
    system = build_system(dict(CONFIGS[name], obs=obs))
    result = system.run(trace, warmup=GOLDEN_WARMUP)
    return {
        "committed": result.committed,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "core": result.core.snapshot(),
        "l1d": result.l1d.snapshot(),
        "l2": result.l2.snapshot(),
        "llc": result.llc.snapshot(),
        "gm": result.gm.snapshot() if result.gm is not None else None,
        "dram": result.dram.snapshot(),
        "tlb": result.tlb.snapshot() if result.tlb is not None else None,
        "classification": result.classification,
        "extras": result.extras,
    }, system.events


def _load_golden():
    return load_golden(GOLDEN_PATH, _generate)


def test_golden_header_matches_pins():
    golden = _load_golden()
    assert golden["workload"] == GOLDEN_WORKLOAD
    assert golden["loads"] == GOLDEN_LOADS
    assert golden["warmup"] == GOLDEN_WARMUP
    assert sorted(golden["configs"]) == sorted(CONFIGS)


def test_golden_carries_provenance():
    assert_provenance(_load_golden())


@pytest.mark.parametrize("name, obs", [
    *(pytest.param(name, None, id=name) for name in sorted(CONFIGS)),
    *(pytest.param(name, TRACED_OBS, id=f"{name}-traced")
      for name in sorted(CONFIGS)),
])
def test_stats_bit_identical_to_golden(name, obs):
    golden = _load_golden()["configs"][name]
    current, events = _run(name, obs)
    # Compare section by section so a drift names the counter, not just
    # "dicts differ".
    for section in sorted(golden):
        assert current[section] == golden[section], (
            f"{name}.{section} drifted from the pre-optimization golden "
            f"snapshot -- optimized code must be bit-identical")
    assert sorted(current) == sorted(golden)
    if obs is not None:
        assert events.counts_by_kind() == GOLDEN_EVENT_COUNTS[name]


def _generate():
    doc = {
        "workload": GOLDEN_WORKLOAD,
        "loads": GOLDEN_LOADS,
        "warmup": GOLDEN_WARMUP,
        "configs": {name: _run(name)[0] for name in sorted(CONFIGS)},
    }
    write_golden(GOLDEN_PATH, doc, "tests/sim/test_golden_stats.py")


if __name__ == "__main__":
    _generate()
