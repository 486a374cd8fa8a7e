"""Prescan tests: plan correctness and bit-identical stats on both backends.

Three layers of pinning:

* **Prescan unit tests** -- the per-record codes, block numbers,
  committed-prefix counts and same-page flags a :class:`BatchPlan`
  carries, on hand-built traces covering every flag combination.
* **Backend equivalence** -- the NumPy and stdlib prescans produce the
  same plan, field for field, on a real generated trace.
* **Golden bit-identity** -- the stepper fed by the NumPy prescan *and*
  by the forced-stdlib prescan reproduces every golden stats snapshot
  from tests/sim/test_golden_stats.py, and so does a subprocess with
  ``numpy`` import-poisoned, which silently falls back to the stdlib
  prescan.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from repro.sim import batch as batch_mod
from repro.sim.batch import (C_ALU, C_BRANCH, C_LOAD, C_MISPREDICT,
                             C_STORE, C_WRONG_LOAD, C_WRONG_OTHER,
                             CODE_TABLE, HAVE_NUMPY, _prescan_stdlib,
                             plan_for, prescan)
from repro.workloads.spec import spec_trace
from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_STORE, FLAG_WRONG_PATH, Trace)

try:
    from .goldenlib import load_golden
    from .test_golden_stats import (CONFIGS, GOLDEN_LOADS, GOLDEN_PATH,
                                    GOLDEN_WARMUP, GOLDEN_WORKLOAD)
    from .test_golden_stats import _generate as _regen_stats_golden
    from .test_golden_stats import _run
except ImportError:  # direct script run: tests/sim is sys.path[0]
    from goldenlib import load_golden
    from test_golden_stats import (CONFIGS, GOLDEN_LOADS, GOLDEN_PATH,
                                   GOLDEN_WARMUP, GOLDEN_WORKLOAD)
    from test_golden_stats import _generate as _regen_stats_golden
    from test_golden_stats import _run


def _golden(name):
    return load_golden(GOLDEN_PATH, _regen_stats_golden)["configs"][name]


def _assert_matches_golden(name, snapshot):
    golden = _golden(name)
    for section in sorted(golden):
        assert snapshot[section] == golden[section], (
            f"{name}.{section} drifted from the golden snapshot")
    assert sorted(snapshot) == sorted(golden)


# ---------------------------------------------------------------------------
# prescan unit tests
# ---------------------------------------------------------------------------

class TestPrescanCodes:
    RECORDS = [
        (0x10, 0x1000, 0),                                   # ALU
        (0x11, 0x1040, FLAG_BRANCH),                         # branch
        (0x12, 0x1080, FLAG_BRANCH | FLAG_MISPREDICT),       # mispredict
        (0x13, 0x2000, FLAG_LOAD),                           # load
        (0x14, 0x2040, FLAG_STORE),                          # store
        (0x15, 0x3000, FLAG_LOAD | FLAG_WRONG_PATH),         # wrong load
        (0x16, 0x3040, FLAG_WRONG_PATH),                     # wrong other
        (0x17, 0x3080, FLAG_BRANCH | FLAG_WRONG_PATH),       # wrong branch
        (0x18, -64, FLAG_LOAD),                              # negative vaddr
    ]
    EXPECTED_CODES = [C_ALU, C_BRANCH, C_MISPREDICT, C_LOAD, C_STORE,
                      C_WRONG_LOAD, C_WRONG_OTHER, C_WRONG_OTHER, C_LOAD]

    def _plan(self):
        return prescan(Trace("t", self.RECORDS))

    def test_codes(self):
        assert list(self._plan().codes) == self.EXPECTED_CODES

    def test_load_wins_over_store(self):
        # FLAG_LOAD takes precedence over FLAG_STORE; a (nonsensical)
        # load+store record must classify as a load on both backends.
        both = FLAG_LOAD | FLAG_STORE
        assert CODE_TABLE[both] == C_LOAD
        assert CODE_TABLE[both | FLAG_WRONG_PATH] == C_WRONG_LOAD

    def test_mispredict_requires_branch(self):
        # A stray mispredict bit without the branch bit is not a branch.
        assert CODE_TABLE[FLAG_MISPREDICT] == C_ALU

    def test_blocks_are_arithmetic_shifts(self):
        plan = self._plan()
        assert plan.blocks == [v >> 6 for (_, v, _) in self.RECORDS]
        assert plan.blocks[-1] == -1  # negative vaddr keeps its sign

    def test_ips_indexable(self):
        plan = self._plan()
        assert plan.ips[3] == 0x13
        assert type(plan.blocks[0]) is int  # no NumPy scalars leak out

    def test_committed_prefix_counts(self):
        plan = self._plan()
        committed = 0
        for j, code in enumerate(plan.codes):
            if code < C_WRONG_LOAD:
                committed += 1
            assert plan.cum[j] == committed
        assert plan.committed_total == committed
        assert plan.committed_total == Trace("t", self.RECORDS).committed_count

    def test_index_of_committed(self):
        plan = self._plan()
        # Record indices of the 1st..kth committed records.
        committed_indices = [j for j, code in enumerate(plan.codes)
                             if code < C_WRONG_LOAD]
        for k, j in enumerate(committed_indices, start=1):
            assert plan.index_of_committed(k) == j


class TestPrescanSamePage:
    def test_same_page_chain_over_loads_only(self):
        page = 0x4000  # one 4 KB page
        records = [
            (1, page + 0x00, FLAG_LOAD),    # first load: new page
            (2, page + 0x40, 0),            # ALU does not break the chain
            (3, page + 0x80, FLAG_LOAD),    # same page as previous load
            (4, 0x9000, FLAG_LOAD),         # different page
            (5, 0x9040, FLAG_LOAD | FLAG_WRONG_PATH),  # wrong-path load
            (6, 0x9080, FLAG_LOAD),         # chains across the wrong path
        ]
        plan = prescan(Trace("t", records))
        assert list(plan.same_page) == [0, 0, 1, 0, 1, 1]

    def test_empty_trace(self):
        plan = prescan(Trace("empty", []))
        assert plan.n == 0
        assert plan.committed_total == 0
        assert list(plan.cum) == []


class TestBackendEquivalence:
    def test_stdlib_matches_numpy_on_real_trace(self):
        if not HAVE_NUMPY:
            pytest.skip("NumPy unavailable; only one backend to compare")
        trace = spec_trace(GOLDEN_WORKLOAD, 2000)
        vec = prescan(trace)
        lib = _prescan_stdlib(*trace.columns())
        assert lib.codes == vec.codes
        assert lib.blocks == vec.blocks
        assert list(lib.ips) == list(vec.ips)
        assert list(lib.cum) == list(vec.cum)
        assert lib.same_page == vec.same_page
        assert lib.committed_total == vec.committed_total

    def test_plan_cached_per_trace(self):
        trace = Trace("t", [(1, 64, FLAG_LOAD)])
        assert plan_for(trace) is plan_for(trace)


# ---------------------------------------------------------------------------
# column types: what the plan holds per record
# ---------------------------------------------------------------------------

BACKENDS = [pytest.param(True, id="numpy",
                         marks=pytest.mark.skipif(not HAVE_NUMPY,
                                                  reason="no NumPy")),
            pytest.param(False, id="stdlib")]


@pytest.mark.parametrize("numpy", BACKENDS)
class TestPlanColumns:
    def _prescan(self, trace, numpy, monkeypatch):
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", numpy)
        return prescan(trace)

    def test_column_types(self, numpy, monkeypatch):
        plan = self._prescan(Trace("t", TestPrescanCodes.RECORDS), numpy,
                             monkeypatch)
        assert type(plan.cum) is array and plan.cum.typecode == "q"
        assert type(plan.blocks) is list
        assert all(type(block) is int for block in plan.blocks)

    def test_ips_column_is_shared(self, numpy, monkeypatch):
        trace = spec_trace(GOLDEN_WORKLOAD, 300)
        ips = trace.columns()[0]
        assert type(ips) is array and ips.typecode == "q"
        assert self._prescan(trace, numpy, monkeypatch).ips is ips

    @pytest.mark.parametrize("typecode", ["q", "i"])
    def test_multi_byte_flag_columns(self, numpy, monkeypatch, typecode):
        # bytes() of an array('q') is its raw buffer, 8 bytes per flag.
        trace = Trace.from_columns(
            "x", array("q", [0x400000, 0x400004]),
            array(typecode, [4096, -1]), array(typecode, [FLAG_LOAD, 0]))
        assert self._prescan(trace, numpy, monkeypatch).n == 2
        from repro.sim.system import System
        assert System().run(trace, warmup=0.0).committed == 2

    def test_ip_beyond_int64_is_refused(self, numpy, monkeypatch):
        # ips at the int64 limits simulate; one beyond them is refused
        # when the trace is built, before any prescan.
        records = [(2**63 - 1, 0x1000, FLAG_LOAD), (0x400004, -1, 0),
                   (-2**63, 0x1040, FLAG_LOAD)]
        trace = Trace("wide", records)
        plan = self._prescan(trace, numpy, monkeypatch)
        assert list(plan.ips) == [r[0] for r in records]
        from repro.sim.system import System
        assert System().run(trace, warmup=0.0).committed == 3
        records[2] = (2**64, 0x1040, FLAG_LOAD)
        with pytest.raises(ValueError, match=(
                rf"^trace 'wide': record 2: ip {2**64} "
                r"does not fit in int64$")):
            Trace("wide", records)

    def test_plan_memory_is_bounded(self, numpy, monkeypatch):
        # 126,698 records: the plan keeps one byte per record for codes
        # and for same_page, an int64 per record for cum, and the blocks
        # list.  Lists of ips and prefix counts held 12.0 MiB here.
        trace = spec_trace("619.lbm-2676B", 30_000, 1)
        assert len(trace) == 126_698
        tracemalloc.start()
        try:
            plan = self._prescan(trace, numpy, monkeypatch)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert plan.n == len(trace)
        assert held <= 5 * 2**20, f"plan holds {held / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# golden bit-identity: NumPy prescan / forced-stdlib prescan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_stepper_matches_golden(name):
    _assert_matches_golden(name, _run(name)[0])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stdlib_prescan_matches_golden(name, monkeypatch):
    # The stepper fed by the pure-stdlib prescan: the fallback must be
    # exact, not merely close.  spec_trace builds a fresh trace, so no
    # NumPy-built plan is cached on it.
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    _assert_matches_golden(name, _run(name)[0])


def test_empty_trace_runs():
    from repro.sim.system import System
    result = System().run(Trace("empty", []), warmup=0.0)
    assert result.committed == 0
    assert result.ipc == 0.0
    assert result.mpki(result.l1d) == 0.0


def test_warmup_one_rejected():
    from repro.sim.system import System
    trace = Trace("t", [(1, 64, FLAG_LOAD)])
    with pytest.raises(ValueError, match="warmup"):
        System().run(trace, warmup=1.0)


# ---------------------------------------------------------------------------
# no-NumPy fallback (satellite: sys.modules poisoning in a subprocess)
# ---------------------------------------------------------------------------

_POISONED_SCRIPT = """\
import json, sys
sys.modules["numpy"] = None  # any 'import numpy' now raises ImportError
from repro.sim.batch import HAVE_NUMPY
assert HAVE_NUMPY is False, "poisoned numpy import must disable the backend"
from goldenlib import build_system
from repro.workloads.spec import spec_trace
trace = spec_trace({workload!r}, {loads})
system = build_system({config})
result = system.run(trace, warmup={warmup})
print(json.dumps({{
    "committed": result.committed, "cycles": result.cycles,
    "ipc": result.ipc, "core": result.core.snapshot(),
    "l1d": result.l1d.snapshot(), "l2": result.l2.snapshot(),
    "llc": result.llc.snapshot(),
    "gm": result.gm.snapshot() if result.gm is not None else None,
    "dram": result.dram.snapshot(),
    "tlb": result.tlb.snapshot() if result.tlb is not None else None,
    "classification": result.classification, "extras": result.extras,
}}))
"""


def test_no_numpy_subprocess_bit_identical():
    script = _POISONED_SCRIPT.format(
        workload=GOLDEN_WORKLOAD, loads=GOLDEN_LOADS,
        config=dict(CONFIGS["baseline"]), warmup=GOLDEN_WARMUP)
    env = dict(os.environ)
    env.pop("REPRO_NO_NUMPY", None)
    here = Path(__file__).resolve().parent
    src = str(here.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(here), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _assert_matches_golden("baseline", json.loads(proc.stdout))


def test_repro_no_numpy_env_forces_fallback():
    script = ("from repro.sim.batch import HAVE_NUMPY\n"
              "assert not HAVE_NUMPY\n"
              "print('ok')\n")
    env = dict(os.environ)
    env["REPRO_NO_NUMPY"] = "1"
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
