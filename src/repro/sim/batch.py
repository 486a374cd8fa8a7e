"""Trace prescan for the simulate loop (:meth:`System.stepper`).

Much of what the loop needs to know about a record is a pure function of
the trace: which class of record it is, its cache block, whether it
stays on the previous load's page, how many committed instructions
precede it.  A one-time **prescan** computes all of it per trace, so the
loop never unpacks a record tuple, tests a flag bit, shifts an address
or checks a warm-up / sampler / yield threshold per record.  The plan
holds these columns:

``codes``
    one byte per record (``C_*`` below); the inner loop dispatches on it
    instead of re-testing flag combinations.
``blocks``
    cache-block number per record (``vaddr >> BLOCK_SHIFT``), as a list
    of plain Python ints (NumPy scalars must never leak into the
    simulate loop).  It stays a list, although that costs a pointer
    per record and an int object per memory record: the stepper reads
    it for every memory record, and each ``array('q')`` read allocates
    a fresh int (``array('q')`` blocks simulated about 2% slower on a
    2-vCPU Xeon VM; docs/PERFORMANCE.md, "Typed columns").
``ips``
    instruction pointers, indexed only for loads: the trace's own
    ``array('q')`` ips column, shared rather than copied.
``cum``
    committed-record prefix counts, an ``array('q')``: ``cum[j]`` is the
    number of committed-path records among ``records[0..j]``.  The outer
    loop binary-searches this to turn "pause after the k-th committed
    instruction" (warm-up reset, sampler boundary, multicore yield) into
    a record index, so the inner loop runs with **zero** per-record
    boundary checks; it reads one element per block.
``same_page``
    1 where a load record touches the same 4 KB page as the immediately
    preceding load record.  Only loads touch the dTLB and the previous
    load always leaves its page most-recently-used, so these are
    guaranteed dTLB hits whose move-to-back is a no-op -- the stepper
    skips the dict probe entirely.

Everything here is exact: the prescan encodes decisions, never
approximations of them, and the golden suite
(tests/sim/test_golden_stats.py, tests/sim/test_batch.py) pins the
stepper's statistics bit for bit on either prescan backend.

NumPy is a **soft dependency**: when importable (and not blocked by the
``REPRO_NO_NUMPY`` environment variable), the prescan runs as vector
operations; otherwise a pure-stdlib twin produces the identical plan
(``bytes.translate`` with precomputed 256-entry tables does the record
classification at C speed even without NumPy).
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import List

from ..workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                               FLAG_STORE, FLAG_WRONG_PATH)

if os.environ.get("REPRO_NO_NUMPY"):  # forced-fallback hook (tests, CI)
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised via poisoned subprocess
        np = None

#: True when the vectorized prescan backend is active.
HAVE_NUMPY = np is not None

# Record class codes.  Committed-path codes are < C_WRONG_LOAD so the
# inner loop tests "committed?" with one compare.  Flag precedence:
# FLAG_LOAD wins over FLAG_STORE; FLAG_MISPREDICT only matters on
# branches; wrong-path non-loads all behave identically (dispatch slot
# + commit drain only).
C_ALU = 0
C_BRANCH = 1
C_MISPREDICT = 2
C_LOAD = 3
C_STORE = 4
C_WRONG_LOAD = 5
C_WRONG_OTHER = 6


def _code_of(flags: int) -> int:
    if flags & FLAG_LOAD:
        return C_WRONG_LOAD if flags & FLAG_WRONG_PATH else C_LOAD
    if flags & FLAG_WRONG_PATH:
        return C_WRONG_OTHER
    if flags & FLAG_STORE:
        return C_STORE
    if flags & FLAG_BRANCH:
        return C_MISPREDICT if flags & FLAG_MISPREDICT else C_BRANCH
    return C_ALU


#: flags byte -> class code, for ``bytes.translate`` / NumPy fancy index.
CODE_TABLE = bytes(_code_of(f) for f in range(256))
#: class code -> 1 if committed-path else 0 (prefix-summed into ``cum``).
_COMMIT_TABLE = bytes(1 if c < C_WRONG_LOAD else 0 for c in range(256))
_IS_LOAD = frozenset((C_LOAD, C_WRONG_LOAD))

if HAVE_NUMPY:
    _NP_CODE_TABLE = np.frombuffer(CODE_TABLE, dtype=np.uint8)


class BatchPlan:
    """Precomputed per-record columns for one trace (see module docstring)."""

    __slots__ = ("n", "codes", "blocks", "ips", "cum", "same_page",
                 "committed_total")

    def __init__(self, codes: bytes, blocks: List[int], ips: array,
                 cum: array, same_page: bytes) -> None:
        self.n = len(codes)
        self.codes = codes
        self.blocks = blocks
        self.ips = ips
        self.cum = cum
        self.same_page = same_page
        self.committed_total = cum[-1] if cum else 0

    def index_of_committed(self, k: int) -> int:
        """Record index of the ``k``-th (1-based) committed record."""
        return bisect_left(self.cum, k)


def _prescan_numpy(ips, vaddrs, flags) -> BatchPlan:
    codes_np = _NP_CODE_TABLE[np.frombuffer(flags, dtype=np.uint8)]
    # BLOCK_SHIFT; the arithmetic shift keeps -1
    blocks_np = np.frombuffer(vaddrs, dtype=np.int64) >> 6
    # dTLB same-page chain over load records only (committed and wrong
    # path -- both touch the TLB, in record order).
    load_idx = np.flatnonzero((codes_np == C_LOAD)
                              | (codes_np == C_WRONG_LOAD))
    same_np = np.zeros(len(codes_np), dtype=np.uint8)
    if len(load_idx) > 1:
        pages = blocks_np[load_idx] >> 6  # page = block >> 6
        same_np[load_idx[1:]] = pages[1:] == pages[:-1]
    cum = array("q")
    cum.frombytes(np.cumsum(codes_np < C_WRONG_LOAD, dtype=np.int64)
                  .view(np.uint8))
    return BatchPlan(codes_np.tobytes(), blocks_np.tolist(), ips, cum,
                     same_np.tobytes())


def _prescan_stdlib(ips, vaddrs, flags) -> BatchPlan:
    codes = flags.translate(CODE_TABLE)
    blocks = [v >> 6 for v in vaddrs]
    cum = array("q", accumulate(codes.translate(_COMMIT_TABLE)))
    same_page = bytearray(len(codes))
    prev_page = -1 << 70  # no real page compares equal
    is_load = _IS_LOAD
    for j, code in enumerate(codes):
        if code in is_load:
            page = blocks[j] >> 6
            if page == prev_page:
                same_page[j] = 1
            else:
                prev_page = page
    return BatchPlan(codes, blocks, ips, cum, bytes(same_page))


def prescan(trace) -> BatchPlan:
    """Build a :class:`BatchPlan` for ``trace`` (vectorized when possible)."""
    ips, vaddrs, flags = trace.columns()
    if HAVE_NUMPY:
        return _prescan_numpy(ips, vaddrs, flags)
    return _prescan_stdlib(ips, vaddrs, flags)


def plan_for(trace) -> BatchPlan:
    """Cached :func:`prescan`: one plan per trace object, reused across
    configurations and runs (the plan is derived data and is stripped
    from pickled traces)."""
    plan = getattr(trace, "_batch_plan", None)
    if plan is None:
        plan = prescan(trace)
        try:
            trace._batch_plan = plan
        except AttributeError:  # exotic trace without a __dict__
            pass
    return plan

