"""Out-of-order core timing model.

A one-pass analytical model of the Table II core: in-order fetch/dispatch at
``issue_width`` per cycle, out-of-order execution (loads overlap freely,
bounded by the load queue), and in-order retirement at ``retire_width`` per
cycle through a finite ROB.  Branch mispredicts insert a front-end bubble
when the redirect reaches dispatch.

The model computes, for each instruction in program order, its dispatch time
and retire time; memory latencies come from the hierarchy.  Processing is
single-pass because both the dispatch-time stream and the retire-time stream
are monotone in program order, which also lets the simulator merge the
access-time and commit-time event streams in global time order.

:class:`CoreModel` holds the core's state between runs of the simulate
loop (``System._stepper``), which applies the rules per record on local
copies and writes them back once per block of records, before the
block's yield, sample or warm-up reset:

* dispatch: ``issue_width`` records per cycle in program order; a
  committed-path record waits for the oldest ROB entry to retire when the
  ROB is full, and the first one after a mispredict waits for its
  redirect (resolution plus ``mispredict_penalty``);
* load queue: a load issues ``load_issue_latency`` after dispatch, or
  when the oldest LQ entry's load completes if the LQ is full.  The
  entry's SUF hit level and X-LQ fields are not state here: the stepper
  queues them with the load's commit action, so each load reads only its
  own at its commit, whatever the LQ size;
* retire: in order, ``retire_width`` per cycle, no earlier than the
  record's completion or a cycle after its dispatch.

tests/sim/test_cpu.py checks each rule on small ``System`` runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .params import CoreParams


class CoreModel:
    """Dispatch/retire timing state for one core."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self._dispatch_cycle = 0
        self._dispatch_slot = 0
        self._retire_cycle = 0
        self._retire_slot = 0
        #: Retire times of in-flight committed-path instructions (ROB).
        self._rob: Deque[int] = deque()
        #: Completion times of in-flight loads (LQ), wrong-path included.
        self._lq: Deque[int] = deque()
        self.final_retire = 0
        # Read once per run by the simulate loop.
        self._rob_entries = params.rob_entries
        self._issue_width = params.issue_width
        self._retire_width_m1 = params.retire_width - 1
        self._lq_entries = params.lq_entries

    @property
    def current_cycle(self) -> int:
        """The front end's current dispatch cycle."""
        return self._dispatch_cycle

    def occupancy(self) -> dict:
        """Point-in-time ROB/LQ depths (read by the interval sampler)."""
        return {"rob": len(self._rob), "lq": len(self._lq)}
