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
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .params import CoreParams


class CoreModel:
    """Dispatch/retire timing bookkeeping for one core."""

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
        self._load_seq = 0
        self.final_retire = 0
        # Hot-path hoists: dispatch/retire/lq_* run once per record, and
        # a flat attribute is cheaper than the params chain.
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

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------

    def dispatch(self, wrong_path: bool) -> int:
        """Dispatch the next instruction; return its dispatch cycle."""
        if not wrong_path and len(self._rob) >= self._rob_entries:
            oldest = self._rob.popleft()
            if oldest > self._dispatch_cycle:
                self._dispatch_cycle = oldest
                self._dispatch_slot = 0
        cycle = self._dispatch_cycle
        self._dispatch_slot += 1
        if self._dispatch_slot >= self._issue_width:
            self._dispatch_cycle += 1
            self._dispatch_slot = 0
        return cycle

    def redirect(self, cycle: int) -> None:
        """Apply a branch-mispredict front-end redirect at ``cycle``."""
        if cycle > self._dispatch_cycle:
            self._dispatch_cycle = cycle
            self._dispatch_slot = 0

    # ------------------------------------------------------------------
    # load queue
    # ------------------------------------------------------------------

    def lq_allocate(self, issue_time: int) -> int:
        """Claim an LQ entry; returns the (possibly delayed) issue time.

        The caller must follow up with :meth:`lq_complete` once the load's
        completion time is known.
        """
        if len(self._lq) >= self._lq_entries:
            oldest = self._lq.popleft()
            if oldest > issue_time:
                issue_time = oldest
        return issue_time

    def lq_complete(self, completion: int) -> int:
        """Record the load's completion; returns its LQ slot id (X-LQ
        index)."""
        self._lq.append(completion)
        slot = self._load_seq % self._lq_entries
        self._load_seq += 1
        return slot

    # ------------------------------------------------------------------
    # back end
    # ------------------------------------------------------------------

    def retire(self, complete_time: int, dispatch_time: int) -> int:
        """Retire the next committed-path instruction in order."""
        ready = dispatch_time + 1
        if complete_time > ready:
            ready = complete_time
        if ready > self._retire_cycle:
            self._retire_cycle = ready
            self._retire_slot = 0
        elif self._retire_slot < self._retire_width_m1:
            self._retire_slot += 1
        else:
            self._retire_cycle += 1
            self._retire_slot = 0
        retire_time = self._retire_cycle
        self._rob.append(retire_time)
        if retire_time > self.final_retire:
            self.final_retire = retire_time
        return retire_time
