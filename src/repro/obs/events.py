"""Structured event tracing: a bounded ring buffer of simulator events.

Opt-in and designed to cost nothing when disabled: every emission site in
the simulator is guarded by a single ``if events is not None`` check, and
the objects involved are plain tuples.  When enabled, the trace keeps the
most recent ``capacity`` events (dropping the oldest first) so a long run
cannot exhaust memory.

Event schema (one JSON object per line in the exported JSONL)::

    {"kind": <str>, "cycle": <int>, "block": <int>, "unit": <str>}

``kind`` is one of :data:`EVENT_KINDS`; ``unit`` names the component that
emitted the event (``L1D``/``L2``/``LLC``/``GM``/``SUF``).  The schema is
deliberately flat and closed -- ``repro.obs.validate`` checks exported
files against it in CI.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple

__all__ = ["EVENT_KINDS", "EVENT_UNITS", "EventTrace", "events_jsonl",
           "validate_event"]

#: Every event kind the simulator emits.
EVENT_KINDS = (
    "fill",             # a demand/store/commit fill installed a line
    "evict",            # a line left a cache level
    "pf_issue",         # a prefetch request entered the memory system
    "pf_drop",          # a prefetch was dropped (duplicate, PQ/MSHR
                        # full, DRAM backlog)
    "pf_fill",          # a prefetched line was installed
    "pf_use",           # a demand access first hit a prefetched line
    "gm_fill",          # a speculative fill was registered in the GM
    "gm_drop",          # a GM insertion was dropped (TimeGuarding order)
    "gm_commit_write",  # commit moved a GM line into the L1D
    "gm_refetch",       # GM line lost before commit: hierarchy re-fetched
    "suf_drop",         # SUF dropped a commit-time update entirely
    "suf_stop",         # SUF truncated writeback propagation
)

#: Components that emit events.
EVENT_UNITS = ("L1D", "L2", "LLC", "DRAM", "GM", "SUF")

#: In-buffer representation: (kind, cycle, block, unit).
Event = Tuple[str, int, int, str]


class EventTrace:
    """Fixed-capacity ring buffer of :data:`Event` tuples.

    ``emit`` is the hot-path entry point: one bounds check and one list
    write.  ``total`` counts every event ever emitted; ``dropped()`` is
    how many fell off the front of the ring.
    """

    __slots__ = ("capacity", "total", "_ring", "_next")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("event-trace capacity must be positive")
        self.capacity = capacity
        self.total = 0
        self._ring: List[Event] = []
        self._next = 0

    def emit(self, kind: str, cycle: int, block: int, unit: str) -> None:
        event = (kind, cycle, block, unit)
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._next] = event
            self._next = (self._next + 1) % self.capacity
        self.total += 1

    def __len__(self) -> int:
        return len(self._ring)

    def dropped(self) -> int:
        return self.total - len(self._ring)

    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return self._ring[self._next:] + self._ring[:self._next]

    def records(self) -> Iterator[Dict]:
        """The retained events as schema dicts, oldest first."""
        for kind, cycle, block, unit in self.events():
            yield {"kind": kind, "cycle": cycle, "block": block,
                   "unit": unit}

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _, _, _ in self._ring:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def events_jsonl(trace: EventTrace) -> str:
    """Canonical JSONL export: sorted keys, one event per line.

    The rendering is byte-deterministic for a deterministic simulation,
    which is what lets CI diff traces across runs.
    """
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in trace.records()]
    return "\n".join(lines) + ("\n" if lines else "")


def validate_event(record: Dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the event schema."""
    if not isinstance(record, dict):
        raise ValueError(f"event must be an object, got {type(record).__name__}")
    expected = {"kind", "cycle", "block", "unit"}
    if set(record) != expected:
        raise ValueError(f"event keys {sorted(record)} != "
                         f"{sorted(expected)}")
    if record["kind"] not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {record['kind']!r}")
    if record["unit"] not in EVENT_UNITS:
        raise ValueError(f"unknown event unit {record['unit']!r}")
    for key in ("cycle", "block"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(f"event {key} must be an integer, "
                             f"got {record[key]!r}")
    if record["cycle"] < 0:
        raise ValueError(f"event cycle must be >= 0, got {record['cycle']}")
