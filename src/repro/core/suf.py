"""SUF -- the Secure Update Filter (Section IV).

GhostMinion restores the non-speculative cache hierarchy at commit time with
on-commit writes (GM hit) or re-fetches (GM miss).  Many of these updates are
redundant: re-fetching a line the L1D already holds only burns an L1D port to
refresh LRU bits, and on-commit write propagation walks up the hierarchy
until it finds a level that already has the line.

SUF records, in a 2-bit *hit level* per load-queue entry, which level served
the data at access time; only the entry's own load reads it, at its commit.
The simulator carries the level in the commit payload it queues for the
load (``repro.sim.system``), so this module keeps the rule and the storage
budget.  At commit:

* hit level ``00`` (L1D or GM) -> **drop** the update entirely;
* hit level ``01`` (L2)        -> move GM->L1D, but do not propagate further;
* hit level ``10`` (LLC)       -> move GM->L1D, propagate to L2, stop there;
* hit level ``11`` (DRAM)      -> full propagation (no filtering).

The truncated propagation is realised with *writeback bits* stored on cache
lines (Fig. 7): the L1D line's bit says whether its eviction must write back
to the L2, and the L1D line additionally carries the L2's bit so it travels
with the data.

Storage: 0.12 KB -- 2 bits x 128 LQ entries (0.03 KB) plus 1 bit x 768 L1D
lines (0.09 KB).

SUF mispredicts when the recorded level evicted the line between access and
commit; the only cost is a longer re-fetch later (never a correctness or
security problem, since dropped updates concern clean, committed data).
"""

from __future__ import annotations

from typing import NamedTuple

#: The 2-bit hit-level encoding (Section IV).  These values equal the
#: hierarchy-level indices of ``repro.sim.cache`` (asserted by tests); they
#: are redefined here so the contribution package has no dependency on the
#: simulation substrate.
HIT_L1D = 0   # data from L1D, or from the GM probed in parallel
HIT_L2 = 1
HIT_LLC = 2
HIT_DRAM = 3


class SUFDecision(NamedTuple):
    """What to do with one commit-time hierarchy update."""

    #: Drop the update entirely (re-fetch and propagation).
    drop: bool
    #: Install the L1D line with its writeback-to-L2 bit set.
    gm_propagate: bool
    #: The L2 line's writeback-to-LLC bit, carried alongside (Fig. 7).
    wbb: bool


def suf_decide(hit_level: int) -> SUFDecision:
    """The SUF filtering rule, as a pure function of the 2-bit hit level."""
    if hit_level <= HIT_L1D:
        return SUFDecision(drop=True, gm_propagate=False, wbb=False)
    if hit_level == HIT_L2:
        return SUFDecision(drop=False, gm_propagate=False, wbb=False)
    if hit_level == HIT_LLC:
        return SUFDecision(drop=False, gm_propagate=True, wbb=False)
    return SUFDecision(drop=False, gm_propagate=True, wbb=True)


class HitLevelQueue:
    """SUF's storage budget: a 2-bit hit level per load-queue entry.

    Step 1 of Fig. 7: the level that served a load is propagated down with
    the response and latched in the load's LQ entry; the commit stage
    reads it to drive :func:`suf_decide`.  The L1D lines add the 1-bit
    writeback flag.
    """

    def __init__(self, lq_entries: int = 128,
                 l1d_lines: int = 768) -> None:
        self.lq_entries = lq_entries
        self.l1d_lines = l1d_lines

    def storage_bits(self) -> int:
        """0.03 KB at the LQ + 0.09 KB of L1D writeback bits = 0.12 KB."""
        return self.lq_entries * 2 + self.l1d_lines * 1
