"""X-LQ: the extended load queue used by TSB (Section V-C).

The X-LQ extends each load-queue entry (128 entries, one per LQ entry)
with the two facts naive on-commit Berti loses across the speculative
phase:

* the **access timestamp** (16 bits of the core clock) -- when the load
  actually needed its data;
* the **fetch latency** to the GM (12 bits, saturating) -- the true cost
  of bringing the line in, not the 1-cycle GM->L1D on-commit write.

On an L1D miss the entry is validated and the access timestamp and fetch
latency are latched.  On a hit to a prefetched line the ``hitp`` bit is
set and the latency of that prefetched line is copied in.  A plain L1D
hit leaves the entry invalid.  At commit the owning load, and only it,
reads its entry to train TSB.

The simulator keeps no array for it.  ``System._stepper`` puts each
committed load's fields, ``(issue_time & TS_MASK, min(latency,
LAT_MASK), hitp)`` or ``None`` for a plain hit, into the commit payload
it queues for that load, and the commit drain rebuilds the training
event from them.  An entry is therefore private to its load whatever the
LQ size, and none outlives its load's commit, so no transient timing
can reach another protection domain and there is nothing to flush on a
domain switch.

Timestamps are stored in 16 bits.  The drain's reconstruction,
``commit - ((commit - ts) & TS_MASK)``, assumes the access happened
within 2^16 cycles of commit, which the ROB lifetime guarantees.
tests/core/test_xlq.py runs ``System`` past cycle 3 x 2^16 and with DRAM
latencies beyond 12 bits.

This module keeps the field widths and the storage budget:
128 x (1 valid + 1 hitp + 16 timestamp + 12 latency) = 0.47 KB.
"""

from __future__ import annotations

TS_BITS = 16
TS_MASK = (1 << TS_BITS) - 1
LAT_BITS = 12
LAT_MASK = (1 << LAT_BITS) - 1


class XLQ:
    """The X-LQ's storage budget: one entry per load-queue entry."""

    def __init__(self, entries: int = 128) -> None:
        self.entries = entries

    def storage_bits(self) -> int:
        return self.entries * (1 + 1 + TS_BITS + LAT_BITS)
