"""PREFENDER-style access obfuscation: a shim around any prefetcher.

PREFENDER (arXiv:2307.06756) defends against prefetcher-based side
channels not by restricting the prefetcher but by *muddying* what its
fills reveal: alongside the real prefetches, camouflage fetches are
issued for the addresses the prefetcher *would* have produced under
other plausible access patterns.  An attacker probing the cache can no
longer tell which candidate pattern the victim followed, because every
candidate's tell-tale blocks are hot.

:class:`AccessObfuscationShim` wraps a concrete
:class:`~repro.prefetchers.base.Prefetcher` and implements that idea at
the training-event interface, so it composes with every registered
prefetcher and both training modes:

* a small per-IP stream table records where the current access run
  started (``base``) and how many accesses it has seen (``n``); a jump
  of more than :data:`RESTART_GAP` blocks starts a new run, so streams
  track the victim's current region rather than its history;
* whenever the inner prefetcher emits requests (i.e. it has locked onto
  a pattern and is about to leak it), the shim adds camouflage requests
  at ``base + (n+k)*s`` for every decoy stride ``s`` -- the blocks a
  same-length run with stride ``s`` would have pulled in.

The camouflage requests are ordinary :class:`PrefetchRequest` objects:
they consume PQ slots and DRAM bandwidth like real prefetches, which is
exactly the performance cost the security matrix charges this defense.

The shim never suppresses the inner prefetcher's requests and never
touches its tables, so it is additive: with no decoy strides configured
it is a transparent wrapper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from ..prefetchers.base import (FILL_L1D, Prefetcher, PrefetchRequest,
                                TrainingEvent)

__all__ = ["AccessObfuscationShim", "DECOY_STRIDES", "RESTART_GAP"]

#: Candidate stride patterns camouflaged by default.  Strides 1 and 2 are
#: the alphabet of the repo's covert/stride-inference attacks; real
#: deployments would derive the set from the prefetcher's reach.
DECOY_STRIDES = (1, 2)

#: A per-IP jump larger than this many blocks starts a new stream (the
#: victim moved to a different region; decoys anchored to the old base
#: would protect nothing).
RESTART_GAP = 256


class AccessObfuscationShim(Prefetcher):
    """Wrap ``inner``, adding camouflage prefetches when it emits.

    Parameters
    ----------
    inner:
        The real prefetcher being obfuscated.
    strides:
        Decoy stride alphabet (default :data:`DECOY_STRIDES`).
    degree:
        Camouflage requests per decoy stride per emission.
    max_streams:
        Stream-table capacity (LRU evicted, like a hardware table).
    """

    def __init__(self, inner: Prefetcher, strides=DECOY_STRIDES,
                 degree: int = 2, max_streams: int = 256) -> None:
        self.inner = inner
        self.strides = tuple(strides)
        self.degree = degree
        self.max_streams = max_streams
        self.name = f"prefender({inner.name})"
        self.train_level = inner.train_level
        #: TSB-style prefetchers advertise ``requires_xlq``; forward it so
        #: the system still trains the wrapped instance at commit from
        #: each load's X-LQ fields.
        self.requires_xlq = bool(getattr(inner, "requires_xlq", False))
        #: ip -> [base_block, accesses_in_run, last_block]
        self._streams: "OrderedDict[int, List[int]]" = OrderedDict()

    def __getattr__(self, attr):
        # Transparent delegation for prefetcher-specific surface the
        # system discovers by duck typing (the TS wrappers'
        # ``note_demand`` lateness feedback, ...).
        return getattr(self.inner, attr)

    # ------------------------------------------------------------------

    def train(self, event: TrainingEvent) -> List[PrefetchRequest]:
        requests = self.inner.train(event)
        streams = self._streams
        stream = streams.get(event.ip)
        if stream is None:
            if len(streams) >= self.max_streams:
                streams.popitem(last=False)
            streams[event.ip] = [event.block, 1, event.block]
            return requests
        streams.move_to_end(event.ip)
        if abs(event.block - stream[2]) > RESTART_GAP:
            stream[0] = event.block
            stream[1] = 1
            stream[2] = event.block
            return requests
        stream[1] += 1
        stream[2] = event.block
        if not requests:
            return requests
        # The inner prefetcher is emitting: camouflage every decoy
        # pattern a same-length run could have followed.  Deduplicate
        # against the real requests so decoys never double-issue.
        base, n = stream[0], stream[1]
        out = list(requests)
        seen = {request.block for request in requests}
        for stride in self.strides:
            for k in range(self.degree):
                target = base + (n + k) * stride
                if target >= 0 and target not in seen:
                    seen.add(target)
                    out.append(PrefetchRequest(target, FILL_L1D))
        return out

    # ------------------------------------------------------------------
    # pure delegation
    # ------------------------------------------------------------------

    def on_fill(self, block: int, cycle: int, latency: int,
                prefetched: bool) -> None:
        self.inner.on_fill(block, cycle, latency, prefetched)

    def on_phase_change(self) -> None:
        self.inner.on_phase_change()

    def flush(self) -> None:
        self._streams.clear()
        self.inner.flush()

    def storage_bits(self) -> int:
        # Stream table: tag (16b) + base block (58b) + run counter (16b)
        # + last block (58b) per entry, on top of the inner budget.
        return self.inner.storage_bits() + self.max_streams * (16 + 58 +
                                                               16 + 58)
