"""System configuration, mirroring Table II of the paper.

All latencies are in core cycles at 4 GHz (1 cycle = 0.25 ns), so the DRAM
timing parameters of Table II (tRP = tRCD = tCAS = 12.5 ns) become 50 cycles
each.

The defaults model one core of an Intel Sunny-Cove-like machine:

* out-of-order core, 6-issue, 4-retire, 352-entry ROB, 128-entry LQ;
* L1D 48 KB 12-way, 5 cycles, 16 MSHRs, LRU;
* L2 512 KB 8-way, 15 cycles, 32 MSHRs, LRU, non-inclusive;
* LLC one 2 MB 16-way bank per core, 35 cycles, 64 MSHRs, LRU, non-inclusive;
* DRAM: one channel per 4 cores, 6400 MT/s, open-page row buffer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from .tlb import TLBParams


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core parameters (Table II, "Core" row)."""

    freq_ghz: float = 4.0
    issue_width: int = 6
    retire_width: int = 4
    rob_entries: int = 352
    lq_entries: int = 128
    #: Pipeline-refill penalty after a branch mispredict resolves (cycles).
    mispredict_penalty: int = 15
    #: Cycles between dispatch and the data-cache access of a load (AGU etc.).
    load_issue_latency: int = 1
    #: Execution latency of non-memory instructions (cycles).
    alu_latency: int = 1


@dataclass(frozen=True)
class CacheParams:
    """One cache level."""

    name: str
    size_kb: int
    ways: int
    latency: int
    mshrs: int
    #: Accesses accepted per cycle (tag/port bandwidth).
    ports: int = 2
    line_size: int = 64
    #: Maximum queued prefetch requests at this level.
    pq_entries: int = 16
    #: Replacement policy: "lru" (Table II), "srrip", or "random".
    replacement: str = "lru"
    #: Pick the set from a keyed hash of the block instead of its low
    #: bits (``repro.sim.cache.INDEX_KEY``; the ``rand-llc`` LLC).
    keyed_index: bool = False

    @property
    def sets(self) -> int:
        return (self.size_kb * 1024) // (self.line_size * self.ways)

    @property
    def blocks(self) -> int:
        return self.sets * self.ways


@dataclass(frozen=True)
class DRAMParams:
    """DRAM channel parameters (Table II, "DRAM" row), in core cycles."""

    t_rp: int = 50
    t_rcd: int = 50
    t_cas: int = 50
    #: DDR5-class devices expose 32 banks; 16 per channel keeps bank-level
    #: parallelism realistic for the 6400 MT/s part of Table II.
    banks: int = 16
    row_buffer_bytes: int = 4096
    #: Core cycles the shared data bus is busy per 64-byte transfer.
    #: 64 B / (6400 MT/s * 8 B) = 1.25 ns = 5 cycles at 4 GHz.
    bus_cycles_per_line: int = 5
    #: Fixed controller queueing overhead per request (cycles).
    controller_latency: int = 10
    #: Low-priority (prefetch) queue depth, in cycles of bus backlog beyond
    #: the demand bus, past which new prefetches are throttled.
    prefetch_backlog_margin: int = 150


@dataclass(frozen=True)
class GhostMinionParams:
    """GhostMinion (GM) speculative-cache parameters (Section II-C / VI).

    The 2 KB GM is fully associative (32 ways x 1 set): a structure this
    small is CAM-indexed in hardware, and set conflicts would otherwise
    dominate its behaviour.
    """

    size_kb: int = 2
    ways: int = 32
    latency: int = 1
    line_size: int = 64

    @property
    def sets(self) -> int:
        return (self.size_kb * 1024) // (self.line_size * self.ways)

    @property
    def blocks(self) -> int:
        return self.sets * self.ways


@dataclass(frozen=True)
class SystemParams:
    """Complete single-core system configuration."""

    core: CoreParams = field(default_factory=CoreParams)
    #: Translation hierarchy (Table II "TLBs" row).
    tlb: TLBParams = field(default_factory=TLBParams)
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        name="L1D", size_kb=48, ways=12, latency=5, mshrs=16, ports=2,
        pq_entries=16))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        name="L2", size_kb=512, ways=8, latency=15, mshrs=32, ports=1,
        pq_entries=32))
    llc: CacheParams = field(default_factory=lambda: CacheParams(
        name="LLC", size_kb=2048, ways=16, latency=35, mshrs=64, ports=1,
        pq_entries=32))
    dram: DRAMParams = field(default_factory=DRAMParams)
    gm: GhostMinionParams = field(default_factory=GhostMinionParams)

    def scaled(self, factor: int) -> "SystemParams":
        """Return a configuration with cache capacities divided by ``factor``.

        Scaling caches down lets short synthetic traces exercise the same
        capacity behaviours as 200M-instruction SimPoints on full-size caches.
        Way counts and latencies are preserved; only the number of sets
        shrinks.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")

        def shrink(cache: CacheParams) -> CacheParams:
            new_kb = max(cache.ways * cache.line_size // 1024,
                         cache.size_kb // factor)
            new_kb = max(new_kb, 1)
            return replace(cache, size_kb=new_kb)

        return replace(self, l1d=shrink(self.l1d), l2=shrink(self.l2),
                       llc=shrink(self.llc))


def params_digest(params: SystemParams) -> str:
    """Stable SHA-256 of a configuration's full parameter tree.

    The persistent result store keys records by this digest (among other
    inputs), so two :class:`SystemParams` hash equal iff every nested
    field is equal -- independent of process, platform, or dict order.
    """
    payload = json.dumps(asdict(params), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def baseline() -> SystemParams:
    """The Table II baseline configuration."""
    return SystemParams()


def validate(params: SystemParams) -> None:
    """Sanity-check a configuration, raising ``ValueError`` on nonsense."""
    for cache in (params.l1d, params.l2, params.llc):
        if cache.sets <= 0:
            raise ValueError(f"{cache.name}: non-positive set count")
        if cache.sets & (cache.sets - 1):
            raise ValueError(f"{cache.name}: set count {cache.sets} "
                             "is not a power of two")
        if cache.mshrs <= 0 or cache.ports <= 0:
            raise ValueError(f"{cache.name}: need at least one MSHR and port")
    if not params.l1d.latency < params.l2.latency < params.llc.latency:
        raise ValueError("cache latencies must increase down the hierarchy")
    if params.gm.blocks <= 0:
        raise ValueError("GhostMinion cache must hold at least one block")
    if params.core.rob_entries < params.core.lq_entries:
        raise ValueError("ROB must be at least as large as the load queue")
