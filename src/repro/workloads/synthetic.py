"""Synthetic trace generation primitives.

Real SPEC CPU2017 / GAP SimPoint traces are multi-gigabyte downloads, so the
reproduction generates address streams exhibiting the *memory behaviours*
that drive the paper's effects (DESIGN.md section 3):

* streaming / strided access (bwaves, lbm, roms, fotonik ...);
* pointer chasing over footprints far larger than the LLC (mcf, omnetpp);
* spatially-clustered region access with recurring footprints (gcc,
  xalancbmk) -- the pattern Bingo exploits;
* hot/cold working sets with low MPKI (leela, perlbench, xz);
* graph traversals (GAP) built from real BFS/PageRank/... visit orders over
  synthetic graphs (``repro.workloads.gap``).

Every generator is deterministic given its seed.  Branches are emitted
periodically; a configurable fraction mispredict, and each mispredict is
followed by a burst of *wrong-path* loads that execute speculatively and
never commit -- this is what makes on-access and on-commit prefetcher
training genuinely different, and what gives GhostMinion's GM transient
state to hide.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterable, List, Optional

from .trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT, FLAG_STORE,
                    FLAG_WRONG_PATH, Record, Trace)

try:  # optional bulk-generation fast path; never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the stdlib path
    _np = None

#: Byte distance between generated arrays / heaps, keeping address ranges
#: of different data structures disjoint.
REGION_GAP = 1 << 30

#: First instruction pointer handed out by :meth:`TraceBuilder.new_ip`.
_IP_BASE = 0x400000

#: Initial wrong-path pool entry (see ``TraceBuilder._wrong_path_pool``).
_WP_SEED_TARGET = REGION_GAP * 7

#: Wrong-path pool capacity (oldest entries are evicted beyond this).
_WP_POOL_MAX = 64


class TraceBuilder:
    """Incrementally assemble a trace with realistic instruction mix.

    ``add_load``/``add_store`` emit the memory operation plus ``filler``
    non-memory instructions; every ``branch_every`` instructions a branch is
    emitted, mispredicting with probability ``mispredict_rate`` and then
    running ``wrong_path_fn`` to produce the transient loads executed in the
    shadow of the mispredict.

    The builder appends ``(ip, vaddr, flags)`` tuples to ``records``;
    :meth:`build` transposes them once into typed columns, so the trace
    it returns holds 17 bytes per record instead of a tuple and its ints.
    """

    def __init__(self, name: str, *, suite: str = "synthetic",
                 filler: int = 2, branch_every: int = 8,
                 mispredict_rate: float = 0.002,
                 wrong_path_loads: int = 4,
                 seed: int = 1) -> None:
        self.name = name
        self.suite = suite
        self.filler = filler
        self.branch_every = branch_every
        self.mispredict_rate = mispredict_rate
        self.wrong_path_loads = wrong_path_loads
        self.rng = random.Random(seed)
        self.records: List[Record] = []
        self._since_branch = 0
        self._next_ip = _IP_BASE
        #: Pool of wrong-path target addresses, refreshed by the patterns.
        self._wrong_path_pool: List[int] = [_WP_SEED_TARGET]

    def new_ip(self) -> int:
        """Allocate a fresh instruction pointer (one per static load site)."""
        ip = self._next_ip
        self._next_ip += 4
        return ip

    def note_wrong_path_target(self, addr: int) -> None:
        """Register an address wrong-path bursts may touch."""
        pool = self._wrong_path_pool
        pool.append(addr)
        if len(pool) > _WP_POOL_MAX:
            pool.pop(0)

    # ------------------------------------------------------------------

    def add_load(self, ip: int, addr: int) -> None:
        self.records.append((ip, addr, FLAG_LOAD))
        self._advance()

    def add_store(self, ip: int, addr: int) -> None:
        self.records.append((ip, addr, FLAG_STORE))
        self._advance()

    def add_filler(self, count: Optional[int] = None) -> None:
        for _ in range(self.filler if count is None else count):
            self.records.append((self._next_ip, -1, 0))
            self._since_branch += 1
            self._maybe_branch()

    def _advance(self) -> None:
        self._since_branch += 1
        self._maybe_branch()
        self.add_filler()

    def _maybe_branch(self) -> None:
        if self._since_branch < self.branch_every:
            return
        self._since_branch = 0
        mispredict = self.rng.random() < self.mispredict_rate
        flags = FLAG_BRANCH | (FLAG_MISPREDICT if mispredict else 0)
        self.records.append((self._next_ip + 2, -1, flags))
        if mispredict:
            self._emit_wrong_path()

    def _emit_wrong_path(self) -> None:
        """Transient loads executed in a mispredicted branch's shadow."""
        rng = self.rng
        pool = self._wrong_path_pool
        wp_flags = FLAG_LOAD | FLAG_WRONG_PATH
        ip = self._next_ip + 16
        for _ in range(self.wrong_path_loads):
            base = pool[rng.randrange(len(pool))]
            addr = base + rng.randrange(256) * 64
            self.records.append((ip, addr, wp_flags))

    def build(self) -> Trace:
        """The appended records as a :class:`Trace`, which raises
        ``ValueError`` for a value its columns cannot hold."""
        return Trace(self.name, self.records, suite=self.suite)


# ----------------------------------------------------------------------
# pattern generators
# ----------------------------------------------------------------------

def _bulk_stream_trace(name: str, n_loads: int, *, streams: int,
                       stride_blocks: int, elems_per_block: int,
                       footprint_mb: int, store_every: int, seed: int,
                       suite: str, filler: int = 2, branch_every: int = 8,
                       mispredict_rate: float = 0.002,
                       wrong_path_loads: int = 4) -> Trace:
    """Columnar :func:`stream_trace`, record-for-record identical.

    The builder's control skeleton is exactly periodic: every memory op
    contributes ``1 + filler`` instruction slots, and a branch record is
    inserted after every ``branch_every``-th slot regardless of mispredict
    outcomes (wrong-path bursts never advance the branch counter).  That
    makes the committed stream a pure interleave of three arithmetic
    sequences -- memory ops, fillers, branches -- assembled here with
    extended-slice assignments over ``array('q')`` columns.  Only the
    per-branch mispredict draws (and the rare wrong-path bursts, whose
    addresses depend on the wrong-path pool state mid-stream) stay
    sequential, preserving the exact ``random.Random(seed)`` draw order of
    the record-by-record builder.
    """
    footprint = footprint_mb << 20
    epb = elems_per_block
    bases = [i * REGION_GAP for i in range(1, streams + 1)]
    ips = [_IP_BASE + 4 * s for s in range(streams)]
    store_ip = _IP_BASE + 4 * streams
    nip = _IP_BASE + 4 * (streams + 1)  # builder._next_ip after setup

    # Load columns.  The j-th load of stream s touches
    #   bases[s] + ((j // epb) * stride * 64 + (j % epb) * 8) % footprint
    # and both terms are block-aligned enough that the modulo distributes,
    # so per-stream offsets come from an epb-wide template swept block by
    # block (or one closed-form NumPy expression).
    step = stride_blocks * 64
    load_ip = array("q", bytes(8 * n_loads))
    load_addr = array("q", bytes(8 * n_loads))
    if _np is not None and n_loads >= 1024:
        i = _np.arange(n_loads, dtype=_np.int64)
        s = i % streams
        j = i // streams
        off = ((j // epb) * step + (j % epb) * 8) % footprint
        load_addr = array("q")
        load_addr.frombytes(
            (_np.array(bases, dtype=_np.int64)[s] + off).tobytes())
        load_ip = array("q")
        load_ip.frombytes(_np.array(ips, dtype=_np.int64)[s].tobytes())
    else:
        template = [e * 8 for e in range(epb)]
        for s in range(streams):
            count = len(range(s, n_loads, streams))
            offs: List[int] = []
            extend = offs.extend
            base = bases[s]
            block_off = 0
            for _ in range((count + epb - 1) // epb):
                start = base + block_off % footprint
                extend([start + t for t in template])
                block_off += step
            del offs[count:]
            load_addr[s::streams] = array("q", offs)
            load_ip[s::streams] = array("q", [ips[s]]) * count

    # Op columns: loads with a store (reusing the load's address) spliced
    # in after every ``store_every``-th load, giving period se + 1.
    if store_every:
        se = store_every
        n_stores = n_loads // se
        n_ops = n_loads + n_stores
        period = se + 1
        op_ip = array("q", bytes(8 * n_ops))
        op_addr = array("q", bytes(8 * n_ops))
        op_flag = bytearray([FLAG_LOAD]) * n_ops
        for r in range(se):
            op_ip[r::period] = load_ip[r::se]
            op_addr[r::period] = load_addr[r::se]
        op_ip[se::period] = array("q", [store_ip]) * n_stores
        op_addr[se::period] = load_addr[se - 1::se]
        op_flag[se::period] = bytes([FLAG_STORE]) * n_stores
    else:
        n_ops = n_loads
        op_ip, op_addr = load_ip, load_addr
        op_flag = bytearray([FLAG_LOAD]) * n_ops

    # Instruction slots: each op is followed by ``filler`` non-memory
    # records.
    unit = 1 + filler
    n_inc = unit * n_ops
    inc_ip = array("q", [nip]) * n_inc
    inc_ip[::unit] = op_ip
    inc_addr = array("q", [-1]) * n_inc
    inc_addr[::unit] = op_addr
    inc_flags = bytearray(n_inc)
    inc_flags[::unit] = op_flag

    # Committed stream: groups of ``branch_every`` slots + 1 branch record.
    n_branches = n_inc // branch_every
    total = n_inc + n_branches
    group = branch_every + 1
    out_ip = array("q", bytes(8 * total))
    out_addr = array("q", bytes(8 * total))
    out_flags = bytearray(total)
    for r in range(branch_every):
        out_ip[r::group] = inc_ip[r::branch_every]
        out_addr[r::group] = inc_addr[r::branch_every]
        out_flags[r::group] = inc_flags[r::branch_every]
    if n_branches:
        out_ip[branch_every::group] = array("q", [nip + 2]) * n_branches
        out_addr[branch_every::group] = array("q", [-1]) * n_branches
        out_flags[branch_every::group] = bytes([FLAG_BRANCH]) * n_branches

    # Sequential tail: the branch rng draws, in stream order.  A branch in
    # op u's unit fires before that op's note_wrong_path_target call, so
    # its wrong-path pool is the seeded entry plus the stream-0 load
    # addresses noted by ops strictly before u (a closed-form count).
    rng = random.Random(seed)
    random_ = rng.random
    randrange = rng.randrange
    noted = load_addr[0::streams]
    wp_flags = FLAG_LOAD | FLAG_WRONG_PATH
    wp_ip = nip + 16
    wp: List[tuple] = []
    for b in range(n_branches):
        if random_() >= mispredict_rate:
            continue
        pos = b * group + branch_every
        out_flags[pos] |= FLAG_MISPREDICT
        u = (branch_every * (b + 1) - 1) // unit
        loads_before = u - u // (store_every + 1) if store_every else u
        c = (loads_before + streams - 1) // streams
        if c < _WP_POOL_MAX:
            pool = [_WP_SEED_TARGET] + list(noted[:c])
        else:
            pool = list(noted[c - _WP_POOL_MAX:c])
        size = len(pool)
        for _ in range(wrong_path_loads):
            base = pool[randrange(size)]
            wp.append((pos, base + randrange(256) * 64))
    if wp:
        # Splice each mispredict's burst right after its branch record.
        inserted = 0
        i = 0
        n_wp = len(wp)
        while i < n_wp:
            j = i
            pos = wp[i][0]
            while j < n_wp and wp[j][0] == pos:
                j += 1
            at = pos + 1 + inserted
            burst = j - i
            out_ip[at:at] = array("q", [wp_ip]) * burst
            out_addr[at:at] = array("q", [a for _, a in wp[i:j]])
            out_flags[at:at] = bytes([wp_flags]) * burst
            inserted += burst
            i = j

    return Trace.from_columns(name, out_ip, out_addr, bytes(out_flags),
                              suite=suite)


def stream_trace(name: str, n_loads: int, *, streams: int = 4,
                 stride_blocks: int = 1, elems_per_block: int = 8,
                 footprint_mb: int = 16, store_every: int = 0, seed: int = 1,
                 suite: str = "synthetic", bulk: bool = True,
                 **builder_kw) -> Trace:
    """Concurrent sequential/strided streams (bwaves/lbm/roms-like).

    Each stream reads ``elems_per_block`` 8-byte elements of a cache block
    (so most accesses hit in the L1D, like real array sweeps), then jumps
    ``stride_blocks`` blocks forward.  ``elems_per_block=1`` gives the
    one-touch-per-block behaviour of large-stride codes (cactus-like).

    ``bulk=True`` (the default) generates the columns in bulk -- several
    times faster, record-for-record identical to the ``bulk=False``
    reference path below (the equivalence is pinned by tests).
    """
    if bulk:
        return _bulk_stream_trace(
            name, n_loads, streams=streams, stride_blocks=stride_blocks,
            elems_per_block=elems_per_block, footprint_mb=footprint_mb,
            store_every=store_every, seed=seed, suite=suite, **builder_kw)
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    footprint = footprint_mb << 20
    bases = [i * REGION_GAP for i in range(1, streams + 1)]
    ips = [builder.new_ip() for _ in range(streams)]
    store_ip = builder.new_ip()
    block_pos = [0] * streams
    elem_pos = [0] * streams
    for i in range(n_loads):
        s = i % streams
        addr = bases[s] + (block_pos[s] * 64 + elem_pos[s] * 8) % footprint
        elem_pos[s] += 1
        if elem_pos[s] >= elems_per_block:
            elem_pos[s] = 0
            block_pos[s] += stride_blocks
        builder.add_load(ips[s], addr)
        if s == 0:
            builder.note_wrong_path_target(addr)
        if store_every and i % store_every == store_every - 1:
            builder.add_store(store_ip, addr)
    return builder.build()


def pointer_chase_trace(name: str, n_loads: int, *, footprint_mb: int = 32,
                        chains: int = 2, locality: float = 0.0,
                        hot_fraction: float = 0.5, hot_kb: int = 32,
                        scan_fraction: float = 0.6, scan_run: int = 32,
                        seed: int = 1, suite: str = "synthetic",
                        **builder_kw) -> Trace:
    """Pointer-heavy walks over a huge footprint (mcf-like, high MPKI).

    Real mcf mixes three behaviours this generator reproduces:

    * ``hot_fraction`` of loads touch a small hot structure (node headers,
      the simplex working set) and mostly hit;
    * a ``scan_fraction`` of the cold walk follows short sequential runs of
      ``scan_run`` blocks (arc-array scans) -- the part prefetchers can
      learn;
    * the rest are random jumps (pointer dereferences), with ``locality``
      probability of re-touching a recently visited block.
    """
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 7919 + 13)
    blocks = (footprint_mb << 20) // 64
    hot_blocks = (hot_kb << 10) // 64
    bases = [i * REGION_GAP for i in range(1, chains + 1)]
    hot_base = (chains + 1) * REGION_GAP
    jump_ips = [builder.new_ip() for _ in range(chains)]
    scan_ips = [builder.new_ip() for _ in range(chains)]
    hot_ip = builder.new_ip()
    scan_pos = [0] * chains
    scan_left = [0] * chains
    segments = [[rng.randrange(blocks) for _ in range(16)]
                for _ in range(chains)]
    recent: List[int] = []
    for i in range(n_loads):
        if rng.random() < hot_fraction:
            builder.add_load(hot_ip,
                             hot_base + rng.randrange(hot_blocks) * 64)
            continue
        c = i % chains
        if scan_left[c] > 0:
            # Continue the sequential arc-array run.
            scan_left[c] -= 1
            scan_pos[c] += 1
            addr = bases[c] + (scan_pos[c] % blocks) * 64
            builder.add_load(scan_ips[c], addr)
            continue
        if rng.random() < scan_fraction:
            # Re-scan one of a bounded set of arc-array segments (mcf
            # revisits its arc lists every simplex iteration), refreshing a
            # segment occasionally so cold misses keep appearing.
            if rng.random() < 0.1:
                segments[c][rng.randrange(len(segments[c]))] = \
                    rng.randrange(blocks)
            scan_left[c] = scan_run
            scan_pos[c] = segments[c][rng.randrange(len(segments[c]))]
            addr = bases[c] + scan_pos[c] * 64
            builder.add_load(scan_ips[c], addr)
            builder.note_wrong_path_target(addr)
            continue
        if recent and rng.random() < locality:
            addr = recent[rng.randrange(len(recent))]
        else:
            addr = bases[c] + rng.randrange(blocks) * 64
            recent.append(addr)
            if len(recent) > 32:
                recent.pop(0)
        builder.add_load(jump_ips[c], addr)
        builder.note_wrong_path_target(addr)
    return builder.build()


def region_trace(name: str, n_loads: int, *, region_blocks: int = 32,
                 footprints: int = 8, pool_regions: int = 256,
                 churn: float = 0.1, concurrency: int = 4, seed: int = 1,
                 suite: str = "synthetic", **builder_kw) -> Trace:
    """Spatially-clustered region access with recurring footprints.

    A working set of ``pool_regions`` regions is visited repeatedly; each
    visit touches the region's *footprint* (a fixed subset of its blocks
    keyed by the visiting IP) -- exactly the structure Bingo's
    PC+Address/PC+Offset history can learn.  With probability ``churn`` a
    visit targets a brand-new region (working-set turnover), producing the
    steady compulsory-miss stream that footprint prefetchers cover.
    ``concurrency`` visits proceed interleaved (real code walks several
    structures at once), giving a prefetcher time to run ahead of the
    demands within each region.  gcc/xalancbmk-like.
    """
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 104729 + 1)
    base = REGION_GAP
    ips = [builder.new_ip() for _ in range(footprints)]
    patterns = []
    for _ in range(footprints):
        size = rng.randrange(6, region_blocks // 2)
        patterns.append(sorted(rng.sample(range(region_blocks), size)))
    pool = list(range(pool_regions))
    next_region = pool_regions

    def new_visit() -> List[tuple]:
        """Pick a region; return its pending (ip, addr) access list."""
        nonlocal next_region
        if rng.random() < churn:
            pool[rng.randrange(len(pool))] = next_region
            region = next_region
            next_region += 1
        else:
            region = pool[rng.randrange(len(pool))]
        f = region % footprints
        region_base = base + region * region_blocks * 64
        builder.note_wrong_path_target(region_base)
        return [(ips[f], region_base + off * 64) for off in patterns[f]]

    active = [new_visit() for _ in range(concurrency)]
    loads = 0
    slot = 0
    while loads < n_loads:
        slot = (slot + 1) % concurrency
        if not active[slot]:
            active[slot] = new_visit()
        ip, addr = active[slot].pop(0)
        builder.add_load(ip, addr)
        loads += 1
    return builder.build()


def hot_cold_trace(name: str, n_loads: int, *, hot_kb: int = 24,
                   cold_mb: int = 8, cold_ratio: float = 0.06,
                   seed: int = 1, suite: str = "synthetic",
                   **builder_kw) -> Trace:
    """Mostly cache-resident hot set with occasional cold misses
    (leela/perlbench/xz-like, low MPKI)."""
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 31337 + 5)
    hot_blocks = (hot_kb << 10) // 64
    cold_blocks = (cold_mb << 20) // 64
    hot_base = REGION_GAP
    cold_base = 2 * REGION_GAP
    hot_ip = builder.new_ip()
    cold_ip = builder.new_ip()
    cold_pos = 0
    for _ in range(n_loads):
        if rng.random() < cold_ratio:
            # Cold accesses stride forward: partially prefetchable.
            addr = cold_base + (cold_pos % cold_blocks) * 64
            cold_pos += rng.randrange(1, 4)
            builder.add_load(cold_ip, addr)
            builder.note_wrong_path_target(addr)
        else:
            addr = hot_base + rng.randrange(hot_blocks) * 64
            builder.add_load(hot_ip, addr)
    return builder.build()


def interleave(traces: Iterable[Trace], name: str,
               chunk: int = 64) -> Trace:
    """Round-robin interleave several traces (used to mix behaviours):
    ``chunk`` records from each trace in turn, until all are spent."""
    columns = [trace.columns() for trace in traces]
    ips, vaddrs, flags = array("q"), array("q"), bytearray()
    longest = max((len(cols[2]) for cols in columns), default=0)
    for start in range(0, longest, chunk):
        for t_ips, t_vaddrs, t_flags in columns:
            ips += t_ips[start:start + chunk]
            vaddrs += t_vaddrs[start:start + chunk]
            flags += t_flags[start:start + chunk]
    return Trace.from_columns(name, ips, vaddrs, bytes(flags))
