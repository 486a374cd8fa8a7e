"""GAP-like graph workload traces.

The GAP benchmark suite processes CSR graphs; its memory behaviour is a mix
of *sequential streams* (offset and neighbor arrays) and *random gathers*
(per-vertex property arrays indexed by neighbor id).  We synthesize an
Erdos-Renyi-style graph in CSR form and emit the address stream each kernel
actually performs, using the kernel's real visit order (BFS frontier order,
PageRank's sequential sweeps, ...).

Array layout (8-byte elements, disjoint gigabyte-aligned regions):

* ``offsets[v]``   -- CSR row pointers, sequential in visit order;
* ``neighbors[i]`` -- CSR column indices, streamed per vertex;
* ``prop[v]``      -- visited flags / ranks / components / distances,
  gathered at random vertex ids: the high-MPKI part.

Graph kernels branch heavily and unpredictably (data-dependent frontier
membership), so these builders use a higher mispredict rate than the SPEC
generators.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

try:  # optional fast path; the stdlib loop below is always available
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environment
    _np = None

from .synthetic import REGION_GAP, TraceBuilder
from .trace import Trace

#: ``(vertices, degree, seed)`` -> ``(offsets, neighbors)``.
_GRAPH_CACHE: Dict[Tuple[int, int, int],
                   Tuple[Sequence, Sequence]] = {}

OFFSETS_BASE = 1 * REGION_GAP
NEIGHBORS_BASE = 2 * REGION_GAP
PROP_BASE = 3 * REGION_GAP
PROP2_BASE = 4 * REGION_GAP

_ELEM = 8  # bytes per array element

#: MT19937 words with this bit clear are the ones ``_randbelow`` accepts
#: when the window is a power of two (see :func:`_np_build_graph`).
_TOP_BIT = 0x80000000
#: Raw MT19937 words the NumPy builder pulls and decodes at a time.
_CHUNK_WORDS = 1 << 16


class _LazyNeighbors(Sequence):
    """CSR neighbor column whose rows are sorted on first access.

    Holds every accepted MT19937 draw of the graph, already decoded to a
    vertex id, in one typed array (degree draws included: row ``v``'s
    neighbor draws start right after its degree draw, at ``offsets[v] +
    v + 1``).  A short trace reads few of the 65,536 rows (15 to 20 at
    500 loads), so building the whole sorted column up front -- a
    million Python ints -- is mostly waste.  Reads behave as on the
    plain list the scalar builder returns: same values, plain ints,
    rows sorted.
    """

    def __init__(self, draws, offsets) -> None:
        self._draws = draws
        self._offsets = offsets
        self._rows: Dict[int, List[int]] = {}

    def row(self, v: int) -> List[int]:
        """Vertex ``v``'s sorted neighbors (decoded once, then cached)."""
        row = self._rows.get(v)
        if row is None:
            start = self._offsets[v]
            first = start + v + 1
            row = self._rows[v] = sorted(self._draws[
                first:first + self._offsets[v + 1] - start].tolist())
        return row

    def __len__(self) -> int:
        return self._offsets[-1]

    def __iter__(self):
        for v in range(len(self._offsets) - 1):
            yield from self.row(v)

    def __getitem__(self, index):
        offsets = self._offsets
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1 and start < stop:
                v = bisect_right(offsets, start) - 1
                if stop <= offsets[v + 1]:  # within one row: the emitter's
                    base = offsets[v]
                    return self.row(v)[start - base:stop - base]
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("neighbor index out of range")
        v = bisect_right(offsets, index) - 1
        return self.row(v)[index - offsets[v]]


def _np_build_graph(vertices: int, deg_lo: int, deg_span: int,
                    seed: int) -> Optional[Tuple[array, _LazyNeighbors]]:
    """Vectorized, draw-exact CSR construction (NumPy fast path).

    CPython's ``Random._randbelow(n)`` for ``n == 2**m`` draws one 32-bit
    MT19937 word per attempt, keeps the top ``m + 1`` bits, and accepts
    iff the result is below ``2**m`` -- i.e. iff *bit 31 of the raw word
    is clear*, independent of ``m``.  So when both draw windows
    (``deg_span`` and ``vertices``) are powers of two, the accepted-word
    subsequence does not depend on which window each draw targets: we can
    pull the raw word stream in bulk (same MT19937 state, injected from
    ``random.Random(seed)``), filter on the top bit, and decode each
    accepted word with the shift of whichever draw consumed it.

    The stream is pulled ``_CHUNK_WORDS`` raw words at a time, and each
    chunk is decoded at once into a degree byte and a vertex id per
    accepted word, so no raw word outlives its chunk; the degree walk
    pulls the next chunk whenever it runs past the decoded prefix.  Only
    the degrees are walked here (each degree draw's position depends on
    every earlier degree); the neighbor draws stay decoded in one array
    and each row is sorted when it is first read (:class:`_LazyNeighbors`).

    Returns ``None`` (caller falls back to the scalar loop) when NumPy is
    missing, a window is not a power of two, or the trailing spot check
    against a fresh ``random.Random(seed)`` replay disagrees.
    """
    if _np is None:
        return None
    if vertices & (vertices - 1) or deg_span & (deg_span - 1):
        return None
    if deg_span > 256:  # degree column is decoded through a bytes view
        return None
    st = random.Random(seed).getstate()[1]
    try:
        mt = _np.random.MT19937()
        mt.state = {"bit_generator": "MT19937",
                    "state": {"key": _np.asarray(st[:624],
                                                 dtype=_np.uint32),
                              "pos": st[624]}}
    except (KeyError, TypeError, ValueError):  # pragma: no cover
        return None
    # getrandbits(m + 1) keeps the top m + 1 bits of the word.
    shift_deg = 32 - deg_span.bit_length()
    shift_v = 32 - vertices.bit_length()
    vid_type = _np.uint16 if vertices <= 1 << 16 else _np.uint32
    # Degree candidates as bytes: C-speed indexing in the walk below
    # without materializing a Python int per accepted word.
    deg_bytes = bytearray()
    vid_chunks = []

    def pull() -> int:
        """Decode the next chunk; return the accepted draws so far."""
        words = mt.random_raw(_CHUNK_WORDS)
        acc = words[words < _TOP_BIT]
        deg_bytes.extend((acc >> shift_deg).astype(_np.uint8).tobytes())
        vid_chunks.append((acc >> shift_v).astype(vid_type))
        return len(deg_bytes)

    # Sequential walk over accepted-draw positions: vertex v's degree
    # draw sits right after vertex v-1's last neighbor draw.
    offsets = array("q", [0])
    append = offsets.append
    off = 0
    pos = 0
    n_dec = 0
    for _ in range(vertices):
        while pos >= n_dec:
            n_dec = pull()
        d = deg_lo + deg_bytes[pos]
        off += d
        append(off)
        pos += 1 + d
    while pos > n_dec:  # the final vertex's neighbor draws
        n_dec = pull()
    deg_bytes.clear()  # not needed past the walk: free it before the join
    draws = _np.concatenate(vid_chunks)[:pos]
    neighbors = _LazyNeighbors(draws, offsets)

    # Spot check: replay the first few vertices on the scalar generator
    # and require byte-for-byte agreement, so any emulation drift (NumPy
    # MT19937 changes, PyPy, ...) falls back instead of diverging.
    rng = random.Random(seed)
    randbelow = getattr(rng, "_randbelow", None)
    if randbelow is None:  # pragma: no cover - non-CPython
        return None
    for v in range(min(4, vertices)):
        d = deg_lo + randbelow(deg_span)
        if d != offsets[v + 1] - offsets[v]:  # pragma: no cover - guard
            return None
        row = sorted(randbelow(vertices) for _ in range(d))
        if row != neighbors.row(v):
            return None  # pragma: no cover - fallback guard
    return offsets, neighbors


def build_graph(vertices: int = 65536, degree: int = 16,
                seed: int = 42) -> Tuple[Sequence, Sequence]:
    """Return (offsets, neighbors) of a random CSR graph (cached).

    Both are read-only sequences of plain ints; with NumPy the neighbor
    rows are sorted on first read (:class:`_LazyNeighbors`), without it
    both are lists.  The values are the same either way.
    """
    key = (vertices, degree, seed)
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached
    deg_lo = max(1, degree // 2)
    deg_span = degree + degree // 2 - deg_lo
    if deg_span <= 0 or vertices <= 0:
        raise ValueError(f"empty range for degree={degree} "
                         f"vertices={vertices}")
    graph = _np_build_graph(vertices, deg_lo, deg_span, seed)
    if graph is not None:
        _GRAPH_CACHE[key] = graph
        return graph
    rng = random.Random(seed)
    offsets = [0] * (vertices + 1)
    neighbors: List[int] = []
    extend = neighbors.extend
    # randrange(a, b) reduces to a + _randbelow(b - a); calling the
    # accepted-values core directly skips the argument re-validation on
    # the ~vertices * (degree + 1) draws and keeps the exact draw
    # sequence (same generator, same rejection sampling).
    randbelow = getattr(rng, "_randbelow", None)
    if randbelow is None:  # non-CPython fallback
        randrange = rng.randrange

        def randbelow(n, _randrange=randrange):
            return _randrange(n)
    for v in range(vertices):
        deg = deg_lo + randbelow(deg_span)
        extend(sorted(randbelow(vertices) for _ in range(deg)))
        offsets[v + 1] = len(neighbors)
    graph = (offsets, neighbors)
    _GRAPH_CACHE[key] = graph
    return graph


class _GraphEmitter:
    """Shared helpers for emitting CSR access streams."""

    def __init__(self, name: str, seed: int, vertices: int,
                 degree: int) -> None:
        self.builder = TraceBuilder(
            name, suite="gap", seed=seed, branch_every=6,
            mispredict_rate=0.01, wrong_path_loads=4)
        self.offsets, self.neighbors = build_graph(vertices, degree, seed)
        self.vertices = vertices
        b = self.builder
        self.ip_offsets = b.new_ip()
        self.ip_neighbors = b.new_ip()
        self.ip_prop = b.new_ip()
        self.ip_prop2 = b.new_ip()
        self.loads = 0

    def visit_vertex(self, u: int, *, gather: bool = True,
                     prop_base: int = PROP_BASE,
                     neighbor_cap: int = 64) -> List[int]:
        """Emit the loads of processing vertex ``u``; return its
        neighbors."""
        b = self.builder
        b.add_load(self.ip_offsets, OFFSETS_BASE + u * _ELEM)
        self.loads += 1
        start, end = self.offsets[u], self.offsets[u + 1]
        row = self.neighbors[start:min(end, start + neighbor_cap)]
        for i, v in enumerate(row):
            b.add_load(self.ip_neighbors, NEIGHBORS_BASE + (start + i) *
                       _ELEM)
            self.loads += 1
            if gather:
                addr = prop_base + v * _ELEM
                b.add_load(self.ip_prop, addr)
                b.note_wrong_path_target(addr)
                self.loads += 1
        return row

    def build(self) -> Trace:
        return self.builder.build()


def bfs_trace(name: str = "bfs-14B", n_loads: int = 30000, *,
              vertices: int = 65536, degree: int = 16,
              seed: int = 42) -> Trace:
    """Breadth-first search: frontier-ordered visits, random gathers."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    visited = bytearray(vertices)
    frontier = deque([seed % vertices])
    visited[seed % vertices] = 1
    while frontier and emitter.loads < n_loads:
        u = frontier.popleft()
        for v in emitter.visit_vertex(u):
            if not visited[v]:
                visited[v] = 1
                # Marking the vertex writes its visited flag.
                emitter.builder.add_store(emitter.ip_prop2,
                                          PROP2_BASE + v * _ELEM)
                frontier.append(v)
    return emitter.build()


def pagerank_trace(name: str = "pr-14B", n_loads: int = 30000, *,
                   vertices: int = 65536, degree: int = 16,
                   seed: int = 43) -> Trace:
    """PageRank: sequential vertex sweeps with random rank gathers."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    u = 0
    while emitter.loads < n_loads:
        emitter.visit_vertex(u % vertices)
        if u % vertices == vertices - 1:
            pass  # next iteration sweeps again from vertex 0
        u += 1
    return emitter.build()


def cc_trace(name: str = "cc-14B", n_loads: int = 30000, *,
             vertices: int = 65536, degree: int = 16,
             seed: int = 44) -> Trace:
    """Connected components: edge sweeps reading both endpoints'
    components."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    b = emitter.builder
    u = 0
    while emitter.loads < n_loads:
        row = emitter.visit_vertex(u % vertices, gather=True)
        # comp[u] is re-read and occasionally updated (union step).
        b.add_load(emitter.ip_prop2, PROP2_BASE + (u % vertices) * _ELEM)
        emitter.loads += 1
        if row and (u + len(row)) % 3 == 0:
            b.add_store(emitter.ip_prop2, PROP2_BASE + row[0] * _ELEM)
        u += 1
    return emitter.build()


def sssp_trace(name: str = "sssp-14B", n_loads: int = 30000, *,
               vertices: int = 65536, degree: int = 16,
               seed: int = 45) -> Trace:
    """Delta-stepping-style SSSP: bucket-ordered (semi-random) visits."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    rng = random.Random(seed * 3 + 1)
    # Bucket order: a permuted visit order models priority buckets.
    order = list(range(vertices))
    rng.shuffle(order)
    i = 0
    while emitter.loads < n_loads:
        emitter.visit_vertex(order[i % vertices], prop_base=PROP_BASE)
        i += 1
    return emitter.build()


def bc_trace(name: str = "bc-0B", n_loads: int = 30000, *,
             vertices: int = 65536, degree: int = 16,
             seed: int = 46) -> Trace:
    """Betweenness centrality: BFS forward pass + reverse accumulation."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    visited = bytearray(vertices)
    src = seed % vertices
    frontier = deque([src])
    visited[src] = 1
    order: List[int] = []
    budget = n_loads * 2 // 3
    while frontier and emitter.loads < budget:
        u = frontier.popleft()
        order.append(u)
        for v in emitter.visit_vertex(u):
            if not visited[v]:
                visited[v] = 1
                frontier.append(v)
    # Reverse pass accumulates dependencies (second property array).
    for u in reversed(order):
        if emitter.loads >= n_loads:
            break
        emitter.visit_vertex(u, prop_base=PROP2_BASE)
    return emitter.build()


def tc_trace(name: str = "tc-0B", n_loads: int = 30000, *,
             vertices: int = 8192, degree: int = 24,
             seed: int = 47) -> Trace:
    """Triangle counting: nested neighbor-list scans with heavy reuse."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    u = 0
    while emitter.loads < n_loads:
        row = emitter.visit_vertex(u % vertices, gather=False,
                                   neighbor_cap=12)
        for v in row[:4]:
            emitter.visit_vertex(v, gather=False, neighbor_cap=12)
            if emitter.loads >= n_loads:
                break
        u += 1
    return emitter.build()


#: Kernel-name -> builder, mirroring the GAP suite used in the paper.
GAP_KERNELS = {
    "bfs": bfs_trace,
    "pr": pagerank_trace,
    "cc": cc_trace,
    "sssp": sssp_trace,
    "bc": bc_trace,
    "tc": tc_trace,
}


def gap_trace(kernel: str, n_loads: int = 30000, *, vertices: int = 65536,
              seed: int = 42) -> Trace:
    """Build one kernel of the pool :func:`gap_traces` would build.

    ``seed`` is the *pool* seed: the kernel's index in sorted name order
    is applied as the per-kernel offset, exactly as in the pool builder,
    so ``gap_trace(k, ...)`` equals the pool's ``k`` entry record for
    record.  This is the unit the prebuilt-trace cache keys on.
    """
    kernels = sorted(GAP_KERNELS)
    try:
        index = kernels.index(kernel)
    except ValueError:
        raise ValueError(f"unknown GAP kernel {kernel!r}; "
                         f"known: {kernels}") from None
    kwargs = {"n_loads": n_loads, "seed": seed + index}
    if kernel != "tc":
        kwargs["vertices"] = vertices
    return GAP_KERNELS[kernel](f"{kernel}-{seed}B", **kwargs)


def gap_traces(n_loads: int = 30000, *, vertices: int = 65536,
               seed: int = 42, count: int = 0) -> List[Trace]:
    """The GAP-like trace pool (first ``count`` kernels, 0 = all).

    Kernel ``i`` always uses ``seed + i`` over the sorted kernel names, so
    a truncated pool is a prefix of the full one -- small sweep scales
    skip building (and graph-constructing) the kernels they never use.
    """
    kernels = sorted(GAP_KERNELS)
    if count:
        kernels = kernels[:count]
    return [gap_trace(kernel, n_loads, vertices=vertices, seed=seed)
            for kernel in kernels]
