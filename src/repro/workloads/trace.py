"""Trace records and trace containers.

The simulator is trace driven, in the spirit of ChampSim.  A trace is an
ordered list of committed-path instructions, optionally interleaved with
*wrong-path* records that model the transient instructions executed in the
shadow of a mispredicted branch.  Wrong-path records execute speculatively
(they access the memory hierarchy and, on a non-secure system, pollute it and
train on-access prefetchers) but they never commit.

For speed each record is a plain tuple ``(ip, vaddr, flags)``:

* ``ip``    -- instruction pointer (integer, byte address).
* ``vaddr`` -- virtual byte address of the memory operand, or ``-1`` when the
  instruction does not touch memory.
* ``flags`` -- bitwise OR of the ``FLAG_*`` constants below.

The :class:`Instr` dataclass offers a readable view of a record for tests and
examples; the hot simulator loops index the tuples directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

#: Record flag bits.
FLAG_LOAD = 0x01
FLAG_STORE = 0x02
FLAG_BRANCH = 0x04
FLAG_MISPREDICT = 0x08  # only meaningful when FLAG_BRANCH is set
FLAG_WRONG_PATH = 0x10  # transient record: executes, never commits

#: Every flag-byte value with FLAG_WRONG_PATH set; lets the columnar
#: wrong-path count run as a handful of C-speed ``bytes.count`` scans.
_WRONG_PATH_BYTES = tuple(v for v in range(256) if v & FLAG_WRONG_PATH)

#: Cache block size used throughout the simulator (bytes).
BLOCK_SIZE = 64
BLOCK_SHIFT = 6

Record = Tuple[int, int, int]


def block_of(addr: int) -> int:
    """Return the cache-block number of a byte address."""
    return addr >> BLOCK_SHIFT


@dataclass(frozen=True)
class Instr:
    """Readable view of one trace record."""

    ip: int
    vaddr: int = -1
    flags: int = 0

    @property
    def is_load(self) -> bool:
        return bool(self.flags & FLAG_LOAD)

    @property
    def is_store(self) -> bool:
        return bool(self.flags & FLAG_STORE)

    @property
    def is_branch(self) -> bool:
        return bool(self.flags & FLAG_BRANCH)

    @property
    def is_mispredict(self) -> bool:
        return bool(self.flags & FLAG_MISPREDICT)

    @property
    def is_wrong_path(self) -> bool:
        return bool(self.flags & FLAG_WRONG_PATH)

    @property
    def is_mem(self) -> bool:
        return self.vaddr >= 0

    def record(self) -> Record:
        """Return the compact tuple representation."""
        return (self.ip, self.vaddr, self.flags)


def load(ip: int, vaddr: int, *, wrong_path: bool = False) -> Record:
    """Build a load record."""
    flags = FLAG_LOAD | (FLAG_WRONG_PATH if wrong_path else 0)
    return (ip, vaddr, flags)


def store(ip: int, vaddr: int) -> Record:
    """Build a store record (committed path only)."""
    return (ip, vaddr, FLAG_STORE)


def alu(ip: int) -> Record:
    """Build a non-memory, non-branch record."""
    return (ip, -1, 0)


def branch(ip: int, *, mispredict: bool = False) -> Record:
    """Build a branch record."""
    flags = FLAG_BRANCH | (FLAG_MISPREDICT if mispredict else 0)
    return (ip, -1, flags)


class Trace:
    """An ordered sequence of trace records with a name and provenance.

    ``records`` mixes committed-path and wrong-path records.  The committed
    instruction count (used for IPC and per-kilo-instruction metrics) excludes
    wrong-path records.

    Every generator, and :func:`repro.workloads.io.load_trace`, builds
    its trace from typed *columns* (see :meth:`from_columns`):
    ``array('q')`` ips and vaddrs and ``bytes`` flags, 17 bytes per
    record.  The prescan and the store key read those buffers, and the
    record tuples that most callers never touch are materialized lazily
    on first ``.records`` access.  Columnar traces also pickle as
    columns, which keeps multiprocess job payloads small.  A trace built
    from records keeps its tuples (a tuple, a list slot and up to three
    int objects per record); generators fall back to that only for a
    value int64 or u8 cannot hold.
    """

    def __init__(self, name: str, records: Sequence[Record],
                 suite: str = "synthetic") -> None:
        self.name = name
        self.suite = suite
        self._records: Optional[List[Record]] = list(records)
        self._cols: Optional[Tuple[Sequence[int], Sequence[int],
                                   Sequence[int]]] = None
        self.committed_count = sum(
            1 for (_, _, flags) in self._records
            if not flags & FLAG_WRONG_PATH)

    @classmethod
    def from_columns(cls, name: str, ips: Sequence[int],
                     vaddrs: Sequence[int], flags: Sequence[int],
                     suite: str = "synthetic") -> "Trace":
        """Build a trace from parallel columns without materializing tuples.

        ``ips``/``vaddrs`` are typically ``array('q')`` and ``flags`` a
        ``bytes``/``bytearray``; elements must index back as plain ints
        (NumPy arrays would leak ``np.int64`` scalars into the hot
        simulator loops -- convert first).
        """
        if not (len(ips) == len(vaddrs) == len(flags)):
            raise ValueError("column lengths differ")
        trace = cls.__new__(cls)
        trace.name = name
        trace.suite = suite
        trace._records = None
        trace._cols = (ips, vaddrs, flags)
        # Only wrong-path records carry FLAG_WRONG_PATH; count them
        # straight off the flags column.
        if isinstance(flags, (bytes, bytearray)):
            wrong_path = sum(flags.count(v) for v in _WRONG_PATH_BYTES)
        else:
            wrong_path = sum(1 for f in flags if f & FLAG_WRONG_PATH)
        trace.committed_count = len(flags) - wrong_path
        return trace

    @property
    def records(self) -> List[Record]:
        records = self._records
        if records is None:
            records = self._records = list(zip(*self._cols))
        return records

    def columns(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """Parallel ``(ips, vaddrs, flags)`` views of the records.

        Columnar traces return the prebuilt columns without ever
        materializing record tuples; record-built traces transpose on
        demand (and do not cache the result -- the tuples stay the
        canonical representation there).  The stepper's prescan
        (:mod:`repro.sim.batch`) reads these, so a columnar trace can be
        simulated end to end without ``records`` existing at all.
        """
        if self._cols is not None:
            return self._cols
        records = self._records
        return ([r[0] for r in records], [r[1] for r in records],
                [r[2] for r in records])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if state.get("_cols") is not None:
            state["_records"] = None  # ship columns, not tuples
        # The batch-prescan cache is derived data; recompute on the far
        # side rather than shipping it in job payloads.
        state.pop("_batch_plan", None)
        return state

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._cols[0])

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace({self.name!r}, {len(self)} records, "
                f"{self.committed_count} committed)")

    def instructions(self) -> Iterator[Instr]:
        """Iterate records as :class:`Instr` objects (slow, for inspection)."""
        for ip, vaddr, flags in self.records:
            yield Instr(ip, vaddr, flags)

    def loads(self) -> Iterator[Instr]:
        """Iterate only the load records (committed and wrong path)."""
        for instr in self.instructions():
            if instr.is_load:
                yield instr

    def footprint_blocks(self) -> int:
        """Number of distinct cache blocks touched by committed-path memory."""
        blocks = {
            vaddr >> BLOCK_SHIFT
            for (_, vaddr, flags) in self.records
            if vaddr >= 0 and not flags & FLAG_WRONG_PATH
        }
        return len(blocks)

    @staticmethod
    def from_instrs(name: str, instrs: Iterable[Instr],
                    suite: str = "synthetic") -> "Trace":
        """Build a trace from :class:`Instr` objects."""
        return Trace(name, [i.record() for i in instrs], suite=suite)
