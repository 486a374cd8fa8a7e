"""Trace records and trace containers.

The simulator is trace driven, in the spirit of ChampSim.  A trace is an
ordered list of committed-path instructions, optionally interleaved with
*wrong-path* records that model the transient instructions executed in the
shadow of a mispredicted branch.  Wrong-path records execute speculatively
(they access the memory hierarchy and, on a non-secure system, pollute it and
train on-access prefetchers) but they never commit.

Each record is an ``(ip, vaddr, flags)`` triple:

* ``ip``    -- instruction pointer (integer, byte address).
* ``vaddr`` -- virtual byte address of the memory operand, or ``-1`` when the
  instruction does not touch memory.
* ``flags`` -- bitwise OR of the ``FLAG_*`` constants below.

A :class:`Trace` stores its records as three typed columns, the layout
of ChampSim's fixed-width binary records and of a version-2 ``.rtrace``
file (:mod:`repro.workloads.io`): ``array('q')`` ips and vaddrs and
``bytes`` flags, 17 bytes per record.  The record builders below return
tuples, for traces built by hand with ``Trace(name, records)``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence, Tuple, Union

#: Record flag bits.
FLAG_LOAD = 0x01
FLAG_STORE = 0x02
FLAG_BRANCH = 0x04
FLAG_MISPREDICT = 0x08  # only meaningful when FLAG_BRANCH is set
FLAG_WRONG_PATH = 0x10  # transient record: executes, never commits

#: Every flag-byte value without FLAG_WRONG_PATH; deleting them from a
#: flags column leaves its wrong-path records, in one C-speed pass.
_COMMITTED_BYTES = bytes(v for v in range(256) if not v & FLAG_WRONG_PATH)

#: Cache block size used throughout the simulator (bytes).
BLOCK_SIZE = 64
BLOCK_SHIFT = 6

Record = Tuple[int, int, int]

#: Per column: the field's name, its value range and the type named in
#: the error for a value outside it.
_FIELDS = (("ip", -2**63, 2**63 - 1, "int64"),
           ("vaddr", -2**63, 2**63 - 1, "int64"),
           ("flags", 0, 255, "u8"))


def block_of(addr: int) -> int:
    """Return the cache-block number of a byte address."""
    return addr >> BLOCK_SHIFT


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


def _typed_column(name: str, field: int,
                  values: Sequence[int]) -> Union[array, bytes]:
    """Column ``field`` as ``array('q')`` (ips, vaddrs) or ``bytes``
    (flags): kept as it is when it already has that type, else converted
    once.  A value the type cannot hold raises ``ValueError`` naming the
    trace, the field, the record index and the value; the record is
    looked for only after the conversion has failed.
    """
    try:
        if field < 2:
            if type(values) is array and values.typecode == "q":
                return values
            return array("q", values)
        if type(values) is bytes:
            return values
        # bytes() of a multi-byte array would copy its raw buffer, so
        # anything but a list converts element by element.
        return bytes(values if type(values) is list else iter(values))
    except (OverflowError, ValueError):
        label, low, high, kind = _FIELDS[field]
        for index, value in enumerate(values):
            if not low <= value <= high:
                raise ValueError(
                    f"trace {name!r}: record {index}: {label} {value} "
                    f"does not fit in {kind}") from None
        raise


class Trace:
    """An ordered sequence of trace records with a name and provenance.

    The records mix committed-path and wrong-path records.  The
    committed instruction count (used for IPC and per-kilo-instruction
    metrics) excludes wrong-path records.

    A trace holds its records as typed columns (:meth:`columns`):
    ``array('q')`` ips and vaddrs and ``bytes`` flags.
    ``Trace(name, records)`` transposes a sequence of record tuples into
    them once; :meth:`from_columns` takes the columns.  The prescan
    (:mod:`repro.sim.batch`), the store key and :func:`~repro.workloads.
    io.save_trace` read those buffers, and a pickled trace ships them.
    :attr:`records` and iteration build ``(ip, vaddr, flags)`` tuples on
    demand, for inspection and tests.  A value a column cannot hold (an
    address of 2**63 or more, a flag above 255) raises ``ValueError``
    when the trace is built.
    """

    def __init__(self, name: str, records: Sequence[Record],
                 suite: str = "synthetic") -> None:
        # One field at a time, so one transient list of ints is alive.
        self._set_columns(name, suite, [
            _typed_column(name, field, [r[field] for r in records])
            for field in range(3)])

    @classmethod
    def from_columns(cls, name: str, ips: Sequence[int],
                     vaddrs: Sequence[int], flags: Sequence[int],
                     suite: str = "synthetic") -> "Trace":
        """Build a trace from parallel columns.

        ``array('q')`` ips and vaddrs and ``bytes`` flags are kept as
        they are, without a copy or a scan; any other sequence of ints
        (a list, an ``array`` of another type code, a ``bytearray``, a
        NumPy array) is converted once.
        """
        trace = cls.__new__(cls)
        trace._set_columns(name, suite, [
            _typed_column(name, field, values)
            for field, values in enumerate((ips, vaddrs, flags))])
        return trace

    def _set_columns(self, name: str, suite: str,
                     columns: List[Union[array, bytes]]) -> None:
        ips, vaddrs, flags = columns
        if not len(ips) == len(vaddrs) == len(flags):
            raise ValueError(
                f"trace {name!r}: column lengths differ ({len(ips)} ips, "
                f"{len(vaddrs)} vaddrs, {len(flags)} flags)")
        self.name = name
        self.suite = suite
        self._cols = (ips, vaddrs, flags)
        # Only wrong-path records carry FLAG_WRONG_PATH.
        self.committed_count = (
            len(flags) - len(flags.translate(None, _COMMITTED_BYTES)))

    @property
    def records(self) -> List[Record]:
        """The records as ``(ip, vaddr, flags)`` tuples, built anew on
        each access (nothing is cached on the trace)."""
        return list(zip(*self._cols))

    def columns(self) -> Tuple[array, array, bytes]:
        """The ``(ips, vaddrs, flags)`` columns the trace holds."""
        return self._cols

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The batch-prescan cache is derived data; recompute on the far
        # side rather than shipping it in job payloads.
        state.pop("_batch_plan", None)
        return state

    def __len__(self) -> int:
        return len(self._cols[2])

    def __iter__(self) -> Iterator[Record]:
        return zip(*self._cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace({self.name!r}, {len(self)} records, "
                f"{self.committed_count} committed)")

    def footprint_blocks(self) -> int:
        """Number of distinct cache blocks touched by committed-path memory."""
        _, vaddrs, flags = self._cols
        blocks = {
            vaddr >> BLOCK_SHIFT
            for vaddr, flag in zip(vaddrs, flags)
            if vaddr >= 0 and not flag & FLAG_WRONG_PATH
        }
        return len(blocks)
