"""Trace serialization: save and load traces as compact binary files.

Traces regenerate deterministically from their seeds, so serialization
mainly serves (a) interchange with other tools, (b) archiving the exact
workloads behind a set of published numbers, and (c) skipping generation
cost for the large graph workloads (the prebuilt-trace cache in
``repro.workloads.prebuilt`` stores ``.rtrace`` files).

Format (``.rtrace``, gzip-compressed):

* 16-byte header: magic ``b"RPRT"``, version (u16), flags (u16),
  record count (u64);
* a UTF-8 name block (u16 length + bytes) and suite block (same);
* version 1: records as fixed 13-byte little-endian triples: ip (i64),
  vaddr (i64, -1 for non-memory), flags (u8);
* version 2 (current writer): the same data *columnar* -- all ips
  (i64 little-endian), then all vaddrs (i64), then all flags (u8).
  These are the columns a :class:`Trace` holds, so a trace is written
  from its buffers and loaded into them without a per-record loop, and
  columns compress slightly better.

The format is versioned; readers reject unknown versions rather than
guessing.
"""

from __future__ import annotations

import gzip
import struct
import sys
from array import array
from pathlib import Path
from typing import Tuple, Union

from .trace import Trace

MAGIC = b"RPRT"
VERSION = 2

_HEADER = struct.Struct("<4sHHQ")
_RECORD = struct.Struct("<qqB")  # version-1 row encoding

_LITTLE_ENDIAN = sys.byteorder == "little"


def _native_q(payload: bytes) -> array:
    """Little-endian i64 bytes -> native ``array('q')``."""
    column = array("q")
    column.frombytes(payload)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        column.byteswap()
    return column


class TraceFormatError(ValueError):
    """Raised for malformed or incompatible trace files."""


def column_section(trace: Trace) -> Tuple[array, array, bytes]:
    """The version-2 column section of ``trace``, in three pieces.

    The bytes :func:`save_trace` writes after the name blocks, which the
    result store also hashes to key a trace: the trace's ``array('q')``
    ips and vaddrs and its ``bytes`` flags, read from the buffers it
    holds (not through :meth:`Trace.columns`).
    """
    ips, vaddrs, flags = trace._cols
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        ips, vaddrs = array("q", ips), array("q", vaddrs)
        ips.byteswap()
        vaddrs.byteswap()
    return ips, vaddrs, flags


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (gzip-compressed binary, version 2)."""
    path = Path(path)
    name_bytes = trace.name.encode("utf-8")
    suite_bytes = trace.suite.encode("utf-8")
    # zlib's default level: level 9 (gzip's default) took several times
    # as long for files a few percent smaller.
    with gzip.open(path, "wb", compresslevel=6) as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, 0, len(trace)))
        handle.write(struct.pack("<H", len(name_bytes)))
        handle.write(name_bytes)
        handle.write(struct.pack("<H", len(suite_bytes)))
        handle.write(suite_bytes)
        for piece in column_section(trace):
            handle.write(piece)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace` (version 1 or 2)."""
    path = Path(path)
    with gzip.open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, version, _flags, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: not a repro trace file")
        if version not in (1, 2):
            raise TraceFormatError(
                f"{path}: unsupported version {version} "
                f"(reader supports <= {VERSION})")
        (name_len,) = struct.unpack("<H", handle.read(2))
        name = handle.read(name_len).decode("utf-8")
        (suite_len,) = struct.unpack("<H", handle.read(2))
        suite = handle.read(suite_len).decode("utf-8")

        if version == 1:
            size = _RECORD.size
            unpack = _RECORD.unpack
            payload = handle.read(count * size)
            if len(payload) != count * size:
                raise TraceFormatError(f"{path}: truncated record section")
            records = [unpack(payload[i:i + size])
                       for i in range(0, len(payload), size)]
            return Trace(name, records, suite=suite)

        ip_bytes = handle.read(count * 8)
        vaddr_bytes = handle.read(count * 8)
        flag_bytes = handle.read(count)
        if (len(ip_bytes) != count * 8 or len(vaddr_bytes) != count * 8
                or len(flag_bytes) != count):
            raise TraceFormatError(f"{path}: truncated column section")
    return Trace.from_columns(name, _native_q(ip_bytes),
                              _native_q(vaddr_bytes), flag_bytes,
                              suite=suite)
