"""Persistent content-addressed result store.

Records are keyed by a stable SHA-256 over everything that determines a
simulation's outcome -- the simulation model's version, the
:class:`~repro.experiments.runner.Config`, a fingerprint of the trace's
actual records, the experiment scale, and the
:class:`~repro.sim.params.SystemParams` digest -- so a result is reused iff
the simulation it answers for would be bit-identical.  The trace
fingerprint (:func:`trace_fingerprint`) hashes the records as the bytes
of a ``.rtrace`` file's column section, which are the buffers every
trace holds.

On-disk layout (under the store root)::

    format                   -- version stamp, refuses unknown versions
    objects/ab/<key>.rec     -- one record per job key (sharded by prefix)
    quarantine/<key>.rec.<n> -- corrupt records moved aside for post-mortem

Record format: magic line, a JSON header (key, payload length, SHA-256),
then a pickled :class:`~repro.sim.system.SimResult`.  Writes go to a
temporary file in the same directory followed by ``os.replace`` so a
record is either fully present or absent -- an interrupted sweep never
leaves a torn record.  Reads verify the magic, the header key, the payload
length, and the checksum; any mismatch quarantines the file (it is moved,
counted, and logged -- never deleted, never trusted) and reports a miss so
the caller simply recomputes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..workloads.io import column_section

#: Bump when the record layout changes; a store stamped with another
#: format is refused.
FORMAT_VERSION = 1

#: Version of the simulation model, part of every key.  Bump it with any
#: change that moves a simulated result, so the records of older code
#: miss instead of being served.  The golden snapshots and the figure
#: snapshot record it, and re-pinning one of them with changed content
#: under an unchanged version is refused
#: (:func:`repro.campaign.figcheck.write_pinned`).
#: 2: rand-llc keys the LLC's set index; its tags and DRAM stay physical.
MODEL_VERSION = 2

#: Set to ``1`` to fsync every record (and its directory) on write.
#: Off by default: ``os.replace`` already guarantees a record is all-or-
#: nothing against *process* crashes; the fsync upgrade extends that to
#: power loss at a measurable throughput cost.
FSYNC_ENV = "REPRO_STORE_FSYNC"

_MAGIC = b"repro-store-record\n"


# ----------------------------------------------------------------------
# stable key derivation
# ----------------------------------------------------------------------

def _canonical(obj: Any) -> Any:
    """Reduce dataclasses/containers to JSON-serializable structures."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__, **asdict(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    payload = json.dumps(_canonical(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def trace_fingerprint(trace) -> str:
    """Content hash of a trace: name, suite, record count and records.

    The records are hashed as the ``.rtrace`` version-2 column section
    (:func:`repro.workloads.io.column_section`), straight from the
    trace's buffers: ips and vaddrs as little-endian int64, then flags
    as u8.

    Cached on the trace object -- fingerprinting a 50k-record trace once
    per process is cheap, doing it per job is not.
    """
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256(
        f"{trace.name}\x00{trace.suite}\x00{len(trace)}\x00"
        .encode("utf-8"))
    h.update(b"columns-v2\x00")
    for piece in column_section(trace):
        h.update(piece)
    fingerprint = h.hexdigest()
    try:
        trace._fingerprint = fingerprint
    except AttributeError:  # pragma: no cover - slotted trace subclass
        pass
    return fingerprint


#: ``(id(config), id(scale), id(params))`` -> ``(config, scale, params,
#: parts)``; see :func:`_key_parts`.  Holding the three objects keeps
#: their ids from being reused while the entry lives.
_KEY_PARTS: Dict[Tuple[int, int, int], Tuple[Any, Any, Any, Tuple]] = {}
#: Entries kept before the memo starts over (a sweep uses a handful).
_KEY_PARTS_MAX = 256


def _key_parts(config, scale, params) -> Tuple[Any, Any, str]:
    """Canonical config and scale plus the params digest, memoized.

    A sweep derives thousands of keys from a few config, scale and
    params objects, and their ``asdict`` deep copies are most of a key's
    cost.  The memo is keyed by identity, not equality: equal objects
    can canonicalize differently (``Scale(warmup=0)`` equals
    ``Scale(warmup=0.0)``), while one frozen object always gives the
    same form.  Callers must not mutate the returned structures.
    """
    key = (id(config), id(scale), id(params))
    entry = _KEY_PARTS.get(key)
    if entry is not None:
        return entry[3]
    from ..sim.params import params_digest
    parts = (_canonical(config), _canonical(scale), params_digest(params))
    if len(_KEY_PARTS) >= _KEY_PARTS_MAX:
        _KEY_PARTS.clear()
    _KEY_PARTS[key] = (config, scale, params, parts)
    return parts


def job_key(config, trace, scale, params) -> str:
    """The store key of one ``(config, trace, scale, params)`` job."""
    config_c, scale_c, params_d = _key_parts(config, scale, params)
    payload = {
        "format": FORMAT_VERSION,
        "model": MODEL_VERSION,
        "config": config_c,
        "trace": trace_fingerprint(trace),
        "scale": scale_c,
        "params": params_d,
    }
    return stable_digest(payload)


def mix_job_key(config, traces, cores, scale, params) -> str:
    """The store key of one multicore mix job.

    Keyed on the ordered per-core trace fingerprints plus the core count,
    so a mix result is reused iff the whole interleaved simulation would
    be bit-identical.  The ``kind`` field keeps mix keys disjoint from
    single-core :func:`job_key` digests.
    """
    config_c, scale_c, params_d = _key_parts(config, scale, params)
    payload = {
        "format": FORMAT_VERSION,
        "model": MODEL_VERSION,
        "kind": "mix",
        "config": config_c,
        "traces": [trace_fingerprint(trace) for trace in traces],
        "cores": cores,
        "scale": scale_c,
        "params": params_d,
    }
    return stable_digest(payload)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class StoreError(OSError):
    """The store root is unusable (unwritable, wrong version, ...)."""


class ResultStore:
    """Durable result cache with checksums and corruption quarantine.

    ``root`` is the directory holding the store (created if missing);
    ``fsync`` overrides :data:`FSYNC_ENV`.
    """

    def __init__(self, root, *, fsync: Optional[bool] = None) -> None:
        self.root = Path(root)
        self.fsync = fsync if fsync is not None \
            else os.environ.get(FSYNC_ENV, "") == "1"
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self._init_root()

    def _init_root(self) -> None:
        try:
            self.objects.mkdir(parents=True, exist_ok=True)
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            version_file = self.root / "format"
            if version_file.exists():
                stamp = version_file.read_text().strip()
                if stamp != str(FORMAT_VERSION):
                    raise StoreError(
                        f"{self.root}: store format {stamp!r} != "
                        f"{FORMAT_VERSION} (delete the store to rebuild)")
            else:
                version_file.write_text(f"{FORMAT_VERSION}\n")
            # Probe writability once, up front, so callers can degrade.
            probe = self.root / ".write-probe"
            probe.write_text("ok")
            probe.unlink()
        except OSError as exc:
            if isinstance(exc, StoreError):
                raise
            raise StoreError(f"{self.root}: unusable result store "
                             f"({exc})") from exc

    @property
    def objects(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.rec"

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Return the stored result, or ``None`` on miss/corruption.

        A record failing any integrity check is quarantined (moved under
        ``quarantine/``) and reported as a miss so the job is recomputed.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            result = self._decode(key, blob)
        except Exception as exc:
            self._quarantine(path, str(exc))
            self.misses += 1
            return None
        self.hits += 1
        return result

    @staticmethod
    def _decode(key: str, blob: bytes) -> Any:
        if not blob.startswith(_MAGIC):
            raise ValueError("bad magic")
        rest = blob[len(_MAGIC):]
        header_line, sep, payload = rest.partition(b"\n")
        if not sep:
            raise ValueError("truncated header")
        header = json.loads(header_line.decode("utf-8"))
        if header.get("key") != key:
            raise ValueError(f"key mismatch: record is for "
                             f"{header.get('key', '?')[:12]}")
        if header.get("len") != len(payload):
            raise ValueError(f"payload length {len(payload)} != "
                             f"recorded {header.get('len')}")
        digest = hashlib.sha256(payload).hexdigest()
        if header.get("sha256") != digest:
            raise ValueError("payload checksum mismatch")
        return pickle.loads(payload)

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined += 1
        target = self._move_aside(path)
        print(f"repro.exec.store: quarantined corrupt record {path.name} "
              f"({reason})" + (f" -> {target}" if target else ""),
              file=sys.stderr)

    def _move_aside(self, path: Path) -> Optional[Path]:
        """Move ``path`` to ``quarantine/<name>.<n>``, ``n`` the first
        suffix not taken yet.  ``os.link`` refuses an existing name, so
        an earlier copy, quarantined by this store object or another, is
        never overwritten."""
        n = 1
        while True:
            target = self.quarantine_dir / f"{path.name}.{n}"
            try:
                os.link(path, target)
            except FileExistsError:
                n += 1
                continue
            except OSError:  # pragma: no cover - raced/unlinked file
                return None
            path.unlink(missing_ok=True)
            return target

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, key: str, result: Any) -> None:
        """Atomically persist one result record.

        The write goes to a same-directory temp file followed by
        ``os.replace``, so the record is either fully present or absent
        after a process crash.  With :data:`FSYNC_ENV` (or
        ``fsync=True``) the payload and its directory are also fsynced,
        extending the guarantee to power loss.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {"key": key, "len": len(payload),
             "sha256": hashlib.sha256(payload).hexdigest()},
            sort_keys=True).encode("utf-8")
        blob = _MAGIC + header + b"\n" + payload
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if self.fsync:
                self._fsync_dir(path.parent)
        finally:
            if tmp.exists():  # pragma: no cover - write failed mid-way
                tmp.unlink()
        self.writes += 1

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "quarantined": self.quarantined}

    def summary(self) -> str:
        s = self.stats()
        return (f"store {self.root}: {s['hits']} hits, {s['misses']} "
                f"misses, {s['writes']} writes, {s['quarantined']} "
                f"quarantined")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, {self.stats()})"
