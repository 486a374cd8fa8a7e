"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` selects jobs by a modulus over their stable job key
(the content hash computed by :func:`repro.exec.store.job_key`), so the
same sweep always faults the same jobs -- tests and CI smoke runs can
assert exactly which retry, timeout, and quarantine paths fired.

Fault kinds
-----------
``crash``
    The worker raises :class:`InjectedFault` before simulating; the
    executor sees an ordinary job error and retries with backoff.
``die``
    The worker process hard-exits (``os._exit``), exercising dead-worker
    detection and respawn.  In serial (in-process) mode this degrades to a
    ``crash`` -- the driving process must survive.
``hang``
    The worker sleeps ``hang_s`` seconds before simulating, exercising the
    per-job wall-clock timeout and worker kill/respawn.  In serial mode
    the hang is converted into an immediate :class:`InjectedFault` (there
    is no second process to enforce a timeout against).
``corrupt``
    :class:`repro.exec.store.ResultStore` flips a payload byte of the
    record right after its first write, exercising checksum verification,
    quarantine, and recompute.
``torn``
    :class:`repro.exec.store.ResultStore` truncates the record file to
    half its length right after its first write (a torn write, as if the
    filesystem lost the tail), exercising quarantine-on-read + recompute.

Faults apply only on attempts ``<= attempts`` (default: the first), so a
retried job succeeds -- set ``attempts`` high to test permanent failure.

Environment switch
------------------
``REPRO_FAULTS`` holds a comma-separated spec, e.g.::

    REPRO_FAULTS="crash:3,hang:5,corrupt:4,torn:7,hang_s:30,attempts:1"

``crash:3`` means "every job whose key digest is ``0 (mod 3)`` crashes";
a modulus of ``1`` selects every job and ``0`` (or absence) disables the
kind.  An empty/unset variable disables injection entirely.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

#: Environment variable the plan is parsed from.
ENV_VAR = "REPRO_FAULTS"

_INT_FIELDS = ("crash", "die", "hang", "corrupt", "torn", "attempts")


class InjectedFault(RuntimeError):
    """Raised by an injected ``crash`` (or serialized ``die``/``hang``)."""


@dataclass(frozen=True)
class FaultPlan:
    """Which jobs fault, how, and for how many attempts.

    A modulus of 0 disables that fault kind; ``m`` selects jobs whose key
    digest is ``0 (mod m)``.
    """

    crash_every: int = 0
    die_every: int = 0
    hang_every: int = 0
    corrupt_every: int = 0
    torn_every: int = 0
    #: Inject only while the job's attempt number is <= this.
    attempts: int = 1
    #: How long an injected hang sleeps (pick >> the executor timeout).
    hang_s: float = 30.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None
                 ) -> "FaultPlan":
        """Parse ``REPRO_FAULTS`` (missing/empty -> inactive plan)."""
        if env is None:
            env = os.environ
        return cls.parse(env.get(ENV_VAR, ""))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``kind:value,...`` spec string."""
        plan = cls()
        spec = spec.strip()
        if not spec:
            return plan
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition(":")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault spec item {item!r}: "
                                 "expected 'kind:value'")
            try:
                if key in _INT_FIELDS:
                    field = "attempts" if key == "attempts" \
                        else f"{key}_every"
                    plan = replace(plan, **{field: int(value)})
                elif key == "hang_s":
                    plan = replace(plan, hang_s=float(value))
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r}; known: "
                        f"{', '.join(_INT_FIELDS + ('hang_s',))}")
            except ValueError as exc:
                if "unknown fault kind" in str(exc):
                    raise
                raise ValueError(
                    f"fault spec item {item!r}: bad value") from None
        return plan

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return any((self.crash_every, self.die_every, self.hang_every,
                    self.corrupt_every, self.torn_every))

    @staticmethod
    def _digest(key: str) -> int:
        """A stable small integer from a job key (hex digest or any str)."""
        try:
            return int(key[:12], 16)
        except ValueError:
            return sum(key.encode()) * 2654435761 % (1 << 32)

    def _selects(self, every: int, key: str, attempt: int) -> bool:
        return (every > 0 and attempt <= self.attempts
                and self._digest(key) % every == 0)

    def should_crash(self, key: str, attempt: int = 1) -> bool:
        return self._selects(self.crash_every, key, attempt)

    def should_die(self, key: str, attempt: int = 1) -> bool:
        return self._selects(self.die_every, key, attempt)

    def should_hang(self, key: str, attempt: int = 1) -> bool:
        return self._selects(self.hang_every, key, attempt)

    def should_corrupt(self, key: str) -> bool:
        """Store-side selection (not attempt-scoped: the store corrupts a
        matching record once and remembers it)."""
        return self.corrupt_every > 0 \
            and self._digest(key) % self.corrupt_every == 0

    def should_tear(self, key: str) -> bool:
        """Store-side torn-write selection (once per key, via a marker --
        same contract as :meth:`should_corrupt`)."""
        return self.torn_every > 0 \
            and self._digest(key) % self.torn_every == 0

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------

    def inject(self, key: str, attempt: int, *,
               in_worker: bool = True) -> None:
        """Apply any selected fault for this (job, attempt).

        Called by the executor right before a job simulates.  ``die`` and
        ``hang`` only take their real form inside a worker process; in
        serial mode both degrade to an :class:`InjectedFault` so the
        driving process survives and the retry path is still exercised.
        """
        if not self.active:
            return
        if self.should_die(key, attempt):
            if in_worker:
                os._exit(17)
            raise InjectedFault(
                f"injected die for job {key[:12]} (serial mode)")
        if self.should_hang(key, attempt):
            if in_worker:
                time.sleep(self.hang_s)
                return  # a hung job that outlives the timeout is killed
            raise InjectedFault(
                f"injected hang for job {key[:12]} (serial mode)")
        if self.should_crash(key, attempt):
            raise InjectedFault(
                f"injected crash for job {key[:12]} attempt {attempt}")
