"""Shared CLI execution options: one parser, one resolution path.

Every subcommand that drives simulations (``run``, ``campaign``,
``security-matrix``, ``multicore``) takes the same
``--jobs/--store/--no-store`` flags with the same environment fallback.
This module is the single source of truth:

* :func:`exec_arguments` builds an ``argparse`` *parent parser* carrying
  the flags, attached to each subcommand via ``parents=[...]``;
* :class:`ExecOptions` is the resolved form -- the ``REPRO_STORE``
  fallback is applied in exactly one place -- and is threaded through to
  :class:`~repro.experiments.runner.ExperimentRunner` via
  :meth:`ExecOptions.make_runner`.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Optional

#: Environment fallback for the default store directory.
STORE_ENV = "REPRO_STORE"


def default_store() -> str:
    """The default result-store directory (``REPRO_STORE`` fallback)."""
    return os.environ.get(STORE_ENV, ".repro-store")


def exec_arguments() -> argparse.ArgumentParser:
    """A parent parser carrying the shared execution/store flags.

    Attach with ``sub.add_parser(..., parents=[exec_arguments()])``;
    resolve with :meth:`ExecOptions.from_args`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
    group.add_argument("--store", default=None, metavar="DIR",
                       help="persistent result-store directory "
                            f"(default: $REPRO_STORE or "
                            f"{default_store()!r})")
    group.add_argument("--no-store", action="store_true",
                       help="disable the persistent result store")
    return parent


@dataclass(frozen=True)
class ExecOptions:
    """Resolved execution options, identical across all subcommands.

    ``store`` is the final decision: ``None`` means "no persistent
    store" (``--no-store``), otherwise the directory path with the
    ``REPRO_STORE`` fallback already applied.
    """

    jobs: int = 1
    store: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "ExecOptions":
        """Resolve a parsed namespace (tolerates absent attributes, so
        commands without the parent parser resolve to the defaults)."""
        jobs = getattr(args, "jobs", 1)
        if jobs is None:
            jobs = 1
        if jobs <= 0:
            raise ValueError(
                f"--jobs must be a positive integer, got {jobs}")
        if getattr(args, "no_store", False):
            store: Optional[str] = None
        else:
            store = getattr(args, "store", None)
            if store is None:
                store = default_store()
        return cls(jobs=jobs, store=store)

    def make_runner(self, *, scale=None, failsoft: bool = True):
        """An :class:`~repro.experiments.runner.ExperimentRunner` wired
        to these options (the one construction path every subcommand
        shares)."""
        from ..experiments.runner import ExperimentRunner
        return ExperimentRunner(scale=scale, jobs=self.jobs,
                                store=self.store, failsoft=failsoft)
