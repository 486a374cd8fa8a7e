"""Execution layer for experiment sweeps.

Two pillars (see docs in each module):

* :mod:`repro.exec.pool` -- a job executor, serial or over a process
  pool, that isolates a crashed worker to its own job and reports each
  failure once.
* :mod:`repro.exec.store` -- a persistent content-addressed result store
  with atomic writes, per-record checksums, and corruption quarantine.
"""

from .pool import (Job, JobExecutor, JobFailure, JobOutcome, MixJob,
                   execute_job, failed_result)
from .store import ResultStore, job_key, mix_job_key, trace_fingerprint

__all__ = [
    "Job", "JobExecutor", "JobFailure", "JobOutcome", "MixJob",
    "execute_job", "failed_result",
    "ResultStore", "job_key", "mix_job_key", "trace_fingerprint",
]
