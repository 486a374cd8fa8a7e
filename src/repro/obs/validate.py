"""Validate exported observability files against their schemas.

Usage (CI runs this against ``repro trace`` / ``--timeseries`` output
and the committed campaign specs)::

    python -m repro.obs.validate events.jsonl --kind events
    python -m repro.obs.validate ts.jsonl --kind timeseries
    python -m repro.obs.validate campaigns/fig1.json --kind campaign

``events`` and ``timeseries`` files are JSONL (one record per line), and
``campaign`` files are declarative campaign specs (validated through the
full spec parser, including plan expansion).  Exit status 0 when
everything parses and matches the schema; 1 otherwise, with the first
offending line reported.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .events import validate_event
from .sampler import validate_timeseries_record

__all__ = ["main", "validate_file"]

_VALIDATORS = {
    "events": validate_event,
    "timeseries": validate_timeseries_record,
    "campaign": None,   # routed through the campaign spec parser
}


def _validate_campaign(path: str) -> int:
    """Full-parse one campaign spec; returns its metric-cell count."""
    from ..campaign import SpecError, compile_plan, load_spec
    try:
        plan = compile_plan(load_spec(path))
    except SpecError as exc:
        raise ValueError(str(exc)) from None
    return plan.cells


def validate_file(path: str, kind: str) -> int:
    """Validate one exported file; returns the number of valid records.

    JSONL kinds count lines; ``campaign`` specs count expanded metric
    cells.  Raises ``ValueError`` naming the first bad line.
    """
    if kind == "campaign":
        return _validate_campaign(path)
    validator = _VALIDATORS[kind]
    count = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON ({exc})") from None
            try:
                validator(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            count += 1
    return count


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate exported event/time-series JSONL files")
    parser.add_argument("paths", nargs="+", metavar="path",
                        help="file(s) to validate")
    parser.add_argument("--kind", choices=sorted(_VALIDATORS),
                        required=True, help="which schema to apply")
    parser.add_argument("--min-records", type=int, default=1,
                        help="fail unless at least this many records "
                             "per file (default: 1)")
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        try:
            count = validate_file(path, args.kind)
        except (OSError, ValueError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            status = 1
            continue
        if count < args.min_records:
            print(f"invalid: {path}: {count} record(s), expected >= "
                  f"{args.min_records}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: {count} valid {args.kind} record(s)")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
