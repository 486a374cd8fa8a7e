"""Figure-level tolerance validation for reviewed semantic changes.

Bit-identical golden stats (tests/sim/golden/) pin *accidental* drift,
but a deliberate modeled-time change (e.g. the PR10 batched
commit-refetch window or the coarser multicore quantum) is *allowed* to
move low-level counters.  What it must not do is move the paper's
conclusions.  This module is that gate: it renders **every committed
campaign spec** (campaigns/*.json -- each one drives a paper figure) at
a pinned scale and asserts that every numeric figure cell stays within a
stated epsilon of the committed reference snapshot.

Tolerance rule: a cell with reference value ``r`` passes when::

    |current - r| <= epsilon * max(|r|, 1.0)

i.e. relative tolerance for O(1)-or-larger metrics (speedups, IPC,
percentages) with an absolute floor of ``epsilon`` for near-zero cells
(IPC deltas, overhead fractions), so a metric sitting at 0.001 cannot
fail on a microscopic absolute wobble.  The default epsilon is 2%:
far above the counter-level wobble a reviewed scheduling change causes
at tiny scale, far below anything that would change a figure's story.

Workflow for a deliberate semantic change::

    repro figcheck              # compare the tree against the snapshot
    repro figcheck --update     # re-pin after review (stamps provenance)

The reference snapshot (campaigns/golden/figures_golden.json) carries a
provenance header -- generator, tree commit, timestamp, model version --
so a review can always tell which tree produced the pinned numbers.
Re-pinning changed numbers needs a ``MODEL_VERSION`` bump
(:func:`write_pinned`).
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..exec.store import MODEL_VERSION

#: Default tolerance (see module docstring for the exact rule).
EPSILON = 0.02

#: Scale every figure is rendered at; must match the committed snapshot.
SCALE = "tiny"

GOLDEN_NAME = "figures_golden.json"


def campaigns_root() -> Path:
    from . import campaigns_dir
    root = campaigns_dir()
    if root is None:
        raise FileNotFoundError("no campaigns/ directory found")
    return root


def golden_path() -> Path:
    return campaigns_root() / "golden" / GOLDEN_NAME


def provenance(generator: str) -> dict:
    """Header describing the tree that produced a pinned snapshot."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else ""
    except OSError:
        commit = ""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True,
            text=True, timeout=30)
        dirty = bool(proc.stdout.strip()) if proc.returncode == 0 else None
    except OSError:
        dirty = None
    return {
        "generator": generator,
        "git_commit": commit or "unknown",
        "git_dirty": dirty,
        "generated_at": datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": sys.version.split()[0],
        "model_version": MODEL_VERSION,
    }


def write_pinned(path: Path, doc: dict, generator: str) -> Path:
    """Write ``doc`` to ``path`` as JSON under a provenance header.

    Refuses, with ``ValueError``, to replace a file pinned under the
    current ``MODEL_VERSION`` with different content: a change that
    moves pinned numbers moves stored results too, so it must bump the
    version, which makes the result store miss on them.
    """
    new = json.loads(json.dumps(doc, sort_keys=True))
    if path.exists():
        old = json.loads(path.read_text())
        header = old.pop("provenance", None) or {}
        if header.get("model_version") == MODEL_VERSION and old != new:
            raise ValueError(
                f"{path}: pinned content changed under model version "
                f"{MODEL_VERSION}; bump repro.exec.store.MODEL_VERSION "
                f"with the change that moved it")
    new["provenance"] = provenance(generator)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    return path


def render_figures(scale: str = SCALE,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Dict[str, dict]:
    """Render every committed campaign spec; return the numeric cells.

    One entry per spec: ``{"columns": [...], "rows": {label: [cell]}}``
    -- exactly the figure the campaign renders, stripped to numbers
    (non-finite / ``None`` cells are preserved as ``None``).
    """
    from ..campaign import load_spec, run_campaign
    from ..experiments.runner import SCALES, ExperimentRunner

    figures: Dict[str, dict] = {}
    for path in sorted(campaigns_root().glob("*.json")):
        if progress is not None:
            progress(path.stem)
        spec = load_spec(path)
        runner = ExperimentRunner(scale=SCALES[scale], store=None)
        result = run_campaign(spec, runner)
        rows = {}
        for label, cells in result.rows.items():
            rows[label] = [
                None if cell is None else float(cell) for cell in cells]
        figures[path.stem] = {
            "columns": [str(column) for column in result.columns],
            "rows": rows,
        }
    return figures


def snapshot(scale: str = SCALE,
             progress: Optional[Callable[[str], None]] = None) -> dict:
    return {
        "scale": scale,
        "epsilon": EPSILON,
        "figures": render_figures(scale, progress),
    }


def write_snapshot(doc: dict, path: Optional[Path] = None) -> Path:
    if path is None:
        path = golden_path()
    return write_pinned(path, doc, "repro figcheck --update")


def load_snapshot(path: Optional[Path] = None) -> dict:
    if path is None:
        path = golden_path()
    if not path.exists():
        raise FileNotFoundError(
            f"figure snapshot missing: {path} (pin one with "
            f"'repro figcheck --update')")
    return json.loads(path.read_text())


def compare(current: Dict[str, dict], reference: Dict[str, dict],
            epsilon: float = EPSILON) -> List[str]:
    """Return violation messages; empty means every cell is in budget.

    Structural mismatches (figures, rows or columns added/removed) are
    violations too: a semantic change must not silently grow or shrink
    a figure.
    """
    problems: List[str] = []
    for name in sorted(set(reference) | set(current)):
        if name not in current:
            problems.append(f"{name}: figure missing from current tree")
            continue
        if name not in reference:
            problems.append(f"{name}: figure absent from the snapshot "
                            f"(re-pin with --update)")
            continue
        ref, cur = reference[name], current[name]
        if cur["columns"] != ref["columns"]:
            problems.append(
                f"{name}: columns changed {ref['columns']} -> "
                f"{cur['columns']}")
            continue
        ref_rows, cur_rows = ref["rows"], cur["rows"]
        for label in sorted(set(ref_rows) | set(cur_rows)):
            if label not in cur_rows or label not in ref_rows:
                where = "current tree" if label not in cur_rows \
                    else "snapshot"
                problems.append(f"{name}[{label}]: row missing from "
                                f"{where}")
                continue
            ref_cells, cur_cells = ref_rows[label], cur_rows[label]
            if len(ref_cells) != len(cur_cells):
                problems.append(
                    f"{name}[{label}]: {len(ref_cells)} cells -> "
                    f"{len(cur_cells)}")
                continue
            for i, (r, c) in enumerate(zip(ref_cells, cur_cells)):
                if r is None and c is None:
                    continue
                if r is None or c is None:
                    problems.append(
                        f"{name}[{label}][{i}]: {r!r} -> {c!r}")
                    continue
                tol = epsilon * max(abs(r), 1.0)
                if abs(c - r) > tol:
                    problems.append(
                        f"{name}[{label}][{i}]: {r:.6g} -> {c:.6g} "
                        f"(|delta| {abs(c - r):.3g} > tol {tol:.3g})")
    return problems


def check(epsilon: float = EPSILON, scale: Optional[str] = None,
          path: Optional[Path] = None,
          progress: Optional[Callable[[str], None]] = None
          ) -> Tuple[bool, List[str]]:
    """Render the tree's figures and compare against the snapshot."""
    reference = load_snapshot(path)
    if scale is None:
        scale = reference.get("scale", SCALE)
    current = render_figures(scale, progress)
    problems = compare(current, reference["figures"], epsilon)
    return not problems, problems
