#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the working tree.

Extracts BASE with ``git archive``, and the working tree's tracked and
unignored files (``git ls-files --cached --others --exclude-standard``),
into two directories of one temporary directory, so both sides are clean
checkouts and ``.git`` is left untouched.  For each seed it runs each
tree's own ``benchmarks/e2e/run.py``, appending its records to
``DIR/base.json`` or ``DIR/change.json``: the base first on odd seeds,
the working tree first on even ones.  A run that fails or is not
``"correct": true`` stops it with exit 1; otherwise it exits with the
status of the working tree's ``run.py compare`` (1 if a row regressed).
Each tree compiles into its own empty bytecode cache: a tree whose
``__pycache__`` is warm would otherwise skip compiling, which lowers its
peak RSS by a megabyte or more against a fresh checkout.  The temporary
directory is removed however the script ends, SIGTERM included.

    python3 benchmarks/ab.py BASE --out DIR [--workload W] [--seeds S ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path("benchmarks") / "e2e" / "run.py"


def extract_base(revision: str, dest: Path) -> None:
    """Write the files of ``revision`` to ``dest`` (``git archive``)."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", revision],
                            cwd=ROOT, stdout=subprocess.PIPE)
    readable = True
    try:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(dest, filter="data")
            else:  # Python without extraction filters (before 3.11.4)
                archive.extractall(dest)
    except tarfile.ReadError:   # git printed why, e.g. an unknown revision
        readable = False
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode or not readable:
        raise SystemExit(f"ab: cannot extract {revision}")


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files to ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    for name in listed.stdout.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():   # a deleted tracked file is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(tree: Path, argv: list, pycache: Path) -> None:
    """Run one tree's run.py, echoing its output; exit 1 unless it
    succeeds and its last line reads ``"correct": true``."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    proc = subprocess.Popen([sys.executable, str(RUN_PY), *argv], cwd=tree,
                            env=env, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for last in proc.stdout:
            print(last, end="", flush=True)
    finally:
        if proc.poll() is None:   # interrupted: run.py stops its child
            proc.terminate()
        proc.wait()
    if proc.returncode != 0 or not json.loads(last)["correct"]:
        raise SystemExit(f"ab: run.py {' '.join(argv)} in {tree} exited "
                         f"{proc.returncode}: {last.strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for base.json and change.json")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)), help="default: 1-10")
    args = parser.parse_args()
    out = {side: (args.out / f"{side}.json").resolve()
           for side in ("base", "change")}
    if any(path.exists() for path in out.values()):
        parser.error(f"{args.out} already holds a base.json or change.json")
    args.out.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workload = ["--workload", args.workload] if args.workload else []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        extract_base(args.base, trees["base"])
        copy_working_tree(trees["change"])
        for seed in args.seeds:
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                run(trees[side], ["--seed", str(seed), *workload,
                                  "--out", str(out[side])],
                    Path(tmp) / f"pycache-{side}")
    return subprocess.run([sys.executable, str(RUN_PY), "compare",
                           str(out["base"]), str(out["change"])],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
