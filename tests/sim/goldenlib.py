"""Golden-snapshot regeneration helpers (shared by the golden tests).

Golden files pin simulator behaviour.  Two regeneration paths exist and
both stamp a **provenance header** into the snapshot so a reviewer can
tell *which tree* produced the numbers being pinned:

* run the owning test module directly::

      PYTHONPATH=src python tests/sim/test_golden_stats.py

* or ask the test run itself to regenerate before comparing::

      REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim

The env-var path exists for deliberate semantic changes (e.g. the PR10
modeled-time pass): regenerate, eyeball the diff, run the figure-level
tolerance check (``repro figcheck``), and commit the new snapshots
together with the change that moved them.  Regenerating to silence an
*unintended* drift is still a bug -- the provenance header makes that
visible in review.  A snapshot whose content changes also needs a
``repro.exec.store.MODEL_VERSION`` bump: :func:`write_golden` refuses to
re-pin changed numbers under the version they were pinned at.
"""

import json
import os
from pathlib import Path

from repro.campaign.figcheck import write_pinned
from repro.core.tsb import TSBPrefetcher
from repro.prefetchers.base import MODE_ON_ACCESS, MODE_ON_COMMIT
from repro.prefetchers.registry import make_prefetcher
from repro.sim.system import System

#: Set to a truthy value to regenerate goldens inside the test run.
REGEN_ENV = "REPRO_REGEN_GOLDEN"

#: Paths regenerated once per process (pytest calls the loaders many
#: times; the snapshot is deterministic, so once is enough).
_regenerated = set()


def regen_requested() -> bool:
    return os.environ.get(REGEN_ENV, "").strip().lower() in (
        "1", "true", "on", "yes")


def write_golden(path: Path, doc: dict, generator: str) -> None:
    write_pinned(path, doc, generator)
    print(f"wrote {path}")


def load_golden(path: Path, generate) -> dict:
    """Load a golden file, regenerating first under REPRO_REGEN_GOLDEN."""
    if regen_requested() and str(path) not in _regenerated:
        generate()
        _regenerated.add(str(path))
    if not path.exists():
        import pytest
        pytest.fail(f"golden file missing: {path} (regenerate with "
                    f"{REGEN_ENV}=1 or by running the owning test module)")
    return json.loads(path.read_text())


def build_system(config: dict):
    """A fresh :class:`~repro.sim.system.System` for one golden config.

    ``config`` holds ``System`` keyword arguments, except that
    ``prefetcher`` is a registry name (or ``"tsb"``) and ``on_commit``
    selects the training mode.  Other keys pass through unchanged, so a
    config may set any ``System`` argument, ``params`` included.
    """
    kwargs = dict(config)
    spec = kwargs.pop("prefetcher", None)
    if spec == "tsb":
        kwargs["prefetcher"] = TSBPrefetcher()
    elif spec is not None:
        kwargs["prefetcher"] = make_prefetcher(spec)
    kwargs.setdefault("train_mode",
                      MODE_ON_COMMIT if kwargs.pop("on_commit", False)
                      else MODE_ON_ACCESS)
    return System(**kwargs)


def assert_provenance(golden: dict) -> None:
    """Shared assertion: every golden snapshot carries its provenance."""
    header = golden.get("provenance")
    assert isinstance(header, dict), \
        "golden snapshot lacks a provenance header (regenerate it)"
    for key in ("generator", "git_commit", "generated_at", "python",
                "model_version"):
        assert header.get(key), f"provenance header missing {key!r}"
