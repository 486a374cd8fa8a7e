"""Unit tests for the figure-level tolerance gate (campaign.figcheck).

``compare`` and the snapshot plumbing are tested on synthetic figures;
the committed snapshot's shape is validated against the repo.  Actually
rendering every campaign is the CI figcheck step's job (and the
``repro figcheck`` smoke in the PR workflow), not a unit test's.
"""

import json

import pytest

from repro.campaign import figcheck
from repro.campaign.figcheck import (EPSILON, compare, golden_path,
                                     load_snapshot, provenance,
                                     write_snapshot)
from repro.exec.store import MODEL_VERSION


def fig(rows, columns=("a", "b")):
    return {"columns": list(columns), "rows": rows}


REFERENCE = {"fig1": fig({"base": [1.0, 2.0], "secure": [0.5, None]})}


def current(**overrides):
    cur = json.loads(json.dumps(REFERENCE))
    for key, value in overrides.items():
        cur["fig1"]["rows"][key] = value
    return cur


class TestCompare:
    def test_identical_passes(self):
        assert compare(current(), REFERENCE) == []

    def test_within_relative_tolerance_passes(self):
        assert compare(current(base=[1.0, 2.0 + 2.0 * 0.019]),
                       REFERENCE, epsilon=0.02) == []

    def test_beyond_relative_tolerance_fails(self):
        problems = compare(current(base=[1.0, 2.0 + 2.0 * 0.021]),
                           REFERENCE, epsilon=0.02)
        assert len(problems) == 1
        assert "fig1[base][1]" in problems[0]

    def test_near_zero_cells_get_absolute_floor(self):
        # |r| < 1: the tolerance is epsilon absolute, not epsilon * |r|.
        ref = {"f": fig({"r": [0.001]})}
        assert compare({"f": fig({"r": [0.015]})}, ref, epsilon=0.02) == []
        assert compare({"f": fig({"r": [0.030]})}, ref, epsilon=0.02)

    def test_none_matches_only_none(self):
        assert compare(current(secure=[0.5, None]), REFERENCE) == []
        problems = compare(current(secure=[0.5, 1.0]), REFERENCE)
        assert problems and "None" in problems[0]

    def test_missing_figure_is_a_violation(self):
        assert compare({}, REFERENCE)
        assert compare(REFERENCE, {})

    def test_changed_columns_is_a_violation(self):
        cur = current()
        cur["fig1"]["columns"] = ["a", "b", "c"]
        problems = compare(cur, REFERENCE)
        assert problems and "columns changed" in problems[0]

    def test_missing_row_is_a_violation(self):
        cur = current()
        del cur["fig1"]["rows"]["secure"]
        problems = compare(cur, REFERENCE)
        assert problems and "row missing" in problems[0]

    def test_cell_count_change_is_a_violation(self):
        problems = compare(current(base=[1.0]), REFERENCE)
        assert problems and "cells" in problems[0]


class TestSnapshotPlumbing:
    def test_round_trip_stamps_provenance(self, tmp_path):
        doc = {"scale": "tiny", "epsilon": EPSILON, "figures": REFERENCE}
        path = write_snapshot(doc, tmp_path / "snap.json")
        loaded = load_snapshot(path)
        assert loaded["figures"] == REFERENCE
        header = loaded["provenance"]
        assert header["generator"] == "repro figcheck --update"
        for key in ("git_commit", "generated_at", "python"):
            assert header[key]
        assert header["model_version"] == MODEL_VERSION

    def test_load_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--update"):
            load_snapshot(tmp_path / "nope.json")

    def test_provenance_keys(self):
        header = provenance("unit-test")
        assert set(header) == {"generator", "git_commit", "git_dirty",
                               "generated_at", "python", "model_version"}
        assert header["generator"] == "unit-test"


class TestRepinNeedsVersionBump:
    """Changed pinned numbers under an unchanged ``MODEL_VERSION`` are
    refused, so stored results of the old model cannot be served."""

    DOC = {"scale": "tiny", "epsilon": EPSILON, "figures": REFERENCE}
    MOVED = {"scale": "tiny", "epsilon": EPSILON,
             "figures": {"fig1": fig({"base": [1.0, 2.5]})}}

    def test_changed_content_refused(self, tmp_path):
        path = write_snapshot(self.DOC, tmp_path / "snap.json")
        before = path.read_text()
        with pytest.raises(ValueError, match="MODEL_VERSION"):
            write_snapshot(self.MOVED, path)
        assert path.read_text() == before

    def test_unchanged_content_repins(self, tmp_path):
        path = write_snapshot(self.DOC, tmp_path / "snap.json")
        write_snapshot(self.DOC, path)
        assert load_snapshot(path)["figures"] == REFERENCE

    def test_bumped_version_repins(self, tmp_path, monkeypatch):
        path = write_snapshot(self.DOC, tmp_path / "snap.json")
        monkeypatch.setattr(figcheck, "MODEL_VERSION", MODEL_VERSION + 1)
        write_snapshot(self.MOVED, path)
        loaded = load_snapshot(path)
        assert loaded["figures"] == self.MOVED["figures"]
        assert loaded["provenance"]["model_version"] == MODEL_VERSION + 1

    def test_unversioned_file_repins(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(self.DOC))
        write_snapshot(self.MOVED, path)
        assert load_snapshot(path)["figures"] == self.MOVED["figures"]

    def test_cli_update_names_the_refusal(self, monkeypatch):
        from repro.cli import main

        def refuse(doc):
            raise ValueError("pinned content changed under model version")

        monkeypatch.setattr(figcheck, "snapshot",
                            lambda progress=None: self.DOC)
        monkeypatch.setattr(figcheck, "write_snapshot", refuse)
        with pytest.raises(SystemExit, match="model version"):
            main(["figcheck", "--update", "--quiet"])


class TestCommittedSnapshot:
    def test_snapshot_exists_with_provenance(self):
        doc = load_snapshot()
        assert doc["scale"] == figcheck.SCALE
        assert doc["epsilon"] == EPSILON
        assert doc["figures"]
        assert doc["provenance"]["git_commit"]

    def test_snapshot_covers_every_committed_spec(self):
        # One pinned figure per campaigns/*.json -- a spec added without
        # re-pinning (or pinned without its spec) fails here, not in CI's
        # slow render step.
        doc = load_snapshot()
        specs = {p.stem for p in figcheck.campaigns_root().glob("*.json")}
        assert set(doc["figures"]) == specs

    def test_golden_path_is_committed_location(self):
        assert golden_path().parts[-2:] == ("golden", "figures_golden.json")


class TestFigcheckCli:
    @pytest.mark.parametrize("value", ["0", "1.5", "-0.1"])
    def test_bad_epsilon_rejected(self, value):
        from repro.cli import main
        with pytest.raises(SystemExit, match="epsilon"):
            main(["figcheck", "--epsilon", value])

    def test_unknown_scale_env_is_a_clean_error(self, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(SystemExit, match="REPRO_SCALE='huge'"):
            main(["figcheck", "--quiet"])
