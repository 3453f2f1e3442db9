"""Tests for auto-triage: provenance → reproduction → shrink → delta.

The acceptance bar: a seeded novel fingerprint must reproduce from its
``(round, slot, input_id)`` coordinates and yield a baseline delta
that, once applied, silences the novelty. Triage reads findings only
through :func:`repro.campaign.restore_state`, from the JSONL prefix the
checkpoint committed.
"""

import asyncio
import json
import shutil

import pytest

from repro.analytics.triage import triage_checkpoint, write_triage
from repro.campaign import (
    CampaignService,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore_state,
)
from repro.fuzz.dedup import Baseline
from repro.fuzz.scheduler import CampaignState, FuzzConfig, run_round
from repro.fuzz.shrink import input_size


def _restore_from(path):
    """Restore against a hand-written JSONL, committing all its bytes."""
    checkpoint = Checkpoint(state={}, fingerprints_bytes=path.stat().st_size)
    return restore_state(checkpoint, str(path))


class TestNovelKeysFromJsonl:
    def test_reads_only_novel_keys(self, seeded_campaign):
        state = restore_state(
            load_checkpoint(seeded_campaign["checkpoint"]),
            seeded_campaign["fingerprints"],
        )
        assert state.novel_keys == [seeded_campaign["held_out"]]
        assert sorted(state.findings) == seeded_campaign["all_keys"]

    def test_bad_json_line_reports_position(self, tmp_path):
        path = tmp_path / "fp.jsonl"
        record = {"key": "a", "fingerprint": {}, "witness": [0, 0, 0]}
        path.write_text(json.dumps(record) + "\nnot json\n")
        with pytest.raises(CheckpointError, match=r"fp\.jsonl:2"):
            _restore_from(path)

    def test_keyless_record_rejected(self, tmp_path):
        path = tmp_path / "fp.jsonl"
        path.write_text('{"novel": true}\n')
        with pytest.raises(CheckpointError, match="not a fingerprint record"):
            _restore_from(path)

    def test_missing_file_is_an_error(self, tmp_path):
        checkpoint = Checkpoint(state={}, fingerprints_bytes=1)
        with pytest.raises(CheckpointError):
            restore_state(checkpoint, str(tmp_path / "absent.jsonl"))


class TestTriageCheckpoint:
    def test_novel_key_reproduces_from_provenance(self, seeded_campaign):
        report, delta, proposed = triage_checkpoint(
            seeded_campaign["checkpoint"],
            Baseline.load(seeded_campaign["baseline"]),
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=False,
        )
        assert [f.key for f in report.findings] == [
            seeded_campaign["held_out"]
        ]
        finding = report.findings[0]
        assert finding.reproduced
        assert report.all_reproduced
        # provenance coordinates point into the recorded batch
        round_index, slot, input_id = finding.provenance
        assert round_index == 0
        assert 0 <= slot < 8
        assert finding.seam in ("spark->hive", "hive->spark", "spark<->spark")

    def test_delta_and_proposed_shapes(self, seeded_campaign):
        baseline = Baseline.load(seeded_campaign["baseline"])
        report, delta, proposed = triage_checkpoint(
            seeded_campaign["checkpoint"],
            baseline,
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=False,
        )
        held_out = seeded_campaign["held_out"]
        assert set(delta.fingerprints) == {held_out}
        assert proposed.keys == set(seeded_campaign["all_keys"])
        assert report.baseline_before == len(baseline)
        assert report.baseline_after == len(proposed)
        # the input baseline object is not mutated
        assert held_out not in baseline

    def test_applied_delta_silences_the_novelty(self, seeded_campaign):
        # the round-trip the nightly auto-triage step relies on: re-run
        # the same campaign batch against the proposed baseline and the
        # novel set must be empty
        _, _, proposed = triage_checkpoint(
            seeded_campaign["checkpoint"],
            Baseline.load(seeded_campaign["baseline"]),
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=False,
        )
        config = FuzzConfig(seed=3, budget=8, batch=8, shrink=False)
        state = CampaignState.fresh(config)
        outcome = run_round(state, proposed)
        assert outcome.novel_keys == ()

    def test_shrink_never_grows_the_witness(self, seeded_campaign):
        report, _, _ = triage_checkpoint(
            seeded_campaign["checkpoint"],
            Baseline.load(seeded_campaign["baseline"]),
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=True,
        )
        finding = report.findings[0]
        assert input_size(finding.minimal) <= input_size(finding.witness)

    def test_foreign_jsonl_key_is_rejected(
        self, seeded_campaign, tmp_path
    ):
        # a one-line JSONL exactly as long as the committed prefix, so
        # only the record itself can give it away
        checkpoint = load_checkpoint(seeded_campaign["checkpoint"])
        size = checkpoint.fingerprints_bytes
        line = json.dumps({"key": "not|a|real|key", "novel": True})
        path = tmp_path / "foreign.jsonl"
        path.write_text(line.ljust(size - 1) + "\n")
        with pytest.raises(CheckpointError, match="not a fingerprint record"):
            triage_checkpoint(
                seeded_campaign["checkpoint"],
                Baseline.empty(),
                fingerprints_path=str(path),
                shrink=False,
            )

    def test_uncommitted_batch_is_ignored(
        self, seeded_campaign, tmp_path, monkeypatch
    ):
        # a kill between the JSONL append and the checkpoint: batch 1's
        # lines are in the file, but the checkpoint still ends at batch 0
        checkpoint = str(tmp_path / "ckpt.json")
        fingerprints = str(tmp_path / "fp.jsonl")
        shutil.copy(seeded_campaign["checkpoint"], checkpoint)
        shutil.copy(seeded_campaign["fingerprints"], fingerprints)
        baseline = Baseline.load(seeded_campaign["baseline"])
        monkeypatch.setattr(
            "repro.campaign.service.save_checkpoint", lambda *args: None
        )
        service = CampaignService(
            FuzzConfig(seed=3, budget=8, batch=8, shrink=False),
            baseline,
            checkpoint_path=checkpoint,
            fingerprints_path=fingerprints,
            max_batches=2,
        )
        asyncio.run(service.run())
        with open(fingerprints, encoding="utf-8") as handle:
            uncommitted = [
                record
                for record in map(json.loads, handle)
                if record["batch"] == 1
            ]
        assert any(record["novel"] for record in uncommitted)

        report, delta, _ = triage_checkpoint(
            checkpoint, baseline, fingerprints_path=fingerprints, shrink=False
        )
        assert [f.key for f in report.findings] == [
            seeded_campaign["held_out"]
        ]
        assert set(delta.fingerprints) == {seeded_campaign["held_out"]}

    def test_report_text_names_coordinates(self, seeded_campaign):
        report, _, _ = triage_checkpoint(
            seeded_campaign["checkpoint"],
            Baseline.load(seeded_campaign["baseline"]),
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=False,
        )
        text = report.to_text()
        assert seeded_campaign["held_out"] in text
        assert "provenance: round 0" in text
        assert "[ok]" in text


class TestWriteTriage:
    def test_artifact_set_round_trips(self, seeded_campaign, tmp_path):
        report, delta, proposed = triage_checkpoint(
            seeded_campaign["checkpoint"],
            Baseline.load(seeded_campaign["baseline"]),
            fingerprints_path=seeded_campaign["fingerprints"],
            shrink=False,
        )
        out_dir = str(tmp_path / "triage-out")
        paths = write_triage(out_dir, report, delta, proposed)
        assert set(paths) == {"report", "summary", "delta", "proposed"}

        reloaded_delta = Baseline.load(paths["delta"])
        assert reloaded_delta.keys == {seeded_campaign["held_out"]}
        reloaded_proposed = Baseline.load(paths["proposed"])
        assert reloaded_proposed.keys == set(seeded_campaign["all_keys"])

        with open(paths["report"], encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["kind"] == "triage-report"
        assert payload["all_reproduced"] is True
        assert payload["novel"] == 1
        with open(paths["summary"], encoding="utf-8") as handle:
            assert seeded_campaign["held_out"] in handle.read()
