"""Tests for the campaign checkpoint file format and atomicity."""

import json
import os

import pytest

from repro.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

STATE = {
    "config": {"seed": 11, "batch": 16},
    "round_index": 2,
    "candidates": 32,
    "trials_run": 768,
    "coverage": ["a", "b"],
    "promoted": [],
    "fingerprints": 0,
    "novel": 0,
    "rediscovered": [],
}


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        saved = Checkpoint(
            state=STATE,
            ledger_bytes=123,
            fingerprints_bytes=456,
            env={"ts": 1.0},
        )
        save_checkpoint(path, saved)
        loaded = load_checkpoint(path)
        assert loaded.state == STATE
        assert loaded.ledger_bytes == 123
        assert loaded.fingerprints_bytes == 456
        assert loaded.env == {"ts": 1.0}

    def test_write_is_atomic(self, tmp_path):
        # no tmp file survives, and a rewrite replaces in one step
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, Checkpoint(state=STATE))
        save_checkpoint(
            path, Checkpoint(state=STATE, fingerprints_bytes=99)
        )
        assert not os.path.exists(path + ".tmp")
        assert load_checkpoint(path).fingerprints_bytes == 99

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), Checkpoint(state=STATE))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert payload["kind"] == "campaign-checkpoint"


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_torn_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"schema_version": 1, "state"')
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        payload = Checkpoint(state=STATE).to_json()
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(str(path))

    def test_missing_state(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": CHECKPOINT_SCHEMA_VERSION,
                    "offsets": {
                        "ledger_bytes": 0,
                        "fingerprints_bytes": 0,
                    },
                }
            )
        )
        with pytest.raises(CheckpointError, match="missing campaign state"):
            load_checkpoint(str(path))

    def test_missing_offsets(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": CHECKPOINT_SCHEMA_VERSION,
                    "state": STATE,
                }
            )
        )
        with pytest.raises(CheckpointError, match="byte offsets"):
            load_checkpoint(str(path))

    def test_negative_offsets(self, tmp_path):
        path = tmp_path / "ckpt.json"
        payload = Checkpoint(state=STATE).to_json()
        payload["offsets"]["ledger_bytes"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="negative"):
            load_checkpoint(str(path))

    def test_non_object(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(str(path))
