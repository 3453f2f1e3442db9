"""Campaign checkpoints: atomic JSON cursors with a commit protocol.

A checkpoint is the campaign's cursor — what
:meth:`~repro.fuzz.scheduler.CampaignState.to_json` serializes (seed
cursor, batch index, coverage map, promoted seeds by provenance, and
the fingerprint and novel counts) — plus the two byte offsets that make
resume crash-safe: how far the ledger and the fingerprint JSONL had
been written when the checkpointed batch committed. The findings
themselves live only in the fingerprint JSONL; :func:`restore_state`
rebuilds them from the prefix the checkpoint points at, so a
checkpoint's size does not grow with the number of fingerprints.

The commit order per batch is append-ledger → append-fingerprints →
atomically replace the checkpoint (tmp file + ``os.replace``). Either
append can be torn by a hard kill, and a kill between the appends and
the checkpoint leaves a fully-written batch the checkpoint does not
know about. Both anomalies resolve the same way on resume: truncate
each file back to the checkpoint's recorded offset, then re-run the
batch — which, by the scheduler's determinism guarantee, rewrites the
exact bytes that were cut. No batch is ever duplicated or lost.

The volatile ``env`` section (timestamps, host) is for humans and the
``/campaign`` endpoint; nothing in it feeds restoration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.fuzz.scheduler import CampaignState

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "load_checkpoint",
    "restore_state",
    "save_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 2


class CheckpointError(Exception):
    """An unusable checkpoint: unreadable, wrong schema, or
    inconsistent with the files it points at."""


@dataclass
class Checkpoint:
    """One committed campaign position.

    ``state`` is the :meth:`CampaignState.to_json` payload verbatim;
    ``ledger_bytes``/``fingerprints_bytes`` are the sizes the output
    files had after the last committed batch (resume truncates back to
    them, and the fingerprint offset bounds the records
    :func:`restore_state` rebuilds findings from).
    """

    state: dict
    ledger_bytes: int = 0
    fingerprints_bytes: int = 0
    env: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "kind": "campaign-checkpoint",
            "state": self.state,
            "offsets": {
                "ledger_bytes": self.ledger_bytes,
                "fingerprints_bytes": self.fingerprints_bytes,
            },
            "env": dict(self.env),
        }


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Write the checkpoint atomically: a reader (or a crash) sees the
    previous complete snapshot or the new one, never a torn file."""
    payload = json.dumps(checkpoint.to_json(), sort_keys=True, indent=2)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint back; :class:`CheckpointError` on anything
    unusable (a *missing* file included — the caller decides whether
    that means "fresh campaign" and should check existence first)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"{path}: no checkpoint") from exc
    except ValueError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object")
    version = payload.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema_version {version!r}, "
            f"this build reads {CHECKPOINT_SCHEMA_VERSION}"
        )
    state = payload.get("state")
    if not isinstance(state, dict) or "config" not in state:
        raise CheckpointError(f"{path}: missing campaign state")
    offsets = payload.get("offsets", {})
    try:
        ledger_bytes = int(offsets["ledger_bytes"])
        fingerprints_bytes = int(offsets["fingerprints_bytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: missing byte offsets") from exc
    if ledger_bytes < 0 or fingerprints_bytes < 0:
        raise CheckpointError(f"{path}: negative byte offsets")
    return Checkpoint(
        state=state,
        ledger_bytes=ledger_bytes,
        fingerprints_bytes=fingerprints_bytes,
        env=dict(payload.get("env", {})),
    )


def restore_state(
    checkpoint: Checkpoint,
    fingerprints_path: str,
    *,
    jobs: int | None = 1,
    pool: str = "auto",
) -> CampaignState:
    """The checkpointed campaign, findings rebuilt from the first
    ``fingerprints_bytes`` of its fingerprint JSONL — the one restore
    path of both resume and triage, so the two cannot disagree. Bytes
    past the offset (an uncommitted or torn batch) are never read.

    Raises :class:`CheckpointError` when the offset does not end a line
    of the file, a line is not a record with a witness, or the records
    do not match the checkpoint's fingerprint and novel counts.
    """
    path, offset = fingerprints_path, checkpoint.fingerprints_bytes
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(offset)
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(prefix) < offset or (prefix and not prefix.endswith(b"\n")):
        raise CheckpointError(
            f"{path}: the checkpoint's offset {offset} does not end a line"
        )
    records = []
    for lineno, line in enumerate(prefix.splitlines(), start=1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise CheckpointError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict) or "witness" not in record:
            raise CheckpointError(
                f"{path}:{lineno}: not a fingerprint record with a witness"
            )
        records.append(record)
    try:
        state = CampaignState.from_json(
            checkpoint.state, records, jobs=jobs, pool=pool
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"unusable campaign state: {exc}") from exc
    fingerprints = checkpoint.state.get("fingerprints")
    novel = checkpoint.state.get("novel")
    found = (len(records), len(state.findings), len(state.novel_keys))
    if found != (fingerprints, fingerprints, novel):
        raise CheckpointError(
            f"{path}: {found[0]} lines, {found[1]} keys, {found[2]} novel"
            f" up to the offset; the checkpoint counted {fingerprints},"
            f" {novel} novel — the files are from different campaigns"
        )
    return state
