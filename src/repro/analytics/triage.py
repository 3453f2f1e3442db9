"""Auto-triage of nightly novelty: checkpoint → witness → shrink → delta.

A nightly campaign that exits 4 leaves three artifacts behind: a
checkpoint (the campaign's cursor), a fingerprint JSONL (every finding,
novel flag included), and a ledger. Everything needed to turn "the
nightly is red" into "here is the minimal witness and the one-line
baseline change" is already in them — each JSONL line stores its
finding's witness as ``(round, slot, input_id)`` coordinates, and the
scheduler's determinism guarantee means replaying those coordinates
regenerates the exact input that fired.

:func:`triage_checkpoint` does the whole walk:

1. restore :class:`~repro.fuzz.scheduler.CampaignState` through
   :func:`repro.campaign.restore_state` — the resume path itself — from
   the checkpoint and the JSONL prefix it committed (witness inputs
   rebuilt from provenance),
2. for each novel fingerprint key, re-run its witness through the real
   executor (:func:`repro.fuzz.shrink.reproduces`) to confirm the
   coordinates still fire,
3. shrink the witness with the delta-debugging shrinker,
4. emit a ``known_discrepancies.json``-shaped **delta** (just the new
   entries, reviewable on its own) and a **proposed** baseline (current
   baseline + delta, ready to commit — or to pass straight back as
   ``--baseline`` to prove the campaign now exits 0).

A key that fails to re-fire is a determinism violation (or a checkpoint
from a different build) and is reported as such rather than silently
added to the baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.campaign.checkpoint import load_checkpoint, restore_state
from repro.crosstest.fingerprint import conf_label
from repro.crosstest.values import TestInput
from repro.fuzz.dedup import Baseline
from repro.fuzz.shrink import input_size, reproduces, shrink_input
from repro.obs.cluster import item_seam

__all__ = [
    "TriagedFinding",
    "TriageReport",
    "triage_checkpoint",
    "write_triage",
]


@dataclass
class TriagedFinding:
    """One novel fingerprint, walked back to its minimal witness."""

    key: str
    #: the ``(round, slot, input_id)`` coordinates the JSONL carried
    provenance: tuple[int, int, int]
    #: deployment conf label the finding fired under
    conf: str
    #: seam attribution, same vocabulary as the cluster reports
    seam: str
    #: witness regenerated from provenance
    witness: TestInput
    #: did the regenerated witness re-fire the fingerprint?
    reproduced: bool
    #: shrunk witness (``None`` when shrinking was off or impossible)
    shrunk: TestInput | None = None

    @property
    def minimal(self) -> TestInput:
        return self.shrunk if self.shrunk is not None else self.witness

    def _input_json(self, test_input: TestInput) -> dict:
        return {
            "input_id": test_input.input_id,
            "type_text": test_input.type_text,
            "sql_literal": test_input.sql_literal,
            "valid": test_input.valid,
            "description": test_input.description,
            "size": input_size(test_input),
        }

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "provenance": list(self.provenance),
            "conf": self.conf,
            "seam": self.seam,
            "reproduced": self.reproduced,
            "witness": self._input_json(self.witness),
            "shrunk": self._input_json(self.minimal),
        }


@dataclass
class TriageReport:
    """Everything one triage run established."""

    checkpoint_path: str
    #: determinism signature of the checkpointed campaign
    config: dict
    findings: list[TriagedFinding]
    #: baseline size before / after applying the delta
    baseline_before: int
    baseline_after: int

    @property
    def all_reproduced(self) -> bool:
        return all(finding.reproduced for finding in self.findings)

    def to_json(self) -> dict:
        return {
            "kind": "triage-report",
            "checkpoint": self.checkpoint_path,
            "config": self.config,
            "novel": len(self.findings),
            "reproduced": sum(
                1 for finding in self.findings if finding.reproduced
            ),
            "all_reproduced": self.all_reproduced,
            "baseline_before": self.baseline_before,
            "baseline_after": self.baseline_after,
            "findings": [finding.to_json() for finding in self.findings],
        }

    def to_text(self) -> str:
        """The human-readable triage summary (also the CLI output)."""
        lines = [
            f"triage of {self.checkpoint_path}",
            f"  novel fingerprints: {len(self.findings)}"
            f" ({sum(1 for f in self.findings if f.reproduced)} reproduced)",
            f"  baseline: {self.baseline_before} -> {self.baseline_after}"
            " entries",
        ]
        for finding in self.findings:
            round_index, slot, input_id = finding.provenance
            status = "ok" if finding.reproduced else "FAILED TO REPRODUCE"
            lines.append(f"  - {finding.key}")
            lines.append(
                f"      provenance: round {round_index}, slot {slot},"
                f" input {input_id} [{status}]"
            )
            lines.append(
                f"      seam: {finding.seam}   conf: {finding.conf}"
            )
            witness = finding.witness
            minimal = finding.minimal
            lines.append(
                f"      witness: {witness.type_text} ="
                f" {witness.sql_literal} (size {input_size(witness)})"
            )
            if minimal is not witness:
                lines.append(
                    f"      shrunk:  {minimal.type_text} ="
                    f" {minimal.sql_literal} (size {input_size(minimal)})"
                )
        return "\n".join(lines)


def triage_checkpoint(
    checkpoint_path: str,
    baseline: Baseline,
    *,
    fingerprints_path: str,
    shrink: bool = True,
) -> tuple[TriageReport, Baseline, Baseline]:
    """Triage a checkpointed campaign's novel findings.

    Returns ``(report, delta, proposed)``: the per-finding report, the
    baseline **delta** (only the new fingerprints), and the **proposed**
    baseline (``baseline`` + delta). Reproduction/shrinking runs
    ``jobs=1`` through the real executor, like the shrinker always has.

    Only the JSONL prefix the checkpoint committed is read, so a batch
    appended after the last checkpoint is ignored. Raises
    :class:`~repro.campaign.CheckpointError` on unusable inputs,
    including a JSONL that does not match the checkpoint.
    """
    state = restore_state(load_checkpoint(checkpoint_path), fingerprints_path)
    config = state.config

    findings: list[TriagedFinding] = []
    delta = Baseline.empty()
    for key in state.novel_keys:
        finding = state.findings[key]
        label = conf_label(finding.conf_overrides)
        fired = reproduces(
            finding.witness,
            key,
            config.plans,
            config.formats,
            finding.conf_overrides,
            label,
            batch=config.lanes,
        )
        shrunk = None
        if fired and shrink:
            shrunk = shrink_input(
                finding.witness,
                key,
                config.plans,
                config.formats,
                finding.conf_overrides,
                label,
                batch=config.lanes,
            )
        findings.append(
            TriagedFinding(
                key=key,
                provenance=finding.provenance,
                conf=label,
                seam=item_seam(f"fp:{key}"),
                witness=finding.witness,
                reproduced=fired,
                shrunk=shrunk,
            )
        )
        # the fingerprint goes into the delta either way: dedup is by
        # key, and a key the campaign witnessed will be witnessed again
        # on the next run whether or not this host re-fired it today
        delta.add(finding.fingerprint)

    proposed = Baseline(dict(baseline.fingerprints))
    proposed.merge(delta)
    return (
        TriageReport(
            checkpoint_path=checkpoint_path,
            config=config.signature(),
            findings=findings,
            baseline_before=len(baseline),
            baseline_after=len(proposed),
        ),
        delta,
        proposed,
    )


def write_triage(
    out_dir: str,
    report: TriageReport,
    delta: Baseline,
    proposed: Baseline,
) -> dict[str, str]:
    """Write the triage artifact set; returns name → path.

    ``baseline-delta.json`` is the reviewable diff,
    ``proposed_known_discrepancies.json`` is the full merged baseline —
    drop-in for ``src/repro/fuzz/known_discrepancies.json`` or usable
    directly as ``--baseline``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "triage-report.json"),
        "summary": os.path.join(out_dir, "triage-report.txt"),
        "delta": os.path.join(out_dir, "baseline-delta.json"),
        "proposed": os.path.join(
            out_dir, "proposed_known_discrepancies.json"
        ),
    }
    with open(paths["report"], "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(paths["summary"], "w", encoding="utf-8") as handle:
        handle.write(report.to_text() + "\n")
    delta.save(paths["delta"])
    proposed.save(paths["proposed"])
    return paths
