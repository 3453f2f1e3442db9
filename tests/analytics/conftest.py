"""Shared fixture: a checkpointed campaign with one seeded novelty.

Built once per session — one seed-3 batch through the real scheduler
is the cheapest campaign that witnesses fingerprints, and holding the
last key out of the baseline turns it into the exact artifact set a
nightly exit-4 leaves behind: checkpoint + fingerprint JSONL + a
baseline that doesn't know one key. The campaign itself runs through
:class:`CampaignService`, so the checkpoint records the JSONL offset a
triage reads up to.
"""

import asyncio

import pytest

from repro.campaign import CampaignService
from repro.fuzz.dedup import Baseline
from repro.fuzz.scheduler import CampaignState, FuzzConfig, run_round

SEED = 3
BATCH = 8


def _config():
    return FuzzConfig(seed=SEED, budget=BATCH, batch=BATCH, shrink=False)


@pytest.fixture(scope="session")
def seeded_campaign(tmp_path_factory):
    """A one-batch campaign whose last fingerprint key is novel.

    Returns a dict: ``checkpoint`` / ``fingerprints`` / ``baseline``
    paths, the ``held_out`` key, and ``all_keys``.
    """
    workdir = tmp_path_factory.mktemp("seeded-campaign")

    # learning pass: which keys does this batch witness?
    probe = CampaignState.fresh(_config())
    run_round(probe, Baseline.empty())
    all_keys = sorted(probe.findings)
    assert all_keys, "seed-3 batch must witness fingerprints"
    held_out = all_keys[-1]

    pruned = Baseline(
        {
            key: finding.fingerprint
            for key, finding in probe.findings.items()
            if key != held_out
        }
    )
    baseline_path = str(workdir / "pruned-baseline.json")
    pruned.save(baseline_path)

    # the campaign a nightly would have run: same batch, novel key seen
    service = CampaignService(
        _config(),
        pruned,
        checkpoint_path=str(workdir / "campaign.ckpt.json"),
        fingerprints_path=str(workdir / "campaign.fp.jsonl"),
        max_batches=1,
    )
    asyncio.run(service.run())
    assert service.state.novel_keys == [held_out]

    return {
        "checkpoint": service.checkpoint_path,
        "fingerprints": service.fingerprints_path,
        "baseline": baseline_path,
        "held_out": held_out,
        "all_keys": all_keys,
    }
