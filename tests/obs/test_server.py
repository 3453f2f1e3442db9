"""Tests for the stdlib HTTP status surface."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.metrics import MetricsRegistry
from repro.obs import LEDGER_SCHEMA_VERSION, Ledger, ObsServer


@pytest.fixture
def ledger_path(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = Ledger(path)
    ledger.append(
        {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "crosstest",
            "ts": 1.0,
            "run": {},
            "results": {"trials": 3, "fingerprints": ["a|spark_hive|x"]},
            "env": {},
        }
    )
    ledger.append(
        {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "crosstest",
            "ts": 2.0,
            "run": {},
            "results": {"trials": 3, "fingerprints": ["a|spark_hive|x"]},
            "env": {},
        }
    )
    return path


def _get(server, path):
    with urllib.request.urlopen(server.url(path), timeout=5) as resp:
        return resp.status, json.loads(resp.read())


class TestObsServer:
    def test_endpoints_serve_json(self, ledger_path):
        registry = MetricsRegistry(system="campaign")
        registry.counter("runs").increment(2)
        server = ObsServer(
            ledger_path=ledger_path, registries=(registry,)
        ).start()
        try:
            status, index = _get(server, "/")
            assert status == 200
            assert index["runs"] == 2
            assert index["schema_version"] == LEDGER_SCHEMA_VERSION
            assert set(index["endpoints"]) == set(server.ENDPOINTS)

            _, metrics = _get(server, "/metrics")
            assert metrics["campaign"]["runs"]["value"] == 2.0

            _, ledger = _get(server, "/ledger")
            assert len(ledger["runs"]) == 2

            _, clusters = _get(server, "/clusters")
            assert clusters["total_runs"] == 2
            assert len(clusters["clusters"]) == 1
            assert clusters["clusters"][0]["flake_rate"] == 1.0
        finally:
            server.stop()

    def test_ledger_reread_per_request(self, ledger_path):
        server = ObsServer(ledger_path=ledger_path).start()
        try:
            _, before = _get(server, "/")
            assert before["runs"] == 2
            Ledger(ledger_path).append(
                {
                    "schema_version": LEDGER_SCHEMA_VERSION,
                    "kind": "fuzz",
                    "ts": 3.0,
                    "run": {},
                    "results": {},
                    "env": {},
                }
            )
            _, after = _get(server, "/")
            assert after["runs"] == 3
        finally:
            server.stop()

    def test_unknown_path_is_404_with_endpoint_index(self):
        server = ObsServer().start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/nope")
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read())
            assert "/clusters" in payload["endpoints"]
        finally:
            server.stop()

    def test_corrupt_ledger_is_500_not_crash(self, tmp_path):
        # corruption before the tail is file damage, not a torn append
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"ok": 1}\n')
        server = ObsServer(ledger_path=str(path)).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/ledger")
            assert excinfo.value.code == 500
        finally:
            server.stop()

    def test_torn_tail_served_not_500(self, tmp_path):
        # a live campaign writer killed mid-append leaves one partial
        # final line; the server keeps serving the intact prefix and
        # surfaces the tear instead of failing the request
        path = tmp_path / "live.jsonl"
        path.write_text('{"ok": 1}\n{"tor')
        server = ObsServer(ledger_path=str(path)).start()
        try:
            status, payload = _get(server, "/ledger")
            assert status == 200
            assert payload["runs"] == [{"ok": 1}]
            assert payload["truncated_tail"]["lineno"] == 2
        finally:
            server.stop()

    def test_campaign_endpoint_reflects_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "campaign-checkpoint.json"
        server = ObsServer(checkpoint_path=str(checkpoint)).start()
        try:
            _, before = _get(server, "/campaign")
            assert before["active"] is False
            checkpoint.write_text(
                json.dumps(
                    {
                        "schema_version": 2,
                        "kind": "campaign-checkpoint",
                        "state": {
                            "config": {"seed": 7},
                            "round_index": 3,
                            "candidates": 48,
                            "trials_run": 1152,
                            "coverage": ["a", "b"],
                            "fingerprints": 2,
                            "novel": 1,
                            "rediscovered": [2],
                        },
                        "offsets": {
                            "ledger_bytes": 0,
                            "fingerprints_bytes": 0,
                        },
                        "env": {},
                    }
                )
            )
            _, after = _get(server, "/campaign")
            assert after["active"] is True
            assert after["batches"] == 3
            assert after["candidates"] == 48
            assert after["trials"] == 1152
            assert after["coverage_features"] == 2
            assert after["fingerprints"] == 2
            assert after["novel"] == 1
            assert after["novel_seen"] is True
            assert after["config"] == {"seed": 7}
        finally:
            server.stop()

    def test_campaign_counts_match_the_committed_jsonl(self, tmp_path):
        # batch 0's keys are known, so batch 1 commits both known and
        # novel lines; the panel's counts must be the JSONL's
        import asyncio

        from repro.campaign import CampaignService
        from repro.fuzz import Baseline, FuzzConfig
        from repro.fuzz.scheduler import CampaignState, run_round

        config = FuzzConfig(seed=3, budget=8, batch=8, shrink=False)
        probe = CampaignState.fresh(config)
        run_round(probe, Baseline.empty())
        known = Baseline(
            {key: f.fingerprint for key, f in probe.findings.items()}
        )
        checkpoint = tmp_path / "ckpt.json"
        fingerprints = tmp_path / "fp.jsonl"
        asyncio.run(
            CampaignService(
                config,
                known,
                checkpoint_path=str(checkpoint),
                fingerprints_path=str(fingerprints),
                max_batches=2,
            ).run()
        )
        records = [
            json.loads(line)
            for line in fingerprints.read_text().splitlines()
        ]
        novel = sum(1 for record in records if record["novel"])
        assert 0 < novel < len(records)
        server = ObsServer(checkpoint_path=str(checkpoint)).start()
        try:
            _, panel = _get(server, "/campaign")
        finally:
            server.stop()
        assert panel["fingerprints"] == len(records)
        assert panel["novel"] == novel
        assert panel["novel_seen"] is True

    def test_no_ledger_means_empty_campaign(self):
        server = ObsServer().start()
        try:
            _, index = _get(server, "/")
            assert index["runs"] == 0
            _, clusters = _get(server, "/clusters")
            assert clusters["clusters"] == []
        finally:
            server.stop()

    def test_stop_without_start_returns(self):
        # stop() from a thread, so a hang fails the test instead of
        # blocking the suite
        server = ObsServer()
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        # the listening socket is closed, not left in the backlog
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=1)
