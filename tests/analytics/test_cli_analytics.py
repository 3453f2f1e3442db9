"""Tests for the analytics CLI surface and status-server endpoint.

``repro analyze`` / ``repro triage`` exit codes, the ``/analytics``
endpoint, and the ``repro status`` drift panel.
"""

import json

import pytest

from repro import cli


def _record(ts: float, commit: str, keys: list[str]) -> dict:
    return {
        "schema_version": 1,
        "kind": "crosstest",
        "ts": ts,
        "run": {},
        "results": {"fingerprints": keys},
        "env": {"git": {"commit": commit}},
    }


@pytest.fixture
def drifting_ledger(tmp_path):
    """Two commits; the fingerprint's rate jumps 0.2 -> 1.0."""
    path = tmp_path / "ledger.jsonl"
    records = []
    for i in range(5):
        keys = ["k|spark_hive|parquet"] if i == 0 else []
        records.append(_record(100.0 + i, "aaa1111", keys))
    for i in range(5):
        records.append(_record(200.0 + i, "bbb2222", ["k|spark_hive|parquet"]))
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )
    return str(path)


@pytest.fixture
def stable_ledger(tmp_path):
    path = tmp_path / "stable.jsonl"
    records = [
        _record(100.0 + i, "aaa1111" if i < 3 else "bbb2222", ["k|g|f"])
        for i in range(6)
    ]
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )
    return str(path)


class TestAnalyzeCommand:
    def test_text_report_names_the_drift(self, drifting_ledger, capsys):
        assert cli.main(["analyze", "--ledger", drifting_ledger]) == 0
        out = capsys.readouterr().out
        assert "2 commit window(s)" in out
        assert "REGRESSED" in out
        assert "aaa1111 -> bbb2222" in out
        assert "20% -> 100%" in out

    def test_json_report_shape(self, drifting_ledger, capsys):
        assert (
            cli.main(["analyze", "--ledger", drifting_ledger, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["by"] == "commit"
        assert len(payload["windows"]) == 2
        assert len(payload["drifts"]) == 1
        assert payload["drifts"][0]["direction"] == "regressed"

    def test_gate_exits_five_on_drift(self, drifting_ledger):
        assert (
            cli.main(
                ["analyze", "--ledger", drifting_ledger, "--gate", "--quiet"]
            )
            == 5
        )

    def test_gate_passes_a_stable_ledger(self, stable_ledger):
        assert (
            cli.main(
                ["analyze", "--ledger", stable_ledger, "--gate", "--quiet"]
            )
            == 0
        )

    def test_time_axis(self, drifting_ledger, capsys):
        assert (
            cli.main(
                [
                    "analyze",
                    "--ledger", drifting_ledger,
                    "--by", "time",
                    "--window-seconds", "100",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["by"] == "time"
        assert len(payload["windows"]) == 2

    def test_bad_min_delta_exits_two(self, drifting_ledger):
        assert (
            cli.main(
                ["analyze", "--ledger", drifting_ledger, "--min-delta", "2"]
            )
            == 2
        )

    def test_bad_window_seconds_exits_two(self, drifting_ledger):
        assert (
            cli.main(
                [
                    "analyze",
                    "--ledger", drifting_ledger,
                    "--by", "time",
                    "--window-seconds", "0",
                ]
            )
            == 2
        )

    def test_schema_drift_exits_two(self, tmp_path):
        path = tmp_path / "drifted.jsonl"
        path.write_text(json.dumps({"schema_version": 99, "ts": 1.0}) + "\n")
        assert cli.main(["analyze", "--ledger", str(path)]) == 2

    def test_torn_tail_tolerated(self, drifting_ledger):
        with open(drifting_ledger, "a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')
        assert cli.main(["analyze", "--ledger", drifting_ledger]) == 0

    def test_missing_ledger_is_empty_not_an_error(self, tmp_path, capsys):
        assert (
            cli.main(
                ["analyze", "--ledger", str(tmp_path / "absent.jsonl")]
            )
            == 0
        )
        assert "0 runs" in capsys.readouterr().out


class TestTriageCommand:
    def test_round_trip_exits_zero_and_writes_artifacts(
        self, seeded_campaign, tmp_path, capsys
    ):
        out_dir = str(tmp_path / "out")
        code = cli.main(
            [
                "triage",
                "--checkpoint", seeded_campaign["checkpoint"],
                "--fingerprints", seeded_campaign["fingerprints"],
                "--baseline", seeded_campaign["baseline"],
                "--out-dir", out_dir,
                "--no-shrink",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert seeded_campaign["held_out"] in out
        assert "baseline delta" in out
        from repro.fuzz.dedup import Baseline

        delta = Baseline.load(f"{out_dir}/baseline-delta.json")
        assert delta.keys == {seeded_campaign["held_out"]}

    def test_json_output(self, seeded_campaign, tmp_path, capsys):
        code = cli.main(
            [
                "triage",
                "--checkpoint", seeded_campaign["checkpoint"],
                "--fingerprints", seeded_campaign["fingerprints"],
                "--baseline", seeded_campaign["baseline"],
                "--out-dir", str(tmp_path / "out"),
                "--no-shrink",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_reproduced"] is True
        assert payload["novel"] == 1
        assert "artifacts" in payload

    def test_missing_checkpoint_exits_two(self, tmp_path):
        assert (
            cli.main(
                [
                    "triage",
                    "--checkpoint", str(tmp_path / "absent.json"),
                    "--fingerprints", str(tmp_path / "absent.jsonl"),
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            == 2
        )

    def test_bad_baseline_path_exits_two(self, seeded_campaign, tmp_path):
        assert (
            cli.main(
                [
                    "triage",
                    "--checkpoint", seeded_campaign["checkpoint"],
                    "--fingerprints", seeded_campaign["fingerprints"],
                    "--baseline", str(tmp_path / "absent.json"),
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            == 2
        )

    def test_foreign_fingerprints_exit_two(
        self, seeded_campaign, tmp_path
    ):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text(
            json.dumps({"key": "no|such|key", "novel": True}) + "\n"
        )
        assert (
            cli.main(
                [
                    "triage",
                    "--checkpoint", seeded_campaign["checkpoint"],
                    "--fingerprints", str(foreign),
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
            == 2
        )


class TestStatusDriftPanel:
    def test_two_commit_ledger_shows_drift_panel(
        self, drifting_ledger, capsys
    ):
        assert cli.main(["status", "--ledger", drifting_ledger]) == 0
        out = capsys.readouterr().out
        assert "commit drift: 1 flagged cluster(s)" in out
        assert "regressed at aaa1111 -> bbb2222" in out

    def test_stable_ledger_says_so(self, stable_ledger, capsys):
        assert cli.main(["status", "--ledger", stable_ledger]) == 0
        assert "commit drift: none" in capsys.readouterr().out

    def test_single_commit_ledger_has_no_panel(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(
            json.dumps(_record(1.0, "aaa", ["k|g|f"]), sort_keys=True) + "\n"
        )
        assert cli.main(["status", "--ledger", str(path)]) == 0
        assert "commit drift" not in capsys.readouterr().out

    def test_status_json_carries_analytics(self, drifting_ledger, capsys):
        assert (
            cli.main(["status", "--ledger", drifting_ledger, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["analytics"]["drifts"]) == 1


class TestAnalyticsEndpoint:
    def test_payload_shape(self, drifting_ledger):
        from repro.obs import ObsServer

        # .start() before .stop(): shutdown() blocks unless the serve
        # loop is running
        server = ObsServer(ledger_path=drifting_ledger, port=0).start()
        try:
            assert "/analytics" in server.ENDPOINTS
            payload = server.payload("/analytics")
            assert payload["total_runs"] == 10
            assert len(payload["drifts"]) == 1
            assert payload["drifts"][0]["direction"] == "regressed"
        finally:
            server.stop()

    def test_served_over_http(self, drifting_ledger):
        import urllib.request

        from repro.obs import ObsServer

        server = ObsServer(ledger_path=drifting_ledger, port=0).start()
        try:
            with urllib.request.urlopen(server.url("/analytics")) as reply:
                payload = json.loads(reply.read())
            assert len(payload["drifts"]) == 1
            with urllib.request.urlopen(server.url("/")) as reply:
                index = json.loads(reply.read())
            assert "/analytics" in index["endpoints"]
        finally:
            server.stop()
