"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestReplay:
    def test_list_scenarios(self, capsys):
        assert main(["replay"]) == 0
        out = capsys.readouterr().out
        assert "FLINK-12342" in out and "SPARK-27239" in out

    def test_failing_replay_exit_code(self, capsys):
        assert main(["replay", "SPARK-27239"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_fixed_replay_exit_code(self, capsys):
        assert main(["replay", "SPARK-27239", "--fixed"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_lowercase_jira_accepted(self):
        assert main(["replay", "spark-27239", "--fixed"]) == 0

    def test_unknown_jira(self, capsys):
        assert main(["replay", "NOPE-1"]) == 2


class TestStudy:
    def test_study_reproduces(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "13/13 findings reproduced" in out


class TestCrosstest:
    def test_single_format_run(self, capsys):
        assert main(["crosstest", "--formats", "parquet"]) == 0
        out = capsys.readouterr().out
        assert "discrepancies found" in out

    def test_json_output(self, capsys):
        assert main(["crosstest", "--formats", "parquet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "found_discrepancies" in payload

    def test_conf_override(self, capsys):
        assert main([
            "crosstest",
            "--formats", "parquet",
            "--conf", "spark.sql.storeAssignmentPolicy=legacy",
        ]) == 0

    def test_bad_conf_rejected(self, capsys):
        assert main(["crosstest", "--conf", "garbage"]) == 2

    def test_conf_empty_value_accepted(self, capsys):
        # KEY= is legitimate: empty string is a real configuration value
        assert main([
            "crosstest",
            "--formats", "parquet",
            "--conf", "spark.sql.sources.commitProtocolClass=",
            "--quiet",
        ]) == 0

    def test_conf_empty_key_rejected(self, capsys):
        assert main(["crosstest", "--conf", "=value"]) == 2
        assert "bad --conf" in capsys.readouterr().err

    def test_unknown_format_exits_2_naming_valid_formats(self, capsys):
        # regression: '--formats orcc' used to run 3,376 doomed trials,
        # report 0/15 discrepancies, and exit 0
        assert main(["crosstest", "--formats", "orcc"]) == 2
        err = capsys.readouterr().err
        assert "orcc" in err
        for valid in ("avro", "orc", "parquet"):
            assert valid in err

    def test_unknown_format_among_valid_ones_exits_2(self, capsys):
        assert main(["crosstest", "--formats", "orc,parqet"]) == 2
        assert "parqet" in capsys.readouterr().err

    def test_parallel_output_identical_to_sequential(self, capsys):
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
        ]) == 0
        sequential = capsys.readouterr().out
        assert main([
            "crosstest", "--formats", "parquet",
            "--jobs", "2", "--pool", "thread", "--quiet",
        ]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_bad_jobs_rejected(self, capsys):
        assert main(["crosstest", "--jobs", "0"]) == 2
        assert "bad --jobs" in capsys.readouterr().err

    def test_summary_line_on_stderr(self, capsys):
        assert main(["crosstest", "--formats", "parquet", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "trials in" in captured.err
        assert "errors:" in captured.err

    def test_quiet_suppresses_all_stderr_chatter(self, capsys):
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "discrepancies found" in captured.out

    def test_metrics_json_snapshot(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
            "--metrics-json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["system"] == "crosstest"
        assert payload["metrics"]["trials_total"] > 0
        assert "caches" in payload


class TestCrosstestFaults:
    def test_fault_run_renders_robustness(self, capsys):
        assert main([
            "crosstest", "--formats", "parquet",
            "--faults", "smoke", "--fault-seed", "1337",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan: smoke (seed=1337)" in out
        assert "robustness:" in out

    def test_fault_json_written(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        assert main([
            "crosstest", "--formats", "parquet",
            "--faults", "smoke", "--fault-seed", "1337",
            "--fault-json", str(path), "--quiet",
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["plan"]["name"] == "smoke"
        assert payload["seed"] == 1337
        assert payload["injected_trials"] > 0

    def test_gate_passes_on_smoke(self, capsys):
        assert main([
            "crosstest", "--formats", "parquet",
            "--faults", "smoke", "--fault-seed", "1337",
            "--fault-gate", "--quiet",
        ]) == 0

    def test_gate_exits_3_on_mis_handled(self, capsys):
        assert main([
            "crosstest", "--formats", "parquet",
            "--faults", "stale-metastore", "--fault-seed", "5",
            "--fault-gate", "--quiet",
        ]) == 3
        assert "mis-handled" in capsys.readouterr().err

    def test_unknown_plan_exits_2_naming_builtins(self, capsys):
        assert main(["crosstest", "--faults", "nope"]) == 2
        err = capsys.readouterr().err
        assert "smoke" in err and "chaos" in err

    def test_fault_seed_without_faults_rejected(self, capsys):
        assert main(["crosstest", "--fault-seed", "7"]) == 2

    def test_plan_file_accepted(self, tmp_path, capsys):
        from repro.faults import BUILTIN_PLANS

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(BUILTIN_PLANS["smoke"].to_json()))
        assert main([
            "crosstest", "--formats", "parquet",
            "--faults", str(path), "--quiet",
        ]) == 0


class TestFaultsList:
    def test_lists_sites_and_plans(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "spark->metastore" in out
        assert "hive->hbase" in out
        assert "smoke" in out
        assert "torn_write" in out


class TestCrosstestTraceDir:
    def test_trace_dir_writes_discrepancy_traces(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1",
            "--trace-dir", str(trace_dir),
        ]) == 0
        captured = capsys.readouterr()
        assert "discrepancy traces" in captured.err
        jsonls = sorted(p.name for p in trace_dir.glob("discrepancy_*.jsonl"))
        chromes = sorted(
            p.name for p in trace_dir.glob("discrepancy_*.chrome.json")
        )
        assert jsonls and len(jsonls) == len(chromes)
        assert (trace_dir / "oracles.jsonl").exists()
        # jira ids with '/' or '(...)' must have been sanitized into the
        # file names, never treated as path separators
        for name in jsonls:
            assert "/" not in name and " " not in name

    def test_trace_dir_output_identical_to_plain_run(self, tmp_path, capsys):
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
        ]) == 0
        plain = capsys.readouterr().out
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
            "--trace-dir", str(tmp_path / "traces"),
        ]) == 0
        traced = capsys.readouterr().out
        assert traced == plain


class TestTraceSummarize:
    def _trace_dir(self, tmp_path):
        trace_dir = tmp_path / "traces"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1", "--quiet",
            "--trace-dir", str(trace_dir),
        ]) == 0
        return trace_dir

    def test_summarize_renders_boundary_table(self, tmp_path, capsys):
        trace_dir = self._trace_dir(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "spark->serde" in out
        assert "p50" in out and "p99" in out
        # a parquet-only run never crosses the hbase seam: it must read
        # ABSENT, not a silent 0
        hbase_line = next(
            line for line in out.splitlines()
            if line.startswith("hive->hbase")
        )
        assert "ABSENT" in hbase_line
        assert "absent_policy=absent" in out

    def test_summarize_zero_policy(self, tmp_path, capsys):
        trace_dir = self._trace_dir(tmp_path)
        capsys.readouterr()
        assert main([
            "trace", "summarize", str(trace_dir), "--absent-policy", "zero",
        ]) == 0
        out = capsys.readouterr().out
        assert "ABSENT" not in out
        assert "absent_policy=zero" in out

    def test_summarize_error_policy_refuses(self, tmp_path, capsys):
        trace_dir = self._trace_dir(tmp_path)
        capsys.readouterr()
        assert main([
            "trace", "summarize", str(trace_dir), "--absent-policy", "error",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_summarize_missing_directory(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err


class TestLedgerFlag:
    def test_crosstest_appends_record(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1",
            "--corpus", "smoke", "--ledger", str(path),
        ]) == 0
        assert "appended run record" in capsys.readouterr().err
        from repro.obs import read_ledger

        (record,) = read_ledger(str(path))
        assert record["kind"] == "crosstest"
        assert record["run"]["corpus"] == "smoke"
        assert record["results"]["trials"] > 0
        assert record["env"]["jobs"] == 1
        assert "metrics" in record["env"]

    def test_fuzz_appends_record(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        code = main([
            "fuzz", "--budget", "8", "--batch", "8", "--no-shrink",
            "--quiet", "--ledger", str(path),
        ])
        assert code in (0, 4)
        from repro.obs import read_ledger

        (record,) = read_ledger(str(path))
        assert record["kind"] == "fuzz"
        assert record["run"]["budget"] == 8
        assert record["env"]["metrics"]  # the fuzz-sourced registry

    def test_unwritable_ledger_preserves_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("")
        # a path under a file can never be opened for append
        path = blocker / "ledger.jsonl"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1",
            "--corpus", "smoke", "--quiet", "--ledger", str(path),
        ]) == 0
        captured = capsys.readouterr()
        assert "ledger error" in captured.err
        assert "discrepancies found" in captured.out

    def test_quiet_keeps_ledger_note_off_stderr(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "1",
            "--corpus", "smoke", "--quiet", "--ledger", str(path),
        ]) == 0
        assert capsys.readouterr().err == ""
        assert path.exists()


class TestCampaign:
    def _args(self, tmp_path, extra):
        return [
            "campaign", "--seed", "3", "--batch", "8",
            "--baseline", "none", "--quiet",
            "--checkpoint", str(tmp_path / "ckpt.json"),
            "--fingerprints", str(tmp_path / "fp.jsonl"),
            *extra,
        ]

    def test_bounded_campaign_runs_and_exits_4_on_novel(
        self, tmp_path, capsys
    ):
        # empty baseline → everything found is novel → exit 4
        assert main(self._args(tmp_path, ["--max-batches", "1"])) == 4
        out = capsys.readouterr().out
        assert "campaign started at batch 0" in out
        assert (tmp_path / "ckpt.json").exists()
        assert (tmp_path / "fp.jsonl").exists()

    def test_resume_reports_and_respects_global_max_batches(
        self, tmp_path, capsys
    ):
        assert main(self._args(tmp_path, ["--max-batches", "1"])) == 4
        capsys.readouterr()
        assert main(
            self._args(tmp_path, ["--max-batches", "2", "--json"])
        ) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["resumed"] is True
        assert payload["batches_run"] == 1
        assert payload["batches_total"] == 2
        assert payload["exit_code"] == 4

    def test_checkpoint_config_mismatch_exits_2(self, tmp_path, capsys):
        assert main(self._args(tmp_path, ["--max-batches", "1"])) == 4
        args = self._args(tmp_path, ["--max-batches", "2"])
        args[args.index("--seed") + 1] = "4"
        assert main(args) == 2
        assert "checkpoint error" in capsys.readouterr().err

    def test_bad_flags_rejected(self, capsys):
        assert main(["campaign", "--jobs", "0"]) == 2
        assert main(["campaign", "--max-batches", "0"]) == 2
        assert main(["campaign", "--duration", "-1"]) == 2

    def test_no_lanes_is_not_a_campaign_flag(self, tmp_path, capsys):
        # campaign rounds are traced, so lanes never widen there; the
        # flag could only ever make a resume refuse its own checkpoint
        with pytest.raises(SystemExit) as excinfo:
            main(self._args(tmp_path, ["--no-lanes", "--max-batches", "1"]))
        assert excinfo.value.code == 2
        assert "--no-lanes" in capsys.readouterr().err


class TestStatus:
    def _seed_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for seed in ("1337", "1338"):
            assert main([
                "crosstest", "--formats", "parquet", "--jobs", "1",
                "--corpus", "smoke", "--quiet",
                "--faults", "smoke", "--fault-seed", seed,
                "--ledger", str(path),
            ]) == 0
        return path

    def test_no_runs_recorded_is_friendly(self, tmp_path, capsys):
        assert main([
            "status", "--ledger", str(tmp_path / "absent.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "no runs recorded" in out

    def test_no_ledger_at_all_is_friendly(self, capsys):
        assert main(["status"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_status_renders_clusters_with_seams(self, tmp_path, capsys):
        path = self._seed_ledger(tmp_path)
        capsys.readouterr()
        assert main(["status", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runs: 2 (2 crosstest)" in out
        assert "co-occurrence clusters" in out
        assert "flake 100%" in out
        assert "spark->hive" in out or "spark<->spark" in out

    def test_status_json(self, tmp_path, capsys):
        path = self._seed_ledger(tmp_path)
        capsys.readouterr()
        assert main(["status", "--ledger", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_runs"] == 2
        assert payload["clusters"]
        cluster = payload["clusters"][0]
        assert cluster["flake_rate"] == 1.0
        assert cluster["seams"]

    def test_schema_drift_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"schema_version": 99, "kind": "crosstest"}\n')
        assert main(["status", "--ledger", str(path)]) == 2
        assert "schema-version drift" in capsys.readouterr().err

    def test_corrupt_ledger_exits_2_without_traceback(self, tmp_path, capsys):
        # corruption *before* the tail is file damage, not a torn append
        path = tmp_path / "ledger.jsonl"
        path.write_text('not json\n{"schema_version": 1}\n')
        assert main(["status", "--ledger", str(path)]) == 2
        assert "not a JSON record" in capsys.readouterr().err

    def test_torn_trailing_line_tolerated(self, tmp_path, capsys):
        # a hard-killed campaign writer leaves at most one partial final
        # line; status must render the intact prefix, not exit 2
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '{"schema_version": 1, "kind": "campaign", "ts": 1.0, '
            '"run": {}, "results": {}, "env": {}}\n{"schema_ver'
        )
        assert main(["status", "--ledger", str(path)]) == 0
        assert "runs: 1 (1 campaign)" in capsys.readouterr().out

    def test_bad_threshold_rejected(self, capsys):
        assert main(["status", "--threshold", "0"]) == 2
        assert "bad --threshold" in capsys.readouterr().err

    def test_bad_serve_spec_rejected(self, capsys):
        assert main(["status", "--serve", "not-a-port"]) == 2
        assert "bad --serve" in capsys.readouterr().err

    def test_campaign_panel_renders_checkpoint(self, tmp_path, capsys):
        assert main([
            "campaign", "--seed", "3", "--batch", "8",
            "--baseline", "none", "--quiet", "--max-batches", "1",
            "--checkpoint", str(tmp_path / "ckpt.json"),
            "--fingerprints", str(tmp_path / "fp.jsonl"),
        ]) == 4
        capsys.readouterr()
        assert main([
            "status", "--checkpoint", str(tmp_path / "ckpt.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert "batch 1, 8 candidates" in out

    def test_campaign_panel_missing_checkpoint_is_friendly(
        self, tmp_path, capsys
    ):
        assert main([
            "status", "--checkpoint", str(tmp_path / "absent.json"),
        ]) == 0
        assert "no checkpoint yet" in capsys.readouterr().out

    def test_serve_prints_resolved_ephemeral_url(self, tmp_path):
        # --serve 0 binds an ephemeral port; the resolved URL on stdout
        # is the only way a script learns where the server bound
        import os
        import signal as signal_mod
        import subprocess
        import sys
        import time
        import urllib.request

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "status",
                "--serve", "127.0.0.1:0", "--quiet",
                "--checkpoint", str(tmp_path / "absent.json"),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving at http://127.0.0.1:")
            url = line.removeprefix("serving at ")
            assert not url.endswith(":0/")
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        url + "campaign", timeout=5
                    ) as resp:
                        payload = json.load(resp)
                    break
                except OSError:
                    assert time.monotonic() < deadline
                    time.sleep(0.2)
            assert payload["active"] is False
        finally:
            proc.send_signal(signal_mod.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class TestConfcheckAndGaps:
    def test_confcheck_flags_example(self, capsys):
        assert main(["confcheck"]) == 1
        assert "pmem" in capsys.readouterr().out

    def test_gaps_avro(self, capsys):
        assert main(["gaps", "avro"]) == 1
        assert "tinyint" in capsys.readouterr().out

    def test_gaps_clean_format(self, capsys):
        assert main(["gaps", "parquet"]) == 0
        assert "no reader gaps" in capsys.readouterr().out


class TestExport:
    def test_export_writes_dataset(self, tmp_path, capsys):
        target = tmp_path / "csi.json"
        assert main(["export", str(target)]) == 0
        assert "120 CSI failure records" in capsys.readouterr().out
        from repro.dataset.io import load_failures_from_file

        assert len(load_failures_from_file(target)) == 120


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
