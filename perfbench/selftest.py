"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny sizes (the
distilled 14-input corpus, a two-batch campaign, a small ledger) and
checks that the result object has exactly its four keys, that
every metric ``BENCHMARK.json`` names is present with its unit, that
every check passed, and that the traced run's per-layer self times and
residual sum to its traced wall time. It then spoils each workload's
reference (the matrix digest, the novel keys fixed by the campaign's
first unit, the obs body digests) and checks that the next unit counts
as failed, so every check can fail. Last, it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and ``perfbench/`` and checks
that it fails without printing a result. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads

TINY = {
    "matrix": lambda w: w.Matrix(smoke=True, min_samples=2),
    "campaign": lambda w: w.Campaign(batches=2, min_samples=2),
    "obs": lambda w: w.Obs(items=150, min_samples=2),
}


def check_run(name: str, trace: bool, declared: dict) -> list[str]:
    report, result = run.run(
        TINY[name](workloads), seed=3, seconds=0.5, trace=trace, setups=2
    )
    problems = []
    where = f"{name} --trace {int(trace)}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed: {result}")
    expected = declared["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} missing or mis-unit")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {metric['name']} is not a number")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: {metric['name']} is {got['value']}")
    if set(result["metrics"]) != {metric["name"] for metric in expected}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in values.items() if k.startswith("self."))
        if not math.isclose(total, values["traced_wall_s"], rel_tol=1e-9):
            problems.append(
                f"{where}: self times sum to {total}, "
                f"traced wall is {values['traced_wall_s']}"
            )
    for key, entry in report["metrics"].items():
        if not key.startswith(f"{name}.") or "unit" not in entry:
            problems.append(f"{where}: report metric {key} malformed")
    if not all(report["host"].values()):
        problems.append(f"{where}: host info incomplete: {report['host']}")
    return problems


def _spoil_matrix(workload) -> None:
    workload.reference = "0" * 64


def _spoil_campaign(workload) -> None:
    workload.run_once(None)  # fixes the reference
    fingerprints, novel = workload.reference
    if not novel:
        raise AssertionError("tiny campaign found no novel key to spoil")
    workload.reference = (fingerprints, novel[:-1])


def _spoil_obs(workload) -> None:
    for served in workload.served:
        served.reference = dict.fromkeys(workloads.OBS_ENDPOINTS, "0" * 64)


SPOIL = {"matrix": _spoil_matrix, "campaign": _spoil_campaign,
         "obs": _spoil_obs}


def check_can_fail(name: str) -> list[str]:
    """A unit run against a spoiled reference must count as failed."""
    workload = TINY[name](workloads)
    workdir = os.path.join(run.ROOT, ".perfbench", f"selftest-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.setup(3, workdir)
        SPOIL[name](workload)
        unit = workload.run_once(None)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if unit.failed < 1:
        return [f"{name}: a spoiled reference still passed its check"]
    return []


def check_bare_directory() -> list[str]:
    """Without the program beside it, the benchmark must fail cleanly."""
    bare = os.path.join(run.ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            run.HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "matrix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, {proc.stdout!r}"]
    return []


def main() -> int:
    if not os.path.isdir(run.SRC):
        print("error: run from a checkout with src/", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = []
    for name in TINY:
        for trace in (False, True):
            problems += check_run(name, trace, declared)
        problems += check_can_fail(name)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
