"""Layered benchmark of the §8 matrix, the campaign loop and the status reads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix|campaign|obs \\
        --seed N --seconds S --trace 0|1

One run sets its workload up several times (``setup_s`` is the
median), then measures as many whole closed-loop units as fit in
``--seconds`` seconds, but at least the workload's minimum sample
count, checking every unit's output against a reference taken in
set-up. ``peak_rss_mb`` is the highest resident memory of the
benchmark process plus its child processes (the matrix pool workers),
sampled while the measured units run, so set-up does not count.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced units: traced units wrap
the program's public functions by module attribute (see ``tracer.py``)
and give the per-layer numbers, including each layer's self time and a
residual that together sum to the traced wall time; the difference
between traced and untraced units is the tracing overhead. Spans are
written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The line before the last is a report for humans: the host, input
sizes, sample counts and tail rank, and every metric under the names
``<workload>.<metric>``. The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``. Every run reports
every metric; a per-layer metric of a layer the workload never enters
reads 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import threading
import time

from tracer import Recorder, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: no run may outlive this many seconds of measuring, whatever it asks
MAX_MEASURE_S = 120.0
#: seconds between two samples of the resident memory
RSS_INTERVAL_S = 0.05

LAYERS = (
    "crosstest.executor",
    "crosstest.harness",
    "crosstest.oracles",
    "crosstest.classify",
    "crosstest.fingerprint",
    "fuzz.generators",
    "fuzz.coverage",
    "fuzz.scheduler",
    "tracing.export",
    "campaign.service",
    "campaign.checkpoint",
    "obs.ledger",
    "obs.cluster",
    "obs.server",
    "analytics.windows",
    "analytics.drift",
    "cli",
    "residual",
)

#: per-layer metrics besides the self times, with units; a workload
#: that never enters a layer reports 0 for it
LAYER_METRICS = {
    "failed_frac": "frac",
    "trace_overhead_frac": "frac",
    "traced_wall_s": "s",
    "trials_per_sample": "count",
    "execute_s": "s",
    "unpack_s": "s",
    "trial_busy_s": "s",
    "pool_wait_frac": "frac",
    "harness.create_s": "s",
    "harness.write_s": "s",
    "harness.read_s": "s",
    "harness.reset_s": "s",
    "leases_per_trial": "count",
    "plan_cache.hit_rate": "frac",
    "oracles_s": "s",
    "classify_s": "s",
    "serial_frac": "frac",
    "generate_s": "s",
    "span_codec_s": "s",
    "spans_per_trial": "count",
    "coverage_s": "s",
    "fingerprint_s": "s",
    "commit_s": "s",
    "checkpoint_s": "s",
    "checkpoint_bytes_written": "bytes",
    "ledger_bytes_per_batch": "bytes",
    "read_ledger_s": "s",
    "cluster_s": "s",
    "cluster_calls_per_analytics": "count",
    "window_cluster_s": "s",
    "partition_s": "s",
    "drift_s": "s",
    "evolution_s": "s",
    "encode_s": "s",
    "obs.clusters_s.p50": "s",
    "obs.analytics_s.p50": "s",
    "obs.ledger_s.p50": "s",
    "obs.status_cli_s.p50": "s",
    "ledger.items": "count",
    "ledger.records": "count",
    "ledger.bytes": "bytes",
}
for _layer in LAYERS:
    LAYER_METRICS[f"self.{_layer}_s"] = "s"

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: what one unit of work and one latency sample are, per workload —
#: used to name the metrics in the report
NAMES = {
    "matrix": {"work": "trials", "latency": "run_s"},
    "campaign": {"work": "trials", "latency": "batch_s"},
    "obs": {"work": "requests", "latency": "round_s"},
}


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def tail_rank(min_samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    at the workload's guaranteed sample count."""
    return max(1, math.floor(100 * (min_samples - 10) / min_samples))


def percentile(samples: list[float], rank: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[rank - 1]


def _resident_bytes(pid: str) -> int:
    with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def tree_rss(children: bool) -> int:
    """Resident bytes of this process plus, with ``children``, its live
    child processes.

    Pages a forked child shares with its parent count in both, as
    ``ps`` shows them. Finding the children reads every process's
    ``stat``, so workloads that start none skip it.
    """
    me = str(os.getpid())
    total = _resident_bytes("self")
    if not children:
        return total
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or pid == me:
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                # the parent pid follows the state, after the name
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
            if ppid == me:
                total += _resident_bytes(pid)
        except (OSError, IndexError):
            continue  # the process has ended
    return total


class RssSampler:
    """Peak of :func:`tree_rss` while the ``with`` block runs."""

    def __init__(
        self, children: bool, interval: float = RSS_INTERVAL_S
    ) -> None:
        self.children = children
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss(self.children))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> RssSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss(self.children))


def measure(workload, seconds: float, trace: bool):
    """Closed loop: one unit after another for ``seconds``.

    Units come in cycles (a reference campaign and its check, or an
    untraced/traced pair with ``trace``), and a run holds whole cycles.
    Another cycle starts while the sample floor is not reached, or while
    it is expected to end within ``seconds`` (judged by the mean unit so
    far). With ``trace``, units alternate untraced/traced, and unit ``i``
    gets index ``i // 2`` so that each traced unit repeats the work of
    the untraced one before it.
    """
    recorder = Recorder()
    units = []
    cycle = 2 if trace else workload.cycle
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S:
            break
        if len(units) % cycle == 0:
            plain = [unit for unit in units if not unit.traced]
            samples = sum(len(unit.samples) for unit in plain)
            enough = (
                any(unit.traced for unit in units)
                if trace
                else samples >= workload.min_samples
            )
            fits = (
                not units
                or elapsed * (len(units) + cycle) / len(units) <= seconds
            )
            if enough and not fits:
                break
        index = len(units) // 2 if trace else len(units)
        # each unit starts from a collected heap, as a fresh `repro`
        # process would: left to the collector's own schedule, matrix
        # run walls rose ~40% over a few runs and fell back (0.38-0.57 s
        # on a two-core VM); collected, they stay within 0.36-0.41 s
        gc.collect()
        if trace and len(units) % 2 == 1:
            workload.patch(recorder)
            try:
                units.append(workload.run_once(recorder, index))
            finally:
                recorder.restore()
        else:
            units.append(workload.run_once(None, index))
    return units, recorder


def end_to_end(workload, units, setups, peak_rss) -> tuple[dict, dict]:
    plain = [unit for unit in units if not unit.traced]
    samples = [sample for unit in plain for sample in unit.samples]
    rank = tail_rank(workload.min_samples)
    metrics = {
        "setup_s": statistics.median(setups),
        # a median over units, so one unit slowed by a busy host does
        # not move it
        "work_per_s": statistics.median(
            unit.work / unit.wall for unit in plain
        ),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": percentile(samples, rank),
        "peak_rss_mb": peak_rss / 2**20,
    }
    return metrics, {"tail_rank": rank, "samples": len(samples)}


def per_layer(workload, units, recorder) -> dict:
    traced = [unit for unit in units if unit.traced]
    plain = [unit for unit in units if not unit.traced]
    spans = recorder.spans
    per = sum(len(unit.samples) for unit in traced)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(workload.layer_metrics(units, spans))
    selfs = self_times(spans)
    for span in spans:
        metrics[f"self.{span.layer}_s"] += selfs[span.span_id] / per
    roots = [span for span in spans if span.parent is None]
    metrics["traced_wall_s"] = (
        sum(span.end - span.start for span in roots) / per
    )
    per_plain = sum(len(unit.samples) for unit in plain)
    metrics["trace_overhead_frac"] = (
        sum(unit.wall for unit in traced) / per
    ) / (sum(unit.wall for unit in plain) / per_plain) - 1.0
    return metrics


def span_summary(recorder) -> dict:
    """Self time and calls per span name, for the report line."""
    selfs = self_times(recorder.spans)
    summary: dict[str, dict] = {}
    for span in recorder.spans:
        entry = summary.setdefault(
            span.name, {"layer": span.layer, "calls": 0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[span.span_id]
    return summary


def run(workload, seed: int, seconds: float, trace: bool, setups=None):
    """Set up ``setups`` times (default: the workload's own count), warm
    up, measure and check one workload.

    Returns ``(report, result)``: the human report and the result
    object printed as the last line.
    """
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_runs = []
        for _ in range(setups or workload.setups):
            began = time.perf_counter()
            workload.setup(seed, workdir)
            setup_runs.append(time.perf_counter() - began)
        # checked like every unit, but not timed
        warmups = [workload.run_once(None) for _ in range(workload.warmups)]
        gc.collect()
        # set-up's objects live through the run; frozen, they are not
        # traversed by every full collection of a measured unit
        gc.freeze()
        setup_rss = tree_rss(workload.forks)
        with RssSampler(workload.forks) as rss:
            units, recorder = measure(workload, seconds, trace)
    finally:
        gc.unfreeze()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(unit.attempted for unit in warmups + units)
    failed = sum(unit.failed for unit in warmups + units)
    e2e, tail = end_to_end(workload, units, setup_runs, rss.peak)
    e2e["failed_frac"] = failed / attempted
    report = {
        "workload": workload.name,
        "seed": seed,
        "host": host_info(),
        "units": len(units),
        "unit_walls_s": [unit.wall for unit in units],
        "setup_runs_s": setup_runs,
        "rss_before_measure_mb": setup_rss / 2**20,
        **tail,
        "sizes": workload.sizes,
    }
    if trace:
        metrics = per_layer(workload, units, recorder)
        metrics["failed_frac"] = e2e["failed_frac"]
        wanted = LAYER_METRICS
        report["spans"] = span_summary(recorder)
        recorder.write_jsonl(
            os.path.join(out_dir, f"spans-{workload.name}-{seed}.jsonl")
        )
    else:
        metrics = e2e
        wanted = END_TO_END
    # every number of this run under the workload's own names; with
    # --trace 1 the end-to-end ones come from the untraced units only
    names = NAMES[workload.name]
    renamed = {
        "work_per_s": f"{names['work']}_per_s",
        "latency_p50_s": f"{names['latency']}.p50",
        "latency_tail_s": f"{names['latency']}.tail",
    }
    unit_of = {**END_TO_END, **LAYER_METRICS}
    prefix = f"{workload.name}."

    def named(name: str) -> str:
        if name.startswith(prefix):
            return name
        return prefix + renamed.get(name, name)

    report["metrics"] = {
        named(name): {"value": value, "unit": unit_of[name]}
        for name, value in {**e2e, **metrics}.items()
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: no repro package under {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    report, result = run(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
