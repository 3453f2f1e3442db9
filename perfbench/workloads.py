"""The three workloads: the §8 matrix, the campaign loop, the status reads.

Each workload is a closed loop driven by one client in this process:

* ``matrix`` runs ``run_crosstest`` over the full 422-input corpus
  (10,128 trials) with the defaults (lanes and plan cache on) on an
  explicit two-worker process pool, back to back. It exercises lanes,
  the harness, the pool and shard shipping, and the serial parent-side
  oracles; it never touches coverage, checkpoints, the ledger or
  clustering. The corpus is fixed, so the seed does not change it.
* ``campaign`` runs fresh seeded :class:`CampaignService` campaigns with
  the CLI defaults (batch 16, ``jobs=1``) for 24 batches, the campaign
  length whose checkpoint growth the first measurements of this path
  recorded, each writing its checkpoint, fingerprint JSONL and ledger
  into a new directory. It exercises generation, traced isolated
  execution, the span codec, coverage, fingerprint/dedup and the
  checkpoint and ledger writes; it bypasses lanes, the plan cache and
  the pool. Batch latency grows with checkpoint size, so the campaign
  length is fixed.
* ``obs`` serves ledgers built in set-up from real seeded campaigns
  plus two smoke ``crosstest`` records, each behind an
  :class:`ObsServer`; one HTTP connection per server polls five
  endpoints in turn and each round also runs ``repro status --json``
  in-process. It exercises ledger parsing, clustering and analytics;
  the executor stays idle.

``campaign`` runs campaigns of the run's seed; ``obs`` derives one
sub-seed per set-up from it, so no single ledger's shape decides a run.
A workload's ``run_once`` performs one *unit* (a matrix run; a
campaign; one poll round per ledger) and returns its
latency samples (per matrix run, per campaign batch, per poll round)
together with the checks it made. ``layer_metrics`` turns the
spans of traced units into the per-layer numbers.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import http.client
import io
import itertools
import json
import multiprocessing
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

from tracer import Recorder, Span

__all__ = ["WORKLOADS", "Unit"]

#: worker count of the matrix pool, sized for a two-core host
MATRIX_JOBS = 2
#: batches per measured campaign (CLI default batch size of 16): the
#: 24-batch campaign in which batch latency was first measured to grow
#: from 0.29 s to 0.55 s as the checkpoint reached 2.1 MB
CAMPAIGN_BATCHES = 24
#: batches of the warm-up campaign of a campaign set-up
WARMUP_BATCHES = 2
#: distinct failure items in the ledger the obs workload serves, and
#: the batch size of the campaign that fills it (small batches add few
#: items each, so the target is met closely)
OBS_ITEMS = 500
OBS_BATCH = 1
OBS_MAX_BATCHES = 200
#: commits and seconds between records when re-stamping the obs ledger
OBS_COMMITS = 3
OBS_STAMP_STEP = 8 * 3600.0
OBS_STAMP_BASE = 1_700_000_000.0
OBS_ENDPOINTS = ("/", "/campaign", "/ledger", "/clusters", "/analytics")
HTTP_TIMEOUT_S = 60.0


@dataclass
class Unit:
    """One measured unit of work and what checking it found."""

    wall: float
    work: int
    samples: list[float]
    attempted: int
    failed: int
    traced: bool = False
    extra: dict = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hist_sums(metrics, prefix: str) -> float:
    return sum(
        metric.sum
        for name, metric in metrics.registry.items()
        if name.startswith(prefix)
    )


def _counter(metrics, name: str) -> int:
    return int(metrics.cache_counters[name].value)


def _spans_named(spans: list[Span], *names: str) -> list[Span]:
    return [span for span in spans if span.name in names]


def _total(spans: list[Span], *names: str) -> float:
    return sum(span.end - span.start for span in _spans_named(spans, *names))


def _executor_counts(metrics) -> dict:
    """Harness stage times, trial busy time and lease/cache counts, all
    from the program's own :class:`CrossTestMetrics`."""
    trials = int(metrics.trials_total.value)
    hits = _counter(metrics, "plan_cache_hits")
    lookups = hits + _counter(metrics, "plan_cache_misses")
    leases = _counter(metrics, "deployments_created") + _counter(
        metrics, "deployments_reused"
    )
    return {
        "trials": trials,
        "busy": _hist_sums(metrics, "latency_plan_"),
        "stages": {
            stage: _hist_sums(metrics, f"latency_stage_{stage}")
            for stage in ("create", "write", "read", "reset")
        },
        "leases": leases,
        "hits": hits,
        "lookups": lookups,
    }


def _executor_metrics(units: list[Unit], per: int) -> dict:
    """The executor/harness per-layer metrics shared by matrix and
    campaign, as totals divided by ``per`` latency samples."""
    counts = [unit.extra["counts"] for unit in units]
    trials = sum(count["trials"] for count in counts)
    lookups = sum(count["lookups"] for count in counts)
    out = {
        "trial_busy_s": sum(count["busy"] for count in counts) / per,
        "leases_per_trial": sum(c["leases"] for c in counts) / trials,
        "plan_cache.hit_rate": (
            sum(count["hits"] for count in counts) / lookups
            if lookups
            else 0.0
        ),
    }
    for stage in ("create", "write", "read", "reset"):
        out[f"harness.{stage}_s"] = (
            sum(count["stages"][stage] for count in counts) / per
        )
    return out


# -- matrix ----------------------------------------------------------------


def _report_digest(report) -> str:
    return _sha256(
        json.dumps(report.to_json(), sort_keys=True).encode("utf-8")
    )


class Matrix:
    name = "matrix"
    setups = 3
    #: the corpus is fixed, so every unit does the same work
    cycle = 1
    #: set-up runs the isolated path, so the pool path warms up once
    warmups = 1
    #: the pool workers are child processes
    forks = True

    def __init__(self, smoke: bool = False, min_samples: int = 24) -> None:
        # ``smoke`` swaps in the 14-input distilled corpus (self-test)
        self.smoke = smoke
        self.min_samples = min_samples

    def _inputs(self):
        if not self.smoke:
            return None
        from repro.crosstest.smoke import smoke_inputs

        return smoke_inputs()

    def setup(self, seed: int, workdir: str) -> None:
        """The reference report, from the isolated path at ``jobs=1``.

        The §8 corpus is the paper's fixed input set, so ``seed`` does
        not change it.
        """
        from repro.crosstest.report import run_crosstest

        report = run_crosstest(self._inputs(), jobs=1, batch=False)
        if len(report.found_numbers) != 15:
            raise RuntimeError(
                f"reference run found {len(report.found_numbers)}/15 "
                "mechanisms"
            )
        self.reference = _report_digest(report)
        self.sizes = {"trials": len(report.trials)}

    def close(self) -> None:
        pass

    def patch(self, rec: Recorder) -> None:
        """Parent-side calls only: workers are forked from this process
        and must not pay for spans nobody collects."""
        from concurrent.futures import ProcessPoolExecutor

        import repro.crosstest.executor as executor
        import repro.crosstest.report as report

        layer = "crosstest.executor"
        rec.wrap(executor, "execute", "execute", layer)
        rec.wrap(executor, "build_shards", "build_shards", layer)
        rec.wrap(executor, "corpus_texts", "corpus_texts", layer)
        rec.wrap(executor, "wait", "pool.wait", layer)
        rec.wrap(ProcessPoolExecutor, "shutdown", "pool.shutdown", layer)
        rec.wrap(executor.ShardResult, "to_trials", "unpack", layer)
        rec.wrap(
            executor.CrossTestMetrics, "record_shard", "record_shard", layer
        )
        rec.wrap(report, "all_failures", "all_failures", "crosstest.oracles")
        rec.wrap(
            report, "classify_trials", "classify_trials", "crosstest.classify"
        )

    def run_once(self, rec: Recorder | None, index: int = 0) -> Unit:
        from repro.crosstest.executor import CrossTestMetrics
        from repro.crosstest.report import run_crosstest

        metrics = CrossTestMetrics()
        root = rec.begin_op("run_crosstest") if rec else None
        started = time.perf_counter()
        report = run_crosstest(
            self._inputs(), jobs=MATRIX_JOBS, pool="process", metrics=metrics
        )
        wall = time.perf_counter() - started
        if rec:
            rec.close(root)
        ok = (
            _report_digest(report) == self.reference
            and len(report.found_numbers) == 15
            # the pool of this run must be gone before the next starts
            and not multiprocessing.active_children()
        )
        return Unit(
            wall=wall,
            work=len(report.trials),
            samples=[wall],
            attempted=1,
            failed=0 if ok else 1,
            traced=rec is not None,
            extra={"counts": _executor_counts(metrics)},
        )

    def layer_metrics(self, units: list[Unit], spans: list[Span]) -> dict:
        units = [unit for unit in units if unit.traced]
        runs = len(units)
        wall = sum(unit.wall for unit in units)
        execute = _total(spans, "execute")
        waits = _spans_named(spans, "pool.wait")
        # the drain window: first wait to last wait of each run; outside
        # it no shard is in flight, so that share of the wall is serial
        drain = 0.0
        for op in {span.op for span in waits}:
            mine = [span for span in waits if span.op == op]
            drain += max(s.end for s in mine) - min(s.start for s in mine)
        out = _executor_metrics(units, runs)
        out.update(
            {
                "execute_s": execute / runs,
                "unpack_s": _total(spans, "unpack") / runs,
                "pool_wait_frac": 1.0
                - out["trial_busy_s"] * runs / (MATRIX_JOBS * execute),
                "oracles_s": _total(spans, "all_failures") / runs,
                "classify_s": _total(spans, "classify_trials") / runs,
                "serial_frac": (wall - drain) / wall,
                "trials_per_sample": sum(u.work for u in units) / runs,
            }
        )
        return out


# -- campaign --------------------------------------------------------------


def _campaign_config(seed: int, batch: int = 16):
    """The ``repro campaign`` CLI defaults, at ``seed``."""
    from repro.fuzz import FuzzConfig

    return FuzzConfig(
        seed=seed,
        budget=batch,
        batch=batch,
        jobs=1,
        pool="auto",
        use_corpus=False,
        corpus="full",
        shrink=False,
        lanes=True,
    )


def _fresh_dir(workdir: str, prefix: str) -> str:
    """A new, empty directory: ``CampaignService`` silently resumes an
    existing checkpoint, which would run no batches at all."""
    index = 0
    while True:
        path = os.path.join(workdir, f"{prefix}-{index}")
        if not os.path.exists(path):
            os.makedirs(path)
            return path
        index += 1


def _run_campaign(config, baseline, directory, batches, **kwargs):
    from repro.campaign import CampaignService

    service = CampaignService(
        config,
        baseline,
        checkpoint_path=os.path.join(directory, "checkpoint.json"),
        fingerprints_path=os.path.join(directory, "fingerprints.jsonl"),
        ledger_path=os.path.join(directory, "ledger.jsonl"),
        max_batches=batches,
        **kwargs,
    )
    return asyncio.run(service.run())


def _file_sha(path: str) -> str:
    with open(path, "rb") as handle:
        return _sha256(handle.read())


class Campaign:
    name = "campaign"
    #: each set-up is a short warm-up campaign, so three fit one run
    setups = 3
    #: set-up already ran the campaign code paths
    warmups = 0
    #: the first campaign of a run fixes the reference, the second must
    #: reproduce it
    cycle = 2
    forks = False

    def __init__(
        self, batches: int = CAMPAIGN_BATCHES, min_samples: int = 48
    ) -> None:
        self.batches = batches
        self.min_samples = min_samples
        self.warmed = 0
        #: (fingerprint-JSONL sha256, novel keys) of the first campaign
        self.reference: tuple | None = None
        self.sizes: dict = {"batches": batches}

    def setup(self, seed: int, workdir: str) -> None:
        """Load the baseline and run a short warm-up campaign.

        The measured campaigns take ``seed``; the warm-up takes a seed
        of its own, so it warms the campaign code paths without fixing
        the reference. A set-up warm-up of the whole measured campaign
        would take half of every run.
        """
        from repro.fuzz import Baseline, default_baseline_path

        self.workdir = workdir
        self.baseline = Baseline.load(default_baseline_path())
        self.config = _campaign_config(seed)
        self.warmed += 1
        directory = _fresh_dir(workdir, "warmup")
        _run_campaign(
            _campaign_config(seed * 100 + self.warmed),
            self.baseline,
            directory,
            WARMUP_BATCHES,
        )
        shutil.rmtree(directory)

    def close(self) -> None:
        pass

    def patch(self, rec: Recorder) -> None:
        import repro.campaign.service as service
        import repro.crosstest.executor as executor
        import repro.fuzz.scheduler as scheduler
        from repro.crosstest.harness import Deployment
        from repro.fuzz.coverage import CoverageMap
        from repro.fuzz.dedup import Baseline

        def count_spans(span, args, kwargs, result):
            span.attrs["spans"] = sum(len(batch) for batch in result)

        def count_bytes(span, args, kwargs, result):
            span.attrs["bytes"] = os.path.getsize(args[0])

        generators = "fuzz.generators"
        rec.wrap(service, "run_round", "run_round", "fuzz.scheduler")
        rec.wrap(scheduler, "gen_conf", "gen_conf", generators)
        rec.wrap(scheduler, "gen_candidate", "gen_candidate", generators)
        rec.wrap(scheduler, "mutate", "mutate", generators)
        rec.wrap(scheduler, "execute", "execute", "crosstest.executor")
        rec.wrap(
            executor, "run_trial_on", "run_trial_on", "crosstest.harness"
        )
        rec.wrap(Deployment, "reset", "reset", "crosstest.harness")
        rec.wrap(
            executor.DeploymentPool, "lease", "lease", "crosstest.executor"
        )
        rec.wrap(
            executor.DeploymentPool, "release", "release",
            "crosstest.executor",
        )
        rec.wrap(executor.ShardResult, "pack", "pack", "crosstest.executor")
        rec.wrap(
            executor.ShardResult, "to_trials", "unpack", "crosstest.executor"
        )
        rec.wrap(
            executor.CrossTestMetrics, "record_shard", "record_shard",
            "crosstest.executor",
        )
        rec.wrap(
            executor, "encode_span_batches", "encode_span_batches",
            "tracing.export",
        )
        rec.wrap(
            executor, "decode_span_batches", "decode_span_batches",
            "tracing.export", on_result=count_spans,
        )
        coverage = "fuzz.coverage"
        rec.wrap(scheduler, "trial_features", "trial_features", coverage)
        rec.wrap(CoverageMap, "observe", "coverage.observe", coverage)
        rec.wrap(
            scheduler, "all_failures", "all_failures", "crosstest.oracles"
        )
        rec.wrap(
            scheduler, "run_fingerprints", "run_fingerprints",
            "crosstest.fingerprint",
        )
        rec.wrap(Baseline, "__contains__", "dedup", "crosstest.fingerprint")
        rec.wrap(
            scheduler, "found_discrepancies", "found_discrepancies",
            "crosstest.classify",
        )
        rec.wrap(
            scheduler.CampaignState, "to_json", "state.to_json",
            "fuzz.scheduler",
        )
        # the commit and its appends are private methods of the service;
        # wrapping them is the only way to see the ledger and fingerprint
        # writes without editing the program
        rec.wrap(
            service.CampaignService, "_commit", "commit", "campaign.service"
        )
        rec.wrap(
            service.CampaignService, "_append", "append", "campaign.service"
        )
        rec.wrap(
            service, "fingerprint_lines", "fingerprint_lines",
            "campaign.service",
        )
        rec.wrap(service, "campaign_record", "campaign_record", "obs.ledger")
        rec.wrap(service, "run_env", "run_env", "obs.ledger")
        rec.wrap(
            service, "save_checkpoint", "save_checkpoint",
            "campaign.checkpoint", on_result=count_bytes,
        )

    def run_once(self, rec: Recorder | None, index: int = 0) -> Unit:
        """Run the campaign in a fresh directory. The first campaign of
        the run fixes the reference; every later one must reproduce it.
        Novel keys are output, not failures; their count is recorded in
        ``sizes``."""
        import repro.campaign.service as service
        from repro.crosstest.executor import CrossTestMetrics

        config = self.config
        metrics = CrossTestMetrics(source="campaign")
        starts: list[float] = []
        round_ends: list[float] = []
        commits: list[float] = []
        run_round = service.run_round

        # batch boundaries, timed in every run: a batch starts when its
        # round starts and ends when its commit is durable (the progress
        # callback runs right after the commit)
        def timed_round(*args, **kwargs):
            starts.append(time.perf_counter())
            try:
                return run_round(*args, **kwargs)
            finally:
                round_ends.append(time.perf_counter())

        directory = _fresh_dir(self.workdir, "campaign")
        service.run_round = timed_round
        root = rec.begin_op("campaign") if rec else None
        started = time.perf_counter()
        try:
            summary = _run_campaign(
                config,
                self.baseline,
                directory,
                self.batches,
                metrics=metrics,
                progress=lambda _: commits.append(time.perf_counter()),
            )
        finally:
            wall = time.perf_counter() - started
            if rec:
                rec.close(root)
            service.run_round = run_round
        written = (
            _file_sha(os.path.join(directory, "fingerprints.jsonl")),
            list(summary.novel_keys),
        )
        if self.reference is None:
            self.reference = written
            self.sizes["trials"] = summary.trials
            self.sizes["novel_keys"] = len(summary.novel_keys)
        ok = (
            not summary.resumed
            and summary.batches_run == self.batches
            and written == self.reference
        )
        ledger_bytes = os.path.getsize(os.path.join(directory, "ledger.jsonl"))
        shutil.rmtree(directory)
        return Unit(
            wall=wall,
            work=summary.trials,
            samples=[end - start for start, end in zip(starts, commits)],
            attempted=1,
            failed=0 if ok else 1,
            traced=rec is not None,
            extra={
                "counts": _executor_counts(metrics),
                "commit": sum(c - e for e, c in zip(round_ends, commits)),
                "ledger_bytes": ledger_bytes,
            },
        )

    def layer_metrics(self, units: list[Unit], spans: list[Span]) -> dict:
        units = [unit for unit in units if unit.traced]
        batches = sum(len(unit.samples) for unit in units)
        trials = sum(unit.work for unit in units)
        checkpoints = _spans_named(spans, "save_checkpoint")
        out = _executor_metrics(units, batches)
        out.update(
            {
                "execute_s": _total(spans, "execute") / batches,
                "unpack_s": _total(spans, "unpack") / batches,
                "oracles_s": _total(spans, "all_failures") / batches,
                "classify_s": _total(spans, "found_discrepancies") / batches,
                "generate_s": _total(
                    spans, "gen_conf", "gen_candidate", "mutate"
                )
                / batches,
                "span_codec_s": _total(
                    spans, "encode_span_batches", "decode_span_batches"
                )
                / batches,
                "spans_per_trial": sum(
                    span.attrs.get("spans", 0)
                    for span in _spans_named(spans, "decode_span_batches")
                )
                / trials,
                "coverage_s": _total(
                    spans, "trial_features", "coverage.observe"
                )
                / batches,
                "fingerprint_s": _total(spans, "run_fingerprints", "dedup")
                / batches,
                "commit_s": sum(unit.extra["commit"] for unit in units)
                / batches,
                "checkpoint_s": _total(spans, "save_checkpoint") / batches,
                "checkpoint_bytes_written": sum(
                    span.attrs["bytes"] for span in checkpoints
                )
                / sum(unit.attempted for unit in units),
                "ledger_bytes_per_batch": sum(
                    unit.extra["ledger_bytes"] for unit in units
                )
                / batches,
                "trials_per_sample": trials / batches,
            }
        )
        return out


# -- obs -------------------------------------------------------------------


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@dataclass
class _Served:
    """One ledger behind its own server and client connection."""

    path: str
    server: object
    conn: http.client.HTTPConnection
    sizes: dict
    reference: dict = field(default_factory=dict)


class Obs:
    name = "obs"
    #: one ledger per set-up; the build time of a ledger depends on its
    #: seed, so the median of ``setup_s`` needs five of them
    setups = 5
    #: every unit polls every ledger
    cycle = 1
    #: the first round fixes the reference digests and imports analytics
    warmups = 1
    forks = False

    def __init__(self, items: int = OBS_ITEMS, min_samples: int = 24):
        self.items = items
        self.min_samples = min_samples
        self.served: list[_Served] = []

    @property
    def sizes(self) -> dict:
        return {
            key: [ledger.sizes[key] for ledger in self.served]
            for key in ("records", "bytes", "items")
        }

    def setup(self, seed: int, workdir: str) -> None:
        """Build one more ledger and serve it.

        Each set-up builds the ledger of the next sub-seed of ``seed``
        and every unit polls all of them, so one ledger's shape does not
        decide the run. A ledger holds one plain and one fault-injected
        smoke ``crosstest`` record, then the records of a seeded
        campaign (batch 1) that runs until the ledger holds ``items``
        distinct failure items. Clustering cost grows with the square of
        the item count, so ledgers are sized in items, not batches: a
        fixed batch count would let the seed alone move the read
        latencies by a factor of two. The records are then re-stamped
        across ``OBS_COMMITS`` commits and several days, so both the
        by-commit and the by-time partitions have more than one window.
        """
        from repro.campaign import CampaignService
        from repro.fuzz import Baseline, default_baseline_path
        from repro.obs import ObsServer, read_ledger, record_items

        directory = _fresh_dir(workdir, "obs")
        ledger = os.path.join(directory, "ledger.jsonl")
        for extra in ([], ["--faults", "smoke", "--fault-seed", "1337"]):
            code, _ = _quiet_cli(
                ["crosstest", "--corpus", "smoke", "--jobs", "1", "--quiet",
                 "--ledger", ledger, *extra]
            )
            if code != 0:
                raise RuntimeError(f"smoke crosstest {extra} exited {code}")
        items = {i for r in read_ledger(ledger) for i in record_items(r)}
        # the service stamps each batch twice (ledger record, checkpoint);
        # its records follow the two smoke records, one step apart
        ticks = itertools.count()
        service = CampaignService(
            _campaign_config(seed * 100 + len(self.served), batch=OBS_BATCH),
            Baseline.load(default_baseline_path()),
            checkpoint_path=os.path.join(directory, "checkpoint.json"),
            fingerprints_path=os.path.join(directory, "fingerprints.jsonl"),
            ledger_path=ledger,
            max_batches=OBS_MAX_BATCHES,
            clock=lambda: OBS_STAMP_BASE
            + (2 + next(ticks) / 2) * OBS_STAMP_STEP,
        )

        def progress(outcome) -> None:
            items.update(f"fp:{key}" for key in outcome.witnessed)
            if len(items) >= self.items:
                service.request_stop("items")

        service.progress = progress
        asyncio.run(service.run())
        records = read_ledger(ledger)
        for index, record in enumerate(records[:2]):
            record["ts"] = OBS_STAMP_BASE + index * OBS_STAMP_STEP
        for index, record in enumerate(records):
            record.setdefault("env", {})["git"] = {
                "commit": f"c{index * OBS_COMMITS // len(records)}"
            }
        with open(ledger, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        server = ObsServer(
            ledger_path=ledger,
            checkpoint_path=os.path.join(directory, "checkpoint.json"),
        ).start()
        host, port = server.address
        self.served.append(
            _Served(
                path=ledger,
                server=server,
                conn=http.client.HTTPConnection(
                    host, port, timeout=HTTP_TIMEOUT_S
                ),
                sizes={
                    "records": len(records),
                    "bytes": os.path.getsize(ledger),
                    "items": len(
                        {i for r in records for i in record_items(r)}
                    ),
                },
            )
        )

    def close(self) -> None:
        for served in self.served:
            served.conn.close()
            served.server.stop()

    def patch(self, rec: Recorder) -> None:
        import repro.analytics as analytics
        import repro.analytics.drift as drift
        import repro.analytics.windows as windows
        import repro.obs as obs
        import repro.obs.ledger as ledger
        import repro.obs.server as server

        read = "read_ledger"
        rec.wrap(server, "read_ledger_with_tail", read, "obs.ledger")
        rec.wrap(ledger, "read_ledger_with_tail", read, "obs.ledger")
        rec.wrap(obs, "check_schema", "check_schema", "obs.ledger")
        # whole-ledger clusterings: /clusters, the CLI, analytics, drift
        whole = "cluster_ledger"
        rec.wrap(server, "cluster_ledger", whole, "obs.cluster")
        rec.wrap(obs, "cluster_ledger", whole, "obs.cluster")
        rec.wrap(drift, "cluster_ledger", whole, "obs.cluster")
        rec.wrap(windows, "cluster_ledger", "window_cluster", "obs.cluster")
        rec.wrap(
            drift, "partition_ledger", "partition_ledger", "analytics.windows"
        )
        rec.wrap(
            drift, "cluster_evolution", "cluster_evolution",
            "analytics.windows",
        )
        rec.wrap(drift, "detect_drift", "detect_drift", "analytics.drift")
        rec.wrap(
            analytics, "analyze_ledger", "analyze_ledger", "analytics.drift"
        )
        rec.wrap(server.ObsServer, "payload", "payload", "obs.server")
        rec.wrap(
            server, "campaign_snapshot", "campaign_snapshot", "obs.server"
        )

    @staticmethod
    def _check(served: _Served, key: str, body: bytes) -> bool:
        digest = _sha256(body)
        return served.reference.setdefault(key, digest) == digest

    def _round(self, served: _Served, rec: Recorder | None):
        """Poll every endpoint once, then run ``repro status --json``."""
        failed = 0
        latencies: dict[str, float] = {}
        for path in OBS_ENDPOINTS:
            span = rec.open(f"GET {path}", "obs.server") if rec else None
            began = time.perf_counter()
            try:
                served.conn.request("GET", path)
                response = served.conn.getresponse()
                body = response.read()
                ok = response.status == 200 and self._check(served, path, body)
            except (OSError, http.client.HTTPException):
                ok = False
                served.conn.close()
            latencies[path] = time.perf_counter() - began
            if rec:
                rec.close(span)
            failed += not ok
        span = rec.open("status_cli", "cli") if rec else None
        began = time.perf_counter()
        code, out = _quiet_cli(["status", "--ledger", served.path, "--json"])
        latencies["status_cli"] = time.perf_counter() - began
        if rec:
            rec.close(span)
        failed += not (
            code == 0 and self._check(served, "cli", out.encode("utf-8"))
        )
        return latencies, failed

    def run_once(self, rec: Recorder | None, index: int = 0) -> Unit:
        root = rec.begin_op("poll") if rec else None
        samples, latencies, failed = [], [], 0
        started = time.perf_counter()
        for served in self.served:
            began = time.perf_counter()
            round_latencies, round_failed = self._round(served, rec)
            samples.append(time.perf_counter() - began)
            latencies.append(round_latencies)
            failed += round_failed
        wall = time.perf_counter() - started
        if rec:
            rec.close(root)
        requests = len(self.served) * (len(OBS_ENDPOINTS) + 1)
        return Unit(
            wall=wall,
            work=requests,
            samples=samples,
            attempted=requests,
            failed=failed,
            traced=rec is not None,
            extra={"latencies": latencies},
        )

    def layer_metrics(self, units: list[Unit], spans: list[Span]) -> dict:
        # per-endpoint latencies come from the untraced rounds
        plain = [
            latencies
            for unit in units
            if not unit.traced
            for latencies in unit.extra["latencies"]
        ]
        rounds = sum(len(unit.samples) for unit in units if unit.traced)
        by_id = {span.span_id: span for span in spans}

        def under(span: Span, name: str) -> bool:
            while span.parent is not None:
                span = by_id[span.parent]
                if span.name == name:
                    return True
            return False

        wholes = _spans_named(spans, "cluster_ledger")
        analyses = _spans_named(spans, "analyze_ledger")
        encode = 0.0
        for request in spans:
            if request.name.startswith("GET "):
                encode += (request.end - request.start) - sum(
                    s.end - s.start
                    for s in spans
                    if s.name == "payload" and s.parent == request.span_id
                )
        sizes = self.sizes
        return {
            "read_ledger_s": _total(spans, "read_ledger") / rounds,
            "cluster_s": _total(spans, "cluster_ledger") / len(wholes),
            "cluster_calls_per_analytics": sum(
                under(span, "analyze_ledger") for span in wholes
            )
            / len(analyses),
            "window_cluster_s": _total(spans, "window_cluster") / rounds,
            "partition_s": _total(spans, "partition_ledger") / rounds,
            "drift_s": _total(spans, "detect_drift") / rounds,
            "evolution_s": _total(spans, "cluster_evolution") / rounds,
            "encode_s": encode / rounds,
            "ledger.items": statistics.mean(sizes["items"]),
            "ledger.records": statistics.mean(sizes["records"]),
            "ledger.bytes": statistics.mean(sizes["bytes"]),
            **{
                f"obs.{key}_s.p50": statistics.median(
                    latencies[path] for latencies in plain
                )
                for key, path in (
                    ("clusters", "/clusters"),
                    ("analytics", "/analytics"),
                    ("ledger", "/ledger"),
                    ("status_cli", "status_cli"),
                )
            },
        }


WORKLOADS = {"matrix": Matrix, "campaign": Campaign, "obs": Obs}
