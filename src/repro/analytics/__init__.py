"""Analytics over the perpetual campaign ledger.

:mod:`repro.obs` records what every run saw; this package answers what
the *sequence* of runs means: which failure clusters changed behaviour
at a commit boundary (:mod:`~repro.analytics.drift`), how clusters are
born, die, merge and split across ledger windows
(:mod:`~repro.analytics.windows`), and what exactly a nightly exit-4
novelty is — walked from checkpoint provenance to a shrunk witness and
a ready-to-commit baseline delta (:mod:`~repro.analytics.triage`).

Surfaces: ``repro analyze`` / ``repro triage`` on the CLI, the
``/analytics`` endpoint on the status server, and the
``analytics-smoke`` CI gate (:mod:`~repro.analytics.smoke`).
"""

from repro.analytics.drift import (
    DEFAULT_MIN_DELTA,
    AnalyticsReport,
    ClusterDrift,
    analyze_ledger,
    detect_drift,
)
from repro.analytics.triage import (
    TriagedFinding,
    TriageReport,
    triage_checkpoint,
    write_triage,
)
from repro.analytics.windows import (
    DEFAULT_WINDOW_SECONDS,
    EvolutionEvent,
    Window,
    cluster_evolution,
    cluster_windows,
    commit_windows,
    partition_ledger,
    record_commit,
    time_windows,
)

__all__ = [
    "DEFAULT_MIN_DELTA",
    "DEFAULT_WINDOW_SECONDS",
    "AnalyticsReport",
    "ClusterDrift",
    "EvolutionEvent",
    "TriageReport",
    "TriagedFinding",
    "Window",
    "analyze_ledger",
    "cluster_evolution",
    "cluster_windows",
    "commit_windows",
    "detect_drift",
    "partition_ledger",
    "record_commit",
    "time_windows",
    "triage_checkpoint",
    "write_triage",
]
