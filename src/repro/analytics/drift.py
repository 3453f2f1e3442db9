"""Cluster drift detection across ledger windows.

A failure cluster whose flake rate *moves* at a commit boundary is the
regression (or silent fix) signal a perpetual campaign exists to catch:
the OpenStack cross-project study in PAPERS.md found exactly these
cross-boundary rate shifts to be the flakiness events worth alarming
on. This module computes them.

Cluster identity is established **globally** — one clustering over the
whole ledger (:func:`repro.obs.cluster.cluster_ledger`), so a cluster
keeps its identity across windows even if it fails in only one of them
— and then each cluster's occurrence rate is measured per window as
"fraction of the window's runs in which any member failed". Adjacent
windows whose rates differ by at least ``min_delta`` produce a
:class:`ClusterDrift` flag with direction, both rates, and the seam
attribution the global cluster already carries.

Determinism: windows come from :mod:`repro.analytics.windows` (canonical
record order) and clusters from ``cluster_ledger`` (order-free), so the
full report is shuffle-order independent (pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analytics.windows import (
    DEFAULT_WINDOW_SECONDS,
    EvolutionEvent,
    Window,
    cluster_evolution,
    partition_ledger,
)
from repro.obs.cluster import DEFAULT_THRESHOLD, Cluster, cluster_ledger

__all__ = [
    "DEFAULT_MIN_DELTA",
    "ClusterDrift",
    "AnalyticsReport",
    "detect_drift",
    "analyze_ledger",
]

#: below this rate change between adjacent windows a cluster is stable.
#: 0.25 means "a quarter of the window's runs changed verdict" — big
#: enough to ignore single-run noise in small windows, small enough to
#: flag a cluster going from occasional to persistent.
DEFAULT_MIN_DELTA = 0.25


@dataclass(frozen=True)
class ClusterDrift:
    """One cluster whose occurrence rate moved across a window boundary."""

    #: sorted members of the (globally identified) cluster
    cluster: tuple[str, ...]
    #: seam attribution inherited from the global cluster
    seams: tuple[str, ...]
    #: labels of the (before, after) windows
    boundary: tuple[str, str]
    before_rate: float
    after_rate: float
    #: ``"regressed"`` (rate went up) or ``"recovered"`` (went down)
    direction: str

    @property
    def delta(self) -> float:
        return self.after_rate - self.before_rate

    def to_json(self) -> dict:
        return {
            "cluster": list(self.cluster),
            "seams": list(self.seams),
            "boundary": list(self.boundary),
            "before_rate": self.before_rate,
            "after_rate": self.after_rate,
            "delta": self.delta,
            "direction": self.direction,
        }


def detect_drift(
    records: list[dict],
    *,
    by: str = "commit",
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    threshold: float = DEFAULT_THRESHOLD,
    min_delta: float = DEFAULT_MIN_DELTA,
) -> list[ClusterDrift]:
    """Flag clusters whose per-window rate shifts beyond ``min_delta``.

    Output order is deterministic: boundary position, then descending
    absolute delta, then member tuple.
    """
    if not 0.0 < min_delta <= 1.0:
        raise ValueError(f"min_delta must be in (0, 1], got {min_delta}")
    windows = partition_ledger(
        records, by=by, window_seconds=window_seconds
    )
    if len(windows) < 2:
        return []
    clusters = cluster_ledger(records, threshold=threshold)
    return _window_drifts(windows, clusters, min_delta)


def _window_drifts(
    windows: list[Window], clusters: list[Cluster], min_delta: float
) -> list[ClusterDrift]:
    """The drift flags of already-computed windows and global clusters,
    so one analysis partitions and clusters the ledger once."""
    drifts: list[ClusterDrift] = []
    for index in range(1, len(windows)):
        before, after = windows[index - 1], windows[index]
        boundary_flags: list[ClusterDrift] = []
        for cluster in clusters:
            before_rate = before.item_rate(cluster.members)
            after_rate = after.item_rate(cluster.members)
            delta = after_rate - before_rate
            if abs(delta) < min_delta:
                continue
            boundary_flags.append(
                ClusterDrift(
                    cluster=cluster.members,
                    seams=cluster.seams,
                    boundary=(before.label, after.label),
                    before_rate=before_rate,
                    after_rate=after_rate,
                    direction="regressed" if delta > 0 else "recovered",
                )
            )
        boundary_flags.sort(
            key=lambda drift: (-abs(drift.delta), drift.cluster)
        )
        drifts.extend(boundary_flags)
    return drifts


@dataclass(frozen=True)
class AnalyticsReport:
    """Everything ``repro analyze`` (and ``/analytics``) reports."""

    #: how the ledger was windowed: ``"commit"`` or ``"time"``
    by: str
    windows: tuple[Window, ...]
    clusters: tuple[Cluster, ...]
    drifts: tuple[ClusterDrift, ...]
    evolution: tuple[EvolutionEvent, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "by": self.by,
            "windows": [window.to_json() for window in self.windows],
            "clusters": [cluster.to_json() for cluster in self.clusters],
            "drifts": [drift.to_json() for drift in self.drifts],
            "evolution": [event.to_json() for event in self.evolution],
        }


def analyze_ledger(
    records: list[dict],
    *,
    by: str = "commit",
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    threshold: float = DEFAULT_THRESHOLD,
    min_delta: float = DEFAULT_MIN_DELTA,
) -> AnalyticsReport:
    """One-stop analysis: windows, global clusters, drift, evolution."""
    if not 0.0 < min_delta <= 1.0:
        raise ValueError(f"min_delta must be in (0, 1], got {min_delta}")
    windows = partition_ledger(
        records, by=by, window_seconds=window_seconds
    )
    clusters = cluster_ledger(records, threshold=threshold)
    return AnalyticsReport(
        by=by,
        windows=tuple(windows),
        clusters=tuple(clusters),
        drifts=tuple(_window_drifts(windows, clusters, min_delta)),
        evolution=tuple(cluster_evolution(windows, threshold=threshold)),
    )
