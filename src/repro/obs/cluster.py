"""Co-occurrence analytics over the campaign ledger.

PAPERS.md's "Systemic Flakiness" study found that co-occurring test
failures cluster into a small number of shared root causes, and
"Cross-Project Flakiness" showed those clusters cross project
boundaries — exactly the cross-seam grouping a CSI campaign needs:
counting a Spark↔Hive timestamp discrepancy and the metastore fault it
keeps failing next to as *independent* signals hides their shared
mechanism.

This module groups the ledger's failure items — discrepancy
fingerprints and mis-handled fault sites — by how often they fail in
the *same runs*: Jaccard similarity over each item's run set, then
single-linkage agglomeration above a threshold. Per cluster it reports
flake rate (fraction of ledger runs the cluster failed in), first/last
seen (ledger timestamps), and seam attribution derived from the
fingerprint mechanism (:mod:`repro.crosstest.fingerprint` key fields)
or the fault site.

The linkage runs over *distinct run sets*, not over items. Each item's
run set is an int bitmask (bit ``i`` = canonical run ``i``), and items
with an identical bitmask form one group: their Jaccard is 1.0, at or
above every legal threshold, so single linkage always puts them in one
cluster. Only the groups are compared pairwise, each pair by one AND
and a popcount, with the same float quotient :func:`jaccard` computes.
The clusters are therefore exactly those of all-pairs item linkage
(pinned against that reference by tests). The saving grows with how
many items share a run set: the ~500-item campaign ledgers the
benchmark builds have 11-16 distinct run sets.

Everything is order-independent: records are canonically re-ordered
before run indices are assigned, a cluster is a connected component
(whichever node the union-find picks as its root), and members and
clusters are emitted sorted — shuffling the ledger lines yields
byte-identical clusters (pinned by tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "Cluster",
    "record_items",
    "item_seam",
    "jaccard",
    "canonical_order",
    "cluster_ledger",
]

#: fingerprint plan-group -> the seam the mechanism lives on
_GROUP_SEAMS = {
    "spark_e2e": "spark<->spark",
    "spark_hive": "spark->hive",
    "hive_spark": "hive->spark",
}

#: below this Jaccard similarity two items are unrelated. 0.5 means
#: "they fail together in at least half of the runs either fails in" —
#: loose enough that two smoke runs already link identical-run-set
#: items (J=1.0), tight enough that an item failing in every run does
#: not absorb one that failed once.
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class Cluster:
    """One co-occurrence cluster of failure items."""

    #: sorted item labels (``fp:<fingerprint key>`` /
    #: ``fault:<site>/<operation>:<mode>``)
    members: tuple[str, ...]
    #: canonical-order run indices in which any member failed
    runs: tuple[int, ...]
    #: ``len(runs) / total ledger runs``
    flake_rate: float
    #: ledger ``ts`` bounds over the cluster's runs
    first_seen: float
    last_seen: float
    #: distinct seams the members' mechanisms cross, sorted
    seams: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "runs": list(self.runs),
            "flake_rate": self.flake_rate,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "seams": list(self.seams),
        }


def record_items(record: dict) -> tuple[str, ...]:
    """The failure items one ledger record contributes, sorted.

    Discrepancy fingerprints become ``fp:<key>``; each mis-handled
    fault site becomes ``fault:<site>/<operation>:<mode>`` — the two
    item families the paper's cracks span, in one co-occurrence space.
    """
    results = record.get("results", {})
    items = {f"fp:{key}" for key in results.get("fingerprints", ())}
    faults = results.get("faults") or {}
    for entry in faults.get("mis_handled", ()):
        mode = entry.get("mode", "")
        for site in entry.get("sites", ()):
            items.add(f"fault:{site}:{mode}")
    return tuple(sorted(items))


def item_seam(item: str) -> str:
    """Which cross-system seam a failure item lives on.

    Fingerprint items carry their plan group in the second ``|`` field
    of the key (see :class:`~repro.crosstest.fingerprint.Fingerprint`);
    fault items carry the boundary site verbatim (``spark->metastore``
    and friends).
    """
    if item.startswith("fp:"):
        fields = item[len("fp:") :].split("|")
        group = fields[1] if len(fields) > 1 else ""
        return _GROUP_SEAMS.get(group, group or "unknown")
    if item.startswith("fault:"):
        site = item[len("fault:") :]
        site = site.split("/", 1)[0]
        return site or "unknown"
    return "unknown"


def jaccard(left: set[int], right: set[int]) -> float:
    """``|A ∩ B| / |A ∪ B|`` — 1.0 means "always fail together"."""
    if not left and not right:
        return 0.0
    union = left | right
    return len(left & right) / len(union)


def canonical_order(records: list[dict]) -> list[dict]:
    """Records in a content-determined order, so run indices (and with
    them the whole clustering output) cannot depend on how the ledger
    lines happened to be concatenated. Shared with
    :mod:`repro.analytics.windows`, whose window boundaries must be
    equally immune to ledger-line shuffling."""
    from repro.obs.ledger import canonical_record

    return sorted(
        records,
        key=lambda record: (
            record.get("ts", 0.0),
            json.dumps(canonical_record(record), sort_keys=True),
        ),
    )


def cluster_ledger(
    records: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Cluster]:
    """Group the ledger's failure items into co-occurrence clusters.

    Single-linkage agglomeration: items whose run sets overlap with
    Jaccard ≥ ``threshold`` merge transitively. Output is sorted
    largest cluster first (ties by first member), members sorted within
    each cluster.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    ordered = canonical_order(records)
    total = len(ordered)
    if not total:
        return []
    # run set of each item as a bitmask: bit i = canonical run i
    item_runs: dict[str, int] = {}
    for index, record in enumerate(ordered):
        bit = 1 << index
        for item in record_items(record):
            item_runs[item] = item_runs.get(item, 0) | bit
    # items with one run set have J = 1.0 >= threshold: always together
    groups: dict[int, list[str]] = {}
    for item, runs in item_runs.items():
        groups.setdefault(runs, []).append(item)
    masks = list(groups)
    sizes = [mask.bit_count() for mask in masks]

    parent = list(range(len(masks)))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for left, left_mask in enumerate(masks):
        left_size = sizes[left]
        for right in range(left + 1, len(masks)):
            inter = (left_mask & masks[right]).bit_count()
            # the same float as jaccard(): inter / |A ∪ B|, compared
            # as a quotient — `inter >= threshold * union` rounds
            # differently (7/25 >= 0.28, but 7 < 0.28 * 25)
            if inter / (left_size + sizes[right] - inter) >= threshold:
                parent[find(right)] = find(left)

    components: dict[int, list[int]] = {}
    for node in range(len(masks)):
        components.setdefault(find(node), []).append(node)

    timestamps = [record.get("ts", 0.0) for record in ordered]
    clusters: list[Cluster] = []
    for nodes in components.values():
        members = sorted(
            item for node in nodes for item in groups[masks[node]]
        )
        union = 0
        for node in nodes:
            union |= masks[node]
        runs = _bit_indices(union)
        run_times = [timestamps[index] for index in runs]
        clusters.append(
            Cluster(
                members=tuple(members),
                runs=runs,
                flake_rate=len(runs) / total,
                first_seen=min(run_times),
                last_seen=max(run_times),
                seams=tuple(
                    sorted({item_seam(member) for member in members})
                ),
            )
        )
    clusters.sort(key=lambda cluster: (-len(cluster.members), cluster.members))
    return clusters


def _bit_indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(indices)
