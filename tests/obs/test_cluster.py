"""Tests for the co-occurrence analytics over the ledger."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Cluster,
    canonical_record,
    cluster_ledger,
    item_seam,
    jaccard,
    record_items,
)
from repro.obs.cluster import canonical_order


def _record(ts, fingerprints=(), mis_handled=(), kind="crosstest"):
    return {
        "schema_version": 1,
        "kind": kind,
        "ts": ts,
        "run": {},
        "results": {
            "trials": 10,
            "fingerprints": list(fingerprints),
            "faults": {"mis_handled": list(mis_handled)}
            if mis_handled
            else None,
        },
        "env": {"wall_s": ts * 7},  # volatile; must not affect clustering
    }


FP_CAST = "cast|spark_hive|parquet|w_df_r_hive|tinyint|ok<>error|"
FP_TS = "difft|spark_hive|orc|w_df_r_hive|timestamp|drift|"
FP_E2E = "difft|spark_e2e|avro|w_df_r_df|char|pad|"
FAULT = {
    "trial": "t1",
    "mode": "wrong-results",
    "sites": ["spark->metastore/alter_table"],
}


class TestItems:
    def test_record_items_spans_both_families(self):
        record = _record(1.0, [FP_CAST], [FAULT])
        items = record_items(record)
        assert f"fp:{FP_CAST}" in items
        assert (
            "fault:spark->metastore/alter_table:wrong-results" in items
        )
        assert items == tuple(sorted(items))

    def test_fingerprint_seam_from_plan_group(self):
        assert item_seam(f"fp:{FP_CAST}") == "spark->hive"
        assert item_seam(f"fp:{FP_E2E}") == "spark<->spark"

    def test_fault_seam_is_the_site_boundary(self):
        assert (
            item_seam("fault:spark->metastore/alter_table:wrong-results")
            == "spark->metastore"
        )

    def test_unknown_items_degrade_gracefully(self):
        assert item_seam("fp:short") == "unknown"
        assert item_seam("garbage") == "unknown"


class TestJaccard:
    def test_always_together_is_one(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint_is_zero(self):
        assert jaccard({1}, {2}) == 0.0

    def test_empty_sets_are_unrelated(self):
        assert jaccard(set(), set()) == 0.0


class TestClustering:
    def test_co_occurring_items_cluster_with_flake_rate(self):
        # CAST and TS fail together in runs 0 and 1; E2E only in run 2
        records = [
            _record(1.0, [FP_CAST, FP_TS]),
            _record(2.0, [FP_CAST, FP_TS]),
            _record(3.0, [FP_E2E]),
        ]
        clusters = cluster_ledger(records)
        assert len(clusters) == 2
        big, small = clusters
        assert big.members == (f"fp:{FP_CAST}", f"fp:{FP_TS}")
        assert big.flake_rate == pytest.approx(2 / 3)
        assert big.runs == (0, 1)
        assert big.first_seen == 1.0 and big.last_seen == 2.0
        assert big.seams == ("spark->hive",)
        assert small.members == (f"fp:{FP_E2E}",)
        assert small.flake_rate == pytest.approx(1 / 3)
        assert small.seams == ("spark<->spark",)

    def test_faults_and_fingerprints_share_clusters(self):
        records = [
            _record(1.0, [FP_TS], [FAULT]),
            _record(2.0, [FP_TS], [FAULT]),
        ]
        (cluster,) = cluster_ledger(records)
        assert cluster.members == (
            "fault:spark->metastore/alter_table:wrong-results",
            f"fp:{FP_TS}",
        )
        assert cluster.seams == ("spark->hive", "spark->metastore")
        assert cluster.flake_rate == 1.0

    def test_threshold_splits_weak_links(self):
        # CAST fails in every run, TS in one of three: J = 1/3
        records = [
            _record(1.0, [FP_CAST, FP_TS]),
            _record(2.0, [FP_CAST]),
            _record(3.0, [FP_CAST]),
        ]
        assert len(cluster_ledger(records, threshold=0.5)) == 2
        assert len(cluster_ledger(records, threshold=0.3)) == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            cluster_ledger([], threshold=0.0)
        with pytest.raises(ValueError):
            cluster_ledger([], threshold=1.5)

    def test_empty_ledger_yields_no_clusters(self):
        assert cluster_ledger([]) == []

    def test_clusters_ignore_env(self):
        record = _record(1.0, [FP_CAST])
        stripped = {
            key: value for key, value in record.items() if key != "env"
        }
        assert cluster_ledger([record]) == cluster_ledger([stripped])

    def test_canonical_records_cluster_identically_sans_timeline(self):
        # canonical_record strips ts too (it is volatile across a
        # kill/resume); membership and seams must be unaffected — only
        # the first/last-seen timeline collapses to the default
        record = _record(1.0, [FP_CAST])
        stripped = canonical_record(record)
        assert "env" not in stripped and "ts" not in stripped
        (full,) = cluster_ledger([record])
        (canon,) = cluster_ledger([stripped])
        assert canon.members == full.members
        assert canon.seams == full.seams
        assert canon.flake_rate == full.flake_rate


class TestOrderIndependence:
    def test_shuffled_ledger_yields_identical_clusters(self):
        records = [
            _record(1.0, [FP_CAST, FP_TS]),
            _record(2.0, [FP_CAST, FP_TS], [FAULT]),
            _record(3.0, [FP_E2E]),
            _record(4.0, [FP_E2E, FP_CAST]),
            _record(5.0, [], [FAULT]),
        ]
        baseline = cluster_ledger(records)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(records)
            rng.shuffle(shuffled)
            assert cluster_ledger(shuffled) == baseline


def _all_pairs_reference(records, threshold):
    """Single linkage over every item pair with ``set`` Jaccard — the
    straightforward algorithm ``cluster_ledger`` must reproduce."""
    ordered = canonical_order(records)
    item_runs = {}
    for index, record in enumerate(ordered):
        for item in record_items(record):
            item_runs.setdefault(item, set()).add(index)
    items = sorted(item_runs)
    parent = {item: item for item in items}

    def find(item):
        while parent[item] != item:
            item = parent[item]
        return item

    for position, left in enumerate(items):
        for right in items[position + 1 :]:
            if jaccard(item_runs[left], item_runs[right]) >= threshold:
                parent[find(right)] = find(left)
    groups = {}
    for item in items:
        groups.setdefault(find(item), []).append(item)
    timestamps = [record.get("ts", 0.0) for record in ordered]
    clusters = []
    for members in groups.values():
        runs = sorted(set().union(*(item_runs[m] for m in members)))
        clusters.append(
            Cluster(
                members=tuple(sorted(members)),
                runs=tuple(runs),
                flake_rate=len(runs) / len(ordered),
                first_seen=min(timestamps[index] for index in runs),
                last_seen=max(timestamps[index] for index in runs),
                seams=tuple(sorted({item_seam(m) for m in members})),
            )
        )
    clusters.sort(key=lambda cluster: (-len(cluster.members), cluster.members))
    return [cluster.to_json() for cluster in clusters]


FAULT_SITES = (
    "spark->metastore/alter_table",
    "hive->hdfs/write",
    "spark->hdfs/rename",
)
FAULT_MODES = ("wrong-results", "crash")

_records = st.lists(
    st.builds(
        lambda ts, fingerprints, faults: _record(
            ts,
            fingerprints,
            [
                {"trial": "t", "mode": mode, "sites": [site]}
                for site, mode in faults
            ],
        ),
        st.sampled_from((1.0, 2.0, 3.0, 4.0)),
        st.lists(st.sampled_from((FP_CAST, FP_TS, FP_E2E)), unique=True),
        st.lists(
            st.tuples(
                st.sampled_from(FAULT_SITES), st.sampled_from(FAULT_MODES)
            ),
            max_size=3,
        ),
    ),
    max_size=30,
)


class TestAllPairsReference:
    @settings(max_examples=200, deadline=None)
    @given(
        records=_records,
        threshold=st.sampled_from(
            (0.1, 0.25, 0.28, 0.3, 1 / 3, 0.5, 0.56, 2 / 3, 0.75, 1.0)
        ),
    )
    def test_matches_all_pairs_reference(self, records, threshold):
        clusters = cluster_ledger(records, threshold=threshold)
        assert [cluster.to_json() for cluster in clusters] == (
            _all_pairs_reference(records, threshold)
        )

    @pytest.mark.parametrize(
        "shared, runs, threshold", [(3, 10, 0.3), (7, 25, 0.28)]
    )
    def test_jaccard_exactly_at_threshold_links(
        self, shared, runs, threshold
    ):
        # CAST fails in every run, TS in `shared` of them: J is exactly
        # the threshold. 7/25 >= 0.28 holds but 7 >= 0.28 * 25 does
        # not, so the test must stay a quotient.
        records = [
            _record(float(index), [FP_CAST, FP_TS]) for index in range(shared)
        ] + [
            _record(float(index), [FP_CAST]) for index in range(shared, runs)
        ]
        assert jaccard(set(range(shared)), set(range(runs))) == threshold
        (cluster,) = cluster_ledger(records, threshold=threshold)
        assert cluster.members == (f"fp:{FP_CAST}", f"fp:{FP_TS}")
        assert [cluster.to_json()] == _all_pairs_reference(
            records, threshold
        )
