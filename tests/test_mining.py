"""Pattern mining over pair keys and their decided label matrix:
canonical keys, distinct-report counting, category labeling, and export
formats."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import ttpmine
from helpers import label_sets
from oracles import mine_oracle
from ttpmine.labels import (
    ALL_LABELS,
    BEFORE,
    CONCURRENT,
    NULL,
    POSITIVE_LABELS,
    SIMULTANEOUS_OVERLAP,
    SYMMETRIC_LABELS,
    label_matrix,
)
from ttpmine.mining import (
    UNCATEGORIZED,
    CategoryMap,
    TemporalPattern,
    canonical_key,
    categorize,
    PACKAGED_CATEGORIES,
    export,
    mine,
)
from ttpmine.pipeline import PipelineError, load_categories


def _rows(*rows):
    """`mine`'s pair keys and aligned label matrix, from
    `(report_id, tx, ty, labels)` rows."""
    return [row[:3] for row in rows], label_matrix(row[3] for row in rows)


class TestCanonicalKey:
    def test_before_keeps_direction(self):
        assert canonical_key("T1566", "T1204", BEFORE) == ("T1566", "T1204", BEFORE)
        assert canonical_key("T1204", "T1566", BEFORE) == ("T1204", "T1566", BEFORE)

    def test_symmetric_relations_sort_pair(self):
        for relation in SYMMETRIC_LABELS:
            assert canonical_key("T1566", "T1204", relation) == (
                "T1204",
                "T1566",
                relation,
            )
            assert canonical_key("T1204", "T1566", relation) == (
                "T1204",
                "T1566",
                relation,
            )

    def test_symmetric_label_set(self):
        assert SYMMETRIC_LABELS == frozenset({SIMULTANEOUS_OVERLAP, CONCURRENT})


class TestMine:
    def test_distinct_report_counting(self):
        keys, labels = _rows(
            ("r1", "T1566", "T1204", {BEFORE}),
            ("r1", "T1566", "T1204", {BEFORE}),
            ("r2", "T1566", "T1204", {BEFORE}),
            ("r3", "T1003", "T1078", {BEFORE}),
        )
        patterns = mine(keys, labels, n=2)
        assert len(patterns) == 1
        p = patterns[0]
        assert (p.tx, p.ty, p.relation) == ("T1566", "T1204", BEFORE)
        assert p.count == 2  # duplicate prediction in r1 counts once
        assert p.report_ids == frozenset({"r1", "r2"})

    def test_null_never_mined(self):
        keys, labels = _rows(
            ("r1", "T1566", "T1204", {NULL}),
            ("r2", "T1566", "T1204", {NULL}),
        )
        assert mine(keys, labels, n=1) == []

    def test_multilabel_prediction_feeds_each_relation(self):
        keys, labels = _rows(
            ("r1", "T1566", "T1204", {BEFORE, CONCURRENT}),
            ("r2", "T1566", "T1204", {BEFORE, CONCURRENT}),
        )
        relations = {p.relation for p in mine(keys, labels, n=2)}
        assert relations == {BEFORE, CONCURRENT}

    def test_symmetric_mirrors_count_as_one_pattern(self):
        keys, labels = _rows(
            ("r1", "T1566", "T1204", {CONCURRENT}),
            ("r2", "T1204", "T1566", {CONCURRENT}),
        )
        patterns = mine(keys, labels, n=2)
        assert len(patterns) == 1
        assert (patterns[0].tx, patterns[0].ty) == ("T1204", "T1566")
        assert patterns[0].count == 2

    def test_before_mirrors_stay_distinct(self):
        keys, labels = _rows(
            ("r1", "T1566", "T1204", {BEFORE}),
            ("r2", "T1204", "T1566", {BEFORE}),
        )
        assert mine(keys, labels, n=2) == []
        assert len(mine(keys, labels, n=1)) == 2

    def test_sort_order(self):
        keys, labels = _rows(
            *(
                (rid, tx, ty, {relation})
                for rid in ("r1", "r2")
                for tx, ty, relation in (
                    ("T1566", "T1204", BEFORE),
                    ("T1003", "T1078", BEFORE),
                    ("T1059", "T1105", CONCURRENT),
                )
            ),
            ("r3", "T1566", "T1204", {BEFORE}),
        )
        patterns = mine(keys, labels, n=2)
        assert [(p.tx, p.ty, p.relation, p.count) for p in patterns] == [
            ("T1566", "T1204", BEFORE, 3),
            ("T1003", "T1078", BEFORE, 2),
            ("T1059", "T1105", CONCURRENT, 2),
        ]

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            mine([], [], n=0)

    def test_empty_predictions(self):
        assert mine([], label_matrix([]), n=1) == []

    def test_rows_must_align(self):
        keys, labels = _rows(("r1", "T1566", "T1204", {BEFORE}))
        with pytest.raises(ValueError, match="^1 keys vs 2 label rows$"):
            mine(keys, np.vstack([labels, labels]), n=1)
        with pytest.raises(ValueError, match="^2 keys vs 1 label rows$"):
            mine(keys + keys, labels, n=1)

    def _random_rows(self, rng):
        """Seeded rows over six techniques; about a third of the rows
        with a symmetric label also get their reversed pair in another
        report."""
        techniques = [f"T{1000 + k}" for k in range(6)]
        rows = []
        n_reports = int(rng.integers(2, 8))
        for r in range(n_reports):
            for _ in range(int(rng.integers(0, 10))):
                tx, ty = (str(t) for t in rng.choice(techniques, size=2, replace=False))
                labels = frozenset(
                    lab for lab in POSITIVE_LABELS if rng.random() < 0.35
                ) or frozenset({NULL})
                rows.append((f"r{r:02d}", tx, ty, labels))
                if labels & SYMMETRIC_LABELS and rng.random() < 0.35:
                    other = f"r{int(rng.integers(0, n_reports)):02d}"
                    rows.append((other, ty, tx, labels & SYMMETRIC_LABELS))
        return _rows(*rows)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(20260822)
        reversed_symmetric = 0
        for _ in range(100):
            keys, labels = self._random_rows(rng)
            n = int(rng.integers(1, 4))
            patterns = mine(keys, labels, n)
            got = {(p.tx, p.ty, p.relation): p.report_ids for p in patterns}
            want = {
                key: frozenset(ids)
                for key, ids in mine_oracle(keys, label_sets(labels), n).items()
            }
            assert got == want
            counts = [p.count for p in patterns]
            assert counts == sorted(counts, reverse=True)
            reversed_symmetric += sum(
                1 for (_, tx, ty), labs in zip(keys, label_sets(labels))
                if ty < tx and labs & SYMMETRIC_LABELS
            )
        assert reversed_symmetric > 50

    def test_seeded_matrices_match_oracle(self):
        # Any boolean matrix, NULL beside positive labels too: `mine`
        # reads only the positive columns, as the oracle skips NULL.
        rng = np.random.default_rng(37)
        techniques = [f"T{1000 + k}" for k in range(5)]
        mined = 0
        for _ in range(200):
            n_rows = int(rng.integers(0, 40))
            keys = []
            for _ in range(n_rows):
                tx, ty = map(str, rng.choice(techniques, size=2, replace=False))
                keys.append((f"r{int(rng.integers(0, 6))}", tx, ty))
            labels = rng.random((n_rows, len(ALL_LABELS))) < rng.uniform(0.1, 0.6)
            n = int(rng.integers(1, 4))
            got = {(p.tx, p.ty, p.relation): p.report_ids for p in mine(keys, labels, n)}
            want = mine_oracle(keys, label_sets(labels), n)
            assert got == {key: frozenset(ids) for key, ids in want.items()}
            mined += len(got)
        assert mined > 1000

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            keys, labels = self._random_rows(rng)
            previous = None
            for n in range(1, 6):
                found = {(p.tx, p.ty, p.relation) for p in mine(keys, labels, n)}
                if previous is not None:
                    assert found <= previous
                previous = found


class TestCategorize:
    def _map(self):
        return CategoryMap(
            categories=("Baiting towards malicious execution",),
            entries={
                ("T1566", "T1204", BEFORE): "Baiting towards malicious execution"
            },
        )

    def test_lookup_attached(self):
        patterns = [
            TemporalPattern("T1566", "T1204", BEFORE, 2, frozenset({"r1", "r2"}))
        ]
        out = categorize(patterns, self._map())
        assert out[0].category == "Baiting towards malicious execution"

    def test_unmapped_gets_explicit_label(self):
        patterns = [TemporalPattern("T1027", "T1036", BEFORE, 2, frozenset({"r1"}))]
        out = categorize(patterns, self._map())
        assert out[0].category == UNCATEGORIZED
        assert UNCATEGORIZED == "uncategorized"

    def test_symmetric_lookup_ignores_direction(self):
        cmap = CategoryMap(
            categories=("c",),
            entries={("T1204", "T1566", CONCURRENT): "c"},
        )
        assert cmap.lookup("T1566", "T1204", CONCURRENT) == "c"
        assert cmap.lookup("T1204", "T1566", CONCURRENT) == "c"


class TestPackagedCategoryMap:
    def test_path_is_the_package_data_file(self):
        package = Path(ttpmine.__file__).parent
        assert Path(PACKAGED_CATEGORIES) == package / "data" / "pattern_categories.json"

    def test_load_and_size(self):
        cmap = load_categories(PACKAGED_CATEGORIES)
        assert len(cmap.entries) == 124
        assert len(cmap.categories) == len(set(cmap.categories))
        relations = {}
        for (_, _, relation), _category in cmap.entries.items():
            relations[relation] = relations.get(relation, 0) + 1
        assert relations == {
            BEFORE: 84,
            SIMULTANEOUS_OVERLAP: 25,
            CONCURRENT: 15,
        }

    def test_known_lookups(self):
        cmap = load_categories(PACKAGED_CATEGORIES)
        assert (
            cmap.lookup("T1566", "T1204", BEFORE)
            == "Baiting towards malicious execution"
        )
        assert (
            cmap.lookup("T1003", "T1078", BEFORE)
            == "Lateral movement using OS and Credentials"
        )

    def test_every_entry_well_formed(self):
        cmap = load_categories(PACKAGED_CATEGORIES)
        for (tx, ty, relation), category in cmap.entries.items():
            assert relation in POSITIVE_LABELS
            assert canonical_key(tx, ty, relation) == (tx, ty, relation)
            assert category in cmap.categories
            assert tx != ty


class TestCategoryMapValidation:
    def _write(self, tmp_path, data):
        path = tmp_path / "categories.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_invalid_relation(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "format_version": "1",
                "categories": ["c"],
                "patterns": [
                    {"tx": "T1", "ty": "T2", "relation": "NULL", "category": "c"}
                ],
            },
        )
        with pytest.raises(PipelineError, match="invalid relation"):
            load_categories(str(path))

    def test_non_canonical_symmetric_entry(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "format_version": "1",
                "categories": ["c"],
                "patterns": [
                    {
                        "tx": "T2",
                        "ty": "T1",
                        "relation": CONCURRENT,
                        "category": "c",
                    }
                ],
            },
        )
        with pytest.raises(PipelineError, match="not canonically ordered"):
            load_categories(str(path))

    def test_unknown_category(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "format_version": "1",
                "categories": ["c"],
                "patterns": [
                    {"tx": "T1", "ty": "T2", "relation": BEFORE, "category": "z"}
                ],
            },
        )
        with pytest.raises(PipelineError, match="not in the closed list"):
            load_categories(str(path))

    def test_duplicate_entry(self, tmp_path):
        row = {"tx": "T1", "ty": "T2", "relation": BEFORE, "category": "c"}
        path = self._write(
            tmp_path, {"format_version": "1", "categories": ["c"], "patterns": [row, dict(row)]}
        )
        with pytest.raises(PipelineError, match="duplicate"):
            load_categories(str(path))


PATTERNS = [
    TemporalPattern(
        "T1566", "T1204", BEFORE, 3, frozenset({"r2", "r1", "r3"}), category="bait"
    ),
    TemporalPattern(
        "T1059", "T1105", CONCURRENT, 2, frozenset({"r1", "r2"}), category=None
    ),
]


class TestExport:
    def test_csv_layout(self):
        text = export(PATTERNS, "csv").decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "tx,ty,relation,count,report_ids,category"
        assert lines[1] == "T1566,T1204,BEFORE,3,r1;r2;r3,bait"
        assert lines[2].startswith("T1059,T1105,CONCURRENT,2,r1;r2,")

    def test_csv_round_trip(self):
        rows = csv.DictReader(io.StringIO(export(PATTERNS, "csv").decode("utf-8")))
        back = [
            TemporalPattern(
                tx=row["tx"],
                ty=row["ty"],
                relation=row["relation"],
                count=int(row["count"]),
                report_ids=frozenset(row["report_ids"].split(";")),
                category=row["category"] or None,
            )
            for row in rows
        ]
        assert back == PATTERNS

    def test_json_layout(self):
        data = json.loads(export(PATTERNS, "json").decode("utf-8"))
        assert data[0]["report_ids"] == ["r1", "r2", "r3"]
        assert data[0]["category"] == "bait"
        assert data[1]["category"] is None
        assert export(PATTERNS, "json").endswith(b"\n")

    def test_dot_edges(self):
        text = export(PATTERNS, "dot").decode("utf-8")
        assert text.startswith("digraph temporal_patterns {")
        assert '"T1566" -> "T1204" [label="BEFORE (3)"];' in text
        assert (
            '"T1059" -> "T1105" [label="CONCURRENT (2)", dir=none, style=dashed];'
            in text
        )
        assert text.rstrip().endswith("}")

    def test_single_before_edge_count(self):
        text = export(PATTERNS[:1], "dot").decode("utf-8")
        assert text.count("->") == 1
        assert "dir=none" not in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown export format"):
            export(PATTERNS, "yaml")

    def test_empty_pattern_list(self):
        assert export([], "csv").decode("utf-8").splitlines() == [
            "tx,ty,relation,count,report_ids,category"
        ]
        assert json.loads(export([], "json")) == []
