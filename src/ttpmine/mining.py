"""Corpus-level aggregation of each pair's decided relations into
recurring temporal attack patterns, category labeling, and export, and
the `predictions.jsonl` record the predict stage writes and `mine`
reads back."""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .labels import ALL_LABELS, POSITIVE_LABELS, SYMMETRIC_LABELS, label_set_problem
from .records import LIST, NUMBER, STRING, STRINGS, check_record, object_of

UNCATEGORIZED = "uncategorized"
# Distinct reports a pattern needs to be mined.
DEFAULT_MIN_SUPPORT = 2
# The category map shipped with the package; `pipeline.load_categories` reads it.
PACKAGED_CATEGORIES = os.path.join(os.path.dirname(__file__), "data", "pattern_categories.json")
CATEGORY_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class TemporalPattern:
    tx: str
    ty: str
    relation: str
    count: int
    report_ids: frozenset[str]
    category: str | None = None


@dataclass(frozen=True)
class CategoryMap:
    categories: tuple[str, ...]
    entries: dict[tuple[str, str, str], str]

    def lookup(self, tx: str, ty: str, relation: str) -> str | None:
        return self.entries.get(canonical_key(tx, ty, relation))


def canonical_key(tx: str, ty: str, relation: str) -> tuple[str, str, str]:
    """Symmetric relations ignore argument order; the canonical form
    sorts the pair lexicographically. BEFORE keeps its direction."""
    if relation in SYMMETRIC_LABELS and ty < tx:
        tx, ty = ty, tx
    return (tx, ty, relation)


def mine(keys, labels, n: int = DEFAULT_MIN_SUPPORT) -> list[TemporalPattern]:
    """Count distinct reports per canonicalized (pair, relation) and keep
    tuples seen in at least n reports. NULL is never a pattern.

    `keys` holds one `(report_id, tx, ty)` per row and `labels` is the
    aligned boolean decided label matrix; ValueError if their lengths
    differ. Output is sorted by (count desc, relation, tx, ty).
    """
    if n < 1:
        raise ValueError(f"mining threshold must be >= 1, got {n}")
    if len(keys) != len(labels):
        raise ValueError(f"{len(keys)} keys vs {len(labels)} label rows")
    seen: dict[tuple[str, str, str], set[str]] = {}
    for column, relation in enumerate(POSITIVE_LABELS):
        for row in np.flatnonzero(labels[:, column]).tolist():
            report_id, tx, ty = keys[row]
            seen.setdefault(canonical_key(tx, ty, relation), set()).add(report_id)

    patterns = [
        TemporalPattern(
            tx=tx,
            ty=ty,
            relation=relation,
            count=len(ids),
            report_ids=frozenset(ids),
        )
        for (tx, ty, relation), ids in seen.items()
        if len(ids) >= n
    ]
    patterns.sort(key=lambda p: (-p.count, p.relation, p.tx, p.ty))
    return patterns


def categorize(patterns, category_map: CategoryMap) -> list[TemporalPattern]:
    """Attach the category of each pattern's canonical key; unmapped
    patterns get the explicit "uncategorized" label."""
    return [
        replace(
            p,
            category=category_map.lookup(p.tx, p.ty, p.relation) or UNCATEGORIZED,
        )
        for p in patterns
    ]


# The shapes of a category map file and of each of its `patterns` rows.
_CATEGORY_MAP_SHAPE = dict(format_version=STRING, categories=STRINGS, patterns=LIST)
_CATEGORY_ROW_SHAPE = dict(tx=STRING, ty=STRING, relation=STRING, category=STRING)


def category_map_from_dict(data) -> CategoryMap:
    """The `CategoryMap` of a decoded category map file: ``categories``,
    the closed list, and ``patterns``, rows of tx, ty, relation and
    category. ValueError for a record of another shape (see
    `check_record`), another format or an entry that breaks the rules."""
    check_record(data, _CATEGORY_MAP_SHAPE)
    version = data["format_version"]
    if version != CATEGORY_FORMAT_VERSION:
        raise ValueError(f"category map format {version!r} is not {CATEGORY_FORMAT_VERSION!r}")
    categories = tuple(data["categories"])
    closed = set(categories)
    entries: dict[tuple[str, str, str], str] = {}
    for i, row in enumerate(data["patterns"]):
        check_record(row, _CATEGORY_ROW_SHAPE, f"'patterns' entry {i}: ")
        tx, ty, relation = row["tx"], row["ty"], row["relation"]
        if relation not in POSITIVE_LABELS:
            raise ValueError(f"category map has invalid relation {relation!r}")
        key = canonical_key(tx, ty, relation)
        if key != (tx, ty, relation):
            raise ValueError(
                f"symmetric entry ({tx}, {ty}, {relation}) is not canonically ordered"
            )
        category = row["category"]
        if category not in closed:
            raise ValueError(f"category {category!r} not in the closed list")
        if key in entries:
            raise ValueError(f"duplicate category entry for {key}")
        entries[key] = category
    return CategoryMap(categories=categories, entries=entries)


_LABEL_SET = frozenset(ALL_LABELS)
# The shape of a `predictions.jsonl` record.
_RECORD_SHAPE = dict(
    report_id=STRING, tx=STRING, ty=STRING, probabilities=object_of(NUMBER), labels=STRINGS
)


def relation_prediction_records(keys, probabilities, labels):
    """One `predictions.jsonl` record per row: its `(report_id, tx, ty)`
    key, its row of the `predict_batch` probability matrix keyed by
    label, and the names of its row of the decided label matrix, sorted."""
    for (report_id, tx, ty), row, decided in zip(keys, probabilities.tolist(), labels.tolist()):
        yield {
            "report_id": report_id,
            "tx": tx,
            "ty": ty,
            "probabilities": dict(zip(ALL_LABELS, row)),
            "labels": sorted(lab for lab, on in zip(ALL_LABELS, decided) if on),
        }


def relation_prediction_from_dict(data) -> tuple[tuple, frozenset[str]]:
    """The key and the decided label set of a `predictions.jsonl` record.
    ValueError for a record of another shape (see `check_record`), or
    unless the probabilities are keyed by exactly `ALL_LABELS`, each in
    [0, 1], and the labels form a label set (see `label_set_problem`)."""
    check_record(data, _RECORD_SHAPE)
    key = (data["report_id"], data["tx"], data["ty"])
    probabilities, labels = data["probabilities"], frozenset(data["labels"])
    where = f"report {key[0]!r} pair ({key[1]}, {key[2]})"
    if probabilities.keys() != _LABEL_SET:
        raise ValueError(
            f"{where}: probabilities {sorted(probabilities)} are not "
            f"keyed by {sorted(ALL_LABELS)}"
        )
    if not (min(probabilities.values()) >= 0.0 and max(probabilities.values()) <= 1.0):
        raise ValueError(f"{where}: probabilities {probabilities} not all in [0, 1]")
    problem = label_set_problem(labels)
    if problem:
        raise ValueError(f"{where}: {problem}")
    return key, labels


def _pattern_row(p: TemporalPattern) -> list[str]:
    return [
        p.tx,
        p.ty,
        p.relation,
        str(p.count),
        ";".join(sorted(p.report_ids)),
        p.category or "",
    ]


_CSV_HEADER = ["tx", "ty", "relation", "count", "report_ids", "category"]


def export(patterns, fmt: str) -> bytes:
    """Serialize patterns as csv, json, or a DOT graph (BEFORE edges
    directed, symmetric relations undirected-styled)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for p in patterns:
            writer.writerow(_pattern_row(p))
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        rows = [
            {
                "tx": p.tx,
                "ty": p.ty,
                "relation": p.relation,
                "count": p.count,
                "report_ids": sorted(p.report_ids),
                "category": p.category,
            }
            for p in patterns
        ]
        return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fmt == "dot":
        lines = ["digraph temporal_patterns {"]
        for p in patterns:
            label = f"{p.relation} ({p.count})"
            style = "" if p.relation == "BEFORE" else ", dir=none, style=dashed"
            lines.append(f'  "{p.tx}" -> "{p.ty}" [label="{label}"{style}];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (expected csv, json, or dot)")
