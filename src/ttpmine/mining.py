"""Corpus-level aggregation of per-report relation predictions into
recurring temporal attack patterns, category labeling, and export."""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace

from .labels import NULL, POSITIVE_LABELS, SYMMETRIC_LABELS

UNCATEGORIZED = "uncategorized"
# Distinct reports a pattern needs to be mined.
DEFAULT_MIN_SUPPORT = 2
# The category map shipped with the package; `pipeline.load_categories` reads it.
PACKAGED_CATEGORIES = os.path.join(os.path.dirname(__file__), "data", "pattern_categories.json")


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


def mine(predictions, n: int = DEFAULT_MIN_SUPPORT) -> list[TemporalPattern]:
    """Count distinct reports per canonicalized (pair, relation) and keep
    tuples seen in at least n reports. NULL is never a pattern.

    `predictions` maps report id to that report's RelationPredictions.
    Output is sorted by (count desc, relation, tx, ty).
    """
    if n < 1:
        raise ValueError(f"mining threshold must be >= 1, got {n}")
    seen: dict[tuple[str, str, str], set[str]] = {}
    for report_id, preds in predictions.items():
        for pred in preds:
            for relation in pred.labels:
                if relation == NULL:
                    continue
                key = canonical_key(pred.tx, pred.ty, relation)
                seen.setdefault(key, set()).add(report_id)

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


def category_map_from_dict(data) -> CategoryMap:
    """The `CategoryMap` of a decoded category map file: ``categories``,
    the closed list, and ``patterns``, rows of tx, ty, relation and
    category. ValueError for an entry that breaks the map's rules;
    KeyError or TypeError for one of the wrong shape."""
    categories = data["categories"]
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise ValueError(f"categories must be a list of strings, got {categories!r}")
    categories = tuple(categories)
    closed = set(categories)
    entries: dict[tuple[str, str, str], str] = {}
    for row in data["patterns"]:
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
