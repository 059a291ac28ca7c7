"""Temporal relation label constants shared across the package, and the
rule every label set follows."""

from __future__ import annotations

BEFORE = "BEFORE"
SIMULTANEOUS_OVERLAP = "SIMULTANEOUS_OVERLAP"
CONCURRENT = "CONCURRENT"
NULL = "NULL"

# Canonical order: positive relations first, NULL last.
ALL_LABELS: tuple[str, ...] = (BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT, NULL)
POSITIVE_LABELS: tuple[str, ...] = (BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT)

# Relations that do not distinguish argument order.
SYMMETRIC_LABELS: frozenset[str] = frozenset({SIMULTANEOUS_OVERLAP, CONCURRENT})


def label_set_problem(labels: frozenset[str]) -> str | None:
    """Why ``labels`` is not a relation label set, or None if it is: the
    set must be non-empty and lie within ``ALL_LABELS``, and NULL must
    stand alone."""
    unknown = labels - set(ALL_LABELS)
    if unknown:
        return f"unknown relation labels {sorted(unknown)}"
    if not labels:
        return "empty label set"
    if NULL in labels and len(labels) > 1:
        return "NULL must be the sole label"
    return None
