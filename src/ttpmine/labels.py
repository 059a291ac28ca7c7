"""Temporal relation label constants shared across the package, the
label-set rule, and the boolean label matrix the stages pass on."""

from __future__ import annotations

import numpy as np

BEFORE = "BEFORE"
SIMULTANEOUS_OVERLAP = "SIMULTANEOUS_OVERLAP"
CONCURRENT = "CONCURRENT"
NULL = "NULL"

# Canonical order, a label matrix's columns: positive relations first, NULL last.
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


def label_matrix(label_sets) -> np.ndarray:
    """Boolean `(n, 4)` matrix of a sequence of label sets: row i, column
    j is whether `ALL_LABELS[j]` is in the i-th set."""
    return np.fromiter(
        (lab in labels for labels in label_sets for lab in ALL_LABELS), dtype=bool
    ).reshape(-1, len(ALL_LABELS))
