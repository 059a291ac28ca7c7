"""Temporal marker lexicon and the 20-slot time-signal feature family.

Slot enumeration (F1, offsets within the family):
  0-2   marker counts per relation class in tx-sentences (before, overlap, concurrent)
  3-5   same in ty-sentences
  6-8   same over the inclusive span between the nearest (tx, ty) sentence pair
  9-14  directional counts, relation-major: (before, overlap, concurrent) x
        (tx-first, ty-first). A marker in sentence k counts tx-first when
        some tx-sentence precedes k and some ty-sentence is at or after k
        (the "X ran. Then Y ran." case), mirrored for ty-first.
  15-16 marker density: total markers / sentence count, tx then ty
  17-19 marker counts per relation class over sentences strictly between
        the outermost tx/ty sentences (endpoints excluded)
"""

from __future__ import annotations

import numpy as np

from ..corpus import Report

BEFORE_MARKERS: frozenset[str] = frozenset(
    {
        "after", "afterward", "following", "immediately", "instantly",
        "later", "next", "then", "succeeding", "subsequent", "subsequently",
        "before", "previous", "prior", "previously", "preceding",
    }
)

OVERLAP_MARKERS: frozenset[str] = frozenset(
    {"during", "while", "within", "through", "throughout"}
)

CONCURRENT_MARKERS: frozenset[str] = frozenset(
    {"concurrent", "concurrently", "contemporary", "simultaneous", "simultaneously"}
)

MARKERS: frozenset[str] = BEFORE_MARKERS | OVERLAP_MARKERS | CONCURRENT_MARKERS

# Marker token -> relation class: 0 = before, 1 = overlap, 2 = concurrent.
# The three sets are disjoint, so each marker has one class.
MARKER_RELATION: dict[str, int] = {
    token: rel
    for rel, markers in enumerate((BEFORE_MARKERS, OVERLAP_MARKERS, CONCURRENT_MARKERS))
    for token in markers
}

F1_SIZE = 20


def marker_table(report: Report) -> np.ndarray:
    """``(n_sentences, 3)`` integer marker counts, one row per sentence
    index, from one `bincount` over every marker token of the report.

    Built once per report and read by every pair's F1 slots.
    """
    relation = MARKER_RELATION.get
    cells = [
        3 * sent.index + rel
        for sent in report.sentences
        for rel in map(relation, sent.tokens)
        if rel is not None
    ]
    n = len(report.sentences)
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=3 * n)
    return counts.reshape(n, 3)
