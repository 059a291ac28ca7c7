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
    """``(n_sentences, 3)`` marker counts, one row per sentence index,
    from one `bincount` over every marker token of the report.

    Built once per report and shared by every pair's `marker_features`.
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
    return counts.reshape(n, 3).astype(np.float64)


def marker_features(per_sentence: np.ndarray, tx_sentences, ty_sentences) -> np.ndarray:
    """The 20 F1 slots for one pair's sentence sets, read from the
    report's `marker_table`. The sentence indices must be inside the
    report. The sums add integer-valued counts, so their order does not
    change a bit of the result.
    """
    tx = sorted(set(tx_sentences))
    ty = sorted(set(ty_sentences))
    out = np.zeros(F1_SIZE, dtype=np.float64)
    if tx:
        out[0:3] = per_sentence[tx].sum(axis=0)
    if ty:
        out[3:6] = per_sentence[ty].sum(axis=0)

    if tx and ty:
        lo, hi = min(
            ((i, j) for i in tx for j in ty),
            key=lambda p: (abs(p[0] - p[1]), min(p), max(p)),
        )
        lo, hi = min(lo, hi), max(lo, hi)
        out[6:9] = per_sentence[lo : hi + 1].sum(axis=0)

        # Sentence k counts tx-first when tx_min < k <= ty_max, ty-first
        # when ty_min < k <= tx_max; an empty range sums to zeros.
        out[9:15:2] = per_sentence[tx[0] + 1 : ty[-1] + 1].sum(axis=0)
        out[10:15:2] = per_sentence[ty[0] + 1 : tx[-1] + 1].sum(axis=0)

    if tx:
        out[15] = per_sentence[tx].sum() / len(tx)
    if ty:
        out[16] = per_sentence[ty].sum() / len(ty)

    both = tx + ty
    if both:
        outer_lo, outer_hi = min(both), max(both)
        if outer_hi - outer_lo > 1:
            out[17:20] = per_sentence[outer_lo + 1 : outer_hi].sum(axis=0)
    return out
