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

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class MarkerLexicon:
    before_markers: frozenset[str] = BEFORE_MARKERS
    overlap_markers: frozenset[str] = OVERLAP_MARKERS
    concurrent_markers: frozenset[str] = CONCURRENT_MARKERS

    @cached_property
    def all_markers(self) -> frozenset[str]:
        return self.before_markers | self.overlap_markers | self.concurrent_markers

    @cached_property
    def relation_index(self) -> dict[str, int]:
        """Marker token -> relation class. A token listed in several
        classes maps to the first of before, overlap, concurrent."""
        index: dict[str, int] = {}
        for rel, markers in enumerate(
            (self.before_markers, self.overlap_markers, self.concurrent_markers)
        ):
            for token in markers:
                index.setdefault(token, rel)
        return index

    def relation_of(self, token: str) -> int | None:
        """0 = before, 1 = overlap, 2 = concurrent, None = not a marker."""
        return self.relation_index.get(token)


DEFAULT_LEXICON = MarkerLexicon()

F1_SIZE = 20


def _counts(tokens, index: dict[str, int]) -> list[int]:
    counts = [0, 0, 0]
    for tok in tokens:
        rel = index.get(tok)
        if rel is not None:
            counts[rel] += 1
    return counts


def count_markers(tokens, lexicon: MarkerLexicon = DEFAULT_LEXICON) -> np.ndarray:
    """Per-relation marker occurrence counts (before, overlap, concurrent)."""
    return np.array(_counts(tokens, lexicon.relation_index), dtype=np.float64)


def marker_table(
    report: Report, lexicon: MarkerLexicon = DEFAULT_LEXICON
) -> np.ndarray:
    """``(n_sentences, 3)`` marker counts, one row per sentence index.

    Built once per report and shared by every pair's `marker_features`.
    """
    index = lexicon.relation_index
    table = np.zeros((len(report.sentences), 3), dtype=np.float64)
    for sent in report.sentences:
        table[sent.index] = _counts(sent.tokens, index)
    return table


def marker_features(
    report: Report,
    tx_sentences,
    ty_sentences,
    lexicon: MarkerLexicon = DEFAULT_LEXICON,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """The 20 F1 slots for one pair's sentence sets.

    `table` takes the report's precomputed `marker_table`; None builds it
    here. The sums add integer-valued counts, so their order does not
    change a bit of the result.
    """
    tx = sorted(set(tx_sentences))
    ty = sorted(set(ty_sentences))
    n = len(report.sentences)
    for idx in (*tx, *ty):
        if not 0 <= idx < n:
            raise ValueError(f"sentence index {idx} outside report of {n} sentences")

    per_sentence = marker_table(report, lexicon) if table is None else table

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
