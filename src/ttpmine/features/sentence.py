"""Sentence-level feature family F2: adjacency histogram, same-sentence
count, pooled-vector cosine similarity, coreference-link count."""

from __future__ import annotations

import numpy as np

from ..corpus import Report
from ..embeddings import WordVectors, cosine, sentence_vector
from .discourse import coref_links

F2_SIZE = 13

# Signed adjacency gaps, slot order. d=0 means the ty-sentence directly
# follows the tx-sentence (j = i+1), d=1 one sentence between (j = i+2);
# d=-1 means the ty-sentence comes directly before the tx-sentence
# (j = i-1), so forward gaps reach 5 sentences and backward gaps 4.
ADJACENCY_GAPS: tuple[int, ...] = (-4, -3, -2, -1, 0, 1, 2, 3, 4)


def adjacency_gap(i: int, j: int) -> int | None:
    """Signed gap for a (tx-sentence i, ty-sentence j) pair, None when
    outside the -4..4 window or the same sentence."""
    if j > i:
        d = j - i - 1
    elif j < i:
        d = j - i
    else:
        return None
    return d if -4 <= d <= 4 else None


def sentence_features(
    report: Report,
    tx_sentences,
    ty_sentences,
    wv: WordVectors | None = None,
    links=None,
) -> np.ndarray:
    """13 reals: 9 adjacency counts (d = -4..4), same-sentence count,
    mean cosine, max cosine, straddling coreference-link count.

    `links` takes precomputed coref links among a set of the report's
    sentences that holds tx and ty; None computes them here, among tx
    and ty only.
    """
    tx = sorted(set(tx_sentences))
    ty = sorted(set(ty_sentences))
    out = np.zeros(F2_SIZE, dtype=np.float64)
    slot_of = {d: k for k, d in enumerate(ADJACENCY_GAPS)}

    for i in tx:
        for j in ty:
            d = adjacency_gap(i, j)
            if d is not None:
                out[slot_of[d]] += 1

    out[9] = len(set(tx) & set(ty))

    if wv is not None and tx and ty:
        vectors = {
            idx: sentence_vector(wv, report.sentences[idx].tokens)
            for idx in set(tx) | set(ty)
        }
        sims = [cosine(vectors[i], vectors[j]) for i in tx for j in ty]
        out[10] = float(np.mean(sims))
        out[11] = float(np.max(sims))

    tx_set, ty_set = set(tx), set(ty)
    if links is None:
        links = coref_links(report, tx_set | ty_set)
    out[12] = sum(
        1
        for (i, j) in links
        if (i in tx_set and j in ty_set) or (i in ty_set and j in tx_set)
    )
    return out
