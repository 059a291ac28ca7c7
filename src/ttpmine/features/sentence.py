"""Sentence-level feature family F2: adjacency histogram, same-sentence
count, pooled-vector cosine similarity, coreference-link count."""

from __future__ import annotations

import numpy as np

from ..embeddings import cosine

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


def sentence_features(tx_sentences, ty_sentences, links, vectors) -> np.ndarray:
    """13 reals: 9 adjacency counts (d = -4..4), same-sentence count,
    mean cosine, max cosine, straddling coreference-link count.

    `links` holds the report's coref links among a set of sentences that
    holds tx and ty. `vectors` maps each of those sentences to its pooled
    word vector (`sentence_vector`); None, without word vectors, leaves
    the two cosine slots at zero.
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

    tx_set, ty_set = set(tx), set(ty)
    out[9] = len(tx_set & ty_set)

    if vectors is not None and tx and ty:
        sims = [cosine(vectors[i], vectors[j]) for i in tx for j in ty]
        out[10] = float(np.mean(sims))
        out[11] = float(np.max(sims))

    out[12] = sum(
        1
        for (i, j) in links
        if (i in tx_set and j in ty_set) or (i in ty_set and j in tx_set)
    )
    return out
