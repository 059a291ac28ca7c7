"""Sentence-level feature family F2: adjacency histogram, same-sentence
count, pooled-vector cosine similarity, coreference-link count.

Slots: 0-8 (tx, ty) sentence pairs per gap of ADJACENCY_GAPS; 9 shared
sentences; 10-11 mean and max cosine over (tx, ty) sentence pairs (zero
without word vectors); 12 links between a tx- and a ty-sentence.
"""

from __future__ import annotations

F2_SIZE = 13

# Signed adjacency gaps, slot order. d=0 means the ty-sentence directly
# follows the tx-sentence (j = i+1), d=1 one sentence between (j = i+2);
# d=-1 means the ty-sentence comes directly before the tx-sentence
# (j = i-1), so forward gaps reach 5 sentences and backward gaps 4.
ADJACENCY_GAPS: tuple[int, ...] = (-4, -3, -2, -1, 0, 1, 2, 3, 4)
