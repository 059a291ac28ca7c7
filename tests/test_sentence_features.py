"""Adjacency gaps, same-sentence counts, similarity pooling and the F2
feature family."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_report, random_word_vectors
from oracles import coref_links_oracle, sentence_features_oracle
from ttpmine.corpus import make_report
from ttpmine.embeddings import WordVectors, sentence_vector
from ttpmine.features.sentence import (
    ADJACENCY_GAPS,
    F2_SIZE,
    adjacency_gap,
    sentence_features,
)


class TestAdjacencyGap:
    def test_forward_gaps(self):
        assert adjacency_gap(0, 1) == 0
        assert adjacency_gap(0, 2) == 1
        assert adjacency_gap(0, 5) == 4

    def test_backward_gaps(self):
        assert adjacency_gap(1, 0) == -1
        assert adjacency_gap(2, 0) == -2
        assert adjacency_gap(4, 0) == -4

    def test_same_sentence_is_none(self):
        assert adjacency_gap(3, 3) is None

    def test_window_limits(self):
        assert adjacency_gap(0, 5) == 4  # five sentences forward, last in-window
        assert adjacency_gap(0, 6) is None
        assert adjacency_gap(5, 0) is None

    def test_slot_order(self):
        assert ADJACENCY_GAPS == (-4, -3, -2, -1, 0, 1, 2, 3, 4)


def _pooled(report, wv):
    """Every sentence's pooled vector, as the builder makes them."""
    return {s.index: sentence_vector(wv, s.tokens) for s in report.sentences}


def _blank_report(n):
    return make_report("r1", "\n".join(f"Sentence number {k} ran." for k in range(n)))


class TestSentenceFeatures:
    def test_single_forward_adjacent_pair(self):
        out = sentence_features([0], [1], frozenset(), None)
        assert out.shape == (F2_SIZE,)
        assert out[ADJACENCY_GAPS.index(0)] == 1.0
        assert out.sum() == 1.0

    def test_backward_gap_slot(self):
        out = sentence_features([2], [0], frozenset(), None)
        assert out[ADJACENCY_GAPS.index(-2)] == 1.0

    def test_cross_product_counting(self):
        out = sentence_features([0, 1], [2, 3], frozenset(), None)
        # Gaps: (0,2)=1 (0,3)=2 (1,2)=0 (1,3)=1.
        assert out[ADJACENCY_GAPS.index(0)] == 1.0
        assert out[ADJACENCY_GAPS.index(1)] == 2.0
        assert out[ADJACENCY_GAPS.index(2)] == 1.0

    def test_same_sentence_count(self):
        out = sentence_features([0, 1], [1, 2], frozenset(), None)
        assert out[9] == 1.0

    def test_out_of_window_pairs_uncounted(self):
        out = sentence_features([0], [8], frozenset(), None)
        assert out[:9].sum() == 0.0

    def test_coref_link_straddle_count(self):
        links = frozenset({(0, 1), (1, 2), (0, 2)})
        out = sentence_features([0], [2], links, None)
        assert out[12] == 1.0  # only (0, 2) straddles

    def test_coref_direction_agnostic(self):
        links = frozenset({(0, 1)})
        out = sentence_features([1], [0], links, None)
        assert out[12] == 1.0

    def test_similarity_slots_zero_without_vectors(self):
        out = sentence_features([0], [1], frozenset(), None)
        assert out[10] == 0.0 and out[11] == 0.0

    def test_similarity_mean_and_max(self):
        wv = WordVectors(
            dim=2,
            table={
                "alpha": np.array([1.0, 0.0]),
                "beta": np.array([0.0, 1.0]),
            },
        )
        report = make_report("r1", "Alpha beta ran.\nAlpha moved.\nBeta moved.")
        # Sentence vectors: s0 = (0.5, 0.5), s1 = (1, 0), s2 = (0, 1).
        out = sentence_features([0], [1, 2], frozenset(), _pooled(report, wv))
        expected = 0.7071067811865475
        assert out[10] == pytest.approx(expected, abs=1e-6)
        assert out[11] == pytest.approx(expected, abs=1e-6)
        uneven = sentence_features([1], [0, 2], frozenset(), _pooled(report, wv))
        assert uneven[11] == pytest.approx(expected, abs=1e-6)
        assert uneven[10] == pytest.approx(expected / 2, abs=1e-6)

    def test_all_oov_similarity_zero(self):
        wv = WordVectors(dim=2, table={"alpha": np.array([1.0, 0.0])})
        report = make_report("r1", "Unknown words spoken.\nOther words heard.")
        out = sentence_features([0], [1], frozenset(), _pooled(report, wv))
        assert out[10] == 0.0 and out[11] == 0.0

    def test_empty_sides_all_zero(self):
        out = sentence_features([], [1], frozenset(), None)
        assert np.array_equal(out, np.zeros(F2_SIZE))

    def test_matches_per_pair_oracle(self):
        # Pooled vectors built once per sentence give the cosines that
        # pooling again for every pair gives, bit for bit.
        rng = np.random.default_rng(20261023)
        counted = 0
        for case in range(30):
            report = random_report(rng, f"r{case}", n_sentences=(3, 30))
            wv = random_word_vectors(rng) if case % 3 else None
            links = coref_links_oracle(report)
            vectors = None if wv is None else _pooled(report, wv)
            n = len(report.sentences)
            for _ in range(5):
                tx = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                ty = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                got = sentence_features(tx, ty, links, vectors)
                want = sentence_features_oracle(report, tx, ty, links, wv)
                assert got.tobytes() == want.tobytes(), (case, tx, ty)
                counted += want[12] + (want[10] != 0)
        assert counted > 10
