"""Adjacency gaps, same-sentence counts, similarity pooling and the F2
feature family."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import pair_row, random_report, random_word_vectors
from oracles import coref_links_oracle, sentence_features_oracle
from ttpmine.corpus import make_report
from ttpmine.embeddings import WordVectors
from ttpmine.features.discourse import coref_links
from ttpmine.features.layout import ADJACENCY_GAPS, F2_SIZE, GROUP_SLICES, SLOT_NAMES

F2 = GROUP_SLICES["f2"]


def _f2(report, tx, ty, wv=None) -> dict[str, float]:
    """The F2 slots of the (tx, ty) row, by name without the "f2." prefix."""
    row = pair_row(report, tx, ty, wv)
    return {name[3:]: value for name, value in zip(SLOT_NAMES[F2], row[F2])}


def _blank_report(n):
    return make_report("r1", "\n".join(f"Sentence number {k} ran." for k in range(n)))


def _gap(i: int, j: int) -> int | None:
    """The signed gap whose adjacency slot counts a tx-sentence i and a
    ty-sentence j, None when no slot does."""
    out = _f2(_blank_report(8), [i], [j])
    counted = [d for d in ADJACENCY_GAPS if out[f"adj_{d}"]]
    assert len(counted) <= 1 and sum(out[f"adj_{d}"] for d in counted) == len(counted)
    return counted[0] if counted else None


def _adjacency(out) -> dict[int, float]:
    return {d: out[f"adj_{d}"] for d in ADJACENCY_GAPS}


class TestAdjacencyGap:
    def test_forward_gaps(self):
        assert _gap(0, 1) == 0
        assert _gap(0, 2) == 1
        assert _gap(0, 5) == 4

    def test_backward_gaps(self):
        assert _gap(1, 0) == -1
        assert _gap(2, 0) == -2
        assert _gap(4, 0) == -4

    def test_same_sentence_is_none(self):
        assert _gap(3, 3) is None

    def test_window_limits(self):
        assert _gap(0, 5) == 4  # five sentences forward, last in-window
        assert _gap(0, 6) is None
        assert _gap(5, 0) is None

    def test_slot_order(self):
        assert ADJACENCY_GAPS == (-4, -3, -2, -1, 0, 1, 2, 3, 4)
        assert SLOT_NAMES[F2][:9] == tuple(f"f2.adj_{d}" for d in ADJACENCY_GAPS)


# Planted links (0, 1), (0, 2) and (1, 2): sentence 1 opens with a
# pronoun, and sentence 2 refers back to "the beacon" and "the payload".
LINKED = make_report(
    "r1",
    "The loader staged a beacon quietly. It copied the payload here. "
    "The beacon reached the payload host.",
)


class TestSentenceFeatures:
    def test_single_forward_adjacent_pair(self):
        out = _f2(_blank_report(2), [0], [1])
        assert len(out) == F2_SIZE
        assert out["adj_0"] == 1.0
        assert sum(out.values()) == 1.0

    def test_backward_gap_slot(self):
        assert _f2(_blank_report(3), [2], [0])["adj_-2"] == 1.0

    def test_cross_product_counting(self):
        out = _f2(_blank_report(4), [0, 1], [2, 3])
        # Gaps: (0,2)=1 (0,3)=2 (1,2)=0 (1,3)=1.
        assert _adjacency(out) == {-4: 0.0, -3: 0.0, -2: 0.0, -1: 0.0,
                                   0: 1.0, 1: 2.0, 2: 1.0, 3: 0.0, 4: 0.0}

    def test_same_sentence_count(self):
        assert _f2(_blank_report(3), [0, 1], [1, 2])["same_sentence"] == 1.0

    def test_out_of_window_pairs_uncounted(self):
        out = _f2(_blank_report(9), [0], [8])
        assert sum(_adjacency(out).values()) == 0.0

    def test_coref_link_straddle_count(self):
        assert coref_links(LINKED, range(3)) == {(0, 1), (1, 2), (0, 2)}
        assert _f2(LINKED, [0], [2])["coref"] == 1.0  # only (0, 2) straddles

    def test_coref_direction_agnostic(self):
        report = make_report("r1", "The implant collected files. Then it sent everything.")
        assert coref_links(report, range(2)) == {(0, 1)}
        assert _f2(report, [1], [0])["coref"] == 1.0

    def test_similarity_slots_zero_without_vectors(self):
        out = _f2(_blank_report(2), [0], [1])
        assert out["sim_mean"] == 0.0 and out["sim_max"] == 0.0

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
        out = _f2(report, [0], [1, 2], wv)
        expected = 0.7071067811865475
        assert out["sim_mean"] == pytest.approx(expected, abs=1e-6)
        assert out["sim_max"] == pytest.approx(expected, abs=1e-6)
        uneven = _f2(report, [1], [0, 2], wv)
        assert uneven["sim_max"] == pytest.approx(expected, abs=1e-6)
        assert uneven["sim_mean"] == pytest.approx(expected / 2, abs=1e-6)

    def test_all_oov_similarity_zero(self):
        wv = WordVectors(dim=2, table={"alpha": np.array([1.0, 0.0])})
        report = make_report("r1", "Unknown words spoken.\nOther words heard.")
        out = _f2(report, [0], [1], wv)
        assert out["sim_mean"] == 0.0 and out["sim_max"] == 0.0

    def test_empty_sides_all_zero(self):
        out = _f2(LINKED, [], [1])
        assert list(out.values()) == [0.0] * F2_SIZE

    def test_matches_per_pair_oracle(self):
        # Cosines computed once per report for its hit sentences give the
        # slots that pooling again for every pair gives, bit for bit.
        rng = np.random.default_rng(20261023)
        counted = 0
        for case in range(30):
            report = random_report(rng, f"r{case}", n_sentences=(3, 30))
            wv = random_word_vectors(rng) if case % 3 else None
            links = coref_links_oracle(report)
            n = len(report.sentences)
            for _ in range(5):
                tx = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                ty = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                got = pair_row(report, tx, ty, wv)[F2]
                want = sentence_features_oracle(report, tx, ty, links, wv)
                assert got.tobytes() == want.tobytes(), (case, tx, ty)
                counted += want[12] + (want[10] != 0)
        assert counted > 10
