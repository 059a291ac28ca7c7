"""Hand-computed metric fixtures plus exact comparison against the
brute-force oracles over label sets and `{label: probability}` rows.

The ranking metrics take a boolean truth matrix and a probability
matrix, columns in `ALL_LABELS` order: BEFORE, SIMULTANEOUS_OVERLAP,
CONCURRENT, NULL."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from helpers import label_rows, random_label_matrices
from oracles import (
    lrap_oracle,
    macro_p_at_k_oracle,
    ndcg_oracle,
    p_at_k_oracle,
    prf_oracle,
)
from ttpmine.labels import (
    ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP, label_matrix
)
from ttpmine.metrics import (
    evaluate_relations,
    lrap,
    macro_p_at_k,
    macro_prf,
    ndcg,
)


def _prob(*rows: dict) -> np.ndarray:
    """A probability matrix from `{label: probability}` rows; a label a
    row leaves out scores 0."""
    return np.array(
        [[row.get(lab, 0.0) for lab in ALL_LABELS] for row in rows], dtype=np.float64
    ).reshape(-1, len(ALL_LABELS))


def _random_instance(rng, max_rows=20):
    n = int(rng.integers(1, max_rows + 1))
    truth = []
    prob = []
    for _ in range(n):
        labels = frozenset(
            lab for lab in ALL_LABELS if rng.random() < 0.4
        )
        truth.append(labels)
        prob.append({lab: float(rng.random()) for lab in ALL_LABELS})
    return truth, prob


def _seeded_cases():
    """300 seeded cases, n = 1..300 rows, probabilities on a five-value
    grid: ties within rows and within label columns."""
    rng = np.random.default_rng(36)
    for n in range(1, 301):
        yield random_label_matrices(rng, n)


def test_seeded_cases_cover_the_edges():
    kinds = set()
    for truth, prob in _seeded_cases():
        kinds.update(truth.sum(axis=1).tolist())
        assert len(np.unique(prob)) <= 5
    assert kinds == {0, 1, 2, 3}


@pytest.mark.parametrize("metric, oracle", [(lrap, lrap_oracle), (ndcg, ndcg_oracle)])
def test_ranking_metrics_equal_oracle_on_seeded_cases(metric, oracle):
    for truth, prob in _seeded_cases():
        assert metric(truth, prob) == oracle(*label_rows(truth, prob))


def test_macro_p_at_k_equals_oracle_on_seeded_cases():
    for truth, prob in _seeded_cases():
        n = len(truth)
        sets, dicts = label_rows(truth, prob)
        for k in sorted({1, max(1, n // 2), n, n + 7}):
            assert macro_p_at_k(truth, prob, k) == macro_p_at_k_oracle(sets, dicts, k, ALL_LABELS)


def test_macro_prf_equals_oracle_on_seeded_cases():
    rng = np.random.default_rng(37)
    for truth, prob in _seeded_cases():
        sets, _ = label_rows(truth, prob)
        pred, _ = label_rows(prob >= rng.choice([0.25, 0.5, 0.75]), prob)
        rep = macro_prf(sets, pred)
        for lab in ALL_LABELS:
            got = rep.per_label[lab]
            assert (got["precision"], got["recall"], got["f1"]) == prf_oracle(sets, pred, lab)


class TestLabelMatrix:
    def test_columns_follow_all_labels(self):
        got = label_matrix([frozenset({NULL}), frozenset(), {BEFORE, CONCURRENT}])
        assert got.tolist() == [
            [False, False, False, True],
            [False, False, False, False],
            [True, False, True, False],
        ]

    def test_no_rows(self):
        assert label_matrix([]).shape == (0, len(ALL_LABELS))


class TestMacroPrf:
    def test_perfect_prediction(self):
        truth = [frozenset({BEFORE}), frozenset({NULL})]
        rep = macro_prf(truth, truth)
        assert rep.per_label[BEFORE]["f1"] == 1.0
        assert rep.per_label[CONCURRENT]["support"] == 0.0
        # Absent labels score 0, dragging the macro mean to 2/4.
        assert rep.macro_f1 == 0.5

    def test_all_null_truth_vs_all_before_pred(self):
        truth = [frozenset({NULL})] * 4
        pred = [frozenset({BEFORE})] * 4
        rep = macro_prf(truth, pred)
        assert rep.macro_f1 == 0.0
        assert rep.per_label[BEFORE]["precision"] == 0.0
        assert rep.per_label[NULL]["recall"] == 0.0

    def test_positive_macro_excludes_null(self):
        truth = [frozenset({BEFORE}), frozenset({NULL}), frozenset({NULL})]
        pred = [frozenset({BEFORE}), frozenset({NULL}), frozenset({BEFORE})]
        rep = macro_prf(truth, pred)
        # BEFORE: tp=1 fp=1 fn=0 -> p=.5 r=1 f=2/3; other positives 0.
        assert rep.macro_positive_precision == pytest.approx(0.5 / 3)
        assert rep.macro_positive_f1 == pytest.approx((2 / 3) / 3)
        # All-label macro also includes NULL (p=1, r=.5, f=2/3).
        assert rep.macro_f1 == pytest.approx((2 / 3 + 2 / 3) / 4)

    def test_multilabel_counting(self):
        truth = [frozenset({BEFORE, SIMULTANEOUS_OVERLAP})]
        pred = [frozenset({BEFORE})]
        rep = macro_prf(truth, pred)
        assert rep.per_label[BEFORE]["f1"] == 1.0
        assert rep.per_label[SIMULTANEOUS_OVERLAP]["recall"] == 0.0
        assert rep.per_label[SIMULTANEOUS_OVERLAP]["support"] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            macro_prf([frozenset()], [])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            truth, _ = _random_instance(rng)
            pred = [
                frozenset(lab for lab in ALL_LABELS if rng.random() < 0.4)
                for _ in truth
            ]
            rep = macro_prf(truth, pred)
            for lab in ALL_LABELS:
                got = rep.per_label[lab]
                assert (got["precision"], got["recall"], got["f1"]) == prf_oracle(truth, pred, lab)


class TestPrecisionAtK:
    """P@K of one label's pool: `macro_p_at_k` with the BEFORE column
    given and the other three pools holding no relevant row, so each of
    them scores 0 and the mean is a quarter of BEFORE's."""

    @staticmethod
    def pool(scores):
        truth = np.zeros((len(scores), len(ALL_LABELS)), dtype=bool)
        prob = np.zeros(truth.shape)
        for i, (p, relevant) in enumerate(scores):
            prob[i, 0], truth[i, 0] = p, relevant
        return truth, prob

    def p_at_k(self, scores, k):
        return macro_p_at_k(*self.pool(scores), k) * 4

    SCORES = [(0.9, True), (0.8, False), (0.7, True)]

    def test_hand_values(self):
        assert self.p_at_k(self.SCORES, 1) == 1.0
        assert self.p_at_k(self.SCORES, 2) == 0.5
        assert self.p_at_k(self.SCORES, 3) == pytest.approx(2 / 3)

    def test_k_beyond_length_uses_all(self):
        assert self.p_at_k(self.SCORES, 5) == pytest.approx(2 / 3)

    def test_empty_is_zero(self):
        assert self.p_at_k([], 3) == 0.0

    def test_bad_k(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be"):
                macro_p_at_k(*self.pool(self.SCORES), k)
            with pytest.raises(ValueError, match="k must be"):
                macro_p_at_k(*self.pool([]), k)

    def test_tie_stable_input_order(self):
        assert self.p_at_k([(0.5, False), (0.5, True)], 1) == 0.0
        assert self.p_at_k([(0.5, True), (0.5, False)], 1) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(0, 25))
            scores = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            k = int(rng.integers(1, 8))
            assert self.p_at_k(scores, k) == p_at_k_oracle(scores, k)


class TestLrap:
    def test_hand_fixture(self):
        # True label ranked second of four: 1 true at-or-above its
        # probability, 1 strictly above -> 1/2.
        truth = label_matrix([{SIMULTANEOUS_OVERLAP}])
        prob = _prob(
            {
                BEFORE: 0.9,
                SIMULTANEOUS_OVERLAP: 0.8,
                CONCURRENT: 0.1,
                NULL: 0.05,
            }
        )
        assert lrap(truth, prob) == 0.5

    def test_top_ranked_label_scores_one(self):
        truth = label_matrix([{BEFORE}])
        prob = _prob({BEFORE: 0.9, NULL: 0.1, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.2})
        assert lrap(truth, prob) == 1.0

    def test_tied_probabilities_share_best_rank(self):
        truth = label_matrix([{BEFORE}])
        prob = _prob({BEFORE: 0.5, NULL: 0.5, CONCURRENT: 0.1, SIMULTANEOUS_OVERLAP: 0.1})
        # Nothing strictly above: rank 1 despite the tie.
        assert lrap(truth, prob) == 1.0

    def test_empty_truth_rows_skipped_with_warning(self, caplog):
        truth = label_matrix([frozenset(), {BEFORE}])
        prob = _prob(
            {BEFORE: 0.2, NULL: 0.8, CONCURRENT: 0.1, SIMULTANEOUS_OVERLAP: 0.1},
            {BEFORE: 0.9, NULL: 0.1, CONCURRENT: 0.1, SIMULTANEOUS_OVERLAP: 0.1},
        )
        with caplog.at_level(logging.WARNING, logger="ttpmine.metrics"):
            assert lrap(truth, prob) == 1.0
        assert any("skipped 1 rows" in r.message for r in caplog.records)

    def test_all_rows_empty_is_zero(self):
        prob = _prob({BEFORE: 0.5, NULL: 0.5, CONCURRENT: 0.1, SIMULTANEOUS_OVERLAP: 0.1})
        assert lrap(label_matrix([frozenset()]), prob) == 0.0
        assert lrap(label_matrix([]), _prob()) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            lrap(label_matrix([{BEFORE}]), _prob())

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            truth, prob = _random_instance(rng)
            assert lrap(label_matrix(truth), _prob(*prob)) == lrap_oracle(truth, prob)


class TestNdcg:
    def test_hand_fixture(self):
        # Relevant label ranked second: dcg = 1/log2(3), idcg = 1.
        truth = label_matrix([{BEFORE}])
        prob = _prob({BEFORE: 0.2, NULL: 0.9})
        assert ndcg(truth, prob) == pytest.approx(0.6309297535714574, abs=1e-4)

    def test_perfect_ranking(self):
        truth = label_matrix([{BEFORE, NULL}])
        prob = _prob({BEFORE: 0.9, NULL: 0.8, CONCURRENT: 0.1, SIMULTANEOUS_OVERLAP: 0.0})
        assert ndcg(truth, prob) == 1.0

    def test_rows_without_relevant_count_in_denominator(self):
        truth = label_matrix([{BEFORE}, frozenset()])
        prob = _prob(
            {BEFORE: 0.9, NULL: 0.1},
            {BEFORE: 0.9, NULL: 0.1},
        )
        assert ndcg(truth, prob) == 0.5

    def test_tie_breaks_by_stable_label_order(self):
        # Tie between BEFORE (the first column) and NULL (the last):
        # BEFORE wins rank 1, so a relevant NULL discounts at rank 2.
        prob = _prob({BEFORE: 0.5, NULL: 0.5})
        assert ndcg(label_matrix([{NULL}]), prob) == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert ndcg(label_matrix([{BEFORE}]), prob) == 1.0

    def test_empty_input(self):
        assert ndcg(label_matrix([]), _prob()) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            truth, prob = _random_instance(rng)
            assert ndcg(label_matrix(truth), _prob(*prob)) == ndcg_oracle(truth, prob)


class TestMacroPAtK:
    def test_single_label_pool(self):
        truth = label_matrix([{BEFORE}, frozenset(), {BEFORE}])
        prob = _prob(
            {BEFORE: 0.9, NULL: 0.1, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.0},
            {BEFORE: 0.8, NULL: 0.9, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.0},
            {BEFORE: 0.7, NULL: 0.1, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.0},
        )
        # BEFORE pool P@2 = 1/2; the other three pools have no relevant
        # rows, so each contributes 0.
        assert macro_p_at_k(truth, prob, 2) == pytest.approx(0.5 / 4)

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            truth, prob = _random_instance(rng)
            k = int(rng.integers(1, 6))
            assert macro_p_at_k(label_matrix(truth), _prob(*prob), k) == macro_p_at_k_oracle(
                truth, prob, k, ALL_LABELS
            )


class TestEvaluateRelations:
    def test_report_shape(self):
        rng = np.random.default_rng(17)
        truth, prob = _random_instance(rng, max_rows=12)
        pred = [
            frozenset(lab for lab in ALL_LABELS if p[lab] >= 0.5)
            or frozenset({NULL})
            for p in prob
        ]
        rep = evaluate_relations(
            label_matrix(truth), label_matrix(pred), _prob(*prob), ks=(2, 5)
        )
        d = rep.to_dict()
        assert set(d) >= {"per_label", "macro_avg", "macro_avg_positive", "P@2", "P@5", "LRAP", "NDCG"}
        assert d["macro_avg"]["f1"] == rep.macro_f1
        assert d["P@2"] == rep.p_at_k[2]
        assert d["LRAP"] == rep.lrap
        assert set(d["per_label"]) == set(ALL_LABELS)

    def test_consistent_with_parts(self):
        truth = [frozenset({BEFORE}), frozenset({NULL})]
        pred = [frozenset({BEFORE}), frozenset({NULL})]
        prob = _prob(
            {BEFORE: 0.9, NULL: 0.1, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.0},
            {BEFORE: 0.2, NULL: 0.8, CONCURRENT: 0.0, SIMULTANEOUS_OVERLAP: 0.0},
        )
        rep = evaluate_relations(label_matrix(truth), label_matrix(pred), prob, ks=(1,))
        assert rep.macro_f1 == macro_prf(truth, pred).macro_f1
        assert rep.lrap == lrap(label_matrix(truth), prob)
        assert rep.ndcg == ndcg(label_matrix(truth), prob)
        assert rep.p_at_k[1] == macro_p_at_k(label_matrix(truth), prob, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate_relations(label_matrix([{NULL}]), label_matrix([]), _prob({NULL: 1.0}))
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate_relations(label_matrix([{NULL}]), label_matrix([{NULL}]), _prob())
