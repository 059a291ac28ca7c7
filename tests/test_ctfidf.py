"""c-TFIDF training, sentence scoring and report-level aggregation."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from helpers import E2E_DIR
from oracles import predict_report_oracle
from ttpmine.attack_kb import ActionDataset
from ttpmine.corpus import load_reports, make_report, tokenize
from ttpmine.ctfidf import (
    DEFAULT_THRESHOLD,
    TOP_K_SCORES,
    CtfidfModel,
    TrainingError,
    model_from_dict,
    model_to_dict,
    predict_report,
    score_sentences,
    train_ctfidf,
)
from ttpmine.pipeline import PipelineError, load_ctfidf_model, stage_kb


def _dataset(examples):
    techniques = tuple(sorted({tid for _, labels in examples for tid in labels}))
    return ActionDataset(
        examples=tuple((s, frozenset(labels)) for s, labels in examples),
        techniques=techniques,
    )


DISJOINT = _dataset(
    [
        ("spearphishing lure attachment", {"T1"}),
        ("lure attachment mailbox", {"T1"}),
        ("scanned subnet ports", {"T2"}),
        ("subnet ports sweep", {"T2"}),
    ]
)


class TestTraining:
    def test_tf_fraction_by_hand(self):
        model = train_ctfidf(_dataset([("malware malware nuisance", {"T1"})]))
        # tf("malware", T1) = 2/3; single class so f(t) = tf count and
        # A = 3, giving idf = ln(1 + 3/2) and ln(1 + 3/1).
        col_m = model.vocab["malware"]
        col_n = model.vocab["nuisance"]
        assert model.class_vectors[0, col_m] == pytest.approx(
            (2 / 3) * math.log(1 + 3 / 2), abs=1e-12
        )
        assert model.class_vectors[0, col_n] == pytest.approx(
            (1 / 3) * math.log(1 + 3 / 1), abs=1e-12
        )

    def test_disjoint_classes_are_orthogonal(self):
        model = train_ctfidf(DISJOINT)
        v1, v2 = model.class_vectors
        assert float(np.dot(v1, v2)) == 0.0

    def test_multilabel_example_counts_for_each_class(self):
        model = train_ctfidf(
            _dataset(
                [
                    ("alpha beacon", {"T1", "T2"}),
                    ("bravo beacon", {"T2"}),
                ]
            )
        )
        col = model.vocab["alpha"]
        k1 = model.class_ids.index("T1")
        assert model.class_vectors[k1, col] > 0.0

    def test_shared_term_has_lower_idf_than_unique(self):
        model = train_ctfidf(
            _dataset(
                [
                    ("shared unique1", {"T1"}),
                    ("shared unique2", {"T2"}),
                ]
            )
        )
        # Equal tf inside each class, so the weight ratio is the idf ratio.
        k1 = model.class_ids.index("T1")
        w_shared = model.class_vectors[k1, model.vocab["shared"]]
        w_unique = model.class_vectors[k1, model.vocab["unique1"]]
        assert w_unique > w_shared

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train_ctfidf(ActionDataset(examples=(), techniques=()))

    def test_class_with_only_stopwords_rejected(self):
        with pytest.raises(TrainingError, match="T2"):
            train_ctfidf(
                _dataset(
                    [
                        ("beacon ran", {"T1"}),
                        ("the of and", {"T2"}),
                    ]
                )
            )

    def test_training_is_deterministic(self):
        a = model_to_dict(train_ctfidf(DISJOINT))
        b = model_to_dict(train_ctfidf(DISJOINT))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _scores(model, tokens) -> dict[str, float]:
    """One token list's scores per class, from `score_sentences`."""
    return dict(zip(model.class_ids, score_sentences(model, [tokens])[0].tolist()))


class TestSentencePrediction:
    def test_pure_class_sentence_scores_one(self):
        model = train_ctfidf(DISJOINT)
        scores = _scores(model, ["spearphishing", "lure"])
        assert scores["T1"] == 1.0
        assert scores["T2"] == 0.0

    def test_empty_and_oov_score_zero(self):
        model = train_ctfidf(DISJOINT)
        assert set(_scores(model, []).values()) == {0.0}
        assert set(_scores(model, ["zzz"]).values()) == {0.0}

    def test_mixed_sentence_top_class_exactly_one(self):
        model = train_ctfidf(DISJOINT)
        tokens = ["lure", "lure", "attachment", "subnet"]
        scores = _scores(model, tokens)
        assert scores["T1"] == 1.0
        assert 0.0 < scores["T2"] < 1.0

    def test_scores_within_unit_interval(self):
        model = train_ctfidf(DISJOINT)
        for tokens in (["lure"], ["subnet", "lure"], ["ports", "sweep", "lure"]):
            scores = _scores(model, tokens)
            assert all(0.0 <= v <= 1.0 for v in scores.values())
            assert max(scores.values()) == 1.0


def _hand_model():
    """Two classes on a two-token vocabulary with unit class vectors, so
    sentence scores are exact small fractions."""
    return CtfidfModel(
        vocab={"alpha": 0, "beta": 1},
        class_ids=("c1", "c2"),
        class_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )


class TestReportPrediction:
    def test_top5_sorted_and_padded(self):
        # Sentence scores for c1 across the report: 1.0, then exactly
        # 3/5 (alpha:beta token ratio 3:5), then 0.0 for the OOV line.
        report = make_report(
            "r1",
            "Alpha alpha alpha.\n"
            "Alpha alpha alpha beta beta beta beta beta.\n"
            "Gamma gamma.\n",
        )
        prediction = predict_report(_hand_model(), report, threshold=0.95)
        assert prediction.top_scores["c1"] == (1.0, 0.6, 0.0, 0.0, 0.0)
        assert prediction.top_scores["c2"] == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert prediction.techniques == frozenset({"c1", "c2"})
        assert prediction.hit_sentences["c1"] == (0,)
        assert prediction.hit_sentences["c2"] == (1,)

    def test_threshold_ordering_on_exact_score(self):
        # c2's best sentence scores exactly 0.9 (9 beta vs 10 alpha).
        report = make_report(
            "r1",
            "Alpha alpha alpha alpha alpha alpha alpha alpha alpha alpha "
            "beta beta beta beta beta beta beta beta beta.",
        )
        model = _hand_model()
        assert "c2" not in predict_report(model, report, threshold=0.95).techniques
        assert "c2" in predict_report(model, report, threshold=0.85).techniques

    def test_threshold_monotonicity(self):
        report = make_report(
            "r1",
            "Alpha alpha alpha.\nAlpha beta beta.\nBeta beta beta beta alpha.\n",
        )
        model = _hand_model()
        sets = [
            predict_report(model, report, threshold=t).techniques
            for t in (0.5, 0.75, 0.95)
        ]
        assert sets[2] <= sets[1] <= sets[0]

    def test_invalid_threshold_rejected(self):
        report = make_report("r1", "Alpha.")
        with pytest.raises(ValueError, match="threshold"):
            predict_report(_hand_model(), report, threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            predict_report(_hand_model(), report, threshold=1.5)

    def test_default_threshold_is_pinned(self):
        assert DEFAULT_THRESHOLD == 0.95
        assert TOP_K_SCORES == 5

    def test_short_report_pads_with_zeros(self):
        report = make_report("r1", "Alpha alpha.")
        prediction = predict_report(_hand_model(), report)
        assert prediction.top_scores["c1"] == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_empty_report_detects_nothing(self):
        report = make_report("r1", "")
        prediction = predict_report(_hand_model(), report)
        assert prediction.techniques == frozenset()
        assert prediction.top_scores == {}


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = train_ctfidf(DISJOINT)
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"meta": {}, "model": model_to_dict(model)}), encoding="utf-8"
        )
        again = load_ctfidf_model(str(path))
        tokens = ["lure", "subnet", "ports"]
        assert (
            _scores(again, tokens)
            == _scores(model, tokens)
        )
        assert again.class_ids == model.class_ids
        assert again.vocab == model.vocab

    def test_bare_model_names_file(self, tmp_path):
        # A model dict without the pipeline's meta wrapper does not load.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(train_ctfidf(DISJOINT))), encoding="utf-8")
        with pytest.raises(
            PipelineError, match=f"^{re.escape(str(path))}: malformed .*: missing key 'model'"
        ):
            load_ctfidf_model(str(path))

    def test_dict_round_trip_exact_weights(self):
        model = train_ctfidf(DISJOINT)
        again = model_from_dict(model_to_dict(model))
        assert np.array_equal(again.class_vectors, model.class_vectors)

    def test_file_with_avg_tokens_per_class_still_loads(self):
        # Files written before the key was dropped carry it; the idf is
        # folded into the weights, so the key is ignored and the model
        # scores bit for bit as the file's weights give.
        model = train_ctfidf(DISJOINT)
        data = {**model_to_dict(model), "avg_tokens_per_class": 3.0}
        again = model_from_dict(data)
        assert "avg_tokens_per_class" not in model_to_dict(again)
        assert again.vocab == model.vocab and again.class_ids == model.class_ids
        tokens = [tokenize("a lure attachment"), tokenize("subnet ports and a lure")]
        scores = score_sentences(again, tokens)
        assert scores.any()
        assert scores.tobytes() == score_sentences(model, tokens).tobytes()

    def test_other_unknown_key_rejected(self):
        # Only the one legacy key is dropped: any other key the writer
        # never wrote fails, in a file that also holds the legacy key.
        data = {**model_to_dict(train_ctfidf(DISJOINT)), "avg_tokens_per_class": 3.0}
        with pytest.raises(ValueError, match="^unknown key 'idf'$"):
            model_from_dict({**data, "idf": [1.0]})


def _assert_bit_equal(model, report, threshold=DEFAULT_THRESHOLD):
    """The batched scores equal the sentence-at-a-time oracle bit for bit,
    and so does the prediction built from them: the top scores of its
    detected techniques, which sorts only their columns, included."""
    expected_matrix, expected = predict_report_oracle(model, report, threshold)
    matrix = score_sentences(model, [s.tokens for s in report.sentences])
    assert matrix.shape == expected_matrix.shape
    assert matrix.tobytes() == expected_matrix.tobytes(), report.report_id
    prediction = predict_report(model, report, threshold)
    assert prediction == expected
    assert list(prediction.top_scores) == list(expected.top_scores)
    top = np.array(list(prediction.top_scores.values()), dtype=np.float64)
    want = np.array(list(expected.top_scores.values()), dtype=np.float64)
    assert top.tobytes() == want.tobytes(), report.report_id
    return expected


_SMALL_WORDS = tuple(f"w{j}" for j in range(24))
_OOV_WORDS = ("zzq", "qqz", "xxv")


def _dyadic_model(rng, n_classes=6):
    """Sparse class weights that are multiples of 1/8 below 4, so every
    product and partial sum of a dot product is exact: whatever order a
    BLAS kernel adds the terms in, the cosines come out bit for bit the
    same, and bit-equality checks the batching rather than the order."""
    weights = rng.integers(1, 32, size=(n_classes, len(_SMALL_WORDS))) / 8.0
    weights[rng.random(weights.shape) < 0.6] = 0.0
    weights[np.arange(n_classes), rng.integers(0, len(_SMALL_WORDS), n_classes)] = 1.0
    return CtfidfModel(
        vocab={w: j for j, w in enumerate(_SMALL_WORDS)},
        class_ids=tuple(f"T{k:02d}" for k in range(n_classes)),
        class_vectors=weights,
    )


def _trained_small_model(rng, n_classes=6):
    examples = []
    for k in range(n_classes):
        for _ in range(int(rng.integers(2, 5))):
            words = rng.choice(_SMALL_WORDS, size=int(rng.integers(2, 7)))
            examples.append((" ".join(str(w) for w in words), {f"T{k:02d}"}))
    return train_ctfidf(_dataset(examples))


def _assert_within_rounding(model, report):
    """Scores within 1e-12 of the oracle; the same detections unless some
    score lies within 1e-9 of the threshold. Returns whether the
    detections were compared."""
    expected_matrix, expected = predict_report_oracle(model, report, DEFAULT_THRESHOLD)
    matrix = score_sentences(model, [s.tokens for s in report.sentences])
    assert matrix.shape == expected_matrix.shape
    if not matrix.size:
        return False
    assert np.abs(matrix - expected_matrix).max() <= 1e-12, report.report_id
    if np.abs(expected_matrix - DEFAULT_THRESHOLD).min() < 1e-9:
        return False
    prediction = predict_report(model, report)
    assert prediction.techniques == expected.techniques
    assert prediction.hit_sentences == expected.hit_sentences
    return True


def _random_text(rng, words, n_sentences, oov_rate=0.2):
    lines = []
    for _ in range(n_sentences):
        picked = [
            str(rng.choice(_OOV_WORDS if rng.random() < oov_rate else words))
            for _ in range(int(rng.integers(1, 12)))
        ]
        lines.append(" ".join(picked) + ".")
    return "\n".join(lines)


class TestBatchScoringOracle:
    """Whole-report scoring against `predict_report_oracle`, which scores
    one sentence at a time from a dense vocabulary-length vector."""

    def test_e2e_fixture_bit_equal(self, tmp_path):
        _, model = stage_kb(str(E2E_DIR / "stix_bundle.json"), str(tmp_path))
        reports = load_reports(E2E_DIR / "reports")
        detected = set()
        for report in reports:
            detected |= _assert_bit_equal(model, report).techniques
        assert detected

    def test_seeded_small_vocabulary_reports_bit_equal(self):
        rng = np.random.default_rng(20261018)
        hits = 0
        for case in range(30):
            model = _dyadic_model(rng)
            report = make_report(
                f"s{case}",
                _random_text(rng, _SMALL_WORDS, int(rng.integers(1, 60)), oov_rate=0.3),
            )
            for threshold in (0.5, DEFAULT_THRESHOLD, 1.0):
                hits += len(_assert_bit_equal(model, report, threshold).techniques)
        assert hits > 0

    def test_trained_small_models_within_rounding(self):
        # Trained weights are not exact: a dense matrix-vector product and
        # the batched matrix product may add a sentence's terms in a
        # different order (or fused), which moves a cosine by an ulp.
        rng = np.random.default_rng(77)
        compared = 0
        for case in range(30):
            model = _trained_small_model(rng)
            report = make_report(
                f"t{case}",
                _random_text(rng, _SMALL_WORDS, int(rng.integers(1, 60)), oov_rate=0.3),
            )
            compared += _assert_within_rounding(model, report)
        assert compared >= 25

    def test_large_random_model_within_rounding(self):
        rng = np.random.default_rng(5000)
        n_classes, n_terms = 200, 5000
        weights = rng.random((n_classes, n_terms))
        weights[rng.random((n_classes, n_terms)) < 0.9] = 0.0
        model = CtfidfModel(
            vocab={f"t{j}": j for j in range(n_terms)},
            class_ids=tuple(f"T{k:03d}" for k in range(n_classes)),
            class_vectors=weights,
        )
        words = tuple(model.vocab)
        compared = sum(
            _assert_within_rounding(
                model, make_report(f"L{case}", _random_text(rng, words, 30))
            )
            for case in range(6)
        )
        assert compared >= 5

    def test_report_without_vocabulary_tokens_scores_zero(self):
        model = train_ctfidf(DISJOINT)
        report = make_report("r1", "Zzq qqz.\nXxv zzq xxv.\n")
        prediction = _assert_bit_equal(model, report)
        matrix = score_sentences(model, [s.tokens for s in report.sentences])
        assert matrix.shape == (2, 2) and not matrix.any()
        assert prediction.techniques == frozenset()
        assert prediction.hit_sentences == {}
        assert prediction.top_scores == {}

    def test_report_without_sentences(self):
        model = train_ctfidf(DISJOINT)
        report = make_report("r1", "")
        assert tuple(report.sentences) == ()
        assert score_sentences(model, []).shape == (0, 2)
        prediction = _assert_bit_equal(model, report)
        assert prediction.techniques == frozenset()

    def test_zero_norm_sentence_row_is_zero_among_scored_rows(self):
        model = _hand_model()
        matrix = score_sentences(model, [["alpha"], [], ["gamma"], ["beta", "beta"]])
        assert matrix.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]

    def test_sentence_prediction_is_one_row_of_the_batch(self):
        model = train_ctfidf(DISJOINT)
        lists = [["lure", "subnet"], ["ports"], [], ["zzz", "lure", "lure"]]
        matrix = score_sentences(model, lists)
        for tokens, row in zip(lists, matrix):
            scores = _scores(model, tokens)
            assert list(scores.values()) == row.tolist()
