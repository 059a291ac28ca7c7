"""Batch relation prediction: the probability matrix and its decided
label matrix agree bit for bit with row-at-a-time scoring, the threshold
rule, and empty input."""

from __future__ import annotations


import numpy as np
import pytest

from helpers import e2e_config_dict, label_sets, make_rows
from oracles import predict_rows_oracle
from ttpmine.features.builder import FeatureRows
from ttpmine.features.layout import N_SLOTS
from ttpmine.gbdt.ensemble import TrainConfig, decided_labels, predict_batch, train
from ttpmine.labels import (
    ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP, label_matrix, label_set_problem
)
from ttpmine.pipeline import (
    PipelineConfig,
    load_features,
    load_relation_model,
    read_jsonl,
    run_pipeline,
    stage_predict,
)


@pytest.fixture(scope="module")
def e2e_model(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e")
    run_pipeline(PipelineConfig.from_dict(e2e_config_dict(out_dir)))
    rows = load_features(str(out_dir / "features.csv"))
    return load_relation_model(str(out_dir / "relations.json")), rows


@pytest.fixture(scope="module")
def multi_report_model():
    """Eight reports of six pairs each; CONCURRENT never occurs, so its
    model is degenerate (zero trees)."""
    rng = np.random.default_rng(20261017)
    values, labels = [], []
    for r in range(8):
        for k in range(6):
            values.append(rng.normal(size=10))
            positives = frozenset(
                lab for lab in (BEFORE, SIMULTANEOUS_OVERLAP) if rng.random() < 0.3
            )
            labels.append(positives or frozenset({NULL}))
    features = make_rows(
        values,
        report_ids=[f"r{r:02d}" for r in range(8) for _ in range(6)],
        tx=[f"T{k}" for _ in range(8) for k in range(6)],
        ty=[f"T{(k + 1) % 6}" for _ in range(8) for k in range(6)],
    )
    model = train(features, label_matrix(labels), TrainConfig(trees=15, max_depth=3, seed=3))
    return model, features


def _splits(node):
    if "value" in node:
        return []
    return (
        [(node["feature"], node["threshold"])]
        + _splits(node["left"])
        + _splits(node["right"])
    )


def _empty():
    return FeatureRows([], np.empty((0, N_SLOTS)))


def _assert_matches_oracle(model, features):
    """The matrix and its decided label matrix equal the row-at-a-time
    oracle bit for bit; returns the decided label sets."""
    matrix = predict_batch(model, features)
    decided_matrix = decided_labels(matrix, model.config.decision_threshold)
    oracle = predict_rows_oracle(model, features)
    assert matrix.shape == decided_matrix.shape == (len(features), len(ALL_LABELS))
    assert matrix.dtype == np.float64
    assert decided_matrix.dtype == bool
    labels = label_sets(decided_matrix)
    assert len(labels) == len(oracle)
    for row, decided, (probabilities, want) in zip(matrix.tolist(), labels, oracle):
        assert decided == want
        assert [p.hex() for p in row] == [probabilities[lab].hex() for lab in ALL_LABELS]
    return labels


class TestOracle:
    def test_e2e_fixture_rows(self, e2e_model):
        model, rows = e2e_model
        assert len(rows) == 18
        labels = _assert_matches_oracle(model, rows)
        assert any(BEFORE in labs for labs in labels)

    def test_multi_report_set_with_degenerate_label(self, multi_report_model):
        model, features = multi_report_model
        assert model.models[CONCURRENT].degenerate
        assert model.models[CONCURRENT].trees == []
        decided = set(_assert_matches_oracle(model, features))
        assert frozenset({NULL}) in decided
        assert any(NULL not in labs for labs in decided)

    def test_rows_on_split_boundaries(self, multi_report_model):
        # A value at a threshold goes left and the next float up goes
        # right, so any rounding of the stacked matrix changes a leaf.
        model, features = multi_report_model
        probes = []
        for lm in model.models.values():
            for tree in lm.trees:
                for feature, threshold in _splits(tree):
                    for value in (threshold, np.nextafter(threshold, np.inf)):
                        values = features.values[len(probes) % len(features)].copy()
                        values[feature] = value
                        probes.append(values)
        assert len(probes) > 100
        ids = [f"p{k}" for k in range(len(probes))]
        _assert_matches_oracle(model, make_rows(probes, report_ids=ids))


class TestDecidedLabels:
    def test_probability_at_threshold_is_positive(self):
        probabilities = np.array(
            [
                [0.5, 0.5, 0.5, 0.0],
                [0.5, np.nextafter(0.5, 0.0), 0.9, 1.0],
                [np.nextafter(0.5, 0.0), 0.0, 0.0, 0.0],
            ]
        )
        assert label_sets(decided_labels(probabilities, 0.5)) == [
            frozenset({BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT}),
            frozenset({BEFORE, CONCURRENT}),
            frozenset({NULL}),
        ]

    def test_null_probability_decides_nothing(self):
        # NULL is the fallback when every positive label is below the
        # threshold, whatever NULL's own probability.
        probabilities = np.array([[0.49, 0.2, 0.1, 0.0], [0.49, 0.2, 0.1, 1.0]])
        assert label_sets(decided_labels(probabilities, 0.5)) == [frozenset({NULL})] * 2

    def test_every_positive_combination(self):
        # Each row of the decided matrix names a label set that passes the
        # rule every label set follows.
        rows, wants = [], []
        for code in range(8):
            rows.append([0.9 if code >> i & 1 else 0.1 for i in range(3)] + [0.5])
            positives = frozenset(
                lab for i, lab in enumerate((BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT))
                if code >> i & 1
            )
            wants.append(positives or frozenset({NULL}))
        decided = decided_labels(np.array(rows), 0.5)
        assert decided.dtype == bool
        assert decided.shape == (8, len(ALL_LABELS))
        assert label_sets(decided) == wants
        assert [label_set_problem(labels) for labels in label_sets(decided)] == [None] * 8


class TestEmptyInput:
    def test_empty_batch(self, multi_report_model):
        model, _ = multi_report_model
        matrix = predict_batch(model, _empty())
        assert matrix.shape == (0, len(ALL_LABELS))
        assert matrix.dtype == np.float64
        assert decided_labels(matrix, 0.5).shape == (0, len(ALL_LABELS))

    def test_stage_predict_zero_rows_writes_meta_only(self, e2e_model, tmp_path):
        model, _ = e2e_model
        path = tmp_path / "predictions.jsonl"
        assert stage_predict(model, _empty(), str(path)).shape == (0, len(ALL_LABELS))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        meta, records = read_jsonl(str(path))
        assert meta["stage"] == "predict"
        assert records == []
