"""Batch relation prediction: bit-equal agreement with row-at-a-time
scoring, empty input, and one clear error for a matrix that does not
fit the model."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import e2e_config_dict, make_rows
from oracles import predict_rows_oracle
from ttpmine.gbdt.ensemble import TrainConfig, predict_batch, train
from ttpmine.labels import ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP
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
    rows, layout = load_features(str(out_dir / "features.csv"))
    return load_relation_model(str(out_dir / "relations.json")), rows, layout


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
    model = train(features, labels, TrainConfig(trees=15, max_depth=3, seed=3))
    return model, features


def _splits(node):
    if "value" in node:
        return []
    return (
        [(node["feature"], node["threshold"])]
        + _splits(node["left"])
        + _splits(node["right"])
    )


def _assert_matches_oracle(model, features):
    batch = predict_batch(model, features)
    oracle = predict_rows_oracle(model, features)
    assert len(batch) == len(oracle) == len(features)
    for pred, key, (probabilities, labels) in zip(batch, features, oracle):
        assert (pred.report_id, pred.tx, pred.ty) == key
        assert pred.labels == labels
        assert list(pred.probabilities) == list(ALL_LABELS)
        assert {k: v.hex() for k, v in pred.probabilities.items()} == {
            k: v.hex() for k, v in probabilities.items()
        }
    return batch


class TestOracle:
    def test_e2e_fixture_rows(self, e2e_model):
        model, rows, _ = e2e_model
        assert len(rows) == 18
        batch = _assert_matches_oracle(model, rows)
        assert any(BEFORE in p.labels for p in batch)

    def test_multi_report_set_with_degenerate_label(self, multi_report_model):
        model, features = multi_report_model
        assert model.models[CONCURRENT].degenerate
        assert model.models[CONCURRENT].trees == []
        batch = _assert_matches_oracle(model, features)
        decided = {p.labels for p in batch}
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


class TestEmptyInput:
    def test_empty_batch(self, multi_report_model):
        model, features = multi_report_model
        assert predict_batch(model, features.take([])) == []

    def test_stage_predict_zero_rows_writes_meta_only(self, e2e_model, tmp_path):
        model, rows, layout = e2e_model
        path = tmp_path / "predictions.jsonl"
        assert stage_predict(model, rows.take([]), layout, str(path)) == []
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        meta, records = read_jsonl(str(path))
        assert meta["stage"] == "predict"
        assert records == []


class TestBadRows:
    def test_layout_mismatch_rejected(self, multi_report_model):
        model, features = multi_report_model
        stray = make_rows(features.values, layout_version="v1-bins5")
        with pytest.raises(ValueError) as err:
            predict_batch(model, stray)
        assert str(err.value) == (
            "feature layout v1-bins5 does not match the model (test-layout); "
            "re-extract features or retrain"
        )

    def test_wrong_width_rejected(self, multi_report_model):
        model, features = multi_report_model
        with pytest.raises(ValueError) as err:
            predict_batch(model, make_rows(features.values[:, :9]))
        assert str(err.value) == (
            "feature matrix of 9 columns does not match the model's 10 features"
        )
