"""Batch relation prediction: bit-equal agreement with row-at-a-time
scoring, empty input, and one clear error naming the first bad row."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import e2e_config_dict, make_fv
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
    features, labels = [], []
    for r in range(8):
        for k in range(6):
            features.append(
                make_fv(
                    rng.normal(size=10),
                    report_id=f"r{r:02d}",
                    tx=f"T{k}",
                    ty=f"T{(k + 1) % 6}",
                )
            )
            positives = frozenset(
                lab for lab in (BEFORE, SIMULTANEOUS_OVERLAP) if rng.random() < 0.3
            )
            labels.append(positives or frozenset({NULL}))
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
    for pred, fv, (probabilities, labels) in zip(batch, features, oracle):
        assert (pred.report_id, pred.tx, pred.ty) == (fv.report_id, fv.tx, fv.ty)
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
                        values = features[len(probes) % len(features)].values.copy()
                        values[feature] = value
                        probes.append(make_fv(values, report_id=f"p{len(probes)}"))
        assert len(probes) > 100
        _assert_matches_oracle(model, probes)


class TestEmptyInput:
    def test_empty_batch(self, multi_report_model):
        model, _ = multi_report_model
        assert predict_batch(model, []) == []

    def test_stage_predict_zero_rows_writes_meta_only(self, e2e_model, tmp_path):
        model, _, layout = e2e_model
        path = tmp_path / "predictions.jsonl"
        assert stage_predict(model, [], layout, str(path)) == []
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        meta, records = read_jsonl(str(path))
        assert meta["stage"] == "predict"
        assert records == []


class TestBadRows:
    def _batch_with(self, features, bad_rows):
        """Eight good rows with bad ones swapped in at the given slots."""
        batch = list(features[:8])
        for slot, fv in bad_rows.items():
            batch[slot] = fv
        return batch

    def test_layout_mismatch_names_first_bad_row(self, multi_report_model):
        model, features = multi_report_model
        batch = self._batch_with(
            features,
            {
                3: make_fv(np.zeros(10), report_id="rbad", tx="TX", ty="TY",
                           layout_version="v1-bins5"),
                5: make_fv(np.zeros(10), report_id="rlater",
                           layout_version="v1-bins5"),
            },
        )
        with pytest.raises(ValueError) as err:
            predict_batch(model, batch)
        message = str(err.value)
        assert message.startswith("row 3 (report 'rbad', pair (TX, TY)): ")
        assert "v1-bins5" in message
        assert "re-extract features or retrain" in message
        assert "rlater" not in message

    def test_wrong_length_names_row(self, multi_report_model):
        model, features = multi_report_model
        batch = self._batch_with(
            features, {4: make_fv(np.zeros(9), report_id="rshort", tx="TX", ty="TY")}
        )
        with pytest.raises(ValueError) as err:
            predict_batch(model, batch)
        message = str(err.value)
        assert message.startswith("row 4 (report 'rshort', pair (TX, TY)): ")
        assert "model's 10 features" in message
