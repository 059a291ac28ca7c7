"""Gradient-boosted relation models: histogram split search against the
brute-force oracle, tree fitting, loss monotonicity, determinism and
serialization."""

from __future__ import annotations

import hashlib
import json
import logging
import math

import numpy as np
import pytest

from helpers import e2e_config_dict, make_rows, tree_features
from oracles import exact_split_oracle, exact_tree_oracle, per_label_train_oracle
from ttpmine.features.layout import FeatureLayout
from ttpmine.gbdt.ensemble import (
    GbdtEnsemble,
    GbdtTrainingError,
    TrainConfig,
    _downsample_rows,
    ensemble_from_dict,
    ensemble_to_dict,
    predict_batch,
    train,
)
from ttpmine.gbdt.tree import (
    LEAF_VALUE_CAP,
    MIN_GAIN,
    bin_columns,
    fit_tree,
    grid_residuals,
    predict_tree,
    remap_tree_features,
    tree_max_feature,
)
from ttpmine.corpus import load_annotations
from ttpmine.labels import ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP
from ttpmine.pipeline import (
    PipelineConfig,
    labels_for_rows,
    load_features,
    load_relation_model,
    run_pipeline,
    stage_train,
)


def _fit(X, residuals, hessians, max_depth):
    """fit_tree on freshly binned X, checking its per-row leaf values
    against predict_tree bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    tree, values = fit_tree(bin_columns(X), residuals, hessians, max_depth)
    np.testing.assert_array_equal(values, predict_tree(tree, X))
    return tree


def _oracle_case(kind, rng):
    """(X, residuals, hessians) for one oracle comparison case."""
    m = int(rng.integers(6, 40))
    if kind == "continuous":
        X = rng.normal(size=(m, 5))
    elif kind == "duplicate":
        base = rng.integers(0, 4, size=(m, 3)).astype(np.float64)
        X = np.hstack([base, base[:, [2, 0]], base[:, [1]]])
    elif kind == "mirror":
        base = rng.integers(0, 3, size=(m, 3)).astype(np.float64)
        X = np.hstack([base, 1.0 - base[:, ::-1]])
    else:
        X = rng.integers(0, 4, size=(m, 5)).astype(np.float64)
    if kind == "exact_tie":
        X = np.hstack([X[:, :3], X[:, :1], 1.0 - X[:, 1:2]])
        r = rng.choice([-0.5, 0.5], size=m)
    elif kind == "large_residual":
        # Mostly one sign, so running totals across all columns' bins go
        # far past 2**53 and only exact arithmetic keeps each column's sums.
        X = np.hstack([X, 3.0 - X])
        r = rng.normal(loc=30.0, scale=40.0, size=m)
    else:
        r = rng.normal(size=m)
    return X, r, rng.uniform(0.05, 0.25, size=m)


ORACLE_CASES = (
    "continuous",
    "small_integer",
    "duplicate",
    "mirror",
    "exact_tie",
    "large_residual",
)


class TestHistogramSplit:
    def test_two_point_split(self):
        tree = _fit([[0.0], [1.0]], np.array([-0.5, 0.5]), np.full(2, 0.25), 1)
        assert (tree["feature"], tree["threshold"]) == (0, 0.5)

    def test_no_split_on_constant_column(self):
        tree = _fit([[1.0], [1.0], [1.0]], np.array([1.0, -1.0, 0.0]), np.ones(3), 2)
        assert tree == {"value": 0.0}

    def test_degenerate_shapes(self):
        assert _fit([[3.0]], np.array([1.0]), np.ones(1), 2) == {"value": 1.0}
        no_columns = _fit(np.zeros((4, 0)), np.array([1.0, 1.0, 1.0, 1.0]), np.ones(4), 2)
        assert no_columns == {"value": 1.0}
        assert _fit(np.zeros((3, 2)), np.zeros(3), np.ones(3), 2) == {"value": 0.0}

    def test_tie_prefers_lowest_feature_then_value(self):
        # Columns 0 and 1 are identical and column 2 mirrors them, and the
        # residuals are symmetric, so splitting off the first row or the
        # last gives the same gain in every column. The first maximum must
        # be feature 0 after value 0.
        col = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        X = np.column_stack([col, col, 5.0 - col])
        r = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, -1.0])
        tree = _fit(X, r, np.full(6, 0.25), 1)
        assert (tree["feature"], tree["threshold"]) == (0, 0.5)

    def test_split_never_lands_between_equal_values(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(2, 12))
            X = rng.integers(0, 3, size=(m, 3)).astype(np.float64)
            tree = _fit(X, rng.normal(size=m), np.full(m, 0.25), 1)
            if "value" not in tree:
                column = X[:, tree["feature"]]
                left = column <= tree["threshold"]
                assert column[left].max() < column[~left].min()

    def test_min_gain_applies_to_unscaled_gain(self):
        X = [[0.0], [1.0]]
        # Gain 2 * r**2: 2e-14 is below MIN_GAIN, 2e-10 is above it.
        assert "value" in _fit(X, np.array([-1e-7, 1e-7]), np.ones(2), 1)
        assert "feature" in _fit(X, np.array([-1e-5, 1e-5]), np.ones(2), 1)

    def test_grid_sums_are_exact_integers(self):
        rng = np.random.default_rng(11)
        for scale in (1e-300, 1e-3, 1.0, 40.0, 1e300):
            r = rng.normal(scale=scale, size=257)
            grads, shift = grid_residuals(r)
            assert np.array_equal(grads, np.rint(grads))
            assert math.fsum(np.abs(grads)) < 2.0**53
            step = math.ldexp(1.0, -shift)
            assert np.all(np.abs(np.ldexp(grads, -shift) - r) <= step / 2)
        assert grid_residuals(np.zeros(3))[0].tolist() == [0.0, 0.0, 0.0]


class TestExactSplitOracle:
    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_root_split_matches_oracle(self, kind):
        rng = np.random.default_rng(20261018)
        for _ in range(25):
            X, r, h = _oracle_case(kind, rng)
            tree = _fit(X, r, h, 1)
            grads, shift = grid_residuals(r)
            found = exact_split_oracle(X, grads)
            if found is None or math.ldexp(found[3], -2 * shift) <= MIN_GAIN:
                assert "value" in tree
                continue
            feature, threshold, left, _ = found
            assert (tree["feature"], tree["threshold"]) == (feature, threshold)
            assert np.flatnonzero(X[:, feature] <= threshold).tolist() == left

    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_tree_matches_oracle(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(15):
            X, r, h = _oracle_case(kind, rng)
            tree = _fit(X, r, h, 3)
            oracle = exact_tree_oracle(X, r, h, 3)
            assert tree == oracle
            unseen = rng.normal(loc=1.5, scale=2.0, size=(20, X.shape[1]))
            np.testing.assert_array_equal(
                predict_tree(tree, unseen), predict_tree(oracle, unseen)
            )

    @pytest.mark.parametrize("kind", ORACLE_CASES)
    def test_row_subset_of_full_binning_matches_oracle(self, kind):
        # A label model fits on its rows of a binning of the whole matrix:
        # bins only the other rows use must change no split or threshold.
        rng = np.random.default_rng(11)
        for _ in range(15):
            X, r, h = _oracle_case(kind, rng)
            size = int(rng.integers(2, X.shape[0]))
            rows = np.sort(rng.choice(X.shape[0], size=size, replace=False))
            tree, values = fit_tree(bin_columns(X).take(rows), r[rows], h[rows], 3)
            assert tree == exact_tree_oracle(X[rows], r[rows], h[rows], 3)
            np.testing.assert_array_equal(values, predict_tree(tree, X[rows]))


class TestFitTree:
    def test_stump_fixture(self):
        tree = _fit(
            np.array([[0.0], [1.0]]),
            np.array([-0.5, 0.5]),
            np.array([0.25, 0.25]),
            max_depth=1,
        )
        assert tree["feature"] == 0
        assert tree["threshold"] == 0.5
        assert tree["left"] == {"value": -2.0}  # -0.5/0.25
        assert tree["right"] == {"value": 2.0}

    def test_depth_zero_is_single_leaf(self):
        tree = _fit(
            np.array([[0.0], [1.0]]),
            np.array([1.0, 3.0]),
            np.array([0.5, 0.5]),
            max_depth=0,
        )
        assert tree == {"value": 4.0}  # 4.0 / 1.0

    def test_leaf_value_cap(self):
        tree = _fit(
            np.array([[0.0], [1.0]]),
            np.array([-5.0, 5.0]),
            np.array([0.25, 0.25]),
            max_depth=1,
        )
        assert tree["left"]["value"] == -LEAF_VALUE_CAP
        assert tree["right"]["value"] == LEAF_VALUE_CAP

    def test_zero_hessian_leaf_is_zero(self):
        tree = _fit(
            np.array([[0.0]]),
            np.array([3.0]),
            np.array([0.0]),
            max_depth=2,
        )
        assert tree == {"value": 0.0}

    def test_constant_features_make_leaf(self):
        tree = _fit(
            np.ones((4, 2)),
            np.array([1.0, -1.0, 1.0, -1.0]),
            np.full(4, 0.25),
            max_depth=3,
        )
        assert "value" in tree

    def test_partition_matches_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(2, 25))
            X = rng.normal(size=(m, 4))
            r = rng.normal(size=m)
            tree = _fit(X, r, np.full(m, 0.25), max_depth=3)

            def check(node, rows):
                if "value" in node:
                    assert abs(node["value"]) <= LEAF_VALUE_CAP
                    return
                mask = rows[:, node["feature"]] <= node["threshold"]
                assert 0 < mask.sum() < len(rows)  # both children nonempty
                check(node["left"], rows[mask])
                check(node["right"], rows[~mask])

            check(tree, X)

    def test_predict_tree_routes_rows(self):
        tree = {
            "feature": 1,
            "threshold": 0.5,
            "left": {"value": -1.0},
            "right": {"value": 3.0},
        }
        X = np.array([[9.0, 0.0], [9.0, 1.0], [9.0, 0.5]])
        np.testing.assert_array_equal(predict_tree(tree, X), [-1.0, 3.0, -1.0])

    def test_remap_and_max_feature(self):
        tree = {
            "feature": 0,
            "threshold": 0.5,
            "left": {"value": -1.0},
            "right": {"feature": 2, "threshold": 1.0, "left": {"value": 0.0}, "right": {"value": 1.0}},
        }
        mapping = np.array([10, 40, 53])
        remapped = remap_tree_features(tree, mapping)
        assert remapped["feature"] == 10
        assert remapped["right"]["feature"] == 53
        assert tree_max_feature(remapped) == 53
        assert tree_max_feature({"value": 1.0}) == -1


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.trees == 200
        assert config.max_depth == 3
        assert config.learning_rate == 0.1
        assert config.negative_downsample_ratio == 10.0
        assert config.seed == 0
        assert config.decision_threshold == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="trees"):
            TrainConfig(trees=0)
        with pytest.raises(ValueError, match="max_depth"):
            TrainConfig(max_depth=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=1.5)
        with pytest.raises(ValueError, match="negative_downsample_ratio"):
            TrainConfig(negative_downsample_ratio=0.0)
        with pytest.raises(ValueError, match="decision_threshold"):
            TrainConfig(decision_threshold=1.0)

    def test_dict_round_trip(self):
        config = TrainConfig(trees=30, max_depth=2, seed=7)
        assert TrainConfig.from_dict(config.to_dict()) == config
        assert TrainConfig.from_dict({**config.to_dict(), "extra": 1}) == config


def _separable_data(n_per_side=12, n_features=8, signal_slot=1):
    values = np.zeros((2 * n_per_side, n_features))
    values[:n_per_side, signal_slot] = 1.0
    labels = [frozenset({BEFORE})] * n_per_side + [frozenset({NULL})] * n_per_side
    ids = [f"r{k:02d}" for k in range(2 * n_per_side)]
    return make_rows(values, report_ids=ids), labels


def _random_training_data(rng, n_rows, n_features):
    values, labels = [], []
    for _ in range(n_rows):
        values.append(rng.normal(size=n_features))
        positives = frozenset(lab for lab in ALL_LABELS[:3] if rng.random() < 0.3)
        labels.append(positives or frozenset({NULL}))
    return make_rows(values, report_ids=[f"r{k:02d}" for k in range(n_rows)]), labels


class TestDownsampling:
    LABELS = [
        frozenset({NULL}),
        frozenset({NULL}),
        frozenset({BEFORE}),
        frozenset({NULL}),
        frozenset({BEFORE}),
        frozenset({NULL}),
        frozenset({NULL}),
    ]

    def test_cap_and_determinism(self):
        y = np.array([1.0 if BEFORE in labs else 0.0 for labs in self.LABELS])
        config = TrainConfig(negative_downsample_ratio=1.0, seed=3)
        rows = _downsample_rows(0, self.LABELS, y, config)
        again = _downsample_rows(0, self.LABELS, y, config)
        np.testing.assert_array_equal(rows, again)
        assert {2, 4} <= set(rows.tolist())  # positives always kept
        # 2 positives at ratio 1.0 keep at most 2 of the 5 NULL-only rows.
        assert len(rows) == 4
        assert np.array_equal(rows, np.sort(rows))

    def test_generous_ratio_keeps_everything(self):
        y = np.array([1.0 if BEFORE in labs else 0.0 for labs in self.LABELS])
        rows = _downsample_rows(0, self.LABELS, y, TrainConfig())
        np.testing.assert_array_equal(rows, np.arange(len(self.LABELS)))

    def test_label_index_changes_sample(self):
        labels = [frozenset({NULL})] * 40 + [frozenset({BEFORE})]
        y = np.zeros(41)
        y[40] = 1.0
        config = TrainConfig(negative_downsample_ratio=5.0, seed=0)
        a = _downsample_rows(0, labels, y, config)
        b = _downsample_rows(1, labels, y, config)
        assert len(a) == len(b) == 6
        assert not np.array_equal(a, b)

    def test_mixed_label_rows_never_dropped(self):
        labels = [frozenset({NULL})] * 30 + [frozenset({BEFORE, SIMULTANEOUS_OVERLAP})]
        y = np.zeros(31)
        y[30] = 1.0
        rows = _downsample_rows(0, labels, y, TrainConfig(negative_downsample_ratio=1.0))
        assert 30 in rows.tolist()
        assert len(rows) == 2


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """The bundled e2e pipeline run: its output directory and config."""
    out_dir = tmp_path_factory.mktemp("e2e")
    config = e2e_config_dict(out_dir)
    run_pipeline(PipelineConfig.from_dict(config))
    return out_dir, config


@pytest.fixture(scope="module")
def e2e_training_data(e2e_run):
    out_dir, config = e2e_run
    rows = load_features(str(out_dir / "features.csv"))
    labels = labels_for_rows(rows, load_annotations(config["annotations"]))
    return rows, labels, TrainConfig.from_dict(config["train"])


class TestTraining:
    def test_e2e_fixture_loss_curve_and_determinism(self, e2e_training_data):
        rows, labels, config = e2e_training_data
        model, again = (train(rows, labels, config) for _ in range(2))
        assert json.dumps(ensemble_to_dict(model), sort_keys=True) == json.dumps(
            ensemble_to_dict(again), sort_keys=True
        )
        curves = [lm.loss_curve for lm in model.models.values() if not lm.degenerate]
        assert curves
        for curve in curves:
            assert len(curve) == config.trees + 1
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_e2e_fixture_leaf_values_match_predict_tree(self, e2e_training_data):
        rows, labels, _ = e2e_training_data
        X = rows.values
        y = np.array([1.0 if BEFORE in labs else 0.0 for labs in labels])
        for depth in (1, 3, 6):
            _fit(X, y - y.mean(), np.full(y.size, 0.25), depth)

    def test_loss_non_increasing_on_random_data(self):
        rng = np.random.default_rng(20260822)
        config = TrainConfig(trees=15, max_depth=3, seed=1)
        for _ in range(20):
            n_rows = int(rng.integers(8, 40))
            features, labels = _random_training_data(rng, n_rows, n_features=12)
            model = train(features, labels, config)
            for lm in model.models.values():
                if lm.degenerate:
                    continue
                assert len(lm.loss_curve) == config.trees + 1
                curve = lm.loss_curve
                assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_separable_fixture_perfect_f1(self):
        features, labels = _separable_data()
        model = train(features, labels, TrainConfig(trees=60, max_depth=2))
        predictions = predict_batch(model, features)
        assert all(
            (BEFORE in pred.labels) == (BEFORE in truth)
            for pred, truth in zip(predictions, labels)
        )
        # Positive probabilities end far from the boundary.
        assert all(
            pred.probabilities[BEFORE] > 0.9
            for pred, truth in zip(predictions, labels)
            if BEFORE in truth
        )

    def test_same_seed_bit_identical_model(self):
        rng = np.random.default_rng(4)
        features, labels = _random_training_data(rng, 30, n_features=10)
        config = TrainConfig(trees=12, max_depth=3, seed=5)
        a = train(features, labels, config)
        b = train(features, labels, config)
        assert json.dumps(ensemble_to_dict(a), sort_keys=True) == json.dumps(
            ensemble_to_dict(b), sort_keys=True
        )

    def test_degenerate_label_prior_model(self, caplog):
        features, labels = _separable_data(n_per_side=6)
        with caplog.at_level(logging.WARNING, logger="ttpmine.gbdt.ensemble"):
            model = train(features, labels, TrainConfig(trees=5))
        lm = model.models[CONCURRENT]
        assert lm.degenerate is True
        assert lm.trees == []
        assert lm.init_score == pytest.approx(np.log(1e-6 / (1 - 1e-6)))
        assert any("no positives" in r.message for r in caplog.records)
        pred = predict_batch(model, features.take([0]))[0]
        assert pred.probabilities[CONCURRENT] == pytest.approx(1e-6, rel=1e-3)
        assert CONCURRENT not in pred.labels

    def test_single_stump_monotone_in_signal(self):
        values = np.zeros((10, 4))
        values[:, 0] = np.arange(10.0)
        features = make_rows(values, report_ids=[f"r{x0}" for x0 in range(10)])
        labels = [frozenset({BEFORE}) if x0 >= 5 else frozenset({NULL}) for x0 in range(10)]
        model = train(features, labels, TrainConfig(trees=1, max_depth=1))
        probs = [p.probabilities[BEFORE] for p in predict_batch(model, features)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > probs[0]

    def test_input_validation(self):
        features, labels = _separable_data(n_per_side=3)
        with pytest.raises(GbdtTrainingError, match="no training vectors"):
            train([], [], TrainConfig(trees=2))
        with pytest.raises(GbdtTrainingError, match="vectors vs"):
            train(features, labels[:-1], TrainConfig(trees=2))

    def test_nan_feature_named_by_position(self):
        features, labels = _separable_data(n_per_side=3)
        features.values[1, 3] = np.nan
        with pytest.raises(GbdtTrainingError, match="row 1, slot 3"):
            train(features, labels, TrainConfig(trees=2))


class TestFeatureGroups:
    def _grouped_data(self, rng):
        layout = FeatureLayout(bins=10)
        values, labels = [], []
        for k in range(24):
            row = rng.normal(scale=0.01, size=layout.total)
            positive = k % 2 == 0
            signal = 1.0 if positive else 0.0
            row[60] = signal  # an f4 slot
            row[12] = signal  # an f1 slot
            values.append(row)
            labels.append(frozenset({BEFORE}) if positive else frozenset({NULL}))
        ids = [f"r{k:02d}" for k in range(24)]
        return make_rows(values, report_ids=ids, layout=layout), labels

    def test_split_candidates_restricted_to_mask(self):
        rng = np.random.default_rng(2)
        features, labels = self._grouped_data(rng)
        model = train(
            features,
            labels,
            TrainConfig(trees=8, max_depth=2),
            feature_groups=("f4",),
        )
        allowed = set(np.flatnonzero(features.layout.mask(["f4"])).tolist())
        used = set()
        for lm in model.models.values():
            for tree in lm.trees:
                used |= tree_features(tree)
        assert used
        assert used <= allowed
        # Slot indices are stored globally (the f4 block starts at 53),
        # proving the local-to-global remap happened.
        assert max(used) >= 53
        assert 12 not in used


class TestPredictAndSerialize:
    def _model_and_features(self):
        features, labels = _separable_data(n_per_side=8)
        model = train(features, labels, TrainConfig(trees=20, max_depth=2))
        return model, features

    def test_predict_metadata(self):
        model, features = self._model_and_features()
        pred = predict_batch(model, features.take([0]))[0]
        assert (pred.report_id, pred.tx, pred.ty) == features.keys[0]
        assert set(pred.probabilities) == set(ALL_LABELS)
        assert all(0.0 <= p <= 1.0 for p in pred.probabilities.values())

    def test_null_fallback_when_nothing_decided(self):
        model, features = self._model_and_features()
        pred = predict_batch(model, features.take([-1]))[0]  # a NULL-side row
        assert pred.labels == frozenset({NULL})

    def test_layout_mismatch_rejected(self):
        model, _ = self._model_and_features()
        stray = make_rows(np.zeros(8), layout=FeatureLayout(bins=5))
        with pytest.raises(ValueError, match="re-extract features or retrain"):
            predict_batch(model, stray)

    def test_round_trip_preserves_predictions(self, tmp_path):
        # A bare model dict, without the pipeline's meta wrapper, still loads.
        model, features = self._model_and_features()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ensemble_to_dict(model)), encoding="utf-8")
        loaded = load_relation_model(str(path))
        assert isinstance(loaded, GbdtEnsemble)
        assert loaded.layout_version == model.layout_version
        assert loaded.config == model.config
        first = features.take(range(6))
        for a, b in zip(predict_batch(model, first), predict_batch(loaded, first)):
            assert a.labels == b.labels
            for lab in ALL_LABELS:
                assert a.probabilities[lab] == b.probabilities[lab]

    def test_serialized_format_fields(self):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        assert data["format_version"] == "1"
        assert data["layout_version"] == "v1-bins1"
        assert data["n_features"] == 71
        assert set(data["labels"]) == set(ALL_LABELS)

    def test_tree_beyond_layout_rejected(self):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        data["labels"][BEFORE]["trees"] = [
            {
                "feature": 99,
                "threshold": 0.0,
                "left": {"value": 0.0},
                "right": {"value": 0.0},
            }
        ]
        with pytest.raises(ValueError, match="beyond the layout"):
            ensemble_from_dict(data)


def _run_train_shaped(seed, labels=(BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT)):
    """Rows shaped like the `run-train` workload's: 120 pair vectors of
    the 152-slot layout, about a third of the slots constant and the rest
    small counts, flags or tied scores, mostly NULL-only rows, and a few
    rows of each given relation (some carrying two)."""
    rng = np.random.default_rng(seed)
    layout = FeatureLayout(bins=10)
    n_rows, n_slots = 120, layout.total
    X = np.empty((n_rows, n_slots))
    kinds = rng.integers(1, 4, size=n_slots)
    for slot, kind in enumerate(kinds):
        if slot % 3 == 0:
            X[:, slot] = float(rng.integers(0, 3))
        elif kind == 1:
            X[:, slot] = rng.poisson(0.6, size=n_rows)
        elif kind == 2:
            X[:, slot] = rng.random(n_rows) < rng.uniform(0.05, 0.5)
        else:
            X[:, slot] = np.round(rng.random(n_rows), 1)
    label_sets = []
    for k in range(n_rows):
        draw = rng.random()
        if draw < 0.3 and labels:
            picked = {labels[int(rng.integers(len(labels)))]}
            if rng.random() < 0.15:
                picked.add(labels[int(rng.integers(len(labels)))])
            X[k, int(rng.integers(1, 40)) * 3 + 1] += 1.0
            label_sets.append(frozenset(picked))
        else:
            label_sets.append(frozenset({NULL}))
    ids = [f"r{k // 20}" for k in range(n_rows)]
    return make_rows(X, report_ids=ids, layout=layout), label_sets


def _assert_matches_per_label_oracle(features, labels, config, **groups):
    model = train(features, labels, config, **groups)
    oracle = per_label_train_oracle(features, labels, config, **groups)
    assert json.dumps(ensemble_to_dict(model), sort_keys=True) == json.dumps(
        ensemble_to_dict(oracle), sort_keys=True
    )
    for label in ALL_LABELS:
        assert model.models[label].loss_curve == oracle.models[label].loss_curve
    return model


class TestPerLabelOracle:
    """`train` bins the matrix once over its varying columns and derives
    sibling histograms by subtraction; `per_label_train_oracle` bins each
    label's rows on their own and histograms every node. Models and loss
    curves must be bit-equal."""

    RUN_TRAIN = TrainConfig(trees=30, max_depth=3, negative_downsample_ratio=20.0)

    def test_e2e_fixture(self, e2e_training_data):
        rows, labels, config = e2e_training_data
        _assert_matches_per_label_oracle(rows, labels, config)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [20.0, 1.5])
    def test_run_train_shaped(self, seed, ratio):
        features, labels = _run_train_shaped(seed)
        config = TrainConfig(trees=30, max_depth=3, negative_downsample_ratio=ratio)
        model = _assert_matches_per_label_oracle(features, labels, config)
        assert all(not lm.degenerate for lm in model.models.values())

    def test_feature_groups_mask(self):
        features, labels = _run_train_shaped(4)
        _assert_matches_per_label_oracle(
            features, labels, self.RUN_TRAIN, feature_groups=("f1", "f4")
        )

    def test_degenerate_labels(self):
        features, labels = _run_train_shaped(5, labels=(BEFORE,))
        model = _assert_matches_per_label_oracle(features, labels, self.RUN_TRAIN)
        assert model.models[CONCURRENT].degenerate
        assert not model.models[BEFORE].degenerate

    def test_all_constant_matrix(self):
        features, labels = _run_train_shaped(6)
        constant = make_rows(
            np.tile(np.arange(152.0), (len(features), 1)),
            layout=features.layout,
        )
        model = _assert_matches_per_label_oracle(constant, labels, self.RUN_TRAIN)
        trees = [t for lm in model.models.values() for t in lm.trees]
        assert trees and all("value" in t for t in trees)

    def test_single_row(self):
        features = make_rows(np.arange(6.0))
        model = _assert_matches_per_label_oracle(
            features, [frozenset({BEFORE})], self.RUN_TRAIN
        )
        assert all(lm.degenerate for lm in model.models.values())

    def test_column_constant_only_in_one_labels_rows(self):
        # Slot 0 is the one signal for NULL over the whole matrix, but
        # BEFORE's downsampled rows all hold the same value there.
        rng = np.random.default_rng(8)
        n = 60
        y_before = np.zeros(n)
        y_before[:6] = 1.0
        labels = [frozenset({BEFORE})] * 6 + [frozenset({NULL})] * (n - 6)
        config = TrainConfig(trees=10, max_depth=3, negative_downsample_ratio=2.0)
        rows = _downsample_rows(0, labels, y_before, config)
        X = np.round(rng.random((n, 4)), 1)
        X[:, 0] = 1.0
        outside = np.setdiff1d(np.arange(n), rows)
        X[outside[: outside.size // 2], 0] = 0.0
        assert np.unique(X[rows, 0]).size == 1 < np.unique(X[:, 0]).size
        features = make_rows(X)
        model = _assert_matches_per_label_oracle(features, labels, config)
        assert any(0 in tree_features(t) for t in model.models[NULL].trees)
        assert all(0 not in tree_features(t) for t in model.models[BEFORE].trees)


class TestTrainedModelPin:
    """Digests of the e2e fixture's trained model and predictions, taken
    before the single binning and histogram subtraction went in (numpy
    2.4, Python 3.11, x86-64). A change that moves any tree, leaf or
    probability fails here; such a change must update the pin on
    purpose and say why."""

    MODEL_SHA256 = "e4ee6bcc953173ca40ca872a0862b98a1efd83e9ad74b04fcaefa13268ea885b"
    PREDICTIONS_SHA256 = "2b96c4d7c262329ef599c7aa2e37ef8bea6d6d1f7abc56bfe84e344518cb6802"

    def test_model_digest(self, e2e_run):
        out_dir, _ = e2e_run
        model = load_relation_model(str(out_dir / "relations.json"))
        payload = json.dumps(ensemble_to_dict(model), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == self.MODEL_SHA256

    def test_predictions_digest(self, e2e_run):
        out_dir, _ = e2e_run
        lines = (out_dir / "predictions.jsonl").read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b'{"meta":')
        digest = hashlib.sha256(b"".join(lines[1:])).hexdigest()
        assert digest == self.PREDICTIONS_SHA256


def test_stage_train_logs_each_label_model(e2e_run, tmp_path, caplog):
    out_dir, config = e2e_run
    rows = load_features(str(out_dir / "features.csv"))
    labels = labels_for_rows(rows, load_annotations(config["annotations"]))
    train_config = TrainConfig.from_dict(config["train"])
    with caplog.at_level(logging.INFO, logger="ttpmine.pipeline"):
        model = stage_train(
            rows, labels, str(tmp_path / "relations.json"),
            train_config=train_config,
        )
    lines = [r.getMessage() for r in caplog.records if ": label " in r.getMessage()]
    assert len(lines) == len(ALL_LABELS)
    before = model.models[BEFORE]
    curve = before.loss_curve
    assert (
        f"train-relations: label BEFORE: {train_config.trees} trees, "
        f"{before.n_rows} rows ({before.n_positives} positive), degenerate=False, "
        f"loss {curve[0]:.6g} -> {curve[-1]:.6g}"
    ) in lines
    assert (before.n_rows, before.n_positives) == (18, 3)
    assert (
        "train-relations: label CONCURRENT: 0 trees, 3 rows (0 positive), "
        "degenerate=True, loss n/a"
    ) in lines
    # The counts are log-only: the model file is the one `run` wrote.
    written = json.loads((tmp_path / "relations.json").read_text(encoding="utf-8"))
    assert written["model"] == json.loads(
        (out_dir / "relations.json").read_text(encoding="utf-8")
    )["model"]
