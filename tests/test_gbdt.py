"""Gradient-boosted relation models: histogram split search against the
brute-force oracle, tree fitting, loss monotonicity, determinism and
serialization."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from helpers import REPO_ROOT, e2e_config_dict, make_rows, tree_features
from oracles import (
    downsample_oracle,
    exact_split_oracle,
    exact_tree_oracle,
    per_label_train_oracle,
)
from ttpmine.features.builder import FeatureRows
from ttpmine.features.layout import N_SLOTS, group_mask
from ttpmine.gbdt.ensemble import (
    GbdtEnsemble,
    GbdtTrainingError,
    TrainConfig,
    _downsample_rows,
    decided_labels,
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
)
from ttpmine.corpus import load_annotations
from ttpmine.labels import ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP
from ttpmine.pipeline import (
    PipelineConfig,
    PipelineError,
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
    tree, values = fit_tree(
        bin_columns(X, np.arange(X.shape[1])), residuals, hessians, max_depth
    )
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
    elif kind == "two_value":
        # Two residuals that are not powers of two: pure nodes occur
        # below the root, and their sums round.
        r = rng.choice([0.3, -0.7], size=m)
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
    "two_value",
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

    def test_large_pure_node_is_leaf(self):
        # Every residual is equal, so every split's exact gain is 0; the
        # rounded gain over 12,000 rows is not, and must not split.
        n = 12_000
        X = (np.arange(n) % 50).astype(np.float64)[:, None]
        tree = _fit(X, np.full(n, 0.99), np.full(n, 0.0099), 3)
        assert tree == {"value": LEAF_VALUE_CAP}

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
            binned = bin_columns(X, np.arange(X.shape[1]))
            tree, values = fit_tree(binned.take(rows), r[rows], h[rows], 3)
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

    def test_splits_name_binned_slots_and_max_feature(self):
        # Binning only slots 10, 40 and 53 of a wider matrix: each split
        # names its slot, and the tree evaluates on the whole matrix.
        rng = np.random.default_rng(12)
        X = np.round(rng.random((40, 60)), 1)
        residuals = X[:, 53] - X[:, 10] + 0.5 * X[:, 40] - X[:, 7]
        binned = bin_columns(X, [10, 40, 53])
        tree, values = fit_tree(binned, residuals, np.full(40, 0.25), 3)
        local, _ = fit_tree(
            bin_columns(X[:, [10, 40, 53]], np.arange(3)), residuals, np.full(40, 0.25), 3
        )
        assert tree_features(tree) == {[10, 40, 53][f] for f in tree_features(local)}
        assert tree_features(tree) >= {10, 53}
        np.testing.assert_array_equal(values, predict_tree(tree, X))


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
        with pytest.raises(ValueError, match="^negative_downsample_ratio must be a finite number > 0"):
            TrainConfig(negative_downsample_ratio=-1.0)
        for ratio in (float("inf"), float("nan"), -float("inf")):
            with pytest.raises(
                ValueError, match=f"^negative_downsample_ratio must be a finite number, got {ratio}$"
            ):
                TrainConfig(negative_downsample_ratio=ratio)
        with pytest.raises(ValueError, match="decision_threshold"):
            TrainConfig(decision_threshold=1.0)

    def test_dict_round_trip(self):
        config = TrainConfig(trees=30, max_depth=2, seed=7)
        assert TrainConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="^unknown key 'extra'$"):
            TrainConfig.from_dict({**config.to_dict(), "extra": 1})


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


def _null_only(labels) -> np.ndarray:
    return np.array([set(labs) == {NULL} for labs in labels], dtype=bool)


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
        rows = _downsample_rows(0, _null_only(self.LABELS), y, config)
        again = _downsample_rows(0, _null_only(self.LABELS), y, config)
        np.testing.assert_array_equal(rows, again)
        assert {2, 4} <= set(rows.tolist())  # positives always kept
        # 2 positives at ratio 1.0 keep at most 2 of the 5 NULL-only rows.
        assert len(rows) == 4
        assert np.array_equal(rows, np.sort(rows))

    def test_generous_ratio_keeps_everything(self):
        y = np.array([1.0 if BEFORE in labs else 0.0 for labs in self.LABELS])
        rows = _downsample_rows(0, _null_only(self.LABELS), y, TrainConfig())
        np.testing.assert_array_equal(rows, np.arange(len(self.LABELS)))

    def test_label_index_changes_sample(self):
        labels = [frozenset({NULL})] * 40 + [frozenset({BEFORE})]
        y = np.zeros(41)
        y[40] = 1.0
        config = TrainConfig(negative_downsample_ratio=5.0, seed=0)
        a = _downsample_rows(0, _null_only(labels), y, config)
        b = _downsample_rows(1, _null_only(labels), y, config)
        assert len(a) == len(b) == 6
        assert not np.array_equal(a, b)

    def test_mixed_label_rows_never_dropped(self):
        labels = [frozenset({NULL})] * 30 + [frozenset({BEFORE, SIMULTANEOUS_OVERLAP})]
        y = np.zeros(31)
        y[30] = 1.0
        rows = _downsample_rows(0, _null_only(labels), y, TrainConfig(negative_downsample_ratio=1.0))
        assert 30 in rows.tolist()
        assert len(rows) == 2


class TestKeyedSample:
    """The NULL-only rows a downsampled label keeps are those with the
    lowest splitmix64 keys of (seed mod 2**64, label index, row index),
    computed in wrapping uint64 array arithmetic."""

    @staticmethod
    def _case(n_null, positives, ratio, seed):
        null_only = np.ones(n_null + len(positives), dtype=bool)
        null_only[list(positives)] = False
        y = (~null_only).astype(np.float64)
        return null_only, y, TrainConfig(negative_downsample_ratio=ratio, seed=seed)

    def test_golden_sample(self):
        # Pinned: a numpy release or platform that moves the sample fails.
        null_only, y, config = self._case(28, (5, 17), 3.0, 12345)
        rows = _downsample_rows(2, null_only, y, config)
        assert rows.tolist() == [5, 8, 11, 14, 16, 17, 23, 25]

    @pytest.mark.parametrize("seed", [0, 1, 7, -5, 2**63 + 1, 2**64 + 7])
    @pytest.mark.parametrize("label_index", [0, 1, 2])
    def test_matches_python_int_oracle(self, seed, label_index):
        null_only, y, config = self._case(60, (3, 30, 59), 4.0, seed)
        rows = _downsample_rows(label_index, null_only, y, config)
        assert rows.tolist() == downsample_oracle(label_index, null_only, y, config)

    @pytest.mark.parametrize("ratio, cap", [(1.0, 2), (2.5, 5), (9.9, 19)])
    def test_keeps_exactly_cap_null_rows(self, ratio, cap):
        null_only, y, config = self._case(40, (0, 20), ratio, 3)
        rows = _downsample_rows(0, null_only, y, config)
        assert int(null_only[rows].sum()) == cap
        assert {0, 20} <= set(rows.tolist())

    def test_seed_changes_sample(self):
        # The label's part is `TestDownsampling.test_label_index_changes_sample`.
        samples = {
            tuple(_downsample_rows(0, *self._case(40, (40,), 5.0, seed)))
            for seed in (0, 1, 2**64 - 1)
        }
        assert len(samples) == 3

    def test_inclusion_rate_near_cap_over_n(self):
        # 40 NULL-only rows, cap 10: each row's inclusion count over 200
        # seeds is Binomial(200, 0.25) for a uniform sampler, whose
        # standard deviation in rate is 0.031; allow four of them.
        n, cap, runs = 40, 10, 200
        counts = np.zeros(n + 1)
        for seed in range(runs):
            null_only, y, config = self._case(n, (n,), 10.0, seed)
            counts[_downsample_rows(0, null_only, y, config)] += 1
        rate = counts[:n] / runs
        tolerance = 4 * math.sqrt(cap / n * (1 - cap / n) / runs)
        assert np.abs(rate - cap / n).max() <= tolerance
        assert counts[n] == runs

    @pytest.mark.parametrize("seed", [-5, 2**63 + 1])
    def test_extreme_seeds_raise_no_warning(self, seed):
        null_only, y, config = self._case(50, (7,), 3.0, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _downsample_rows(1, null_only, y, config)
        assert rows.size == 4


def test_training_does_not_import_numpy_random(tmp_path):
    # A fresh interpreter: nothing else in this process has loaded
    # numpy.random before `train` runs.
    script = textwrap.dedent("""
        import sys

        import numpy as np

        from ttpmine.features.builder import FeatureRows, PairKey
        from ttpmine.features.layout import N_SLOTS
        from ttpmine.gbdt.ensemble import TrainConfig, train
        from ttpmine.labels import BEFORE, NULL

        n = 60
        values = np.zeros((n, N_SLOTS))
        values[:, 0] = np.arange(n) % 7
        values[:, 1] = np.arange(n) % 3
        labels = [frozenset({BEFORE}) if k % 10 == 0 else frozenset({NULL}) for k in range(n)]
        keys = [PairKey(f"r{k}", "TA", "TB") for k in range(n)]
        assert "numpy.random" not in sys.modules
        model = train(
            FeatureRows(keys, values), labels,
            TrainConfig(trees=3, negative_downsample_ratio=2.0),
        )
        assert model.models[BEFORE].n_rows == 18, model.models[BEFORE].n_rows
        print("numpy.random" in sys.modules)
    """)
    path = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


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
        probabilities = predict_batch(model, features)
        decided = decided_labels(probabilities, model.config.decision_threshold)
        assert all(
            (BEFORE in labs) == (BEFORE in truth) for labs, truth in zip(decided, labels)
        )
        # Positive probabilities end far from the boundary.
        assert all(
            p > 0.9
            for p, truth in zip(probabilities[:, ALL_LABELS.index(BEFORE)].tolist(), labels)
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
        probabilities = predict_batch(model, features)
        assert probabilities[0, ALL_LABELS.index(CONCURRENT)] == pytest.approx(1e-6, rel=1e-3)
        assert CONCURRENT not in decided_labels(probabilities, 0.5)[0]

    def test_single_stump_monotone_in_signal(self):
        values = np.zeros((10, 4))
        values[:, 0] = np.arange(10.0)
        features = make_rows(values, report_ids=[f"r{x0}" for x0 in range(10)])
        labels = [frozenset({BEFORE}) if x0 >= 5 else frozenset({NULL}) for x0 in range(10)]
        model = train(features, labels, TrainConfig(trees=1, max_depth=1))
        probs = predict_batch(model, features)[:, ALL_LABELS.index(BEFORE)].tolist()
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
        values, labels = [], []
        for k in range(24):
            row = rng.normal(scale=0.01, size=N_SLOTS)
            positive = k % 2 == 0
            signal = 1.0 if positive else 0.0
            row[60] = signal  # an f4 slot
            row[12] = signal  # an f1 slot
            values.append(row)
            labels.append(frozenset({BEFORE}) if positive else frozenset({NULL}))
        ids = [f"r{k:02d}" for k in range(24)]
        return make_rows(values, report_ids=ids), labels

    def test_split_candidates_restricted_to_mask(self):
        rng = np.random.default_rng(2)
        features, labels = self._grouped_data(rng)
        model = train(
            features,
            labels,
            TrainConfig(trees=8, max_depth=2),
            feature_groups=("f4",),
        )
        allowed = set(np.flatnonzero(group_mask(["f4"])).tolist())
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
        # One row per feature row, one column per label, each row as it
        # scores alone.
        model, features = self._model_and_features()
        probabilities = predict_batch(model, features)
        assert probabilities.shape == (len(features), len(ALL_LABELS))
        assert ((probabilities >= 0.0) & (probabilities <= 1.0)).all()
        first = FeatureRows(features.keys[:1], features.values[:1])
        assert np.array_equal(predict_batch(model, first), probabilities[:1])

    def test_null_fallback_when_nothing_decided(self):
        model, features = self._model_and_features()
        decided = decided_labels(predict_batch(model, features), 0.5)
        assert decided[-1] == frozenset({NULL})  # a NULL-side row

    def test_layout_mismatch_rejected(self):
        # Rows always have the one layout, so the model reader is where a
        # model of another layout is refused.
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        data.update(layout_version="v1-bins5", n_features=107)
        with pytest.raises(ValueError, match="retrain on features from `ttpmine features`"):
            ensemble_from_dict(data)

    def test_round_trip_preserves_predictions(self, tmp_path):
        model, features = self._model_and_features()
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"meta": {}, "model": ensemble_to_dict(model)}), encoding="utf-8"
        )
        loaded = load_relation_model(str(path))
        assert isinstance(loaded, GbdtEnsemble)
        assert loaded.config == model.config
        first = FeatureRows(features.keys[:6], features.values[:6])
        assert np.array_equal(predict_batch(model, first), predict_batch(loaded, first))

    def test_bare_model_names_file(self, tmp_path):
        # A model dict without the pipeline's meta wrapper does not load.
        model, _ = self._model_and_features()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ensemble_to_dict(model)), encoding="utf-8")
        with pytest.raises(
            PipelineError, match=f"^{re.escape(str(path))}: malformed .*: missing key 'model'"
        ):
            load_relation_model(str(path))

    def test_serialized_format_fields(self):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        assert data["format_version"] == "1"
        assert data["layout_version"] == "v2"
        assert data["n_features"] == 62
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
        with pytest.raises(ValueError, match=r"^tree split: feature 99 is not in \[0, 62\)$"):
            ensemble_from_dict(data)

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"value": "x"}, "tree leaf: value must be a finite number, got 'x'"),
            ({"value": float("nan")}, "tree leaf: value must be a finite number, got nan"),
            ({"value": True}, "tree leaf: value must be a finite number, got True"),
            ({"value": 0.0, "feature": 1}, "tree leaf: unknown key 'feature'"),
            ([0.0], r"tree node: expected an object, got \[0\.0\]"),
            (
                {"feature": 1, "threshold": None, "left": {"value": 0.0}, "right": {"value": 0.0}},
                "tree split: threshold must be a finite number, got None",
            ),
            (
                {"feature": 1.0, "threshold": 0.5, "left": {"value": 0.0}, "right": {"value": 0.0}},
                "tree split: feature must be an integer, got 1.0",
            ),
            (
                {"feature": -1, "threshold": 0.5, "left": {"value": 0.0}, "right": {"value": 0.0}},
                r"tree split: feature -1 is not in \[0, 62\)",
            ),
            (
                {"feature": 1, "threshold": 0.5, "left": {"value": 0.0}, "right": {"value": "x"}},
                "tree leaf: value must be a finite number, got 'x'",
            ),
            (
                {"feature": 1, "threshold": 0.5, "left": {"value": 0.0}},
                "tree split: missing key 'right'",
            ),
        ],
    )
    def test_malformed_tree_rejected(self, tree, message):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        data["labels"][BEFORE]["trees"] = [tree]
        with pytest.raises(ValueError, match=f"^{message}$"):
            ensemble_from_dict(data)

    def test_label_keys_must_be_all_labels(self):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        data["labels"]["FOO"] = data["labels"].pop(NULL)
        with pytest.raises(ValueError, match=r"labels \['BEFORE', 'CONCURRENT', 'FOO', "):
            ensemble_from_dict(data)
        del data["labels"]["FOO"]
        with pytest.raises(ValueError, match="are not"):
            ensemble_from_dict(data)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_init_score_rejected(self, score):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        data["labels"][BEFORE]["init_score"] = score
        with pytest.raises(
            ValueError, match=f"^label BEFORE: init_score must be a finite number, got {score}$"
        ):
            ensemble_from_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.update(extra=1), "unknown key 'extra'"),
            (
                lambda data: data["labels"][BEFORE].update(learning_rate=5.0),
                "label BEFORE: unknown key 'learning_rate'",
            ),
            (
                lambda data: data["labels"].update(BEFORE="abc"),
                "label BEFORE: expected an object, got 'abc'",
            ),
            (
                lambda data: data.update(layout_version="v1-bins10", n_features=152),
                r"feature layout v1-bins10 \(152 features\) is not v2 \(62 features\); "
                "retrain on features from `ttpmine features`",
            ),
            (
                lambda data: data.update(n_features=71),
                r"feature layout v2 \(71 features\) is not v2 \(62 features\); ",
            ),
        ],
        ids=["model-key", "label-key", "label-entry", "v1-bins10", "n_features"],
    )
    def test_unread_key_or_other_layout_rejected(self, edit, message):
        # The reader takes the keys the writer writes, of the one layout.
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        edit(data)
        with pytest.raises(ValueError, match=f"^{message}"):
            ensemble_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("init_score", "0.25", "label BEFORE: init_score must be a finite number, got '0.25'"),
            ("init_score", True, "label BEFORE: init_score must be a finite number, got True"),
            ("degenerate", "false", "label BEFORE: degenerate must be a boolean, got 'false'"),
            ("trees", {}, r"label BEFORE: trees must be a list, got \{\}"),
            ("n_features", 152.9, "n_features must be an integer, got 152.9"),
            ("n_features", "152", "n_features must be an integer, got '152'"),
            ("n_features", True, "n_features must be an integer, got True"),
            ("layout_version", 3, "layout_version must be a string, got 3"),
        ],
    )
    def test_field_of_wrong_json_type_rejected(self, field, value, message):
        model, _ = self._model_and_features()
        data = ensemble_to_dict(model)
        if field in ("n_features", "layout_version"):
            data[field] = value
        else:
            data["labels"][BEFORE][field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            ensemble_from_dict(data)


def _run_train_shaped(seed, labels=(BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT)):
    """Rows shaped like the `run-train` workload's: 120 pair vectors of
    the 62-slot layout, about a third of the slots constant and the rest
    small counts, flags or tied scores, mostly NULL-only rows, and a few
    rows of each given relation (some carrying two)."""
    rng = np.random.default_rng(seed)
    n_rows, n_slots = 120, N_SLOTS
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
            X[k, int(rng.integers(1, 20)) * 3 + 1] += 1.0
            label_sets.append(frozenset(picked))
        else:
            label_sets.append(frozenset({NULL}))
    ids = [f"r{k // 20}" for k in range(n_rows)]
    return make_rows(X, report_ids=ids), label_sets


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
            np.tile(np.arange(float(N_SLOTS)), (len(features), 1))
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
        rows = _downsample_rows(0, _null_only(labels), y_before, config)
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
    purpose and say why. The model pin was retaken when F4 dropped its
    one-hot bins: only `layout_version` (v1-bins10 to v2) and
    `n_features` (152 to 62) moved, every tree is the same."""

    MODEL_SHA256 = "c4be4756188554b6f38d7b7ea6841231933a167d5bfd470cca0de348bc3bd6c4"
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
    splits = sum(json.dumps(t).count('"threshold"') for t in before.trees)
    assert (
        f"train-relations: label BEFORE: {train_config.trees} trees "
        f"({splits} splits), {before.n_rows} rows ({before.n_positives} positive), degenerate=False, "
        f"loss {curve[0]:.6g} -> {curve[-1]:.6g}"
    ) in lines
    assert (before.n_rows, before.n_positives) == (18, 3)
    assert (
        "train-relations: label CONCURRENT: 0 trees (0 splits), 3 rows (0 positive), "
        "degenerate=True, loss n/a"
    ) in lines
    # The counts are log-only: the model file is the one `run` wrote.
    written = json.loads((tmp_path / "relations.json").read_text(encoding="utf-8"))
    assert written["model"] == json.loads(
        (out_dir / "relations.json").read_text(encoding="utf-8")
    )["model"]
