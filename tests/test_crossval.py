"""Report-level cross-validation: fold assignment, leakage-free splits,
and aggregate learnability on a separable corpus."""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from helpers import e2e_config_dict, make_rows
from ttpmine.corpus import load_annotations
from ttpmine.gbdt.crossval import _median, assign_folds, cross_validate
from ttpmine.gbdt.ensemble import GbdtTrainingError, TrainConfig
from ttpmine.labels import ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP
from ttpmine.pipeline import PipelineConfig, labels_for_rows, load_features, run_pipeline


class TestAssignFolds:
    def test_round_robin_over_sorted_ids(self):
        ids = [f"r{k:02d}" for k in range(10)]
        fold_of = assign_folds(reversed(ids), folds=5)
        assert fold_of["r00"] == 0
        assert fold_of["r01"] == 1
        assert fold_of["r05"] == 0
        assert fold_of["r06"] == 1
        counts = [0] * 5
        for fold in fold_of.values():
            counts[fold] += 1
        assert counts == [2, 2, 2, 2, 2]

    def test_duplicates_collapse(self):
        fold_of = assign_folds(["a", "b", "a", "c"], folds=3)
        assert len(fold_of) == 3

    def test_too_few_reports(self):
        with pytest.raises(GbdtTrainingError, match="cannot fill"):
            assign_folds(["r1", "r2", "r3", "r4"], folds=5)


@pytest.mark.parametrize(
    "values",
    [[0.5], [0.3, 0.1], [0.9, 0.1, 0.5], [0.1, 0.2, 0.4, 0.7], [1e-17, 1.0, 1.0, 0.3, 1 / 3, 2 / 3]],
)
def test_median_equals_statistics(values):
    # Exactly `statistics.median`, float for float, in either order.
    for ordered in (values, values[::-1]):
        assert _median(iter(ordered)) == statistics.median(ordered)


def _learnable_corpus(n_reports=12, noise=0.01, seed=6):
    """One pair per relation label per report, each label separable on
    its own feature slot, so every fold can score it."""
    rng = np.random.default_rng(seed)
    signal_slot = {BEFORE: 1, SIMULTANEOUS_OVERLAP: 2, CONCURRENT: 3}
    values, labels = [], []
    for _ in range(n_reports):
        for label in ALL_LABELS:
            row = rng.normal(scale=noise, size=6)
            if label in signal_slot:
                row[signal_slot[label]] += 1.0
            values.append(row)
            labels.append(frozenset({label}))
    features = make_rows(
        values,
        report_ids=[f"r{k:02d}" for k in range(n_reports) for _ in ALL_LABELS],
        ty=[f"TB{label[:2]}" for _ in range(n_reports) for label in ALL_LABELS],
    )
    return features, labels


class TestCrossValidate:
    def test_learnable_corpus_high_macro_f1(self):
        features, labels = _learnable_corpus()
        result = cross_validate(
            features,
            labels,
            TrainConfig(trees=40, max_depth=2),
            folds=4,
            ks=(5,),
        )
        assert result["aggregate"]["macro_f1"] >= 0.9
        assert result["aggregate"]["lrap"] >= 0.9
        assert 0.0 <= result["aggregate"]["p_at_5"] <= 1.0
        assert len(result["folds"]) == 4
        for fold_report in result["folds"]:
            assert set(fold_report["per_label"]) == set(ALL_LABELS)
            assert "P@5" in fold_report

    def test_folds_partition_every_row_once(self):
        features, labels = _learnable_corpus(n_reports=8)
        result = cross_validate(
            features, labels, TrainConfig(trees=5, max_depth=2), folds=4, ks=(2,)
        )
        # Summed per-label supports across fold reports must equal the
        # corpus totals: each row lands in exactly one test fold.
        for label in ALL_LABELS:
            total = sum(
                fold_report["per_label"][label]["support"]
                for fold_report in result["folds"]
            )
            assert total == 8.0

    def test_fewer_reports_than_folds(self):
        features, labels = _learnable_corpus(n_reports=3)
        with pytest.raises(GbdtTrainingError, match="cannot fill"):
            cross_validate(features, labels, TrainConfig(trees=2), folds=5)

    def test_bad_fold_count(self):
        features, labels = _learnable_corpus(n_reports=4)
        with pytest.raises(ValueError, match="folds must be"):
            cross_validate(features, labels, TrainConfig(trees=2), folds=1)

    def test_length_mismatch(self):
        features, labels = _learnable_corpus(n_reports=4)
        with pytest.raises(ValueError, match="vectors vs"):
            cross_validate(features, labels[:-1], TrainConfig(trees=2), folds=2)

    def test_deterministic(self):
        features, labels = _learnable_corpus(n_reports=8)
        config = TrainConfig(trees=10, max_depth=2, seed=2)
        a = cross_validate(features, labels, config, folds=4, ks=(3,))
        b = cross_validate(features, labels, config, folds=4, ks=(3,))
        assert a == b


def test_e2e_fixture_folds_over_reports_with_rows(tmp_path):
    # The fixture has five reports, but r05 detects one technique and so
    # has no pair rows: only four reports can be dealt into folds.
    config = e2e_config_dict(tmp_path)
    run_pipeline(PipelineConfig.from_dict(config))
    rows = load_features(str(tmp_path / "features.csv"))
    labels = labels_for_rows(rows, load_annotations(config["annotations"]))
    train_config = TrainConfig.from_dict(config["train"])
    assert sorted({key.report_id for key in rows}) == ["r01", "r02", "r03", "r04"]
    with pytest.raises(
        GbdtTrainingError,
        match=r"^4 reports with feature rows cannot fill 5 folds \(a report with "
        r"fewer than two detected techniques has no rows\)$",
    ):
        cross_validate(rows, labels, train_config, folds=5)
    result = cross_validate(rows, labels, train_config, folds=4)
    assert len(result["folds"]) == 4
