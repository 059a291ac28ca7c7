"""Report-level cross-validation for the relation classifier."""

from __future__ import annotations

from ..metrics import evaluate_relations
from .ensemble import GbdtTrainingError, TrainConfig, predict_batch, train


def _median(values) -> float:
    """The median as `statistics.median` takes it: the middle value, or
    the mean of the two middle values. `statistics` imports `decimal` and
    `fractions`, which nothing else here needs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def assign_folds(report_ids, folds: int) -> dict[str, int]:
    """Deterministic round-robin assignment over sorted report ids.

    The ids come from feature rows, and a report with fewer than two
    detected techniques has no rows, so it takes no part in the folds.
    """
    ordered = sorted(set(report_ids))
    if len(ordered) < folds:
        raise GbdtTrainingError(
            f"{len(ordered)} reports with feature rows cannot fill {folds} "
            "folds (a report with fewer than two detected techniques has no rows)"
        )
    return {rid: k % folds for k, rid in enumerate(ordered)}


def cross_validate(
    features,
    labels,
    config: TrainConfig,
    folds: int = 5,
    feature_groups=None,
    ks=(50, 100),
) -> dict:
    """Partition the rows of a `FeatureRows` at the report level (all
    pairs of a report share a fold), train on the complement, evaluate
    each fold, and aggregate by the median across folds."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} vectors vs {len(labels)} label sets")
    fold_of = assign_folds((key.report_id for key in features), folds)

    fold_reports = []
    for fold in range(folds):
        train_idx = [
            i for i, key in enumerate(features) if fold_of[key.report_id] != fold
        ]
        test_idx = [
            i for i, key in enumerate(features) if fold_of[key.report_id] == fold
        ]
        model = train(
            features.take(train_idx),
            [labels[i] for i in train_idx],
            config,
            feature_groups=feature_groups,
        )
        predictions = predict_batch(model, features.take(test_idx))
        truth = [labels[i] for i in test_idx]
        report = evaluate_relations(
            truth,
            [p.labels for p in predictions],
            [p.probabilities for p in predictions],
            ks=ks,
        )
        fold_reports.append(report)

    aggregate = {
        "macro_precision": _median(r.macro_precision for r in fold_reports),
        "macro_recall": _median(r.macro_recall for r in fold_reports),
        "macro_f1": _median(r.macro_f1 for r in fold_reports),
        "lrap": _median(r.lrap for r in fold_reports),
        "ndcg": _median(r.ndcg for r in fold_reports),
    }
    for k in ks:
        aggregate[f"p_at_{k}"] = _median(r.p_at_k[k] for r in fold_reports)
    return {
        "folds": [r.to_dict() for r in fold_reports],
        "aggregate": aggregate,
    }
