"""Gradient-boosted relation classifier with histogram split search."""

from .crossval import assign_folds, cross_validate
from .ensemble import (
    ENSEMBLE_FORMAT_VERSION,
    GbdtEnsemble,
    GbdtTrainingError,
    LabelModel,
    RelationPrediction,
    TrainConfig,
    ensemble_from_dict,
    ensemble_to_dict,
    predict_batch,
    train,
)
from .tree import bin_columns, fit_tree, predict_tree

__all__ = [
    "ENSEMBLE_FORMAT_VERSION",
    "GbdtEnsemble",
    "GbdtTrainingError",
    "LabelModel",
    "RelationPrediction",
    "TrainConfig",
    "ensemble_from_dict",
    "ensemble_to_dict",
    "predict_batch",
    "train",
    "assign_folds",
    "cross_validate",
    "bin_columns",
    "fit_tree",
    "predict_tree",
]
