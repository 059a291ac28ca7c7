"""One-vs-rest gradient-boosted trees over pair feature vectors.

Per relation label, a binary GBDT with logistic loss: initial score is
the log-odds of the label's (post-downsampling) base rate, each round
fits a regression tree to residuals y - p with Newton-step leaves.
Rows labeled only NULL are downsampled per positive label; training is
deterministic under a fixed seed, and training loss is checked to be
non-increasing every round.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..labels import ALL_LABELS, NULL, POSITIVE_LABELS
from .tree import (
    bin_columns,
    fit_tree,
    predict_tree,
    remap_tree_features,
    tree_max_feature,
)

logger = logging.getLogger(__name__)

ENSEMBLE_FORMAT_VERSION = "1"

_PRIOR_CLAMP = 1e-6
_LOSS_TOLERANCE = 1e-9


class GbdtTrainingError(ValueError):
    """Raised for invalid training inputs or a broken loss contract."""


@dataclass(frozen=True)
class TrainConfig:
    trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    negative_downsample_ratio: float = 10.0
    seed: int = 0
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"trees must be >= 1, got {self.trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.negative_downsample_ratio <= 0:
            raise ValueError(
                f"negative_downsample_ratio must be > 0, got {self.negative_downsample_ratio}"
            )
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must be in (0, 1), got {self.decision_threshold}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


@dataclass
class LabelModel:
    label: str
    init_score: float
    trees: list[dict]
    degenerate: bool = False
    loss_curve: list[float] = field(default_factory=list)
    # Training rows after downsampling and the positives among them; set
    # by `train`, not serialized.
    n_rows: int = 0
    n_positives: int = 0


@dataclass
class GbdtEnsemble:
    models: dict[str, LabelModel]
    layout_version: str
    config: TrainConfig
    n_features: int

    def raw_score(self, label: str, X: np.ndarray) -> np.ndarray:
        model = self.models[label]
        score = np.full(X.shape[0], model.init_score, dtype=np.float64)
        for tree in model.trees:
            score += self.config.learning_rate * predict_tree(tree, X)
        return score


@dataclass(frozen=True)
class RelationPrediction:
    tx: str
    ty: str
    probabilities: dict[str, float]
    labels: frozenset[str]
    report_id: str = ""

    @property
    def pair(self) -> tuple[str, str]:
        return (self.tx, self.ty)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _clamped_log_odds(rate: float) -> float:
    rate = min(max(rate, _PRIOR_CLAMP), 1.0 - _PRIOR_CLAMP)
    return float(np.log(rate / (1.0 - rate)))


def _validate_features(X: np.ndarray) -> None:
    bad = np.argwhere(np.isnan(X))
    if bad.size:
        row, slot = bad[0]
        raise GbdtTrainingError(f"NaN feature value at row {row}, slot {slot}")


def _downsample_rows(
    label_index: int,
    label_sets,
    y: np.ndarray,
    config: TrainConfig,
) -> np.ndarray:
    """Row indices for one positive label's model: every non-NULL-only
    row, plus a deterministic sample of NULL-only rows capped at
    ratio * positive count."""
    null_only = np.array(
        [i for i, labs in enumerate(label_sets) if set(labs) == {NULL}], dtype=np.int64
    )
    rest = np.array(
        [i for i, labs in enumerate(label_sets) if set(labs) != {NULL}], dtype=np.int64
    )
    cap = int(config.negative_downsample_ratio * int(y.sum()))
    if null_only.size <= cap:
        keep_null = null_only
    else:
        rng = np.random.default_rng((config.seed, label_index))
        picked = rng.permutation(null_only.size)[:cap]
        keep_null = null_only[np.sort(picked)]
    return np.sort(np.concatenate([rest, keep_null]))


def train(
    features,
    labels,
    config: TrainConfig,
    feature_groups=None,
) -> GbdtEnsemble:
    """Fit the four one-vs-rest label models.

    `features` is a `FeatureRows`; `labels` the aligned label sets.
    `feature_groups` restricts split candidates to those groups of the
    rows' layout (default slots always active); trees store global slot
    indices either way. The matrix is binned once, and each label model
    fits on its rows of that binning.
    """
    if not len(features):
        raise GbdtTrainingError("no training vectors")
    if len(features) != len(labels):
        raise GbdtTrainingError(
            f"{len(features)} vectors vs {len(labels)} label sets"
        )
    X = features.values
    _validate_features(X)

    if feature_groups is not None:
        active = np.flatnonzero(features.layout.mask(feature_groups))
    else:
        active = np.arange(X.shape[1])

    # One binning for every label model, over the active columns that
    # vary: a column constant over the whole matrix can never split. The
    # kept columns stay in ascending order, so the lowest-feature tie rule
    # holds and `columns` maps tree features back to global slots.
    X_active = X[:, active]
    columns = active[(X_active != X_active[:1]).any(axis=0)]
    binned = bin_columns(X[:, columns])

    models: dict[str, LabelModel] = {}
    for label_index, label in enumerate(ALL_LABELS):
        y = np.array([1.0 if label in labs else 0.0 for labs in labels])
        if label in POSITIVE_LABELS:
            rows = _downsample_rows(label_index, labels, y, config)
        else:
            rows = np.arange(len(labels))
        y_sub = y[rows]

        n_pos = int(y_sub.sum())
        if n_pos == 0 or n_pos == y_sub.size:
            rate = n_pos / y_sub.size if y_sub.size else 0.0
            logger.warning(
                "label %s has %s positives in training data; "
                "model degenerates to the prior",
                label,
                "no" if n_pos == 0 else "only",
            )
            models[label] = LabelModel(
                label=label,
                init_score=_clamped_log_odds(rate),
                trees=[],
                degenerate=True,
                n_rows=int(y_sub.size),
                n_positives=n_pos,
            )
            continue

        init = _clamped_log_odds(n_pos / y_sub.size)
        label_binned = binned.take(rows)
        score = np.full(y_sub.size, init, dtype=np.float64)
        p = _sigmoid(score)
        trees: list[dict] = []
        losses = [_log_loss(y_sub, p)]
        for _ in range(config.trees):
            residuals = y_sub - p
            hessians = p * (1.0 - p)
            tree, leaf_values = fit_tree(
                label_binned, residuals, hessians, config.max_depth
            )
            score = score + config.learning_rate * leaf_values
            p = _sigmoid(score)
            loss = _log_loss(y_sub, p)
            if loss > losses[-1] + _LOSS_TOLERANCE:
                raise GbdtTrainingError(
                    f"label {label}: training loss increased "
                    f"({losses[-1]:.12f} -> {loss:.12f}) at round {len(trees) + 1}"
                )
            losses.append(loss)
            trees.append(remap_tree_features(tree, columns))
        models[label] = LabelModel(
            label=label,
            init_score=init,
            trees=trees,
            loss_curve=losses,
            n_rows=int(y_sub.size),
            n_positives=n_pos,
        )

    return GbdtEnsemble(
        models=models,
        layout_version=features.layout.version,
        config=config,
        n_features=X.shape[1],
    )


def predict_batch(model: GbdtEnsemble, features) -> list[RelationPrediction]:
    """Per-label probabilities plus the decided label set (positives at
    the decision threshold, NULL as fallback) for every row of a
    `FeatureRows`.

    Each label's trees walk the whole matrix, so a row scores exactly as
    it would alone. Rows of another layout than the model's are refused,
    as is a model whose feature count is not its layout's.
    """
    layout = features.layout
    if (layout.version, layout.total) != (model.layout_version, model.n_features):
        raise ValueError(
            f"feature layout {layout.version} ({layout.total} slots) does not "
            f"match the model ({model.layout_version}, {model.n_features} "
            "features); re-extract features or retrain"
        )
    if not len(features):
        return []
    X = features.values
    columns = {
        label: _sigmoid(model.raw_score(label, X)).tolist() for label in ALL_LABELS
    }
    threshold = model.config.decision_threshold
    predictions = []
    for index, (report_id, tx, ty) in enumerate(features.keys):
        probabilities = {label: columns[label][index] for label in ALL_LABELS}
        decided = frozenset(
            lab for lab in POSITIVE_LABELS if probabilities[lab] >= threshold
        )
        predictions.append(
            RelationPrediction(
                tx=tx,
                ty=ty,
                probabilities=probabilities,
                labels=decided or frozenset({NULL}),
                report_id=report_id,
            )
        )
    return predictions


def ensemble_to_dict(model: GbdtEnsemble) -> dict:
    return {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "layout_version": model.layout_version,
        "n_features": model.n_features,
        "config": model.config.to_dict(),
        "labels": {
            label: {
                "init_score": lm.init_score,
                "degenerate": lm.degenerate,
                "trees": lm.trees,
            }
            for label, lm in model.models.items()
        },
    }


def ensemble_from_dict(data: dict) -> GbdtEnsemble:
    config = TrainConfig.from_dict(data["config"])
    models = {
        label: LabelModel(
            label=label,
            init_score=float(entry["init_score"]),
            trees=list(entry["trees"]),
            degenerate=bool(entry["degenerate"]),
        )
        for label, entry in data["labels"].items()
    }
    n_features = int(data["n_features"])
    for lm in models.values():
        for tree in lm.trees:
            if tree_max_feature(tree) >= n_features:
                raise ValueError("tree references a feature beyond the layout")
    return GbdtEnsemble(
        models=models,
        layout_version=data["layout_version"],
        config=config,
        n_features=n_features,
    )
