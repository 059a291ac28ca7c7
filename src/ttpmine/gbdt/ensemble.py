"""One-vs-rest gradient-boosted trees over pair feature vectors.

Per relation label, a binary GBDT with logistic loss: initial score is
the log-odds of the label's (post-downsampling) base rate, each round
fits a regression tree to residuals y - p with Newton-step leaves.
Rows labeled only NULL are downsampled per positive label: that label's
model keeps the NULL-only rows with the lowest 64-bit keys, each key a
splitmix64 mix of (seed, label index, row index) computed in wrapping
uint64 array arithmetic, so the sample is the same on every platform and
numpy release and needs no random generator. Training is deterministic
under a fixed seed, and training loss is checked to be non-increasing
every round.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..features.layout import LAYOUT_VERSION, N_SLOTS, group_mask
from ..labels import ALL_LABELS, NULL, POSITIVE_LABELS
from ..records import BOOL, INT, LIST, NUMBER, OBJECT, STRING, check_object, check_record
from .tree import bin_columns, check_tree, fit_tree, predict_tree

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
        check_record(vars(self), TRAIN_CONFIG_SHAPE)
        if self.trees < 1:
            raise ValueError(f"trees must be >= 1, got {self.trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not self.negative_downsample_ratio > 0.0:
            raise ValueError(
                "negative_downsample_ratio must be a finite number > 0, "
                f"got {self.negative_downsample_ratio}"
            )
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must be in (0, 1), got {self.decision_threshold}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "") -> "TrainConfig":
        """A train config file's config: a key left out keeps its default."""
        check_object(data, where)
        record = {**vars(cls()), **data}
        check_record(record, TRAIN_CONFIG_SHAPE, where)
        return cls(**record)


TRAIN_CONFIG_SHAPE = dict(
    trees=INT, max_depth=INT, learning_rate=NUMBER, negative_downsample_ratio=NUMBER,
    seed=INT, decision_threshold=NUMBER,
)


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
    config: TrainConfig

    def raw_score(self, label: str, X: np.ndarray) -> np.ndarray:
        model = self.models[label]
        score = np.full(X.shape[0], model.init_score, dtype=np.float64)
        for tree in model.trees:
            score += self.config.learning_rate * predict_tree(tree, X)
        return score


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


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, elementwise on a uint64 array; the
    arithmetic wraps mod 2**64. A bijection, so distinct inputs get
    distinct outputs."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _downsample_rows(
    label_index: int,
    null_only: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
) -> np.ndarray:
    """Sorted row indices for one positive label's model: every row that
    is not NULL-only (`null_only` False), plus the NULL-only rows when
    they number at most `cap = int(ratio * positive count of y)`, else
    the `cap` of them with the lowest key. A row's key mixes
    `(seed mod 2**64, label_index, row index)`, and the stable sort
    gives a tie to the lower row."""
    null_rows = np.flatnonzero(null_only)
    cap = int(config.negative_downsample_ratio * int(y.sum()))
    if null_rows.size <= cap:
        return np.arange(null_only.size)
    # One-element arrays, not numpy scalars: scalar arithmetic warns on
    # the wrap that the mix relies on.
    salt = _mix64(np.array([config.seed % 2**64], dtype=np.uint64))
    salt = _mix64(salt ^ np.uint64(label_index))
    keys = _mix64(salt ^ null_rows.astype(np.uint64))
    keep = ~null_only
    keep[null_rows[np.argsort(keys, kind="stable")[:cap]]] = True
    return np.flatnonzero(keep)


def train(
    features,
    labels,
    config: TrainConfig,
    feature_groups=None,
) -> GbdtEnsemble:
    """Fit the four one-vs-rest label models.

    `features` is a `FeatureRows`; `labels` the aligned boolean label
    matrix, of shape `(len(features), 4)`. `feature_groups` restricts
    split candidates to those groups of the layout (default slots always
    active); trees store global slot indices either way. The matrix is
    binned once, and each label model fits on its rows of that binning.
    """
    if not len(features):
        raise GbdtTrainingError("no training vectors")
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (len(features), len(ALL_LABELS)):
        raise GbdtTrainingError(
            f"{len(features)} vectors vs a label matrix of shape {labels.shape}"
        )
    X = features.values
    _validate_features(X)

    if feature_groups is not None:
        active = np.flatnonzero(group_mask(feature_groups))
    else:
        active = np.arange(X.shape[1])

    # One binning for every label model, over the active columns that
    # vary: a column constant over the whole matrix can never split. The
    # kept columns stay in ascending order, so the lowest-feature tie rule
    # holds.
    X_active = X[:, active]
    binned = bin_columns(X, active[(X_active != X_active[:1]).any(axis=0)])
    # The rows a positive label downsamples: NULL with no positive label.
    positive = labels[:, : len(POSITIVE_LABELS)].any(axis=1)
    null_only = labels[:, ALL_LABELS.index(NULL)] & ~positive

    models: dict[str, LabelModel] = {}
    for label_index, label in enumerate(ALL_LABELS):
        y = labels[:, label_index].astype(np.float64)
        if label in POSITIVE_LABELS:
            rows = _downsample_rows(label_index, null_only, y, config)
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
            trees.append(tree)
        models[label] = LabelModel(
            label=label,
            init_score=init,
            trees=trees,
            loss_curve=losses,
            n_rows=int(y_sub.size),
            n_positives=n_pos,
        )

    return GbdtEnsemble(models=models, config=config)


def predict_batch(model: GbdtEnsemble, features) -> np.ndarray:
    """The `(n, 4)` float64 matrix of every `FeatureRows` row's label
    probabilities, its columns in `ALL_LABELS` order.

    Each label's trees walk the whole matrix, so a row scores exactly as
    it would alone. Rows and models have the one layout: the CSV reader
    and `ensemble_from_dict` refuse any other.
    """
    X = features.values
    return np.stack(
        [_sigmoid(model.raw_score(label, X)) for label in ALL_LABELS], axis=1
    )


def decided_labels(probabilities: np.ndarray, threshold: float) -> np.ndarray:
    """The boolean label matrix decided for a `predict_batch` matrix:
    each row holds every positive label whose probability is at or above
    `threshold`, or NULL alone when there is none. `ALL_LABELS` puts the
    positive labels first and NULL last, so the columns line up."""
    positive = probabilities[:, : len(POSITIVE_LABELS)] >= threshold
    return np.column_stack([positive, ~positive.any(axis=1)])


# The shapes `ensemble_to_dict` writes, at model level and in each label entry.
_MODEL_SHAPE = dict(
    format_version=STRING, layout_version=STRING, n_features=INT, config=OBJECT, labels=OBJECT
)
_LABEL_SHAPE = dict(init_score=NUMBER, degenerate=BOOL, trees=LIST)


def ensemble_to_dict(model: GbdtEnsemble) -> dict:
    return {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "layout_version": LAYOUT_VERSION,
        "n_features": N_SLOTS,
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
    """Rebuild an `ensemble_to_dict` model; ValueError for a record of
    another shape (see `check_record`) or format, a layout other than
    `LAYOUT_VERSION` of `N_SLOTS` slots, label keys other than `ALL_LABELS`, a config
    `TrainConfig` rejects or a tree `check_tree` rejects."""
    check_record(data, _MODEL_SHAPE)
    version = data["format_version"]
    if version != ENSEMBLE_FORMAT_VERSION:
        raise ValueError(f"ensemble format {version!r} is not {ENSEMBLE_FORMAT_VERSION!r}")
    layout_version, n_features = data["layout_version"], data["n_features"]
    if (layout_version, n_features) != (LAYOUT_VERSION, N_SLOTS):
        raise ValueError(
            f"feature layout {layout_version} ({n_features} features) is not "
            f"{LAYOUT_VERSION} ({N_SLOTS} features); retrain on features "
            "from `ttpmine features`"
        )
    if set(data["labels"]) != set(ALL_LABELS):
        raise ValueError(f"labels {sorted(data['labels'])} are not {sorted(ALL_LABELS)}")
    check_record(data["config"], TRAIN_CONFIG_SHAPE, "config: ")
    config = TrainConfig(**data["config"])
    models = {}
    for label, entry in data["labels"].items():
        check_record(entry, _LABEL_SHAPE, f"label {label}: ")
        for k, tree in enumerate(entry["trees"]):
            check_tree(tree, N_SLOTS, f"label {label}: tree {k}: ")
        models[label] = LabelModel(
            label=label,
            init_score=float(entry["init_score"]),
            trees=entry["trees"],
            degenerate=entry["degenerate"],
        )
    return GbdtEnsemble(models=models, config=config)
