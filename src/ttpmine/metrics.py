"""Evaluation primitives over a boolean truth label matrix, columns in
`ALL_LABELS` order: macro P/R/F against a decided label matrix, and
P@K, LRAP and NDCG against an `(n, 4)` probability matrix.

Tie handling is pinned for reproducibility: LRAP gives tied
probabilities the shared best (minimum) rank; NDCG breaks ties by
column order; P@K sorts by probability descending with ties in row
order. Zero-denominator precision and recall are defined as 0. A row's
terms are added left to right, and rows in row order, so each value is
bit-identical to the per-row loops these replaced.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .labels import ALL_LABELS, POSITIVE_LABELS, label_matrix

logger = logging.getLogger(__name__)

# NDCG's discount per rank, and ideal DCG per count of relevant labels
# (1.0 for none, whose DCG is 0), as `math.log2` and `sum` give them.
_DISCOUNTS = [1.0 / math.log2(rank + 2) for rank in range(len(ALL_LABELS))]
_IDEAL_DCG = np.array([1.0] + [sum(_DISCOUNTS[:m]) for m in range(1, len(ALL_LABELS) + 1)])


@dataclass(frozen=True)
class MetricReport:
    per_label: dict[str, dict[str, float]]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_positive_precision: float
    macro_positive_recall: float
    macro_positive_f1: float
    p_at_k: dict[int, float] = field(default_factory=dict)
    lrap: float | None = None
    ndcg: float | None = None

    def to_dict(self) -> dict:
        out = {
            "per_label": self.per_label,
            "macro_avg": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "macro_avg_positive": {
                "precision": self.macro_positive_precision,
                "recall": self.macro_positive_recall,
                "f1": self.macro_positive_f1,
            },
        }
        if self.p_at_k:
            for k, v in sorted(self.p_at_k.items()):
                out[f"P@{k}"] = v
        if self.lrap is not None:
            out["LRAP"] = self.lrap
        if self.ndcg is not None:
            out["NDCG"] = self.ndcg
        return out


def _check_lengths(truth, other, name: str) -> None:
    if len(truth) != len(other):
        raise ValueError(f"length mismatch: {len(truth)} truth vs {len(other)} {name}")


def _binary_prf(tp: int, fp: int, fn: int) -> dict[str, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "support": float(tp + fn),
    }


def _prf_report(truth: np.ndarray, pred: np.ndarray) -> MetricReport:
    _check_lengths(truth, pred, "pred")
    tp = (truth & pred).sum(axis=0).tolist()
    fp = (~truth & pred).sum(axis=0).tolist()
    fn = (truth & ~pred).sum(axis=0).tolist()
    per_label = {lab: _binary_prf(*counts) for lab, *counts in zip(ALL_LABELS, tp, fp, fn)}

    def mean_over(subset, key):
        return sum(per_label[lab][key] for lab in subset) / len(subset)

    return MetricReport(
        per_label=per_label,
        macro_precision=mean_over(ALL_LABELS, "precision"),
        macro_recall=mean_over(ALL_LABELS, "recall"),
        macro_f1=mean_over(ALL_LABELS, "f1"),
        macro_positive_precision=mean_over(POSITIVE_LABELS, "precision"),
        macro_positive_recall=mean_over(POSITIVE_LABELS, "recall"),
        macro_positive_f1=mean_over(POSITIVE_LABELS, "f1"),
    )


def macro_prf(truth, pred) -> MetricReport:
    """Per-label binary P/R/F of two sequences of label sets, plus
    unweighted macro means over all four labels and over the positive
    (non-NULL) labels."""
    return _prf_report(label_matrix(truth), label_matrix(pred))


def lrap(truth: np.ndarray, prob: np.ndarray) -> float:
    """Label ranking average precision with optimistic shared minimum
    rank on ties; rows without true labels are skipped with a warning."""
    _check_lengths(truth, prob, "prob")
    # [i, j, c]: whether row i's label c scores above (or at least) its label j.
    above = (prob[:, None, :] > prob[:, :, None]).sum(axis=2)
    true_at_or_above = ((prob[:, None, :] >= prob[:, :, None]) & truth[:, None, :]).sum(axis=2)
    precision = np.where(truth, true_at_or_above / (1 + above), 0.0)
    n_true = truth.sum(axis=1)
    scored = n_true > 0
    skipped = len(truth) - int(scored.sum())
    if skipped:
        logger.warning("lrap: skipped %d rows without true labels", skipped)
    scores = reduce(np.add, precision.T)[scored] / n_true[scored]
    return sum(scores.tolist()) / len(scores) if len(scores) else 0.0


def ndcg(truth: np.ndarray, prob: np.ndarray) -> float:
    """Mean per-row NDCG with binary relevance and log2 position
    discounting; rows with no relevant label contribute 0 and count."""
    _check_lengths(truth, prob, "prob")
    order = np.argsort(-prob, axis=1, kind="stable")
    dcg = reduce(np.add, (np.take_along_axis(truth, order, axis=1) * _DISCOUNTS).T)
    # A running total, not `sum`, which compensates from Python 3.12 on.
    total = reduce(operator.add, (dcg / _IDEAL_DCG[truth.sum(axis=1)]).tolist(), 0.0)
    return total / max(len(truth), 1)


def macro_p_at_k(truth: np.ndarray, prob: np.ndarray, k: int) -> float:
    """Per-label pools: for each label, rank all rows by that label's
    probability and take the fraction of relevant rows among the top
    min(k, n) (0 when there are no rows); report the unweighted mean
    over labels."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_lengths(truth, prob, "prob")
    top = np.argsort(-prob, axis=0, kind="stable")[:k]
    # With no rows, every pool scores 0 / 1.
    precision = np.take_along_axis(truth, top, axis=0).sum(axis=0) / max(len(top), 1)
    return sum(precision.tolist()) / len(ALL_LABELS)


def evaluate_relations(
    truth: np.ndarray, decided: np.ndarray, probabilities: np.ndarray, ks=(50, 100)
) -> MetricReport:
    """Full relation-classification metric report: macro P/R/F from the
    true and decided label matrices, plus ranking metrics from the
    `predict_batch` probability matrix."""
    return replace(
        _prf_report(truth, decided),
        p_at_k={k: macro_p_at_k(truth, probabilities, k) for k in ks},
        lrap=lrap(truth, probabilities),
        ndcg=ndcg(truth, probabilities),
    )
