"""Evaluation primitives: macro P/R/F over relation label sets, P@K,
LRAP and NDCG.

Tie handling is pinned for reproducibility: LRAP gives tied
probabilities the shared best (minimum) rank; NDCG breaks ties by the
stable label order of the probability mapping; P@K sorts by probability
descending with ties in stable input order. Zero-denominator precision
and recall are defined as 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

from .labels import ALL_LABELS, POSITIVE_LABELS

logger = logging.getLogger(__name__)


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


def _binary_prf(truth, pred, label) -> dict[str, float]:
    tp = sum(1 for t, p in zip(truth, pred) if label in t and label in p)
    fp = sum(1 for t, p in zip(truth, pred) if label not in t and label in p)
    fn = sum(1 for t, p in zip(truth, pred) if label in t and label not in p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "support": float(tp + fn),
    }


def macro_prf(truth, pred) -> MetricReport:
    """Per-label binary P/R/F plus unweighted macro means over all four
    labels and over the positive (non-NULL) labels."""
    if len(truth) != len(pred):
        raise ValueError(f"length mismatch: {len(truth)} truth vs {len(pred)} pred")
    per_label = {lab: _binary_prf(truth, pred, lab) for lab in ALL_LABELS}

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


def precision_at_k(scores, k: int) -> float:
    """Fraction of relevant items among the top min(k, len) by
    probability; empty input gives 0.0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    items = list(scores)
    if not items:
        return 0.0
    ranked = sorted(items, key=lambda t: -t[0])
    top = ranked[: min(k, len(ranked))]
    return sum(1 for _, relevant in top if relevant) / len(top)


def lrap(truth, prob) -> float:
    """Label ranking average precision with optimistic shared minimum
    rank on ties; rows without true labels are skipped with a warning."""
    if len(truth) != len(prob):
        raise ValueError(f"length mismatch: {len(truth)} truth vs {len(prob)} prob")
    row_scores = []
    skipped = 0
    for true_labels, p in zip(truth, prob):
        if not true_labels:
            skipped += 1
            continue
        values = list(p.values())
        per_label = []
        for lab in true_labels:
            pj = p[lab]
            in_true_at_or_above = sum(1 for t in true_labels if p[t] >= pj)
            strictly_above = sum(1 for v in values if v > pj)
            per_label.append(in_true_at_or_above / (1 + strictly_above))
        row_scores.append(sum(per_label) / len(per_label))
    if skipped:
        logger.warning("lrap: skipped %d rows without true labels", skipped)
    if not row_scores:
        return 0.0
    return sum(row_scores) / len(row_scores)


def ndcg(truth, prob) -> float:
    """Mean per-row NDCG with binary relevance and log2 position
    discounting; rows with no relevant label contribute 0 and count."""
    if len(truth) != len(prob):
        raise ValueError(f"length mismatch: {len(truth)} truth vs {len(prob)} prob")
    if not truth:
        return 0.0
    total = 0.0
    for true_labels, p in zip(truth, prob):
        labels = list(p.keys())
        relevant = sum(1 for lab in labels if lab in true_labels)
        if relevant == 0:
            continue
        order = sorted(range(len(labels)), key=lambda idx: (-p[labels[idx]], idx))
        dcg = sum(
            1.0 / math.log2(rank + 2)
            for rank, idx in enumerate(order)
            if labels[idx] in true_labels
        )
        idcg = sum(1.0 / math.log2(rank + 2) for rank in range(relevant))
        total += dcg / idcg
    return total / len(truth)


def macro_p_at_k(truth, prob, k: int) -> float:
    """Per-label pools: for each label, rank all rows by that label's
    probability and take P@K; report the unweighted mean over labels."""
    pools = [[(p[lab], lab in t) for t, p in zip(truth, prob)] for lab in ALL_LABELS]
    return sum(precision_at_k(pool, k) for pool in pools) / len(pools)


def evaluate_relations(truth, pred_sets, prob, ks=(50, 100)) -> MetricReport:
    """Full relation-classification metric report: macro P/R/F from the
    decided label sets plus ranking metrics from the probabilities."""
    return replace(
        macro_prf(truth, pred_sets),
        p_at_k={k: macro_p_at_k(truth, prob, k) for k in ks},
        lrap=lrap(truth, prob),
        ndcg=ndcg(truth, prob),
    )
