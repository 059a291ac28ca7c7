"""Class-based TF-IDF sentence classifier and report-level aggregation.

The weak classifier scores a sentence against each technique by cosine
between the sentence's term-frequency vector and the class's c-TFIDF
weight vector, max-normalized into a pseudo-probability. Any component
mapping a sentence to per-technique scores in [0,1] can stand in for it
downstream; this is the built-in provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .attack_kb import ActionDataset
from .corpus import Report, tokenize_texts
from .records import NUMBER, STRING, STRINGS, check_record, list_of

CTFIDF_FORMAT_VERSION = "1"

DEFAULT_THRESHOLD = 0.95
TOP_K_SCORES = 5


class TrainingError(ValueError):
    """Raised when a dataset cannot produce a valid model."""


@dataclass(eq=False)
class CtfidfModel:
    vocab: dict[str, int]
    class_ids: tuple[str, ...]
    class_vectors: np.ndarray  # (classes, vocab) c-TFIDF weights

    def __post_init__(self):
        norms = np.linalg.norm(self.class_vectors, axis=1)
        self._row_norms = norms


@dataclass(frozen=True)
class ReportPrediction:
    """One report's detections: the techniques with a sentence at or
    above the threshold, and nothing the features stage does not read."""

    report_id: str
    # Indices of sentences scoring >= threshold, per detected technique.
    hit_sentences: dict[str, tuple[int, ...]]
    # Top-5 sentence scores per detected technique, descending,
    # zero-padded.
    top_scores: dict[str, tuple[float, ...]]

    @property
    def techniques(self) -> frozenset[str]:
        return frozenset(self.hit_sentences)


def train_ctfidf(dataset: ActionDataset) -> CtfidfModel:
    """Fit c-TFIDF class vectors.

    tf(t,c) = count of t in class c's concatenated examples / total
    tokens of c; idf(t) = ln(1 + A/f(t)) with A the mean token count per
    class and f(t) the total count of t across all classes. A
    multi-labeled example contributes to each of its classes.
    """
    if not dataset.examples or not dataset.techniques:
        raise TrainingError("action dataset is empty")

    class_ids = tuple(dataset.techniques)
    class_index = {cid: k for k, cid in enumerate(class_ids)}
    counts: list[dict[str, int]] = [dict() for _ in class_ids]
    token_lists = tokenize_texts([sentence for sentence, _ in dataset.examples])
    for (_, labels), tokens in zip(dataset.examples, token_lists):
        for cid in labels:
            bucket = counts[class_index[cid]]
            for tok in tokens:
                bucket[tok] = bucket.get(tok, 0) + 1

    totals = np.array([sum(c.values()) for c in counts], dtype=np.float64)
    empty = [class_ids[k] for k in range(len(class_ids)) if totals[k] == 0]
    if empty:
        raise TrainingError(f"classes with no usable tokens: {empty}")

    vocab = {tok: j for j, tok in enumerate(sorted(set().union(*counts)))}
    tf = np.zeros((len(class_ids), len(vocab)), dtype=np.float64)
    for k, bucket in enumerate(counts):
        for tok, n in bucket.items():
            tf[k, vocab[tok]] = n
    freq = tf.sum(axis=0)
    idf = np.log(1.0 + float(totals.mean()) / freq)
    weights = (tf / totals[:, None]) * idf[None, :]
    return CtfidfModel(vocab=vocab, class_ids=class_ids, class_vectors=weights)


def score_sentences(model: CtfidfModel, token_lists) -> np.ndarray:
    """Max-normalized cosine scores of each token sequence against each
    class, as a ``(len(token_lists), classes)`` matrix: `_score_stream`
    of the sequences chained into one stream."""
    n_rows = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n_rows)
    rows = np.repeat(np.arange(n_rows), lengths)
    return _score_stream(model, list(chain.from_iterable(token_lists)), rows, n_rows)


def _score_stream(model: CtfidfModel, tokens, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Max-normalized cosine scores of each of `n_rows` sentences against
    each class, as a ``(n_rows, classes)`` matrix, from the token stream
    `tokens` and the sentence of each token, `rows`.

    Every token is looked up in the vocabulary in one pass. The term
    counts only span the columns of the vocabulary that occur in the
    stream, in vocabulary order, so one matrix product scores every
    sentence. Counts are integers, so each row's sum of squares, and
    hence its norm, is exact. A row with no in-vocabulary token, or whose
    maximum cosine is not positive, is all zeros.
    """
    scores = np.zeros((n_rows, len(model.class_ids)), dtype=np.float64)
    ids = np.fromiter(
        map(model.vocab.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens)
    )
    known = ids >= 0
    if not known.any() or not model.class_ids:
        return scores
    cols, term = np.unique(ids[known], return_inverse=True)
    counts = np.bincount(rows[known] * cols.size + term, minlength=n_rows * cols.size)
    counts = counts.reshape(n_rows, cols.size).astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    dots = counts @ model.class_vectors[:, cols].T
    denom = norms[:, None] * model._row_norms[None, :]
    np.divide(dots, denom, out=scores, where=denom > 0)
    top = scores.max(axis=1, keepdims=True)
    return np.divide(scores, top, out=np.zeros_like(scores), where=top > 0)


def predict_report(
    model: CtfidfModel, report: Report, threshold: float = DEFAULT_THRESHOLD
) -> ReportPrediction:
    """Report-level aggregation: a technique is present iff at least one
    sentence scores >= threshold for it. The sentences are scored from
    the report's token stream; no `Sentence` is built."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    matrix = _score_stream(
        model, report.tokens, report.token_sentences(), len(report.lines)
    )
    hit = matrix >= threshold
    detected = np.flatnonzero(hit.any(axis=0))
    top = np.zeros((TOP_K_SCORES, detected.size), dtype=np.float64)
    best = np.sort(matrix[:, detected], axis=0)[::-1][:TOP_K_SCORES]
    top[: best.shape[0]] = best
    ids = [model.class_ids[k] for k in detected]
    return ReportPrediction(
        report_id=report.report_id,
        hit_sentences={
            cid: tuple(np.flatnonzero(hit[:, k]).tolist()) for cid, k in zip(ids, detected)
        },
        top_scores={cid: tuple(col) for cid, col in zip(ids, top.T.tolist())},
    )


def model_to_dict(model: CtfidfModel) -> dict:
    ordered = sorted(model.vocab, key=model.vocab.get)
    return {
        "format_version": CTFIDF_FORMAT_VERSION,
        "class_ids": list(model.class_ids),
        "vocab": ordered,
        "weights": model.class_vectors.ravel().tolist(),
    }


# The shape `model_to_dict` writes.
_MODEL_SHAPE = dict(
    format_version=STRING, class_ids=STRINGS, vocab=STRINGS, weights=list_of(NUMBER)
)


def model_from_dict(data: dict) -> CtfidfModel:
    """Rebuild a `model_to_dict` model; ValueError for a record of another
    shape (see `check_record`) or format. An older file's key
    `avg_tokens_per_class`, whose idf the weights hold, is dropped."""
    data = {key: value for key, value in data.items() if key != "avg_tokens_per_class"}
    check_record(data, _MODEL_SHAPE)
    version = data["format_version"]
    if version != CTFIDF_FORMAT_VERSION:
        raise ValueError(f"classifier format {version!r} is not {CTFIDF_FORMAT_VERSION!r}")
    vocab = {tok: j for j, tok in enumerate(data["vocab"])}
    class_ids = tuple(data["class_ids"])
    weights = np.asarray(data["weights"], dtype=np.float64).reshape(
        len(class_ids), len(vocab)
    )
    return CtfidfModel(vocab=vocab, class_ids=class_ids, class_vectors=weights)
