"""Independent reference implementations used to cross-check the package.

Everything here is written from the measure definitions over raw counts
or explicit rankings, deliberately avoiding the package's own vectorized
formulations so agreement between the two is meaningful.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from ttpmine.attack_kb import (
    _ACTOR_PREFIXES,
    UsageMatrix,
    _external_id,
    _is_excluded,
    _load_bundle,
    _pattern_map,
    parse_stix,
)
from ttpmine.ctfidf import TOP_K_SCORES, ReportPrediction
from ttpmine.stopwords import STOPWORDS
from ttpmine.embeddings import cosine, sentence_vector
from ttpmine.features.apriori import (
    CONVICTION_CAP,
    METRIC_NAMES,
    METRIC_RANGES,
    PMI_FLOOR,
)
from ttpmine.features.discourse import (
    COREF_WINDOW,
    DISCOURSE_ORDER,
    F3_SIZE,
    PRONOUNS,
    _noun_like,
    _raw_words,
    classify_discourse,
)
from ttpmine.features.builder import _META_COLUMNS, FeatureRows, PairKey
from ttpmine.features.layout import FeatureLayout
from ttpmine.features.markers import (
    BEFORE_MARKERS,
    CONCURRENT_MARKERS,
    F1_SIZE,
    OVERLAP_MARKERS,
)
from ttpmine.features.sentence import F2_SIZE
from ttpmine.gbdt.ensemble import (
    GbdtEnsemble,
    LabelModel,
    _clamped_log_odds,
    _downsample_rows,
    _log_loss,
    _sigmoid,
)
from ttpmine.gbdt.tree import MIN_GAIN, _leaf, grid_residuals
from ttpmine.labels import ALL_LABELS, NULL, POSITIVE_LABELS, SYMMETRIC_LABELS


def apriori_oracle(x, y) -> list[float]:
    """Nine interestingness measures from direct transaction counting.

    Works from the 2x2 contingency counts a (both), b (x only),
    c (y only), d (neither); mirrors the pinned degenerate values:
    zero-denominator conditionals 0, PMI 0 when a marginal is empty and
    -20 when the pair never co-occurs, conviction capped at 100, phi 0
    for 0/1 marginals.
    """
    xs = [int(bool(v)) for v in x]
    ys = [int(bool(v)) for v in y]
    n = len(xs)
    a = sum(1 for xi, yi in zip(xs, ys) if xi and yi)
    b = sum(1 for xi, yi in zip(xs, ys) if xi and not yi)
    c = sum(1 for xi, yi in zip(xs, ys) if not xi and yi)
    d = n - a - b - c
    nx = a + b
    ny = a + c

    support = a / n
    confidence = a / nx if nx else 0.0

    if nx == 0 or ny == 0:
        pmi = 0.0
    elif a == 0:
        pmi = -20.0
    else:
        pmi = math.log2(a * n / (nx * ny))

    if nx in (0, n) or ny in (0, n):
        phi = 0.0
    else:
        phi = (a * d - b * c) / math.sqrt(nx * ny * (n - nx) * (n - ny))

    causal_support = (a + d) / n

    union = a + b + c
    jaccard = a / union if union else 0.0

    not_y = n - ny
    p_nx_given_ny = d / not_y if not_y else 0.0
    causal_confidence = 0.5 * (confidence + p_nx_given_ny)

    conviction = 100.0 if confidence >= 1.0 else (not_y / n) / (1 - confidence)

    added_value = confidence - ny / n

    return [
        support,
        confidence,
        pmi,
        phi,
        causal_support,
        jaccard,
        causal_confidence,
        conviction,
        added_value,
    ]


def lrap_oracle(truth, prob) -> float:
    """Label ranking average precision from first principles: each true
    label's best achievable rank is one plus the number of strictly
    higher-scored labels; rows without true labels are excluded."""
    row_values = []
    for true_labels, p in zip(truth, prob):
        if not true_labels:
            continue
        contributions = []
        for lab in true_labels:
            rank = 1 + sum(1 for other in p if p[other] > p[lab])
            true_at_or_better = sum(1 for t in true_labels if p[t] >= p[lab])
            contributions.append(true_at_or_better / rank)
        row_values.append(sum(contributions) / len(contributions))
    if not row_values:
        return 0.0
    return sum(row_values) / len(row_values)


def ndcg_oracle(truth, prob) -> float:
    """Mean per-row NDCG with binary gains, log2 discounting, ties broken
    by the stable label order; rows with no relevant label add 0 but stay
    in the denominator."""
    if not truth:
        return 0.0
    total = 0.0
    for true_labels, p in zip(truth, prob):
        labels = list(p)
        relevant = [lab in true_labels for lab in labels]
        if not any(relevant):
            continue
        order = sorted(range(len(labels)), key=lambda i: (-p[labels[i]], i))
        dcg = sum(
            1.0 / math.log2(position + 2)
            for position, i in enumerate(order)
            if relevant[i]
        )
        ideal = sum(
            1.0 / math.log2(position + 2)
            for position in range(sum(relevant))
        )
        total += dcg / ideal
    return total / len(truth)


def p_at_k_oracle(scores, k: int) -> float:
    """Fraction of relevant items in the top min(k, len) after a stable
    descending sort by score."""
    items = list(scores)
    if not items:
        return 0.0
    ranked = sorted(
        range(len(items)), key=lambda i: (-items[i][0], i)
    )[: min(k, len(items))]
    return sum(1 for i in ranked if items[i][1]) / len(ranked)


def macro_p_at_k_oracle(truth, prob, k: int, labels) -> float:
    per_label = []
    for lab in labels:
        pool = [(p[lab], lab in t) for t, p in zip(truth, prob)]
        per_label.append(p_at_k_oracle(pool, k))
    return sum(per_label) / len(per_label)


def kappa_oracle(a, b) -> float:
    n = len(a)
    po = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = sorted(set(a) | set(b))
    pe = sum(
        (sum(1 for x in a if x == c) * sum(1 for y in b if y == c))
        for c in cats
    ) / (n * n)
    if pe == 1.0:
        return 1.0
    return (po - pe) / (1 - pe)


def prf_oracle(truth, pred, label) -> tuple[float, float, float]:
    """Binary precision/recall/F1 for one label via explicit counting."""
    tp = fp = fn = 0
    for t, p in zip(truth, pred):
        if label in p and label in t:
            tp += 1
        elif label in p:
            fp += 1
        elif label in t:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def mine_oracle(predictions: dict, n: int) -> dict[tuple[str, str, str], set[str]]:
    """Nested-loop pattern counting: distinct reports per canonicalized
    (tx, ty, relation), symmetric relations sorted, NULL skipped."""
    reports_of: dict[tuple[str, str, str], set[str]] = {}
    for report_id, preds in predictions.items():
        for pred in preds:
            for relation in pred.labels:
                if relation == NULL:
                    continue
                tx, ty = pred.tx, pred.ty
                if relation in SYMMETRIC_LABELS and ty < tx:
                    tx, ty = ty, tx
                reports_of.setdefault((tx, ty, relation), set()).add(report_id)
    return {key: ids for key, ids in reports_of.items() if len(ids) >= n}


def predict_rows_oracle(model, features) -> list[tuple[dict, frozenset]]:
    """Row-at-a-time scoring: each label's ensemble on a one-row matrix.

    Returns ``(probabilities, labels)`` per row, with positives decided
    at the model's threshold and NULL as the fallback.
    """
    out = []
    for values in features.values:
        X = values[None, :]
        probabilities = {
            label: float(_sigmoid(model.raw_score(label, X))[0])
            for label in ALL_LABELS
        }
        decided = frozenset(
            lab
            for lab in POSITIVE_LABELS
            if probabilities[lab] >= model.config.decision_threshold
        )
        out.append((probabilities, decided or frozenset({NULL})))
    return out


def exact_split_oracle(X, grads):
    """Brute-force exact greedy split over every (feature, distinct value)
    candidate, in (feature, value) order, with the first maximum kept.

    ``grads`` are residuals on the split-search grid (integers held in
    floats, their magnitudes summing below 2**53), so each partition's
    plain Python sum is exact. The gain is gl²/nl + gr²/nr - g²/n in the
    package's operation order. Returns ``(feature, threshold, left_rows,
    gain)``, the threshold being the midpoint to the next distinct value
    (the lower value if the midpoint rounds up to the upper one), or
    None when no column has two distinct values.
    """
    g = [float(v) for v in grads]
    n = len(g)
    total = sum(g)
    best = None
    for f in range(X.shape[1]):
        column = [float(v) for v in X[:, f]]
        distinct = sorted(set(column))
        for lo, hi in zip(distinct, distinct[1:]):
            left = [i for i in range(n) if column[i] <= lo]
            gl = sum(g[i] for i in left)
            gr = total - gl
            nl, nr = len(left), n - len(left)
            gain = gl * gl / nl + gr * gr / nr - total * total / n
            if best is None or gain > best[3]:
                threshold = (lo + hi) / 2.0
                if threshold >= hi:
                    threshold = lo
                best = (f, threshold, left, gain)
    return best


def exact_tree_oracle(X, residuals, hessians, max_depth: int) -> dict:
    """Depth-first tree from `exact_split_oracle` at every node.

    Residuals go on the grid once for the whole tree; a node splits only
    when its unscaled gain exceeds MIN_GAIN. Leaves use the package's
    leaf rule on the unrounded residuals and hessians, over ascending
    row indices.
    """
    grads, shift = grid_residuals(residuals)

    def build(rows: list[int], depth: int) -> dict:
        if depth >= max_depth or len(rows) < 2:
            return _leaf(residuals, hessians, np.array(rows, dtype=np.intp))
        found = exact_split_oracle(X[rows], grads[rows])
        if found is None or math.ldexp(found[3], -2 * shift) <= MIN_GAIN:
            return _leaf(residuals, hessians, np.array(rows, dtype=np.intp))
        feature, threshold, left, _ = found
        left_set = set(left)
        return {
            "feature": feature,
            "threshold": threshold,
            "left": build([rows[i] for i in left], depth + 1),
            "right": build(
                [rows[i] for i in range(len(rows)) if i not in left_set], depth + 1
            ),
        }

    return build(list(range(X.shape[0])), 0)


def _count_markers_oracle(tokens) -> np.ndarray:
    out = np.zeros(3, dtype=np.float64)
    for tok in tokens:
        if tok in BEFORE_MARKERS:
            out[0] += 1
        elif tok in OVERLAP_MARKERS:
            out[1] += 1
        elif tok in CONCURRENT_MARKERS:
            out[2] += 1
    return out


def marker_features_oracle(report, tx_sentences, ty_sentences):
    """The 20 F1 slots by recounting every sentence's markers for the
    pair, then walking every sentence for the directional slots 9-14."""
    tx = sorted(set(tx_sentences))
    ty = sorted(set(ty_sentences))
    n = len(report.sentences)
    for idx in (*tx, *ty):
        if not 0 <= idx < n:
            raise ValueError(f"sentence index {idx} outside report of {n} sentences")

    per_sentence = np.zeros((n, 3), dtype=np.float64)
    for sent in report.sentences:
        per_sentence[sent.index] = _count_markers_oracle(sent.tokens)

    out = np.zeros(F1_SIZE, dtype=np.float64)
    if tx:
        out[0:3] = per_sentence[tx].sum(axis=0)
    if ty:
        out[3:6] = per_sentence[ty].sum(axis=0)

    if tx and ty:
        lo, hi = min(
            ((i, j) for i in tx for j in ty),
            key=lambda p: (abs(p[0] - p[1]), min(p), max(p)),
        )
        lo, hi = min(lo, hi), max(lo, hi)
        out[6:9] = per_sentence[lo : hi + 1].sum(axis=0)

        tx_min, tx_max = tx[0], tx[-1]
        ty_min, ty_max = ty[0], ty[-1]
        for k in range(n):
            counts = per_sentence[k]
            if not counts.any():
                continue
            if tx_min < k <= ty_max:
                for rel in range(3):
                    out[9 + 2 * rel] += counts[rel]
            if ty_min < k <= tx_max:
                for rel in range(3):
                    out[10 + 2 * rel] += counts[rel]

    if tx:
        out[15] = per_sentence[tx].sum() / len(tx)
    if ty:
        out[16] = per_sentence[ty].sum() / len(ty)

    both = tx + ty
    if both:
        outer_lo, outer_hi = min(both), max(both)
        if outer_hi - outer_lo > 1:
            out[17:20] = per_sentence[outer_lo + 1 : outer_hi].sum(axis=0)
    return out


_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789._-")
_EDGE_CHARS = frozenset("._-")


def tokenize_oracle(text: str) -> list[str]:
    """Tokens by walking the text one character at a time: each character
    is lowercased on its own, a run of [a-z0-9._-] characters is a
    candidate, its edge ".", "_" and "-" are trimmed one at a time, and an
    empty or stopword result is dropped."""
    out: list[str] = []
    run: list[str] = []
    for ch in [c for original in text for c in original.lower()] + [" "]:
        if ch in _TOKEN_CHARS:
            run.append(ch)
            continue
        lo, hi = 0, len(run)
        while lo < hi and run[lo] in _EDGE_CHARS:
            lo += 1
        while hi > lo and run[hi - 1] in _EDGE_CHARS:
            hi -= 1
        token = "".join(run[lo:hi])
        if token and token not in STOPWORDS:
            out.append(token)
        run = []
    return out


# The in-line sentence boundary of the line-at-a-time splitter.
_BOUNDARY_ORACLE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")


def split_sentences_oracle(text: str) -> list[str]:
    """Sentence strings one line at a time: each line is stripped, split
    at every in-line boundary, and each piece's whitespace collapsed."""
    pieces: list[str] = []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        for piece in _BOUNDARY_ORACLE.split(line):
            piece = " ".join(piece.split())
            if piece:
                pieces.append(piece)
    return pieces


def report_sentences_oracle(text: str) -> list[tuple[int, str, tuple[str, ...]]]:
    """(index, text, tokens) of each sentence, each sentence split by the
    line-at-a-time splitter and tokenized on its own."""
    return [
        (i, piece, tuple(tokenize_oracle(piece)))
        for i, piece in enumerate(split_sentences_oracle(text))
    ]


def features_to_csv_oracle(rows) -> str:
    """The features CSV written one row at a time through `csv.writer`,
    every value formatted by its own `repr`. The writer ends each row at
    "\r\n", so it quotes a field that holds a "\r" as well as one that
    holds a "\n"; the row then ends at "\n" alone."""

    def line(fields) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue()[:-2] + "\n"

    out = [line([*_META_COLUMNS, *rows.layout.names])]
    for key, missing, values in zip(rows.keys, rows.f4_missing, rows.values):
        out.append(line([*key, int(missing)] + [repr(float(v)) for v in values]))
    return "".join(out)


def plural_match_oracle(a: str, b: str) -> bool:
    """Plural-insensitive equality: equal, or one is the other plus "s"."""
    return a == b or a == b + "s" or b == a + "s"


def coref_links_oracle(report) -> frozenset[tuple[int, int]]:
    """Coreference links by rescanning the window for every sentence:
    rule (a) re-tests each candidate sentence for a noun-like token, rule
    (b) compares every head with every word of every window sentence."""
    sentences = report.sentences
    links: set[tuple[int, int]] = set()
    raw_cache = [_raw_words(s) for s in sentences]

    for j in range(1, len(sentences)):
        window = range(max(0, j - COREF_WINDOW), j)
        sj = sentences[j]

        if any(t in PRONOUNS for t in sj.tokens[:4]):
            for i in reversed(window):
                if any(_noun_like(t) for t in sentences[i].tokens):
                    links.add((i, j))
                    break

        heads = [
            nxt
            for word, nxt in zip(raw_cache[j], raw_cache[j][1:])
            if word in ("the", "this") and _noun_like(nxt)
        ]
        if heads:
            for i in window:
                words_i = raw_cache[i]
                if any(
                    plural_match_oracle(head, w) for head in heads for w in words_i
                ):
                    links.add((i, j))

    return frozenset(links)


def _sentence_scores_oracle(model, class_norms, tokens) -> np.ndarray:
    """One sentence's max-normalized cosines from a dense vocabulary-length
    count vector; all zeros when it has no in-vocabulary token."""
    x = np.zeros(len(model.vocab), dtype=np.float64)
    for tok in tokens:
        j = model.vocab.get(tok)
        if j is not None:
            x[j] += 1.0
    xn = np.linalg.norm(x)
    if xn == 0.0:
        return np.zeros(len(model.class_ids), dtype=np.float64)
    dots = model.class_vectors @ x
    denom = class_norms * xn
    raw = np.zeros_like(dots)
    np.divide(dots, denom, out=raw, where=denom > 0)
    top = raw.max() if raw.size else 0.0
    if top <= 0.0:
        return np.zeros_like(raw)
    return raw / top


def predict_report_oracle(model, report, threshold) -> tuple[np.ndarray, ReportPrediction]:
    """Sentence-at-a-time scoring and per-class aggregation.

    Returns the ``(sentences, classes)`` score matrix and the prediction
    built from it column by column.
    """
    class_norms = np.linalg.norm(model.class_vectors, axis=1)
    matrix = np.zeros((len(report.sentences), len(model.class_ids)), dtype=np.float64)
    for i, sentence in enumerate(report.sentences):
        matrix[i] = _sentence_scores_oracle(model, class_norms, sentence.tokens)

    top_scores = {}
    hit_sentences = {}
    for k, cid in enumerate(model.class_ids):
        col = matrix[:, k]
        best = sorted(col.tolist(), reverse=True)[:TOP_K_SCORES]
        top_scores[cid] = tuple(best + [0.0] * (TOP_K_SCORES - len(best)))
        hits = tuple(i for i, v in enumerate(col.tolist()) if v >= threshold)
        if hits:
            hit_sentences[cid] = hits
    prediction = ReportPrediction(
        report_id=report.report_id,
        threshold=threshold,
        techniques=frozenset(hit_sentences),
        top_scores=top_scores,
        hit_sentences=hit_sentences,
    )
    return matrix, prediction


def discourse_features_oracle(report, tx_sentences, ty_sentences, links) -> np.ndarray:
    """F3 from a walk over every adjacent sentence pair of the report and
    every coreference link, keeping those that straddle tx and ty."""
    tx = set(tx_sentences)
    ty = set(ty_sentences)
    slot = {rel: k for k, rel in enumerate(DISCOURSE_ORDER)}
    out = np.zeros(F3_SIZE, dtype=np.float64)

    def straddles(i: int, j: int) -> bool:
        return (i in tx and j in ty) or (i in ty and j in tx)

    for k in range(len(report.sentences) - 1):
        if straddles(k, k + 1):
            rel = classify_discourse(
                report.sentences[k], report.sentences[k + 1], (k, k + 1) in links
            )
            out[slot[rel]] += 1
    for i, j in links:
        if straddles(i, j):
            rel = classify_discourse(report.sentences[i], report.sentences[j], True)
            out[5 + slot[rel]] += 1
    return out


def column_measures_oracle(x_col, y_col) -> np.ndarray:
    """The nine association measures from two aligned binary usage
    columns, each probability a float column sum over n: the column form
    that the count table replaced, with the same formulas in the same
    operation order, so the two agree bit for bit."""
    x = np.asarray(x_col, dtype=np.float64)
    y = np.asarray(y_col, dtype=np.float64)
    n = x.size
    px = float(x.sum()) / n
    py = float(y.sum()) / n
    pxy = float((x * y).sum()) / n
    p_nx_ny = float(((1 - x) * (1 - y)).sum()) / n

    confidence = pxy / px if px > 0 else 0.0
    if px * py == 0.0:
        pmi = 0.0
    elif pxy == 0.0:
        pmi = PMI_FLOOR
    else:
        pmi = math.log2(pxy / (px * py))
    if px in (0.0, 1.0) or py in (0.0, 1.0):
        phi = 0.0
    else:
        phi = (pxy - px * py) / math.sqrt(px * py * (1 - px) * (1 - py))
    denom = px + py - pxy
    jaccard = pxy / denom if denom > 0 else 0.0
    p_nx_given_ny = p_nx_ny / (1 - py) if py < 1.0 else 0.0
    causal_confidence = 0.5 * (confidence + p_nx_given_ny)
    conviction = CONVICTION_CAP if confidence >= 1.0 else (1 - py) / (1 - confidence)
    return np.array(
        [pxy, confidence, pmi, phi, pxy + p_nx_ny, jaccard, causal_confidence,
         conviction, confidence - py],
        dtype=np.float64,
    )


def bin_oracle(value: float, name: str, bins: int) -> int:
    """The equal-width bin of one measure's value over its clamped range,
    scalar by scalar: the last bin takes the range's end and anything
    that scales to `bins` once rounded."""
    lo, hi = METRIC_RANGES[name]
    v = min(max(value, lo), hi)
    return min(int((v - lo) / (hi - lo) * bins), bins - 1)


def f4_oracle(um, pair, bins: int = 10) -> np.ndarray:
    """One known pair's f4 slots from its two usage columns: the nine
    `column_measures_oracle` values, then one hot slot per measure."""
    tx, ty = pair
    raw = column_measures_oracle(
        um.cells[:, um.techniques.index(tx)], um.cells[:, um.techniques.index(ty)]
    )
    out = np.zeros(9 + 9 * bins, dtype=np.float64)
    out[:9] = raw
    for m, name in enumerate(METRIC_NAMES):
        out[9 + m * bins + bin_oracle(float(raw[m]), name, bins)] = 1.0
    return out


def sentence_features_oracle(report, tx_sentences, ty_sentences, links, wv=None) -> np.ndarray:
    """F2 from every (tx, ty) sentence pair on its own: the signed gap
    by cases, each side's pooled vector recomputed for every pair, and
    every link tested for straddling."""
    tx = sorted(set(tx_sentences))
    ty = sorted(set(ty_sentences))
    out = np.zeros(F2_SIZE, dtype=np.float64)
    for i in tx:
        for j in ty:
            # Slots 0-3 hold ty 4..1 sentences before tx, slots 4-8 ty
            # 1..5 sentences after it.
            if 1 <= i - j <= 4:
                out[4 - (i - j)] += 1
            elif 1 <= j - i <= 5:
                out[3 + (j - i)] += 1
    out[9] = sum(1 for i in tx if i in ty)
    if wv is not None and tx and ty:
        sims = [
            cosine(
                sentence_vector(wv, report.sentences[i].tokens),
                sentence_vector(wv, report.sentences[j].tokens),
            )
            for i in tx
            for j in ty
        ]
        out[10] = float(np.mean(sims))
        out[11] = float(np.max(sims))
    out[12] = sum(
        1 for i, j in links if (i in tx and j in ty) or (i in ty and j in tx)
    )
    return out


def pair_vector_oracle(report, pair, report_prediction, um, wv=None,
                       bins: int = 10) -> tuple[np.ndarray, bool]:
    """One ordered pair's vector [default ++ f1 ++ f2 ++ f3 ++ f4] and
    its f4_missing flag, built on its own from nothing shared with other
    pairs and from no production feature family: the whole report's
    links (`coref_links_oracle`), `marker_features_oracle`,
    `sentence_features_oracle`, `discourse_features_oracle` and the
    pair's own `f4_oracle` slots.

    The default slots of a technique the prediction did not detect are
    zero. A pair technique absent from the usage matrix (or no matrix,
    or one without actors) zeroes the f4 slots and sets the flag.
    """
    tx, ty = pair
    if tx == ty:
        raise ValueError(f"self-pair ({tx}, {ty}) has no feature vector")
    tx_sent = report_prediction.hit_sentences.get(tx, ())
    ty_sent = report_prediction.hit_sentences.get(ty, ())
    links = coref_links_oracle(report)

    default = np.zeros(2 * TOP_K_SCORES, dtype=np.float64)
    if tx in report_prediction.techniques:
        default[:TOP_K_SCORES] = report_prediction.top_scores[tx]
    if ty in report_prediction.techniques:
        default[TOP_K_SCORES:] = report_prediction.top_scores[ty]

    missing = (
        um is None
        or um.cells.shape[0] == 0
        or tx not in um.techniques
        or ty not in um.techniques
    )
    f4 = np.zeros(9 + 9 * bins) if missing else f4_oracle(um, pair, bins)
    values = np.concatenate([
        default,
        marker_features_oracle(report, tx_sent, ty_sent),
        sentence_features_oracle(report, tx_sent, ty_sent, links, wv),
        discourse_features_oracle(report, tx_sent, ty_sent, links),
        f4,
    ])
    return values, missing


def full_universe_rows_oracle(reports, predictions, class_ids, usage, vectors=None,
                              bins: int = 10) -> FeatureRows:
    """Feature rows over the all-class pair universe: every ordered pair
    of classifier classes in every report, detected or not. Reports go in
    id order and pairs in lexicographic order; each row is built on its
    own by `pair_vector_oracle`."""
    by_id = {p.report_id: p for p in predictions}
    ids = sorted(set(class_ids))
    layout = FeatureLayout(bins=bins)
    keys, values = [], []
    for report in sorted(reports, key=lambda r: r.report_id):
        for tx in ids:
            for ty in ids:
                if tx != ty:
                    row, _ = pair_vector_oracle(
                        report, (tx, ty), by_id[report.report_id], usage, vectors, bins=bins
                    )
                    keys.append(PairKey(report.report_id, tx, ty))
                    values.append(row)
    return FeatureRows(keys, np.reshape(values, (len(keys), layout.total)), layout)


def _per_label_tree(X, residuals, hessians, max_depth: int):
    """One histogram tree on X binned on its own: every column gets one
    bin per distinct value from `np.unique`, and every node builds its
    count and residual histograms from its own rows. Returns the tree and
    each row's leaf value."""
    m, nf = X.shape
    codes = np.empty((m, nf), dtype=np.intp)
    values, feature, start = [], [], [0]
    for f in range(nf):
        uniq, inverse = np.unique(X[:, f], return_inverse=True)
        codes[:, f] = inverse + start[-1]
        values.extend(float(v) for v in uniq)
        feature.extend([f] * uniq.size)
        start.append(start[-1] + uniq.size)
    n_bins = len(values)
    bin_start = np.array([start[f] for f in feature], dtype=np.intp)
    grads, shift = grid_residuals(residuals)
    out = np.empty(m, dtype=np.float64)

    def leaf(idx):
        node = _leaf(residuals, hessians, idx)
        out[idx] = node["value"]
        return node

    def build(idx, depth):
        if depth >= max_depth or idx.size < 2 or n_bins == 0:
            return leaf(idx)
        flat = codes[idx].ravel()
        count = np.bincount(flat, minlength=n_bins)
        grad = np.bincount(
            flat, weights=np.repeat(grads[idx], nf), minlength=n_bins
        ).astype(np.int64)
        count_cum, grad_cum = np.cumsum(count), np.cumsum(grad)
        nl = count_cum - (count_cum - count)[bin_start]
        gl = (grad_cum - (grad_cum - grad)[bin_start]).astype(np.float64)
        n = idx.size
        gt = gl[start[1] - 1]
        nr = n - nl
        valid = (nl > 0) & (nr > 0) & (count > 0)
        if not valid.any():
            return leaf(idx)
        gain = np.full(n_bins, -np.inf)
        gl_v, nl_v = gl[valid], nl[valid]
        gr_v = gt - gl_v
        gain[valid] = gl_v * gl_v / nl_v + gr_v * gr_v / nr[valid] - gt * gt / float(n)
        best = int(np.argmax(gain))
        if np.ldexp(gain[best], -2 * shift) <= MIN_GAIN:
            return leaf(idx)
        feat = feature[best]
        upper = best + 1 + int(np.flatnonzero(count[best + 1 : start[feat + 1]])[0])
        a, b = values[best], values[upper]
        threshold = (a + b) / 2.0
        if threshold >= b:
            threshold = a
        mask = codes[idx, feat] <= best
        return {
            "feature": feat,
            "threshold": threshold,
            "left": build(idx[mask], depth + 1),
            "right": build(idx[~mask], depth + 1),
        }

    return build(np.arange(m), 0), out


def _remap_tree(node: dict, mapping) -> dict:
    """`node` with each split's feature `f` rewritten to `mapping[f]`."""
    if "value" in node:
        return node
    return {
        "feature": int(mapping[node["feature"]]),
        "threshold": node["threshold"],
        "left": _remap_tree(node["left"], mapping),
        "right": _remap_tree(node["right"], mapping),
    }


def per_label_train_oracle(features, labels, config, feature_groups=None) -> GbdtEnsemble:
    """The four label models trained one label at a time: each label
    slices its downsampled rows and active columns out of the stacked
    matrix and bins that slice on its own (`_per_label_tree`), with no
    column dropped up front and no histogram derived from another.
    Rounds follow the package's logistic boosting loop."""
    X = features.values
    if feature_groups is None:
        active = np.arange(X.shape[1])
    else:
        active = np.flatnonzero(features.layout.mask(feature_groups))
    models = {}
    for label_index, label in enumerate(ALL_LABELS):
        y = np.array([1.0 if label in labs else 0.0 for labs in labels])
        if label in POSITIVE_LABELS:
            null_only = np.array([set(labs) == {NULL} for labs in labels], dtype=bool)
            rows = _downsample_rows(label_index, null_only, y, config)
        else:
            rows = np.arange(len(labels))
        y_sub = y[rows]
        X_sub = X[np.ix_(rows, active)]
        n_pos = int(y_sub.sum())
        if n_pos == 0 or n_pos == y_sub.size:
            rate = n_pos / y_sub.size if y_sub.size else 0.0
            models[label] = LabelModel(
                label=label, init_score=_clamped_log_odds(rate), trees=[], degenerate=True
            )
            continue
        init = _clamped_log_odds(n_pos / y_sub.size)
        score = np.full(y_sub.size, init, dtype=np.float64)
        trees = []
        losses = [_log_loss(y_sub, _sigmoid(score))]
        for _ in range(config.trees):
            p = _sigmoid(score)
            tree, leaf_values = _per_label_tree(
                X_sub, y_sub - p, p * (1.0 - p), config.max_depth
            )
            score = score + config.learning_rate * leaf_values
            losses.append(_log_loss(y_sub, _sigmoid(score)))
            trees.append(_remap_tree(tree, active))
        models[label] = LabelModel(
            label=label, init_score=init, trees=trees, loss_curve=losses
        )
    return GbdtEnsemble(
        models=models,
        layout_version=features.layout.version,
        config=config,
        n_features=X.shape[1],
    )


def dense_usage_to_dict(matrix: UsageMatrix) -> dict:
    """The dense usage layout (format "1"): every cell, as nested lists."""
    return {
        "format_version": "1",
        "actors": list(matrix.actors),
        "techniques": list(matrix.techniques),
        "cells": matrix.cells.tolist(),
        "skipped_unknown": matrix.skipped_unknown,
    }


def dense_usage_from_dict(data: dict) -> UsageMatrix:
    return UsageMatrix(
        actors=tuple(data["actors"]),
        techniques=tuple(data["techniques"]),
        cells=np.asarray(data["cells"], dtype=np.int8),
        skipped_unknown=int(data.get("skipped_unknown", 0)),
    )


def dense_usage_oracle(bundle_bytes: bytes) -> UsageMatrix:
    """A bundle's usage matrix built one cell at a time, then passed
    through the dense layout as JSON text and read back.

    Rows are the actors with at least one resolvable technique, in
    actor-id order; a `uses` relationship whose attack-pattern target is
    not in the catalog is skipped and counted.
    """
    objects = _load_bundle(bundle_bytes)
    patterns = _pattern_map(objects)
    catalog, _ = parse_stix(bundle_bytes)
    actor_ids = {}
    for obj in objects:
        stix_id = str(obj.get("id", ""))
        if not _is_excluded(obj) and stix_id.startswith(_ACTOR_PREFIXES):
            actor_ids[stix_id] = _external_id(obj) or stix_id
    used: dict[str, set[str]] = {}
    skipped = 0
    for obj in objects:
        if obj.get("type") != "relationship" or _is_excluded(obj):
            continue
        if obj.get("relationship_type") != "uses" or obj.get("source_ref") not in actor_ids:
            continue
        if not str(obj.get("target_ref", "")).startswith("attack-pattern--"):
            continue
        target = patterns.get(obj.get("target_ref"))
        if target is None or target[0] not in catalog:
            skipped += 1
            continue
        used.setdefault(actor_ids[obj["source_ref"]], set()).add(target[0])
    actors = tuple(sorted(used))
    techniques = catalog.technique_ids
    cells = np.zeros((len(actors), len(techniques)), dtype=np.int8)
    for r, actor in enumerate(actors):
        for tid in used[actor]:
            cells[r, techniques.index(tid)] = 1
    matrix = UsageMatrix(
        actors=actors, techniques=techniques, cells=cells, skipped_unknown=skipped
    )
    return dense_usage_from_dict(json.loads(json.dumps(dense_usage_to_dict(matrix))))
