"""Acceptance gate for the toolkit.

Nine end-to-end verifiable behaviors, each with its stated tolerance and
a single PASS line. Independent counting/brute-force oracles live in
oracles.py; nothing here reuses the implementation under test to check
itself.
"""

from __future__ import annotations

import inspect
import json
import math
import time

import numpy as np
import pytest

from helpers import (
    EMPTY_USAGE,
    e2e_config_dict,
    label_rows,
    label_sets,
    make_rows,
    random_label_matrices,
    random_prediction,
    random_report,
    report_rows,
    score_sentences,
)
from oracles import (
    apriori_oracle,
    lrap_oracle,
    macro_p_at_k_oracle,
    mine_oracle,
    mirror_spec,
    ndcg_oracle,
    pair_vector_oracle,
)
from test_markers import (
    EXPECTED_BEFORE,
    EXPECTED_CONCURRENT,
    EXPECTED_OVERLAP,
    NEAR_MISSES,
)
from ttpmine.attack_kb import (
    DEFAULT_MIN_EXAMPLES,
    TechniqueCatalog,
    TechniqueRecord,
    UsageMatrix,
    build_action_dataset,
)
from ttpmine.corpus import make_report, tokenize
from ttpmine.ctfidf import (
    DEFAULT_THRESHOLD,
    predict_report,
    train_ctfidf,
)
from ttpmine.features.builder import f4_table
from ttpmine.features.layout import N_SLOTS, SLOT_NAMES
from ttpmine.features.markers import (
    BEFORE_MARKERS,
    CONCURRENT_MARKERS,
    MARKER_RELATION,
    OVERLAP_MARKERS,
    marker_table,
)
from ttpmine.gbdt.ensemble import (
    TrainConfig,
    decided_labels,
    ensemble_to_dict,
    predict_batch,
    train,
)
from ttpmine.labels import (
    ALL_LABELS,
    BEFORE,
    CONCURRENT,
    NULL,
    POSITIVE_LABELS,
    SIMULTANEOUS_OVERLAP,
    label_matrix,
)
from ttpmine.metrics import lrap, macro_p_at_k, ndcg
from ttpmine.mining import DEFAULT_MIN_SUPPORT, PACKAGED_CATEGORIES, mine
from ttpmine.cli import build_parser
from ttpmine.pipeline import (
    PipelineConfig,
    load_categories,
    load_relation_predictions,
    run_pipeline,
    stage_classify,
    stage_kb,
    stage_mine,
)


def test_criterion_1_association_measures_match_counting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        n_rows = int(rng.integers(1, 51))
        n_cols = int(rng.integers(2, 51))
        density = float(rng.uniform(0.05, 0.95))
        cells = (rng.random((n_rows, n_cols)) < density).astype(np.int8)
        cols = rng.choice(n_cols, size=2, replace=False)
        x, y = cells[:, int(cols[0])], cells[:, int(cols[1])]
        np.testing.assert_allclose(
            _f4_measures(x, y), apriori_oracle(x, y), rtol=0, atol=1e-9
        )
        checked += 1
    assert checked == 200

    # Degenerate pinning: never-co-occurring, absent antecedent,
    # certain rule, saturated marginal.
    disjoint = _f4_measures(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]))
    assert disjoint[2] == -20.0
    absent = _f4_measures(np.zeros(3), np.array([1, 0, 1]))
    assert absent[1] == 0.0 and absent[2] == 0.0 and absent[3] == 0.0
    certain = _f4_measures(np.array([1, 0, 0]), np.array([1, 1, 0]))
    assert certain[7] == 100.0
    saturated = _f4_measures(np.ones(2), np.array([1, 0]))
    assert saturated[3] == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "PASS criterion 1: 9 association measures match the counting oracle "
        f"on 200 random matrices within 1e-9 ({elapsed:.2f}s < 10s)"
    )


def _f4_measures(x, y) -> np.ndarray:
    """The nine measures `f4_table` gives the pair (x, y) of a usage
    matrix holding the two binary columns."""
    cells = np.column_stack([x, y]).astype(np.int8)
    um = UsageMatrix(actors=tuple(f"G{k}" for k in range(len(cells))),
                     techniques=("TX", "TY"), cells=cells)
    return f4_table(um, [("TX", "TY")])[("TX", "TY")]


def test_criterion_2_ranking_metrics_match_brute_force():
    rng = np.random.default_rng(102)
    for _ in range(100):
        truth, prob = random_label_matrices(rng, int(rng.integers(1, 21)), grid=False)
        sets, dicts = label_rows(truth, prob)
        assert lrap(truth, prob) == lrap_oracle(sets, dicts)
        assert ndcg(truth, prob) == ndcg_oracle(sets, dicts)
        for k in (1, 3, 5):
            assert macro_p_at_k(truth, prob, k) == macro_p_at_k_oracle(sets, dicts, k, ALL_LABELS)

    # Two hand-computed fixtures, exact; columns in ALL_LABELS order.
    assert ALL_LABELS == (BEFORE, SIMULTANEOUS_OVERLAP, CONCURRENT, NULL)
    lrap_fixture = lrap(
        label_matrix([{SIMULTANEOUS_OVERLAP}]), np.array([[0.9, 0.8, 0.1, 0.05]])
    )
    assert lrap_fixture == 0.5  # 1 true at rank 2 -> 1/(1+1)

    ndcg_fixture = ndcg(label_matrix([{BEFORE}]), np.array([[0.2, 0.0, 0.0, 0.9]]))
    assert ndcg_fixture == 1.0 / math.log2(3.0)  # relevant at rank 2

    print(
        "PASS criterion 2: LRAP/NDCG/P@K equal brute force on 100 random "
        "instances; 2 hand fixtures exact"
    )


def test_criterion_3_marker_lexicon_exact():
    all_markers = BEFORE_MARKERS | OVERLAP_MARKERS | CONCURRENT_MARKERS
    assert len(BEFORE_MARKERS) == 16
    assert len(OVERLAP_MARKERS) == 5
    assert len(CONCURRENT_MARKERS) == 5
    assert len(all_markers) == 26
    assert len(NEAR_MISSES) == 50

    detected = set()
    false_positives = set()
    for word in sorted(all_markers) + list(NEAR_MISSES):
        text = f"Analysts observed {word} activity."
        assert word in tokenize(text), word
        hits = marker_table(make_report("probe", text))
        if hits.sum() > 0:
            (detected if word in all_markers else false_positives).add(word)
    assert detected == all_markers  # zero false negatives
    assert false_positives == set()

    for word in BEFORE_MARKERS:
        assert MARKER_RELATION[word] == 0
    for word in OVERLAP_MARKERS:
        assert MARKER_RELATION[word] == 1
    for word in CONCURRENT_MARKERS:
        assert MARKER_RELATION[word] == 2

    print(
        "PASS criterion 3: 26-entry marker lexicon (16+5+5) detected with "
        "0 FP / 0 FN on a 76-word probe corpus"
    )


def _random_prediction_rows(rng):
    """`(report_id, tx, ty)` keys and their aligned label matrix, as
    `mine` takes them."""
    techniques = [f"T{1000 + k}" for k in range(6)]
    keys, labels = [], []
    for r in range(int(rng.integers(2, 8))):
        for _ in range(int(rng.integers(0, 12))):
            tx, ty = rng.choice(techniques, size=2, replace=False)
            keys.append((f"r{r:02d}", str(tx), str(ty)))
            labels.append(
                frozenset(lab for lab in POSITIVE_LABELS if rng.random() < 0.35)
                or frozenset({NULL})
            )
    return keys, label_matrix(labels)


def test_criterion_4_pattern_miner_matches_nested_loop():
    rng = np.random.default_rng(104)
    for _ in range(100):
        keys, labels = _random_prediction_rows(rng)
        n = int(rng.integers(1, 4))
        got = {
            (p.tx, p.ty, p.relation): set(p.report_ids)
            for p in mine(keys, labels, n)
        }
        assert got == mine_oracle(keys, label_sets(labels), n)

    for _ in range(20):
        keys, labels = _random_prediction_rows(rng)
        previous = None
        for n in range(1, 6):
            found = {(p.tx, p.ty, p.relation) for p in mine(keys, labels, n)}
            if previous is not None:
                assert found <= previous
            previous = found

    cmap = load_categories(PACKAGED_CATEGORIES)
    assert (
        cmap.lookup("T1566", "T1204", BEFORE)
        == "Baiting towards malicious execution"
    )
    assert (
        cmap.lookup("T1003", "T1078", BEFORE)
        == "Lateral movement using OS and Credentials"
    )

    print(
        "PASS criterion 4: miner matches the nested-loop oracle on 100 random "
        "sets, is monotone in n, and resolves the pinned categories"
    )


def test_criterion_5_sentence_classifier_learnability():
    rng = np.random.default_rng(105)
    class_ids = [f"T9{k:03d}" for k in range(5)]
    vocab = {cid: [f"{cid.lower()}w{j}" for j in range(8)] for cid in class_ids}

    def sentence(cid):
        n_words = int(rng.integers(4, 9))
        words = rng.choice(vocab[cid], size=n_words, replace=True)
        return " ".join(str(w) for w in words)

    train_sents = {cid: [sentence(cid) for _ in range(30)] for cid in class_ids}
    held_out = {cid: [sentence(cid) for _ in range(10)] for cid in class_ids}

    catalog = TechniqueCatalog(
        techniques=tuple(
            TechniqueRecord(id=cid, procedure_examples=tuple(train_sents[cid]))
            for cid in class_ids
        ),
        version="synthetic",
    )
    dataset = build_action_dataset(catalog)  # default min_examples
    model = train_ctfidf(dataset)
    assert set(model.class_ids) == set(class_ids)

    # Held-out macro F1 over argmax decisions.
    tp = {cid: 0 for cid in class_ids}
    fp = {cid: 0 for cid in class_ids}
    fn = {cid: 0 for cid in class_ids}
    for cid in class_ids:
        for text in held_out[cid]:
            scores = dict(
                zip(model.class_ids, score_sentences(model, [tokenize(text)])[0].tolist())
            )
            predicted = max(scores, key=lambda c: (scores[c], c))
            if predicted == cid:
                tp[cid] += 1
            else:
                fp[predicted] += 1
                fn[cid] += 1
    f1s = []
    for cid in class_ids:
        p = tp[cid] / (tp[cid] + fp[cid]) if tp[cid] + fp[cid] else 0.0
        r = tp[cid] / (tp[cid] + fn[cid]) if tp[cid] + fn[cid] else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    macro_f1 = sum(f1s) / len(f1s)
    assert macro_f1 >= 0.95

    # Detection sets shrink monotonically as the threshold rises.
    reports = []
    for k in range(10):
        lines = [
            sentence(class_ids[int(rng.integers(0, 5))]) + "."
            for _ in range(3)
        ]
        reports.append(make_report(f"r{k:02d}", "\n".join(lines)))
    for report in reports:
        by_threshold = [
            predict_report(model, report, threshold=t).techniques
            for t in (0.5, 0.75, 0.95)
        ]
        assert by_threshold[2] <= by_threshold[1] <= by_threshold[0]

    print(
        f"PASS criterion 5: held-out macro F1 {macro_f1:.3f} >= 0.95 on the "
        "5-class synthetic corpus; threshold detection sets are nested"
    )


def _random_gbdt_data(rng, n_rows, n_features=12):
    values, labels = [], []
    for _ in range(n_rows):
        values.append(rng.normal(size=n_features))
        positives = frozenset(lab for lab in POSITIVE_LABELS if rng.random() < 0.3)
        labels.append(positives or frozenset({NULL}))
    ids = [f"r{k:02d}" for k in range(n_rows)]
    return make_rows(values, report_ids=ids), label_matrix(labels)


def _separable_gbdt_data(n_per_side=16):
    values = np.zeros((2 * n_per_side, 8))
    values[:n_per_side, 1] = 1.0
    labels = [frozenset({BEFORE})] * n_per_side + [frozenset({NULL})] * n_per_side
    ids = [f"r{k:02d}" for k in range(2 * n_per_side)]
    return make_rows(values, report_ids=ids), label_matrix(labels)


def test_criterion_6_gbdt_training_contract():
    start = time.perf_counter()

    rng = np.random.default_rng(106)
    config = TrainConfig(trees=25, max_depth=3, seed=9)
    for _ in range(20):
        features, labels = _random_gbdt_data(rng, int(rng.integers(10, 51)))
        model = train(features, labels, config)
        for lm in model.models.values():
            if lm.degenerate:
                continue
            assert all(
                b <= a + 1e-9 for a, b in zip(lm.loss_curve, lm.loss_curve[1:])
            )

    features, labels = _separable_gbdt_data()
    model = train(features, labels, TrainConfig(trees=200, max_depth=2))
    decided = decided_labels(predict_batch(model, features), model.config.decision_threshold)
    before = ALL_LABELS.index(BEFORE)
    p, t = decided[:, before], labels[:, before]
    tp, fp, fn = int((p & t).sum()), int((p & ~t).sum()), int((~p & t).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 == 1.0

    features, labels = _random_gbdt_data(np.random.default_rng(7), 30)
    seeded = TrainConfig(trees=12, max_depth=3, seed=5)
    serialized = [
        json.dumps(ensemble_to_dict(train(features, labels, seeded)), sort_keys=True)
        for _ in range(2)
    ]
    assert serialized[0] == serialized[1]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "PASS criterion 6: loss non-increasing on 20 random datasets, "
        f"separable F1 1.0 within 200 rounds, seed-stable bits ({elapsed:.2f}s < 60s)"
    )


def test_criterion_7_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "out"
    config = PipelineConfig.from_dict(e2e_config_dict(out_dir))

    summary_1 = run_pipeline(config)
    snapshot = {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    summary_2 = run_pipeline(config)
    after = {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    assert summary_1 == summary_2
    assert snapshot.keys() == after.keys()
    for name in snapshot:
        assert snapshot[name] == after[name], f"{name} changed between runs"

    lines = (out_dir / "patterns.csv").read_text().splitlines()
    assert lines[1:] == [
        "T1566,T1204,BEFORE,3,r01;r02;r03,Baiting towards malicious execution"
    ]

    keys, labels = load_relation_predictions(str(out_dir / "predictions.jsonl"))
    assert [
        (p.tx, p.ty, p.relation) for p in mine(keys, labels, n=2)
    ] == [("T1566", "T1204", BEFORE)]
    assert mine(keys, labels, n=4) == []

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "PASS criterion 7: two full runs byte-identical, planted "
        f"(T1566, T1204, BEFORE) at n=2 and nothing at n=4 ({elapsed:.2f}s < 30s)"
    )


def test_criterion_8_feature_layout_contract():
    report = make_report("r1", "A phishing email arrived.\nThen the user ran it.\n")
    prediction = random_prediction(
        np.random.default_rng(0), report, "T1566", "T1204"
    )
    assert N_SLOTS == len(SLOT_NAMES) == 62
    rows = report_rows(report, prediction, um=EMPTY_USAGE)
    assert rows.values.shape == (len(rows), 62)
    values, _ = pair_vector_oracle(report, ("T1566", "T1204"), prediction, um=EMPTY_USAGE)
    assert values.shape == (62,)

    # On the oracle's vectors for both directions of a pair, and on the
    # rows `build_report_features` builds for every detected pair.
    rng = np.random.default_rng(108)
    spec = mirror_spec()
    production_pairs = 0
    for case in range(50):
        rand_report = random_report(rng, f"r{case:02d}")
        pred = random_prediction(rng, rand_report, "T1566", "T1204", "T1560")
        fwd, _ = pair_vector_oracle(rand_report, ("T1566", "T1204"), pred, um=EMPTY_USAGE)
        rev, _ = pair_vector_oracle(rand_report, ("T1204", "T1566"), pred, um=EMPTY_USAGE)
        mirrored = [(fwd, rev)]
        rows = report_rows(rand_report, pred, um=EMPTY_USAGE)
        at = {key: k for k, key in enumerate(rows)}
        for (rid, tx, ty), k in at.items():
            mirrored.append((rows.values[k], rows.values[at[(rid, ty, tx)]]))
            production_pairs += 1
        for fwd, rev in mirrored:
            for a, b in spec["swap"]:
                assert rev[a] == fwd[b] and rev[b] == fwd[a]
            for e in spec["equal"]:
                assert rev[e] == fwd[e]
    assert production_pairs > 100

    print(
        "PASS criterion 8: vector length equals the layout total (62); "
        "mirror invariants hold on 50 random "
        f"reports, per pair and on {production_pairs} built rows"
    )


def test_criterion_9_pinned_defaults():
    assert DEFAULT_THRESHOLD == 0.95
    assert DEFAULT_MIN_EXAMPLES == 20
    assert DEFAULT_MIN_SUPPORT == 2

    # Every place that defaults a setting takes the one constant.
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(predict_report, "threshold") == DEFAULT_THRESHOLD
    assert default(stage_classify, "threshold") == DEFAULT_THRESHOLD
    assert default(build_action_dataset, "min_examples") == DEFAULT_MIN_EXAMPLES
    assert default(stage_kb, "min_examples") == DEFAULT_MIN_EXAMPLES
    assert default(mine, "n") == DEFAULT_MIN_SUPPORT
    assert default(stage_mine, "min_support") == DEFAULT_MIN_SUPPORT

    config = PipelineConfig()
    assert config.threshold == DEFAULT_THRESHOLD
    assert config.min_examples == DEFAULT_MIN_EXAMPLES
    assert config.min_support == DEFAULT_MIN_SUPPORT

    parser = build_parser()
    for argv, name, value in (
        (["kb", "build", "--stix", "s", "--out", "o"], "min_examples", DEFAULT_MIN_EXAMPLES),
        (["classify", "--model", "m", "--reports", "r", "--out", "o"], "threshold",
         DEFAULT_THRESHOLD),
        (["mine", "--predictions", "p", "--out", "o"], "min_support", DEFAULT_MIN_SUPPORT),
    ):
        assert getattr(parser.parse_args(argv), name) == value, argv

    assert BEFORE_MARKERS == EXPECTED_BEFORE
    assert OVERLAP_MARKERS == EXPECTED_OVERLAP
    assert CONCURRENT_MARKERS == EXPECTED_CONCURRENT
    assert len(BEFORE_MARKERS | OVERLAP_MARKERS | CONCURRENT_MARKERS) == 26

    print(
        "PASS criterion 9: defaults pinned (threshold 0.95, min examples 20, "
        "pattern support 2) and the 26-marker lexicon is frozen"
    )
