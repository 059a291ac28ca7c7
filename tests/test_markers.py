"""Temporal marker lexicon exactness and the 20-slot time-signal family."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import pair_row, random_prediction, random_report, report_rows
from oracles import marker_features_oracle
from ttpmine.corpus import make_report, tokenize
from ttpmine.features.discourse import DiscourseRelation, _noun_like, classify_discourse
from ttpmine.features.markers import (
    BEFORE_MARKERS,
    CONCURRENT_MARKERS,
    F1_SIZE,
    MARKER_RELATION,
    MARKERS,
    OVERLAP_MARKERS,
    marker_table,
)
from ttpmine.features.layout import FeatureLayout
from ttpmine.stopwords import STOPWORDS

EXPECTED_BEFORE = frozenset(
    {
        "after", "afterward", "following", "immediately", "instantly",
        "later", "next", "then", "succeeding", "subsequent", "subsequently",
        "before", "previous", "prior", "previously", "preceding",
    }
)
EXPECTED_OVERLAP = frozenset({"during", "while", "within", "through", "throughout"})
EXPECTED_CONCURRENT = frozenset(
    {"concurrent", "concurrently", "contemporary", "simultaneous", "simultaneously"}
)

# Fifty temporal-flavored words that are NOT in the lexicon, including
# morphological neighbors of real markers.
NEAR_MISSES = (
    "afterwards", "beforehand", "thereafter", "hereafter", "earlier",
    "soon", "sooner", "eventually", "finally", "initially",
    "firstly", "secondly", "lastly", "meanwhile", "whilst",
    "amid", "amidst", "inside", "outside", "follow",
    "follows", "followed", "succeed", "succeeds", "succeeded",
    "precede", "precedes", "preceded", "priors", "immediate",
    "instant", "instantaneous", "instantaneously", "latest", "latter",
    "lately", "subsequence", "sequential", "sequentially", "concurrence",
    "concurring", "contemporaneous", "contemporaneously", "simultaneity",
    "synchronous", "synchronously", "synchronized", "parallel", "jointly",
    "overlapping",
)


class TestLexicon:
    def test_exact_marker_sets(self):
        assert BEFORE_MARKERS == EXPECTED_BEFORE
        assert OVERLAP_MARKERS == EXPECTED_OVERLAP
        assert CONCURRENT_MARKERS == EXPECTED_CONCURRENT
        assert len(BEFORE_MARKERS) == 16
        assert len(OVERLAP_MARKERS) == 5
        assert len(CONCURRENT_MARKERS) == 5

    def test_classes_disjoint_and_total_26(self):
        assert len(MARKERS) == 26
        assert not BEFORE_MARKERS & OVERLAP_MARKERS
        assert not BEFORE_MARKERS & CONCURRENT_MARKERS
        assert not OVERLAP_MARKERS & CONCURRENT_MARKERS
        assert MARKERS == BEFORE_MARKERS | OVERLAP_MARKERS | CONCURRENT_MARKERS
        assert set(MARKER_RELATION) == MARKERS

    def test_relation_of_mapping(self):
        assert MARKER_RELATION["then"] == 0
        assert MARKER_RELATION["during"] == 1
        assert MARKER_RELATION["simultaneously"] == 2
        assert "payload" not in MARKER_RELATION

    def test_markers_survive_tokenization(self):
        # A marker dropped by the stopword list could never be counted.
        assert not MARKERS & STOPWORDS

    def test_probe_corpus_no_false_results(self):
        assert len(NEAR_MISSES) == 50
        assert len(set(NEAR_MISSES)) == 50
        probe_text = " ".join([*sorted(MARKERS), *NEAR_MISSES])
        tokens = tokenize(probe_text)
        detected = {t for t in tokens if t in MARKER_RELATION}
        missed = MARKERS - set(tokens)
        false_positives = detected - MARKERS
        false_negatives = MARKERS - detected
        assert missed == set()
        assert false_positives == set()
        assert false_negatives == set()
        assert detected == MARKERS
        near_hits = {t for t in NEAR_MISSES if t in MARKER_RELATION}
        assert near_hits == set()

    def test_f1_and_discourse_rules_read_one_list(self):
        # Each marker opening a sentence counts in its own F1 class, is
        # never noun-like, and makes the pair NEXT exactly when it is a
        # before marker.
        for rel, markers in enumerate((BEFORE_MARKERS, OVERLAP_MARKERS, CONCURRENT_MARKERS)):
            for word in sorted(markers):
                report = make_report("r1", f"Payload dropped.\n{word.title()} loader executed.")
                counts = [0.0, 0.0, 0.0]
                counts[rel] = 1.0
                assert marker_table(report).tolist() == [[0.0, 0.0, 0.0], counts], word
                assert not _noun_like(word)
                relation = classify_discourse(*report.sentences, coref=False)
                assert (relation is DiscourseRelation.NEXT) == (rel == 0), word


def _one_sentence_counts(text: str) -> list[float]:
    return marker_table(make_report("r1", text)).tolist()[0]


class TestCountMarkers:
    def test_counts_by_relation(self):
        counts = _one_sentence_counts("Then later during simultaneously.")
        assert counts == [2.0, 1.0, 1.0]

    def test_duplicates_counted(self):
        assert _one_sentence_counts("Then then.") == [2.0, 0.0, 0.0]

    def test_no_markers(self):
        assert _one_sentence_counts("Payload ran.") == [0.0, 0.0, 0.0]


LAYOUT = FeatureLayout(bins=10)
F1 = LAYOUT.group_slices["f1"]


def _f1(report, tx, ty) -> dict[str, float]:
    """The F1 slots of the (tx, ty) row, by name without the "f1." prefix."""
    row = pair_row(report, tx, ty)
    return {name[3:]: row[LAYOUT.index(name)] for name in LAYOUT.names[F1]}


def _counts(out, prefix) -> list[float]:
    """The before, overlap and concurrent slots `<prefix>_<relation>`."""
    return [out[f"{prefix}_{rel}"] for rel in ("before", "overlap", "concurrent")]


class TestMarkerFeatures:
    def test_then_in_second_sentence_slots(self):
        report = make_report("r1", "X ran. Then Y ran.")
        out = _f1(report, [0], [1])
        assert len(out) == F1_SIZE
        assert _counts(out, "tx") == [0.0, 0.0, 0.0]  # tx-sentence counts
        assert _counts(out, "ty") == [1.0, 0.0, 0.0]  # ty-sentence counts
        assert _counts(out, "span") == [1.0, 0.0, 0.0]  # span counts
        assert out["dir_before_tx_first"] == 1.0
        assert out["dir_before_ty_first"] == 0.0
        assert out["density_tx"] == 0.0 and out["density_ty"] == 1.0
        assert _counts(out, "extent") == [0.0, 0.0, 0.0]  # no interior extent

    def test_mirrored_pair_swaps_sides(self):
        report = make_report("r1", "X ran. Then Y ran.")
        out = _f1(report, [1], [0])
        assert _counts(out, "tx") == [1.0, 0.0, 0.0]
        assert _counts(out, "ty") == [0.0, 0.0, 0.0]
        assert _counts(out, "span") == [1.0, 0.0, 0.0]  # span unchanged
        # Direction flips.
        assert out["dir_before_tx_first"] == 0.0 and out["dir_before_ty_first"] == 1.0

    def test_same_sentence_pair(self):
        report = make_report("r1", "Then X and Y ran at once.")
        out = _f1(report, [0], [0])
        assert _counts(out, "tx") == [1.0, 0.0, 0.0]
        assert _counts(out, "ty") == [1.0, 0.0, 0.0]
        assert _counts(out, "span") == [1.0, 0.0, 0.0]
        assert out["dir_before_tx_first"] == 0.0 and out["dir_before_ty_first"] == 0.0
        assert out["density_tx"] == 1.0 and out["density_ty"] == 1.0

    def test_extent_counts_interior_only(self):
        report = make_report(
            "r1",
            "X started.\nMeanwhile traffic flowed during gaps.\n"
            "Scans ran while logging.\nY finished later.",
        )
        out = _f1(report, [0], [3])
        # Interior sentences 1 and 2 hold one overlap marker each; the
        # endpoint "later" in sentence 3 is excluded from the extent.
        assert _counts(out, "extent") == [0.0, 2.0, 0.0]
        # ty sentence still counts its own marker.
        assert _counts(out, "ty") == [1.0, 0.0, 0.0]

    def test_nearest_pair_defines_span(self):
        report = make_report(
            "r1",
            "X first ran.\nFiller text here.\nX again ran.\nThen Y ran.",
        )
        # tx sentences 0 and 2, ty sentence 3: nearest pair is (2, 3), so
        # the span skips the filler and the far tx sentence.
        out = _f1(report, [0, 2], [3])
        assert _counts(out, "span") == [1.0, 0.0, 0.0]

    def test_density_averages_over_sentences(self):
        report = make_report("r1", "Then X ran. Y later worked before dusk.")
        out = _f1(report, [0, 1], [1])
        assert out["density_tx"] == pytest.approx(1.5)
        assert out["density_ty"] == pytest.approx(2.0)

    def test_empty_sides_zero(self):
        report = make_report("r1", "Then X ran.")
        out = _f1(report, [], [])
        assert list(out.values()) == [0.0] * F1_SIZE

    def test_index_out_of_range_rejected(self):
        # The builder checks every hit sentence once, for all families.
        report = make_report("r1", "X ran.")
        prediction = random_prediction(np.random.default_rng(0), report, "T1", "T2")
        bad = dataclasses.replace(prediction, techniques=frozenset({"T1", "T2"}),
                                  hit_sentences={"T1": (0,), "T2": (5,)})
        with pytest.raises(ValueError, match="^sentence index 5 outside report 'r1'"):
            report_rows(report, bad)

    def test_multiple_relations_in_span(self):
        report = make_report(
            "r1", "X ran during setup. Then Y ran simultaneously."
        )
        out = _f1(report, [0], [1])
        assert _counts(out, "span") == [1.0, 1.0, 1.0]
        # Directional: sentence 1 markers count tx-first; sentence 0's
        # "during" sits at k=0 with tx_min=0, outside tx_min < k.
        assert out["dir_before_tx_first"] == 1.0
        assert out["dir_concurrent_tx_first"] == 1.0
        assert out["dir_overlap_tx_first"] == 0.0


def _sample(rng, indices, max_size: int = 6) -> list[int]:
    indices = list(indices)
    size = int(rng.integers(0, min(max_size, len(indices)) + 1))
    return sorted(int(i) for i in rng.choice(indices, size=size, replace=False))


def _assert_matches_oracle(report, tx, ty):
    want = marker_features_oracle(report, tx, ty)
    got = pair_row(report, tx, ty)[F1]
    assert got.tobytes() == want.tobytes(), (report.report_id, tx, ty)


class TestMarkerTableOracle:
    """The shared per-report table and the F1 slots of built rows against
    the per-pair recount in `tests/oracles.py`, bit for bit."""

    def test_marker_table_rows(self):
        report = make_report(
            "r1", "Then X ran during setup.\nY ran.\nLater Z ran then."
        )
        assert marker_table(report).tolist() == [
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
        ]

    def test_long_reports_random_sets(self):
        rng = np.random.default_rng(20261018)
        for case in range(12):
            report = random_report(rng, f"long{case}", n_sentences=(200, 300))
            n = len(report.sentences)
            assert marker_table(report).any()
            for _ in range(10):
                tx, ty = _sample(rng, range(n)), _sample(rng, range(n))
                _assert_matches_oracle(report, tx, ty)

    def test_ordered_overlapping_identical_and_empty_sets(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            report = random_report(rng, f"r{case}", n_sentences=(6, 40))
            n = len(report.sentences)
            half = n // 2
            early = _sample(rng, range(half)) or [0]
            late = _sample(rng, range(half, n)) or [n - 1]
            shared = _sample(rng, range(n)) or [half]
            mixed = sorted(set(shared) | set(_sample(rng, range(n))))
            for tx, ty in (
                (late, early),  # tx after ty
                (early, late),
                (shared, mixed),  # overlapping
                (mixed, shared),
                (shared, shared),  # identical
                ([], shared),
                (shared, []),
                ([], []),
            ):
                _assert_matches_oracle(report, tx, ty)

    def test_adjacent_and_same_sentence_extremes(self):
        rng = np.random.default_rng(11)
        report = random_report(rng, "edges", n_sentences=(30, 30))
        n = len(report.sentences)
        for tx, ty in (
            ([0], [n - 1]),
            ([n - 1], [0]),
            ([0], [1]),
            ([1], [0]),
            ([0, n - 1], [1, n - 2]),
            ([5], [5]),
            (list(range(n)), list(range(n))),
        ):
            _assert_matches_oracle(report, tx, ty)

    def test_single_sentence_reports(self):
        for text in ("Then X ran during setup.", "X ran.", "Later then later."):
            report = make_report("one", text)
            assert len(report.sentences) == 1
            for tx, ty in (([0], [0]), ([0], []), ([], [0]), ([], [])):
                _assert_matches_oracle(report, tx, ty)
