"""Pair feature-vector assembly and the CSV round trip, including the
mirror invariants between (tx,ty) and (ty,tx) vectors."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_prediction, random_report
from oracles import coref_links_oracle, features_to_csv_oracle
from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import make_report, pair_universe
from ttpmine.ctfidf import ReportPrediction
from ttpmine.features.apriori import apriori_features
from ttpmine.features.builder import (
    build_feature_vector,
    build_report_features,
    f4_table,
    features_from_csv,
    features_to_csv,
    read_features_csv,
    write_features_csv,
)
from ttpmine.features.layout import FeatureLayout


def _prediction(report_id="r1", techniques=(), top=None, hits=None, threshold=0.95):
    techniques = frozenset(techniques)
    top = dict(top or {})
    for tid in techniques:
        top.setdefault(tid, (1.0, 0.0, 0.0, 0.0, 0.0))
    return ReportPrediction(
        report_id=report_id,
        threshold=threshold,
        techniques=techniques,
        top_scores=top,
        hit_sentences=dict(hits or {}),
    )


def _um():
    return UsageMatrix(
        actors=("G0001", "G0002"),
        techniques=("T1204", "T1566"),
        cells=np.array([[1, 1], [0, 1]], dtype=np.int8),
    )


REPORT = make_report("r1", "A phishing email arrived.\nThen the user ran it.\n")


class TestBuildFeatureVector:
    def test_shape_and_stamp(self):
        fv = build_feature_vector(
            REPORT,
            ("T1566", "T1204"),
            _prediction(techniques=("T1566", "T1204")),
            um=None,
        )
        assert fv.values.shape == (152,)
        assert fv.layout_version == "v1-bins10"
        assert fv.report_id == "r1"
        assert fv.pair == ("T1566", "T1204")

    def test_default_slots_from_top_scores(self):
        pred = _prediction(
            techniques=("T1566", "T1204"),
            top={
                "T1566": (1.0, 0.8, 0.1, 0.0, 0.0),
                "T1204": (0.97, 0.0, 0.0, 0.0, 0.0),
            },
        )
        fv = build_feature_vector(REPORT, ("T1566", "T1204"), pred, um=None)
        np.testing.assert_array_equal(fv.values[:5], [1.0, 0.8, 0.1, 0.0, 0.0])
        np.testing.assert_array_equal(fv.values[5:10], [0.97, 0.0, 0.0, 0.0, 0.0])

    def test_undetected_technique_zero_default(self):
        pred = _prediction(
            techniques=("T1566",),
            top={
                "T1566": (1.0, 0.5, 0.0, 0.0, 0.0),
                # Score row present but below threshold: not detected.
                "T1204": (0.9, 0.2, 0.0, 0.0, 0.0),
            },
        )
        fv = build_feature_vector(REPORT, ("T1566", "T1204"), pred, um=None)
        assert fv.values[0] == 1.0
        np.testing.assert_array_equal(fv.values[5:10], np.zeros(5))

    def test_f1_f2_from_hit_sentences(self):
        layout = FeatureLayout(bins=10)
        pred = _prediction(
            techniques=("T1566", "T1204"),
            hits={"T1566": (0,), "T1204": (1,)},
        )
        fv = build_feature_vector(REPORT, ("T1566", "T1204"), pred, um=None)
        # "then" opens sentence 1: a before-marker on the ty side.
        assert fv.values[layout.index("f1.ty_before")] == 1.0
        assert fv.values[layout.index("f2.adj_0")] == 1.0

    def test_f4_slots_and_flag(self):
        fv = build_feature_vector(
            REPORT,
            ("T1566", "T1204"),
            _prediction(techniques=("T1566", "T1204")),
            um=_um(),
        )
        assert fv.f4_missing is False
        np.testing.assert_array_equal(
            fv.values[53:], apriori_features(_um(), ("T1566", "T1204"), bins=10)
        )

    def test_f4_missing_without_matrix(self):
        fv = build_feature_vector(
            REPORT, ("T1566", "T1204"), _prediction(), um=None
        )
        assert fv.f4_missing is True
        assert fv.values[53:].sum() == 0.0

    def test_f4_missing_unknown_technique(self):
        fv = build_feature_vector(
            REPORT, ("T1566", "T9999"), _prediction(), um=_um()
        )
        assert fv.f4_missing is True
        assert fv.values[53:].sum() == 0.0

    def test_f4_missing_empty_matrix(self):
        um = UsageMatrix(
            actors=(),
            techniques=("T1204", "T1566"),
            cells=np.zeros((0, 2), dtype=np.int8),
        )
        fv = build_feature_vector(REPORT, ("T1566", "T1204"), _prediction(), um=um)
        assert fv.f4_missing is True

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            build_feature_vector(REPORT, ("T1566", "T1566"), _prediction(), um=None)

    def test_layout_bins_mismatch(self):
        with pytest.raises(ValueError, match="bins"):
            build_feature_vector(
                REPORT,
                ("T1566", "T1204"),
                _prediction(),
                um=None,
                bins=5,
                layout=FeatureLayout(bins=10),
            )

    def test_custom_bins(self):
        fv = build_feature_vector(
            REPORT, ("T1566", "T1204"), _prediction(), um=_um(), bins=5
        )
        assert fv.values.shape == (107,)
        assert fv.layout_version == "v1-bins5"


class TestBuildReportFeatures:
    def test_pair_universe_order(self):
        universe = [("T1204", "T1566"), ("T1566", "T1204")]
        vectors = build_report_features(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=_um()
        )
        assert [fv.pair for fv in vectors] == universe

    def test_rows_only_for_detected_techniques(self):
        # The universe is the prediction's detected techniques: an id
        # with top scores but no detection gets no row, and fewer than
        # two detections give none at all.
        top = {"T1046": (0.9, 0.0, 0.0, 0.0, 0.0)}
        vectors = build_report_features(
            REPORT,
            _prediction(techniques=("T1566", "T1204", "T1560"), top=top),
            um=_um(),
        )
        assert [fv.pair for fv in vectors] == [
            ("T1204", "T1560"),
            ("T1204", "T1566"),
            ("T1560", "T1204"),
            ("T1560", "T1566"),
            ("T1566", "T1204"),
            ("T1566", "T1560"),
        ]
        one = _prediction(techniques=("T1566",), top=top)
        assert build_report_features(REPORT, one, um=_um()) == []

    def test_shared_tables_match_per_pair_vectors(self):
        # One coref pass, marker table and f4 table per report (or per
        # corpus) must give the vectors each pair gets on its own.
        rng = np.random.default_rng(20261018)
        corpus_f4 = f4_table(_um(), pair_universe(["T1204", "T1566", "T9999"]), bins=10)
        for case in range(12):
            report = random_report(rng, f"r{case}", n_sentences=(3, 60))
            pred = random_prediction(rng, report, "T1566", "T1204", "T9999")
            um = _um() if case % 3 else None
            f4 = corpus_f4 if um is not None and case % 2 else None
            shared = build_report_features(report, pred, um=um, f4=f4)
            pairs = list(pair_universe(pred.techniques))
            assert [fv.pair for fv in shared] == pairs
            for fv, pair in zip(shared, pairs):
                alone = build_feature_vector(report, pair, pred, um=um)
                assert fv.pair == pair
                assert fv.f4_missing == alone.f4_missing
                assert fv.values.tobytes() == alone.values.tobytes(), (case, pair)


    def test_rows_equal_rows_from_whole_report_links(self):
        # Links among the hit sentences only must give the rows that the
        # whole report's links give, coref-reading slots included.
        layout = FeatureLayout(bins=10)
        coref_slots = [
            k for k, name in enumerate(layout.names)
            if name == "f2.coref" or name.startswith("f3.coref_")
        ]
        rng = np.random.default_rng(20261022)
        read = 0
        for case in range(40):
            report = random_report(rng, f"r{case}", n_sentences=(3, 40))
            pred = random_prediction(rng, report, "T1566", "T1204", "T9999")
            rows = build_report_features(report, pred, um=_um())
            whole = coref_links_oracle(report)
            for fv in rows:
                want = build_feature_vector(
                    report, fv.pair, pred, um=_um(), links=whole
                )
                assert fv.values.tobytes() == want.values.tobytes(), (case, fv.pair)
                read += int(fv.values[coref_slots].sum())
        assert read > 20


class TestMirrorInvariants:
    def test_random_reports(self):
        rng = np.random.default_rng(20260822)
        layout = FeatureLayout(bins=10)
        spec = layout.mirror_spec
        um = _um()
        for case in range(50):
            report = random_report(rng, f"r{case:02d}")
            pred = random_prediction(rng, report, "T1566", "T1204")
            use_um = um if case % 2 == 0 else None
            fwd = build_feature_vector(
                report, ("T1566", "T1204"), pred, um=use_um
            ).values
            rev = build_feature_vector(
                report, ("T1204", "T1566"), pred, um=use_um
            ).values
            for a, b in spec["swap"]:
                assert rev[a] == fwd[b], (case, layout.names[a])
                assert rev[b] == fwd[a], (case, layout.names[a])
            for e in spec["equal"]:
                assert rev[e] == fwd[e], (case, layout.names[e])


class TestCsvRoundTrip:
    def _vectors(self):
        rng = np.random.default_rng(3)
        out = []
        for k in range(4):
            report = random_report(rng, f"r{k}")
            pred = random_prediction(rng, report, "T1566", "T1204")
            out.append(
                build_feature_vector(
                    report,
                    ("T1566", "T1204"),
                    pred,
                    um=_um() if k % 2 else None,
                )
            )
        # Exercise awkward float values through repr round-tripping.
        noisy = out[0].values.copy()
        noisy[10] = 0.1 + 0.2
        noisy[11] = 1e-17
        noisy[12] = 123456.789012345
        out.append(
            type(out[0])(
                report_id="rx",
                tx="T1566",
                ty="T1204",
                values=noisy,
                layout_version=out[0].layout_version,
                f4_missing=True,
            )
        )
        return out

    def test_bit_exact_round_trip(self):
        layout = FeatureLayout(bins=10)
        vectors = self._vectors()
        text = features_to_csv(vectors, layout)
        back = features_from_csv(text, layout)
        assert len(back) == len(vectors)
        for fv, rt in zip(vectors, back):
            assert (fv.report_id, fv.tx, fv.ty) == (rt.report_id, rt.tx, rt.ty)
            assert fv.f4_missing == rt.f4_missing
            assert np.array_equal(fv.values, rt.values)

    def test_values_written_as_float_repr(self):
        # Each value is written as `repr` of the Python float, as when it
        # was formatted one numpy scalar at a time.
        layout = FeatureLayout(bins=10)
        vectors = self._vectors()
        edge = vectors[-1].values.copy()
        edge[:6] = (-0.0, 5e-324, 1e300, 2.0**53 + 2, np.nextafter(1.0, 2.0), -1 / 3)
        vectors.append(type(vectors[0])(
            report_id="ry", tx="T1204", ty="T1566", values=edge,
            layout_version=layout.version,
        ))
        lines = features_to_csv(vectors, layout).splitlines()[1:]
        assert len(lines) == len(vectors)
        for line, fv in zip(lines, vectors):
            expected = [fv.report_id, fv.tx, fv.ty, str(int(fv.f4_missing))]
            expected += [repr(float(v)) for v in fv.values]
            assert line == ",".join(expected)

    def test_bytes_equal_per_cell_writer(self):
        # Each distinct value is formatted once: values that compare equal
        # but differ in bits (-0.0 and 0.0, NaNs) must keep their own repr,
        # and report ids that need quoting are quoted as csv.writer does.
        layout = FeatureLayout(bins=10)
        base = self._vectors()
        awkward = np.array(
            [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             1e16, 0.1 + 0.2, 0.3, 1e-17, 2.0**53 + 2, -1 / 3],
        )
        ids = ("r,1", 'say "hi"', "multi\nline", "cr\rid", "", " lead", "plain")
        vectors = []
        for k, report_id in enumerate(ids):
            values = np.roll(np.resize(awkward, base[0].values.size), k)
            vectors.append(type(base[0])(
                report_id=report_id, tx="T1566", ty="T,1204", values=values,
                layout_version=layout.version, f4_missing=bool(k % 2),
            ))
        vectors += base
        assert features_to_csv(vectors, layout) == features_to_csv_oracle(vectors, layout)
        assert features_to_csv(vectors[:1], layout) == features_to_csv_oracle(vectors[:1], layout)
        # More rows than one block of the writer.
        many = [vectors[k % len(vectors)] for k in range(150)]
        assert features_to_csv(many, layout) == features_to_csv_oracle(many, layout)

    def test_header_names_layout(self):
        layout = FeatureLayout(bins=10)
        header = features_to_csv([], layout).splitlines()[0]
        cols = header.split(",")
        assert cols[:4] == ["report_id", "tx", "ty", "f4_missing"]
        assert cols[4] == "default.tx_top1"
        assert len(cols) == 4 + 152

    def test_header_mismatch_rejected(self):
        text = features_to_csv([], FeatureLayout(bins=5))
        with pytest.raises(ValueError, match="re-run the features stage"):
            features_from_csv(text, FeatureLayout(bins=10))

    def test_layout_version_mismatch_on_write(self):
        vectors = self._vectors()
        with pytest.raises(ValueError, match="layout"):
            features_to_csv(vectors, FeatureLayout(bins=5))

    def test_file_round_trip(self, tmp_path):
        layout = FeatureLayout(bins=10)
        vectors = self._vectors()
        path = tmp_path / "features.csv"
        write_features_csv(vectors, layout, path)
        back = read_features_csv(path, layout)
        for fv, rt in zip(vectors, back):
            assert np.array_equal(fv.values, rt.values)
