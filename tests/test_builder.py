"""Pair feature rows built a report at a time against the per-pair
oracle, the CSV round trip, and the mirror invariants between (tx,ty)
and (ty,tx) rows."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    EMPTY_USAGE,
    make_rows,
    random_prediction,
    random_report,
    random_word_vectors,
    report_rows,
    v1_bins_header,
)
from oracles import (
    coref_links_oracle,
    f4_oracle,
    features_to_csv_oracle,
    mirror_spec,
    pair_vector_oracle,
)
from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import make_report, pair_universe
from ttpmine.ctfidf import ReportPrediction
from ttpmine.features.builder import (
    FeatureRows,
    PairKey,
    build_report_features,
    f4_table,
    read_features_csv,
    write_features_csv,
)
from ttpmine.features.layout import GROUP_SLICES, N_SLOTS, SLOT_NAMES
from ttpmine.pipeline import count_f4_missing, stage_features


def _csv_text(rows, tmp_path) -> str:
    """The features CSV of `rows` as `write_features_csv` writes it."""
    path = tmp_path / "written.csv"
    write_features_csv(rows, path=path)
    return path.read_bytes().decode("utf-8")


def _read_text(text, tmp_path):
    """`read_features_csv` of a file holding exactly `text`."""
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode("utf-8"))
    return read_features_csv(path)


def _prediction(report_id="r1", techniques=(), top=None, hits=None):
    """`techniques` detected, in `hits` (none where not given), with
    the `top` scores given and (1, 0, 0, 0, 0) for the rest."""
    top, hits = top or {}, hits or {}
    return ReportPrediction(
        report_id=report_id,
        hit_sentences={tid: tuple(hits.get(tid, ())) for tid in techniques},
        top_scores={tid: top.get(tid, (1.0, 0.0, 0.0, 0.0, 0.0)) for tid in techniques},
    )


def _um():
    return UsageMatrix(
        actors=("G0001", "G0002"),
        techniques=("T1204", "T1566"),
        cells=np.array([[1, 1], [0, 1]], dtype=np.int8),
    )


REPORT = make_report("r1", "A phishing email arrived.\nThen the user ran it.\n")


def _row(rows, tx, ty):
    """The values and f4_missing flag of one pair's row."""
    index = [(key.tx, key.ty) for key in rows].index((tx, ty))
    return rows.values[index], bool(rows.f4_missing[index])


def _assert_rows_match_oracle(rows, reports, predictions, um, wv=None):
    """Every row equals `pair_vector_oracle`'s vector for its pair, bit
    for bit, and the rows are each report's detected pairs in order."""
    reports = {r.report_id: r for r in reports}
    predictions = {p.report_id: p for p in predictions}
    assert list(rows) == [
        (rid, tx, ty)
        for rid in sorted(reports)
        for tx, ty in pair_universe(predictions[rid].techniques)
    ]
    for key, values, missing in zip(rows, rows.values, rows.f4_missing):
        want, want_missing = pair_vector_oracle(
            reports[key.report_id], (key.tx, key.ty), predictions[key.report_id], um, wv
        )
        assert bool(missing) == want_missing, key
        assert values.tobytes() == want.tobytes(), key


def _assert_mirror_invariants(rows):
    """Each (tx,ty) row and the (ty,tx) row of the same report relate as
    the layout's mirror specification says. Returns the pairs checked."""
    spec = mirror_spec()
    index = {key: k for k, key in enumerate(rows)}
    checked = 0
    for (rid, tx, ty), k in index.items():
        fwd, rev = rows.values[k], rows.values[index[(rid, ty, tx)]]
        for a, b in spec["swap"]:
            assert rev[a] == fwd[b], (rid, tx, ty, SLOT_NAMES[a])
            assert rev[b] == fwd[a], (rid, tx, ty, SLOT_NAMES[a])
        for e in spec["equal"]:
            assert rev[e] == fwd[e], (rid, tx, ty, SLOT_NAMES[e])
        checked += 1
    return checked


@pytest.mark.parametrize("shape", [(2, 61), (2, 63), (1, 62), (3, 62)])
def test_rows_that_do_not_fit_their_keys(shape):
    # Two keys take a (2, 62) matrix: one row per key, one column per slot.
    keys = [PairKey("r1", "TA", "TB"), PairKey("r1", "TB", "TA")]
    with pytest.raises(ValueError) as info:
        FeatureRows(keys, np.zeros(shape))
    assert str(info.value) == f"2 keys do not fit values of shape {shape}: expected (2, 62)"


class TestBuildFeatureVector:
    """The slots of single rows of `build_report_features`."""

    def test_shape_and_stamp(self):
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=EMPTY_USAGE
        )
        assert rows.values.shape == (2, 62)
        assert [key.report_id for key in rows] == ["r1", "r1"]
        assert len(rows) == 2

    def test_default_slots_from_top_scores(self):
        pred = _prediction(
            techniques=("T1566", "T1204"),
            top={
                "T1566": (1.0, 0.8, 0.1, 0.0, 0.0),
                "T1204": (0.97, 0.0, 0.0, 0.0, 0.0),
            },
        )
        values, _ = _row(report_rows(REPORT, pred, um=EMPTY_USAGE), "T1566", "T1204")
        np.testing.assert_array_equal(values[:5], [1.0, 0.8, 0.1, 0.0, 0.0])
        np.testing.assert_array_equal(values[5:10], [0.97, 0.0, 0.0, 0.0, 0.0])

    def test_undetected_technique_zero_default(self):
        # Reports build rows for detected pairs only; the per-pair oracle
        # that the all-class rows come from zeroes an undetected side.
        pred = _prediction(
            techniques=("T1566",),
            top={
                "T1566": (1.0, 0.5, 0.0, 0.0, 0.0),
                # Score row present but below threshold: not detected.
                "T1204": (0.9, 0.2, 0.0, 0.0, 0.0),
            },
        )
        assert len(report_rows(REPORT, pred, um=EMPTY_USAGE)) == 0
        values, _ = pair_vector_oracle(REPORT, ("T1566", "T1204"), pred, um=EMPTY_USAGE)
        assert values[0] == 1.0
        np.testing.assert_array_equal(values[5:10], np.zeros(5))

    def test_f1_f2_from_hit_sentences(self):
        pred = _prediction(
            techniques=("T1566", "T1204"),
            hits={"T1566": (0,), "T1204": (1,)},
        )
        values, _ = _row(report_rows(REPORT, pred, um=EMPTY_USAGE), "T1566", "T1204")
        # "then" opens sentence 1: a before-marker on the ty side.
        assert values[SLOT_NAMES.index("f1.ty_before")] == 1.0
        assert values[SLOT_NAMES.index("f2.adj_0")] == 1.0

    def test_f4_slots_and_flag(self):
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=_um()
        )
        values, missing = _row(rows, "T1566", "T1204")
        assert missing is False
        np.testing.assert_array_equal(
            values[53:], f4_oracle(_um(), ("T1566", "T1204"))
        )

    def test_f4_missing_without_matrix(self):
        # A matrix with neither actors nor techniques.
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=EMPTY_USAGE
        )
        assert rows.f4_missing.tolist() == [True, True]
        assert rows.values[:, 53:].sum() == 0.0

    def test_f4_missing_unknown_technique(self):
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204", "T9999")), um=_um()
        )
        for tx, ty in pair_universe(["T1566", "T1204", "T9999"]):
            values, missing = _row(rows, tx, ty)
            assert missing is ("T9999" in (tx, ty)), (tx, ty)
            assert (values[53:].sum() == 0.0) == missing

    def test_f4_missing_reads_every_f4_slot(self):
        # T1204 is used by no actor and T1566 by every actor: the pair
        # (T1204, T1566) is measured, with eight measures at 0 and added
        # value -1.
        um = UsageMatrix(
            actors=("G0001", "G0002"),
            techniques=("T1204", "T1566"),
            cells=np.array([[0, 1], [0, 1]], dtype=np.int8),
        )
        rows = report_rows(REPORT, _prediction(techniques=("T1566", "T1204")), um=um)
        values, missing = _row(rows, "T1204", "T1566")
        assert values[53:].tolist() == [0.0] * 8 + [-1.0]
        assert missing is False

    def test_f4_missing_empty_matrix(self):
        um = UsageMatrix(
            actors=(),
            techniques=("T1204", "T1566"),
            cells=np.zeros((0, 2), dtype=np.int8),
        )
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=um
        )
        assert rows.f4_missing.all()

    def test_self_pair_rejected(self):
        # The pair universe holds no self-pair, so no row ever is one.
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204", "T1560")), um=EMPTY_USAGE
        )
        assert len(rows) == 6
        assert all(key.tx != key.ty for key in rows)


class TestBuildReportFeatures:
    def test_pair_universe_order(self):
        universe = [("T1204", "T1566"), ("T1566", "T1204")]
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204")), um=_um()
        )
        assert [(key.tx, key.ty) for key in rows] == universe

    def test_rows_only_for_detected_techniques(self):
        # The universe is the prediction's detected techniques: fewer
        # than two detections give no rows at all.
        rows = report_rows(
            REPORT, _prediction(techniques=("T1566", "T1204", "T1560")), um=_um()
        )
        assert [(key.tx, key.ty) for key in rows] == [
            ("T1204", "T1560"),
            ("T1204", "T1566"),
            ("T1560", "T1204"),
            ("T1560", "T1566"),
            ("T1566", "T1204"),
            ("T1566", "T1560"),
        ]
        one = _prediction(techniques=("T1566",))
        empty = report_rows(REPORT, one, um=_um())
        assert len(empty) == 0
        assert empty.values.shape == (0, 62)

    def test_shared_tables_match_per_pair_vectors(self):
        # One coref pass, marker table, pooled-vector table and f4 table
        # per report (or f4 per corpus) must give the vectors each pair
        # gets on its own.
        rng = np.random.default_rng(20261018)
        corpus_f4 = f4_table(_um(), pair_universe(["T1204", "T1566", "T9999"]))
        for case in range(12):
            report = random_report(rng, f"r{case}", n_sentences=(3, 60))
            pred = random_prediction(rng, report, "T1566", "T1204", "T9999")
            um = _um() if case % 3 else EMPTY_USAGE
            wv = random_word_vectors(rng) if case % 4 else None
            if case % 3 and case % 2:
                rows = build_report_features(report, pred, wv=wv, f4=corpus_f4)
            else:
                rows = report_rows(report, pred, um=um, wv=wv)
            _assert_rows_match_oracle(rows, [report], [pred], um, wv)

    def test_rows_equal_rows_from_whole_report_links(self):
        # Links among the hit sentences only must give the rows that the
        # whole report's links give, coref-reading slots included.
        coref_slots = [
            k for k, name in enumerate(SLOT_NAMES)
            if name == "f2.coref" or name.startswith("f3.coref_")
        ]
        rng = np.random.default_rng(20261022)
        read = 0
        for case in range(40):
            report = random_report(rng, f"r{case}", n_sentences=(3, 40))
            pred = random_prediction(rng, report, "T1566", "T1204", "T9999")
            rows = report_rows(report, pred, um=_um())
            _assert_rows_match_oracle(rows, [report], [pred], _um())
            read += int(rows.values[:, coref_slots].sum())
        assert read > 20


def _planted_coref_report(rng, report_id: str, n: int):
    """A report of planted coreference runs: a noun sentence, then one
    opening "This malware ..." (a pronoun link back to it) that also
    names "the <noun>" again, then another "the <noun>" reference, each
    run cut short at random and followed by filler."""
    lines = []
    while len(lines) < n:
        noun = str(rng.choice(["beacon", "loader", "implant", "payload", "archive"]))
        run = [
            f"The operators staged a {noun} file quietly.",
            f"This malware then copied the {noun} file home.",
            f"Analysts found the {noun} file later.",
        ]
        lines += run[: int(rng.integers(1, 4))]
        lines += ["Unrelated filler text appeared meanwhile."] * int(rng.integers(0, 3))
    return make_report(report_id, "\n".join(lines[:n]))


class TestPlantedCoreference:
    """Rows of reports whose hit sentences hold coreference links, so the
    coref-reading slots are live (the e2e fixture has no link), against
    `pair_vector_oracle` bit for bit."""

    def test_coref_slots_match_oracle(self):
        f2_coref = SLOT_NAMES.index("f2.coref")
        f3_coref = [k for k, name in enumerate(SLOT_NAMES) if name.startswith("f3.coref_")]
        rng = np.random.default_rng(20261019)
        tids = ("T1204", "T1560", "T1566")
        read = np.zeros(len(f3_coref))
        linked_rows = 0
        for case in range(10):
            n = int(rng.integers(6, 40))
            report = _planted_coref_report(rng, f"p{case}", n)
            assert coref_links_oracle(report)
            # Unsorted hits with repeats; one technique always hits the
            # last sentence.
            hits = {
                tid: tuple(int(i) for i in rng.choice(n, size=int(rng.integers(1, 8))))
                for tid in tids
            }
            hits[tids[case % 3]] += (n - 1, n - 1)
            pred = _prediction(report_id=report.report_id, techniques=tids, hits=hits)
            for wv in (None, random_word_vectors(rng)):
                rows = report_rows(report, pred, um=_um(), wv=wv)
                _assert_rows_match_oracle(rows, [report], [pred], _um(), wv)
            read += rows.values[:, f3_coref].sum(axis=0)
            linked_rows += np.count_nonzero(rows.values[:, f2_coref])
        # NEXT ("then" opens the "This malware" sentence), ELABORATION and
        # LIST links are all read, by many rows.
        assert np.count_nonzero(read) >= 3 and read.sum() > 20, read
        assert linked_rows > 15


class TestWorkPerReport:
    """A report's build does no work that no row reads, and none twice:
    each cosine and each discourse relation that some pair reads is
    computed once, and no temporary grows with pairs times sentences."""

    @staticmethod
    def _count(monkeypatch, name):
        import ttpmine.features.builder as builder

        calls = []
        real = getattr(builder, name)
        monkeypatch.setattr(builder, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_each_read_cosine_computed_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        report = random_report(rng, "w", n_sentences=(12, 12))
        hits = {"TA": (2, 0, 1, 2), "TB": (2, 5, 6), "TC": (9,)}
        pred = _prediction(report_id="w", techniques=hits, hits=hits)
        calls = self._count(monkeypatch, "cosine")
        rows = report_rows(report, pred, wv=random_word_vectors(rng))
        # Sentence pairs {i, j} with i a hit of one technique and j of
        # another; sentence 2, a hit of two, pairs with itself. The six
        # rows read 30 (i, j) cosines, 14 of them distinct.
        read = {
            tuple(sorted((i, j)))
            for a in hits for b in hits if a != b for i in hits[a] for j in hits[b]
        }
        assert len(calls) == len(read) == 14
        assert rows.values[:, SLOT_NAMES.index("f2.sim_max")].all()

    def test_only_straddled_sentence_pairs_classified(self, monkeypatch):
        rng = np.random.default_rng(6)
        report = _planted_coref_report(rng, "d", 12)
        # TA hits a run of five sentences; of the adjacent pairs among the
        # hits, only (4, 5) has its two sentences hit by TA and TB.
        hits = {"TA": (0, 1, 2, 3, 4), "TB": (5, 8)}
        pred = _prediction(report_id="d", techniques=hits, hits=hits)
        calls = self._count(monkeypatch, "classify_discourse")
        report_rows(report, pred)
        straddled_links = [
            (i, j) for i, j in coref_links_oracle(report)
            if (i in hits["TA"]) != (j in hits["TA"]) and {i, j} <= {0, 1, 2, 3, 4, 5, 8}
        ]
        assert straddled_links
        assert len(calls) == 1 + len(straddled_links)

    def test_peak_memory_grows_with_techniques_times_sentences(self):
        import tracemalloc

        rng = np.random.default_rng(7)
        n, k = 2000, 40
        report = random_report(rng, "m", n_sentences=(n, n))
        hits = {f"T{1000 + a}": tuple(int(i) for i in rng.choice(n, size=25)) for a in range(k)}
        pred = _prediction(report_id="m", techniques=hits, hits=hits)
        f4 = f4_table(EMPTY_USAGE, pair_universe(hits))
        tracemalloc.start()
        try:
            rows = build_report_features(report, pred, wv=None, f4=f4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == k * (k - 1)
        # The 1,560 rows take 1.9 MiB; one int64 (k, k, n) array would
        # take 24 MiB.
        assert peak < 16 * 2**20, peak


class TestStageFeaturesOracle:
    """The corpus matrix `stage_features` returns against
    `pair_vector_oracle`, on long seeded reports whose rows read
    coreference links and temporal markers."""

    @pytest.mark.parametrize("with_usage", [True, False])
    def test_long_reports(self, tmp_path, with_usage):
        rng = np.random.default_rng(20261030)
        tids = ("T1204", "T1566", "T1560", "T1046", "T9999")
        reports = [
            random_report(rng, f"r{k}", n_sentences=(250, 250)) for k in range(4)
        ]
        predictions = [
            random_prediction(rng, r, *tids, n_hits=(8, 30)) for r in reports
        ]
        um = _um() if with_usage else EMPTY_USAGE
        rows = stage_features(um, reports, predictions, str(tmp_path / "f.csv"))
        assert all(coref_links_oracle(r) for r in reports)
        assert len(rows) > 40
        _assert_rows_match_oracle(rows, reports, predictions, um)
        unmeasured = [key for key in rows if not {key.tx, key.ty} <= set(um.techniques)]
        assert 0 < len(unmeasured) < len(rows) or not with_usage
        assert count_f4_missing(rows) == len(unmeasured)
        coref = [
            k for k, name in enumerate(SLOT_NAMES)
            if name == "f2.coref" or name.startswith("f3.coref_")
        ]
        assert rows.values[:, coref].sum() > 0
        assert rows.values[:, GROUP_SLICES["f1"]].sum() > 0
        assert _assert_mirror_invariants(rows) == len(rows)


    def test_long_reports_with_word_vectors(self, tmp_path):
        # The matrix path's cosine slots read each hit sentence's pooled
        # vector, built once per report; the oracle pools again per pair.
        rng = np.random.default_rng(20261031)
        tids = ("T1204", "T1566", "T1560", "T1046", "T9999")
        reports = [
            random_report(rng, f"r{k}", n_sentences=(120, 120)) for k in range(3)
        ]
        predictions = [
            random_prediction(rng, r, *tids, n_hits=(4, 12)) for r in reports
        ]
        wv = random_word_vectors(rng)
        rows = stage_features(_um(), reports, predictions, str(tmp_path / "f.csv"),
                              vectors=wv)
        assert len(rows) > 20
        _assert_rows_match_oracle(rows, reports, predictions, _um(), wv)
        sims = rows.values[:, [SLOT_NAMES.index("f2.sim_mean"), SLOT_NAMES.index("f2.sim_max")]]
        assert np.count_nonzero(sims) > len(rows)


class TestMirrorInvariants:
    def test_random_reports(self):
        rng = np.random.default_rng(20260822)
        um = _um()
        checked = 0
        for case in range(50):
            report = random_report(rng, f"r{case:02d}")
            pred = random_prediction(rng, report, "T1566", "T1204")
            use_um = um if case % 2 == 0 else EMPTY_USAGE
            checked += _assert_mirror_invariants(report_rows(report, pred, um=use_um))
        assert checked > 40


def _empty():
    return make_rows(np.empty((0, N_SLOTS)))


class TestCsvRoundTrip:
    def _rows(self):
        rng = np.random.default_rng(3)
        values = []
        for k in range(4):
            report = random_report(rng, f"r{k}")
            pred = random_prediction(rng, report, "T1566", "T1204")
            row, _ = pair_vector_oracle(
                report, ("T1566", "T1204"), pred, um=_um() if k % 2 else EMPTY_USAGE
            )
            values.append(row)
        # Exercise awkward float values through repr round-tripping.
        noisy = values[0].copy()
        noisy[10] = 0.1 + 0.2
        noisy[11] = 1e-17
        noisy[12] = 123456.789012345
        values.append(noisy)
        return make_rows(
            values, report_ids=["r0", "r1", "r2", "r3", "rx"], tx="T1566", ty="T1204"
        )

    def test_bit_exact_round_trip(self, tmp_path):
        rows = self._rows()
        back = _read_text(_csv_text(rows, tmp_path), tmp_path)
        assert back.keys == rows.keys
        assert back.f4_missing.tolist() == rows.f4_missing.tolist()
        assert back.values.tobytes() == rows.values.tobytes()

    def test_carriage_return_in_ids_round_trips(self, tmp_path):
        # The reader ends an unquoted field at a "\r", so the writer
        # quotes ids that hold one; every other id keeps its bytes.
        base = self._rows()
        rows = make_rows(
            base.values,
            report_ids=["cr\rid", "r1", "r2", "r3", "rx"],
            tx=["T1566", "T\r1566", "T1566", "T1566", "\r"],
            ty=["T1204", "T1204", "T1204\r", "T1204", "\r\n"],
        )
        text = _csv_text(rows, tmp_path)
        lines = text.split("\n")
        assert lines[1].startswith('"cr\rid",T1566,T1204,')
        assert lines[2].startswith('r1,"T\r1566",T1204,')
        assert lines[3].startswith('r2,T1566,"T1204\r",')
        assert lines[4] == _csv_text(base, tmp_path).split("\n")[4]
        back = _read_text(text, tmp_path)
        assert back.keys == rows.keys
        assert back.f4_missing.tolist() == rows.f4_missing.tolist()
        assert back.values.tobytes() == rows.values.tobytes()

    def test_values_written_as_float_repr(self, tmp_path):
        # Each value is written as `repr` of the Python float, as when it
        # was formatted one numpy scalar at a time.
        rows = self._rows()
        edge = rows.values[-1].copy()
        edge[:6] = (-0.0, 5e-324, 1e300, 2.0**53 + 2, np.nextafter(1.0, 2.0), -1 / 3)
        rows = make_rows(
            np.vstack([rows.values, edge]),
            report_ids=[key.report_id for key in rows] + ["ry"],
            tx=[key.tx for key in rows] + ["T1204"],
            ty=[key.ty for key in rows] + ["T1566"],
        )
        lines = _csv_text(rows, tmp_path).splitlines()[1:]
        assert len(lines) == len(rows)
        for line, key, values in zip(lines, rows, rows.values):
            assert line == ",".join([*key, *(repr(float(v)) for v in values)])

    def test_bytes_equal_per_cell_writer(self, tmp_path):
        # Each distinct value is formatted once: values that compare equal
        # but differ in bits (-0.0 and 0.0, NaNs) must keep their own repr,
        # and report ids that need quoting are quoted as csv.writer does.
        base = self._rows()
        awkward = np.array(
            [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             1e16, 0.1 + 0.2, 0.3, 1e-17, 2.0**53 + 2, -1 / 3],
        )
        ids = ("r,1", 'say "hi"', "multi\nline", "cr\rid", "", " lead", "plain")
        rolled = [np.roll(np.resize(awkward, N_SLOTS), k) for k in range(len(ids))]
        rows = make_rows(
            np.vstack([*rolled, base.values]),
            report_ids=[*ids, *(key.report_id for key in base)],
            tx="T1566",
            ty=["T,1204"] * len(ids) + ["T1204"] * len(base),
        )
        assert _csv_text(rows, tmp_path) == features_to_csv_oracle(rows)
        first = FeatureRows(rows.keys[:1], rows.values[:1])
        assert _csv_text(first, tmp_path) == features_to_csv_oracle(first)
        # More rows than one block of the writer.
        picks = [k % len(rows) for k in range(150)]
        many = FeatureRows([rows.keys[k] for k in picks], rows.values[picks])
        assert _csv_text(many, tmp_path) == features_to_csv_oracle(many)

    def test_header_names_layout(self, tmp_path):
        header = _csv_text(_empty(), tmp_path).splitlines()[0]
        cols = header.split(",")
        assert cols[:3] == ["report_id", "tx", "ty"]
        assert cols[3] == "default.tx_top1"
        assert len(cols) == 3 + 62

    def test_header_that_fits_no_layout(self, tmp_path):
        header = _csv_text(_empty(), tmp_path).split("\n")[0].split(",")
        renamed = [c.replace("f2.coref", "f2.corefs") for c in header]
        for text, got in (
            (",".join(v1_bins_header(10)) + "\n", 155),
            (",".join(v1_bins_header(1)) + "\n", 74),
            (",".join(renamed) + "\n", 65),
        ):
            with pytest.raises(ValueError) as info:
                _read_text(text, tmp_path)
            assert str(info.value) == (
                f"{tmp_path / 'features.csv'}: feature CSV header does not match "
                f"layout v2 (expected 65 columns, got {got}); re-run `ttpmine features`"
            )
        for text in ("", "\n", "\n" + ",".join(header) + "\n"):
            with pytest.raises(ValueError) as info:
                _read_text(text, tmp_path)
            assert str(info.value) == (
                f"{tmp_path / 'features.csv'}: feature CSV has no header line"
            )

    def test_file_round_trip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "features.csv"
        write_features_csv(rows, path)
        assert path.read_bytes() == features_to_csv_oracle(rows).encode("utf-8")
        back = read_features_csv(path)
        assert back.keys == rows.keys
        assert back.values.tobytes() == rows.values.tobytes()


class TestCsvBadRows:
    """A row that does not fit the layout fails with one error naming
    the file and the line."""

    def _lines(self):
        rows = TestCsvRoundTrip()._rows()
        return features_to_csv_oracle(rows).splitlines(keepends=True)

    def _read(self, tmp_path, lines):
        path = tmp_path / "features.csv"
        path.write_text("".join(lines), encoding="utf-8")
        return path, read_features_csv(path)

    def test_wrong_column_count(self, tmp_path):
        lines = self._lines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        with pytest.raises(ValueError, match=r"features\.csv:4: 64 columns, expected 65$"):
            self._read(tmp_path, lines)
        lines[3] = lines[3][:-1] + ",0.0,0.0\n"
        with pytest.raises(ValueError, match=r"features\.csv:4: 66 columns, expected 65$"):
            self._read(tmp_path, lines)

    def test_unparsable_value(self, tmp_path):
        lines = self._lines()
        cells = lines[5].split(",")
        cells[3 + SLOT_NAMES.index("f2.coref")] = "abc"
        lines[5] = ",".join(cells)
        with pytest.raises(ValueError, match=r"features\.csv:6: could not convert string to float: 'abc'$"):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value(self, tmp_path, value):
        # float() parses these; no writer writes them, and a NaN slot would
        # reach the model as a feature.
        lines = self._lines()
        cells = lines[5].split(",")
        cells[3 + SLOT_NAMES.index("f2.coref")] = value
        lines[5] = ",".join(cells)
        shown = str(float(value))
        with pytest.raises(
            ValueError, match=rf"features\.csv:6: slot f2\.coref is {shown}, not a finite number$"
        ):
            self._read(tmp_path, lines)
        # The line is the file's, blank lines counted.
        with pytest.raises(ValueError, match=r"features\.csv:8: slot f2\.coref is "):
            self._read(tmp_path, [lines[0], "\n", *lines[1:4], "\n", *lines[4:]])

    def test_blank_lines_skipped(self, tmp_path):
        lines = self._lines()
        path, rows = self._read(tmp_path, [lines[0], "\n", *lines[1:], "\n"])
        assert rows.values.tobytes() == TestCsvRoundTrip()._rows().values.tobytes()
