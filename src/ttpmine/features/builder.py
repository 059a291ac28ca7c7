"""Assemble PairFeatureVectors and read/write the feature-matrix CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..attack_kb import UsageMatrix
from ..corpus import Report, pair_universe
from ..ctfidf import ReportPrediction, TOP_K_SCORES
from ..embeddings import WordVectors
from .apriori import apriori_features
from .discourse import coref_links, discourse_features
from .layout import FeatureLayout
from .markers import DEFAULT_LEXICON, MarkerLexicon, marker_features, marker_table
from .sentence import sentence_features


@dataclass(frozen=True)
class PairFeatureVector:
    report_id: str
    tx: str
    ty: str
    values: np.ndarray
    layout_version: str
    # True when F4 could not be computed (technique missing from the
    # usage matrix, or no matrix) and those slots were zeroed.
    f4_missing: bool = False

    @property
    def pair(self) -> tuple[str, str]:
        return (self.tx, self.ty)


def _f4_slots(
    um: UsageMatrix | None, pair: tuple[str, str], bins: int
) -> tuple[np.ndarray, bool]:
    tx, ty = pair
    missing = (
        um is None
        or um.cells.shape[0] == 0
        or tx not in um.techniques
        or ty not in um.techniques
    )
    if missing:
        return np.zeros(9 + 9 * bins, dtype=np.float64), True
    return apriori_features(um, pair, bins=bins), False


def f4_table(
    um: UsageMatrix | None, pairs, bins: int = 10
) -> dict[tuple[str, str], tuple[np.ndarray, bool]]:
    """Each distinct pair's f4 slots and f4_missing flag.

    F4 depends on the pair and the usage matrix only, never on the
    report, so one table serves every report in a corpus.
    """
    return {pair: _f4_slots(um, pair, bins) for pair in dict.fromkeys(pairs)}


def build_feature_vector(
    report: Report,
    pair: tuple[str, str],
    report_prediction: ReportPrediction,
    um: UsageMatrix | None,
    wv: WordVectors | None = None,
    lexicon: MarkerLexicon = DEFAULT_LEXICON,
    bins: int = 10,
    links=None,
    layout: FeatureLayout | None = None,
    markers: np.ndarray | None = None,
    f4: tuple[np.ndarray, bool] | None = None,
) -> PairFeatureVector:
    """Concatenate [default ++ f1 ++ f2 ++ f3 ++ f4] for one ordered pair.

    Sentence sets come from the prediction's threshold hits. A pair
    technique absent from the usage matrix zeroes the f4 slots and sets
    the f4_missing flag instead of failing.

    `links` (coref links among a set of the report's sentences that
    holds the pair's hit sentences), `markers` (its `marker_table`) and
    `f4` (this pair's `f4_table` entry) take precomputed values; None
    computes them here, links among the pair's hit sentences only.
    """
    if layout is None:
        layout = FeatureLayout(bins=bins)
    elif layout.bins != bins:
        raise ValueError(f"layout bins {layout.bins} != requested bins {bins}")
    tx, ty = pair
    if tx == ty:
        raise ValueError(f"self-pair ({tx}, {ty}) has no feature vector")
    if f4 is None:
        f4 = _f4_slots(um, pair, bins)

    tx_sent = report_prediction.hit_sentences.get(tx, ())
    ty_sent = report_prediction.hit_sentences.get(ty, ())
    if links is None:
        links = coref_links(report, (*tx_sent, *ty_sent))

    default = np.zeros(2 * TOP_K_SCORES, dtype=np.float64)
    if tx in report_prediction.techniques:
        default[:TOP_K_SCORES] = report_prediction.top_scores[tx]
    if ty in report_prediction.techniques:
        default[TOP_K_SCORES:] = report_prediction.top_scores[ty]

    f1 = marker_features(report, tx_sent, ty_sent, lexicon, table=markers)
    f2 = sentence_features(report, tx_sent, ty_sent, wv, links=links)
    f3 = discourse_features(report, tx_sent, ty_sent, links)
    f4_values, f4_missing = f4

    values = np.concatenate([default, f1, f2, f3, f4_values])
    assert values.shape[0] == layout.total
    return PairFeatureVector(
        report_id=report.report_id,
        tx=tx,
        ty=ty,
        values=values,
        layout_version=layout.version,
        f4_missing=f4_missing,
    )


def coref_sentences(report_prediction: ReportPrediction) -> frozenset[int]:
    """The sentences `build_report_features` computes coref links among:
    every hit sentence of the report's detected techniques, or none when
    fewer than two were detected (the report has no rows)."""
    techniques = report_prediction.techniques
    if len(techniques) < 2:
        return frozenset()
    hits = report_prediction.hit_sentences
    return frozenset(i for tid in techniques for i in hits.get(tid, ()))


def build_report_features(
    report: Report,
    report_prediction: ReportPrediction,
    um: UsageMatrix | None,
    wv: WordVectors | None = None,
    lexicon: MarkerLexicon = DEFAULT_LEXICON,
    bins: int = 10,
    layout: FeatureLayout | None = None,
    f4: dict[tuple[str, str], tuple[np.ndarray, bool]] | None = None,
) -> list[PairFeatureVector]:
    """Vectors for every ordered pair of the report's detected techniques.

    The pairs are `pair_universe(report_prediction.techniques)`, in its
    lexicographic order; a report with fewer than two detected
    techniques has no rows. The report's coref links and marker table
    are built once and shared by every pair. The links are computed
    only among `coref_sentences(report_prediction)`: every feature
    reads only links between a pair's own hit sentences, so the rows
    equal those built from the whole report's links. `f4` takes an
    `f4_table` covering those pairs, so a corpus computes it once; None
    builds one here.
    """
    if layout is None:
        layout = FeatureLayout(bins=bins)
    pairs = pair_universe(report_prediction.techniques).pairs
    if not pairs:
        return []
    if f4 is None:
        f4 = f4_table(um, pairs, bins)
    links = coref_links(report, coref_sentences(report_prediction))
    markers = marker_table(report, lexicon)
    return [
        build_feature_vector(
            report,
            pair,
            report_prediction,
            um,
            wv,
            lexicon=lexicon,
            bins=bins,
            links=links,
            layout=layout,
            markers=markers,
            f4=f4[pair],
        )
        for pair in pairs
    ]


_META_COLUMNS = ("report_id", "tx", "ty", "f4_missing")
# `features_to_csv` formats this many rows at a time. Stacking all 480
# rows of an `apply-long` run at once raised the process's peak RSS by
# about 3 MiB; blocks of 64 rows leave it where the per-cell writer had it.
_CSV_BLOCK_ROWS = 64


def _csv_field(value: str) -> str:
    """`value` as `csv.writer` writes it as one field of a row, quoted if
    it needs to be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def features_to_csv(vectors, layout: FeatureLayout) -> str:
    """CSV with one header row naming every slot; floats via repr so a
    read-back is bit-exact.

    Rows share few distinct values, so each block of rows formats each
    of its distinct values once. Values are told apart by their bits:
    -0.0 and 0.0 keep their own repr. Report and technique ids are
    quoted as `csv.writer` quotes them."""
    vectors = list(vectors)
    for fv in vectors:
        if fv.layout_version != layout.version:
            raise ValueError(
                f"vector layout {fv.layout_version} != {layout.version}"
            )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*_META_COLUMNS, *layout.names])
    names = {name for fv in vectors for name in (fv.report_id, fv.tx, fv.ty)}
    quoted = dict(zip(names, map(_csv_field, names)))
    for start in range(0, len(vectors), _CSV_BLOCK_ROWS):
        block = vectors[start : start + _CSV_BLOCK_ROWS]
        values = np.vstack([fv.values for fv in block], dtype=np.float64)
        # With return_inverse, np.unique sorts; without it, its first call
        # imports numpy.ma, which alone adds about 1.4 MiB of RSS.
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        for fv, row in zip(block, table[inverse.reshape(values.shape)].tolist()):
            buf.write(
                f"{quoted[fv.report_id]},{quoted[fv.tx]},{quoted[fv.ty]},"
                f"{int(fv.f4_missing)},{','.join(row)}\n"
            )
    return buf.getvalue()


def write_features_csv(vectors, layout: FeatureLayout, path: str | Path) -> None:
    Path(path).write_text(features_to_csv(vectors, layout), encoding="utf-8")


def features_from_csv(text: str, layout: FeatureLayout) -> list[PairFeatureVector]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expected = [*_META_COLUMNS, *layout.names]
    if header != expected:
        raise ValueError(
            "feature CSV header does not match the layout "
            f"(expected {len(expected)} columns, got {0 if header is None else len(header)}); "
            "re-run the features stage with the same configuration"
        )
    out = []
    for row in reader:
        if not row:
            continue
        report_id, tx, ty, missing = row[:4]
        values = np.array([float(v) for v in row[4:]], dtype=np.float64)
        out.append(
            PairFeatureVector(
                report_id=report_id,
                tx=tx,
                ty=ty,
                values=values,
                layout_version=layout.version,
                f4_missing=bool(int(missing)),
            )
        )
    return out


def read_features_csv(path: str | Path, layout: FeatureLayout) -> list[PairFeatureVector]:
    return features_from_csv(Path(path).read_text(encoding="utf-8"), layout)
