"""Build the pair-feature rows of whole reports as one matrix, and
read/write the feature-matrix CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..attack_kb import UsageMatrix
from ..corpus import Report, pair_universe
from ..ctfidf import ReportPrediction
from ..embeddings import WordVectors, sentence_vector
from .apriori import METRIC_NAMES, bin_index, pair_measures
from .discourse import coref_links, discourse_features
from .layout import FeatureLayout
from .markers import marker_features, marker_table
from .sentence import sentence_features


class PairKey(NamedTuple):
    report_id: str
    tx: str
    ty: str


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Pair-feature rows, held as one matrix.

    Row i is the ordered pair `keys[i]` of report `keys[i].report_id`;
    `values[i]` holds its slots under `layout`. `len()` is the row count
    and iterating yields the keys.
    """

    keys: list[PairKey]
    values: np.ndarray
    layout: FeatureLayout

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        n = len(self.keys)
        if self.values.shape != (n, self.layout.total):
            raise ValueError(
                f"{n} keys of layout {self.layout.version} do not fit values of "
                f"shape {self.values.shape}"
            )

    @property
    def f4_missing(self) -> np.ndarray:
        """Per row, True when its f4 slots are zero because a technique of
        the pair is not in the usage matrix (or the matrix has no actors).
        A measured pair has one hot bin per measure, so these are exactly
        the rows whose f4 bin slots are all zero."""
        return ~self.values[:, _f4_bin_slots(self.layout)].any(axis=1)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def take(self, idx) -> "FeatureRows":
        """The rows at the positions `idx`, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return FeatureRows(
            keys=[self.keys[i] for i in idx.tolist()],
            values=self.values[idx],
            layout=self.layout,
        )


def _f4_bin_slots(layout: FeatureLayout) -> slice:
    """The f4 one-hot bin slots of `layout`: every f4 slot after the raw
    measures."""
    f4 = layout.group_slices["f4"]
    return slice(f4.start + len(METRIC_NAMES), f4.stop)


def f4_table(um: UsageMatrix, pairs, bins: int) -> dict[tuple[str, str], np.ndarray]:
    """Each distinct pair's f4 slots.

    A pair with a technique absent from the usage matrix (or any pair,
    when the matrix has no actors) gets zeroed slots instead of failing.
    F4 depends on the pair and the usage matrix only, never on the
    report, so one table serves every report in a corpus. Every actor
    count comes from one integer product of the pairs' known technique
    columns; the measures are exact functions of those counts.
    """
    missing = np.zeros(9 + 9 * bins, dtype=np.float64)
    pairs = dict.fromkeys(pairs)
    # Without actors there is nothing to measure: every technique is unknown.
    column = {tid: k for k, tid in enumerate(um.techniques)} if um.cells.shape[0] else {}
    known = sorted({tid for pair in pairs for tid in pair if tid in column})
    at = {tid: k for k, tid in enumerate(known)}
    # int64: an int8 product would overflow at 128 actors.
    cells = um.cells[:, [column[tid] for tid in known]].astype(np.int64)
    # counts[i][j]: actors using both techniques i and j; counts[i][i]: using i.
    counts = (cells.T @ cells).tolist()
    table = {}
    for pair in pairs:
        i, j = at.get(pair[0]), at.get(pair[1])
        if i is None or j is None:
            table[pair] = missing
            continue
        raw = pair_measures(cells.shape[0], counts[i][i], counts[j][j], counts[i][j])
        out = np.zeros(9 + 9 * bins, dtype=np.float64)
        out[:9] = raw
        for m, name in enumerate(METRIC_NAMES):
            out[9 + m * bins + bin_index(float(raw[m]), name, bins)] = 1.0
        table[pair] = out
    return table


def coref_sentences(report_prediction: ReportPrediction) -> frozenset[int]:
    """The sentences `build_report_features` builds its tables over:
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
    *,
    wv: WordVectors | None,
    layout: FeatureLayout,
    f4: dict[tuple[str, str], np.ndarray],
) -> FeatureRows:
    """Rows for every ordered pair of the report's detected techniques:
    [default ++ f1 ++ f2 ++ f3 ++ f4], filled into one block.

    The pairs are `pair_universe(report_prediction.techniques)`, in its
    lexicographic order; a report with fewer than two detected
    techniques has no rows. Sentence sets come from the prediction's
    threshold hits. The report's tables are built here, once, and read
    by every pair: its marker table, its coref links and, with word
    vectors, each hit sentence's pooled vector. The links are computed
    only among `coref_sentences(report_prediction)`: every feature reads
    only links between a pair's own hit sentences, so the rows equal
    those built from the whole report's links. `coref_links` raises
    ValueError for a hit sentence outside the report, the one range
    check for every family. `f4` is an `f4_table` covering those pairs,
    computed once for a corpus.
    """
    pairs = pair_universe(report_prediction.techniques)
    values = np.empty((len(pairs), layout.total), dtype=np.float64)
    if pairs:
        among = coref_sentences(report_prediction)
        links = coref_links(report, among)
        markers = marker_table(report)
        vectors = None
        if wv is not None:
            vectors = {i: sentence_vector(wv, report.sentences[i].tokens) for i in among}
        hits = report_prediction.hit_sentences
        top = report_prediction.top_scores
        group = layout.group_slices
        for row, pair in enumerate(pairs):
            tx, ty = pair
            tx_sent, ty_sent = hits.get(tx, ()), hits.get(ty, ())
            out = values[row]
            out[group["default"]] = (*top[tx], *top[ty])
            out[group["f1"]] = marker_features(markers, tx_sent, ty_sent)
            out[group["f2"]] = sentence_features(tx_sent, ty_sent, links, vectors)
            out[group["f3"]] = discourse_features(report, tx_sent, ty_sent, links)
            out[group["f4"]] = f4[pair]
    return FeatureRows(
        keys=[PairKey(report.report_id, tx, ty) for tx, ty in pairs],
        values=values,
        layout=layout,
    )


_META_COLUMNS = ("report_id", "tx", "ty", "f4_missing")
# `_write_csv` formats this many rows at a time. Formatting all 480
# rows of an `apply-long` run at once raised the process's peak RSS by
# about 3 MiB; blocks of 64 rows leave it where the per-cell writer had it.
_CSV_BLOCK_ROWS = 64


def _csv_field(value: str) -> str:
    """`value` as `csv.writer` writes it as one field of a row, quoted if
    it needs to be. A "\r" needs quotes too, though rows end at "\n":
    the reader ends an unquoted field there."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((value, ""))
    return buf.getvalue()[:-3]


def _write_csv(rows: FeatureRows, out) -> None:
    """Write to the text stream `out` the CSV of `rows`, with one header
    row naming every slot of `rows.layout`; floats via repr so a
    read-back is bit-exact.

    Rows share few distinct values, so each block of rows formats each
    of its distinct values once. Values are told apart by their bits:
    -0.0 and 0.0 keep their own repr. Report and technique ids are
    quoted as `_csv_field` quotes them."""
    csv.writer(out, lineterminator="\n").writerow([*_META_COLUMNS, *rows.layout.names])
    names = {name for key in rows for name in key}
    quoted = dict(zip(names, map(_csv_field, names)))
    f4_missing = rows.f4_missing.tolist()
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        values = rows.values[block]
        # With return_inverse, np.unique sorts; without it, its first call
        # imports numpy.ma, which alone adds about 1.4 MiB of RSS.
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        for (report_id, tx, ty), missing, row in zip(
            rows.keys[block],
            f4_missing[block],
            table[inverse.reshape(values.shape)].tolist(),
        ):
            out.write(
                f"{quoted[report_id]},{quoted[tx]},{quoted[ty]},"
                f"{int(missing)},{','.join(row)}\n"
            )


def features_to_csv(rows: FeatureRows) -> str:
    """The features CSV of `rows` as text (see `_write_csv`)."""
    buf = io.StringIO()
    _write_csv(rows, buf)
    return buf.getvalue()


def write_features_csv(rows: FeatureRows, path: str | Path) -> None:
    """Write the features CSV of `rows` to `path` as it is formatted, so
    the whole text is never held in memory: holding it raised the
    `apply-long` run's peak RSS by about 0.6 MiB."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_csv(rows, fh)


def _parse_features_csv(text: str, layout: FeatureLayout, source: str) -> FeatureRows:
    """The rows of a features CSV. Each bad row raises one ValueError
    naming `source:line`: a wrong column count, an f4_missing flag other
    than 0 or 1, a slot value that is not a float, or an f4_missing flag
    that disagrees with the row's f4 bin slots (see
    `FeatureRows.f4_missing`)."""
    # Lines end at "\n" alone, as in the file. Split lines keep one byte a
    # character, where a StringIO of the text would hold four.
    reader = csv.reader(line + "\n" for line in text.split("\n"))
    header = next(reader, None)
    expected = [*_META_COLUMNS, *layout.names]
    if header != expected:
        raise ValueError(
            f"{source}: feature CSV header does not match the layout "
            f"(expected {len(expected)} columns, got {0 if header is None else len(header)}); "
            "re-run the features stage with the same configuration"
        )
    # Every row ends at a newline but perhaps the last, so the file has
    # at most this many rows; the unused tail of the block is never touched.
    values = np.empty((text.count("\n"), layout.total), dtype=np.float64)
    keys = []
    f4_bins = _f4_bin_slots(layout)
    for row in reader:
        if not row:
            continue
        where = f"{source}:{reader.line_num}"
        if len(row) != len(expected):
            raise ValueError(f"{where}: {len(row)} columns, expected {len(expected)}")
        report_id, tx, ty, missing = row[:4]
        if missing not in ("0", "1"):
            raise ValueError(f"{where}: f4_missing is {missing!r}, not 0 or 1")
        try:
            slots = list(map(float, row[4:]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (missing == "1") == any(slots[f4_bins]):
            raise ValueError(
                f"{where}: f4_missing is {missing}, but the f4 bin slots "
                + ("hold a hot bin" if missing == "1" else "are all zero")
            )
        values[len(keys)] = slots
        keys.append(PairKey(report_id, tx, ty))
    return FeatureRows(keys, values[: len(keys)], layout)


def features_from_csv(text: str, layout: FeatureLayout) -> FeatureRows:
    return _parse_features_csv(text, layout, "<text>")


def read_features_csv(path: str | Path, layout: FeatureLayout) -> FeatureRows:
    # newline="" keeps a quoted "\r" in an id as it was written.
    with open(path, encoding="utf-8", newline="") as fh:
        return _parse_features_csv(fh.read(), layout, str(path))
