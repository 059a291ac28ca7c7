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
from ..embeddings import WordVectors
from .apriori import apriori_features
from .discourse import coref_links, discourse_features
from .layout import FeatureLayout
from .markers import DEFAULT_LEXICON, MarkerLexicon, marker_features, marker_table
from .sentence import sentence_features


class PairKey(NamedTuple):
    report_id: str
    tx: str
    ty: str


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Pair-feature rows, held as one matrix.

    Row i is the ordered pair `keys[i]` of report `keys[i].report_id`;
    `values[i]` holds its slots under `layout`, and `f4_missing[i]` is
    True when its f4 slots are zero because a technique of the pair is
    not in the usage matrix (or there is no matrix). `len()` is the row
    count and iterating yields the keys.
    """

    keys: list[PairKey]
    values: np.ndarray
    f4_missing: np.ndarray
    layout: FeatureLayout

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "f4_missing", np.asarray(self.f4_missing, dtype=bool))
        n = len(self.keys)
        if self.values.shape != (n, self.layout.total) or self.f4_missing.shape != (n,):
            raise ValueError(
                f"{n} keys of layout {self.layout.version} do not fit values of "
                f"shape {self.values.shape} and f4_missing of shape {self.f4_missing.shape}"
            )

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
            f4_missing=self.f4_missing[idx],
            layout=self.layout,
        )


def f4_table(
    um: UsageMatrix | None, pairs, bins: int = 10
) -> dict[tuple[str, str], tuple[np.ndarray, bool]]:
    """Each distinct pair's f4 slots and f4_missing flag.

    A pair with a technique absent from the usage matrix (or no matrix,
    or one without actors) gets zeroed slots and the flag instead of
    failing. F4 depends on the pair and the usage matrix only, never on
    the report, so one table serves every report in a corpus.
    """
    known = set(um.techniques) if um is not None and um.cells.shape[0] else set()
    missing = (np.zeros(9 + 9 * bins, dtype=np.float64), True)
    return {
        pair: (apriori_features(um, pair, bins=bins), False)
        if pair[0] in known and pair[1] in known
        else missing
        for pair in dict.fromkeys(pairs)
    }


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
    layout: FeatureLayout | None = None,
    f4: dict[tuple[str, str], tuple[np.ndarray, bool]] | None = None,
) -> FeatureRows:
    """Rows for every ordered pair of the report's detected techniques:
    [default ++ f1 ++ f2 ++ f3 ++ f4], filled into one block.

    The pairs are `pair_universe(report_prediction.techniques)`, in its
    lexicographic order; a report with fewer than two detected
    techniques has no rows. Sentence sets come from the prediction's
    threshold hits. The report's coref links and marker table are built
    once and shared by every pair. The links are computed only among
    `coref_sentences(report_prediction)`: every feature reads only links
    between a pair's own hit sentences, so the rows equal those built
    from the whole report's links. `f4` takes an `f4_table` covering
    those pairs, so a corpus computes it once; None builds one here.
    """
    if layout is None:
        layout = FeatureLayout()
    pairs = pair_universe(report_prediction.techniques).pairs
    values = np.empty((len(pairs), layout.total), dtype=np.float64)
    f4_missing = np.empty(len(pairs), dtype=bool)
    if pairs:
        if f4 is None:
            f4 = f4_table(um, pairs, layout.bins)
        links = coref_links(report, coref_sentences(report_prediction))
        markers = marker_table(report, lexicon)
        hits = report_prediction.hit_sentences
        top = report_prediction.top_scores
        group = layout.group_slices
        for row, pair in enumerate(pairs):
            tx, ty = pair
            tx_sent, ty_sent = hits.get(tx, ()), hits.get(ty, ())
            out = values[row]
            out[group["default"]] = (*top[tx], *top[ty])
            out[group["f1"]] = marker_features(
                report, tx_sent, ty_sent, lexicon, table=markers
            )
            out[group["f2"]] = sentence_features(report, tx_sent, ty_sent, wv, links=links)
            out[group["f3"]] = discourse_features(report, tx_sent, ty_sent, links)
            out[group["f4"]], f4_missing[row] = f4[pair]
    return FeatureRows(
        keys=[PairKey(report.report_id, tx, ty) for tx, ty in pairs],
        values=values,
        f4_missing=f4_missing,
        layout=layout,
    )


_META_COLUMNS = ("report_id", "tx", "ty", "f4_missing")
# `features_to_csv` formats this many rows at a time. Formatting all 480
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


def features_to_csv(rows: FeatureRows) -> str:
    """CSV with one header row naming every slot of `rows.layout`; floats
    via repr so a read-back is bit-exact.

    Rows share few distinct values, so each block of rows formats each
    of its distinct values once. Values are told apart by their bits:
    -0.0 and 0.0 keep their own repr. Report and technique ids are
    quoted as `_csv_field` quotes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*_META_COLUMNS, *rows.layout.names])
    names = {name for key in rows for name in key}
    quoted = dict(zip(names, map(_csv_field, names)))
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        values = rows.values[block]
        # With return_inverse, np.unique sorts; without it, its first call
        # imports numpy.ma, which alone adds about 1.4 MiB of RSS.
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        for (report_id, tx, ty), missing, row in zip(
            rows.keys[block],
            rows.f4_missing[block].tolist(),
            table[inverse.reshape(values.shape)].tolist(),
        ):
            buf.write(
                f"{quoted[report_id]},{quoted[tx]},{quoted[ty]},"
                f"{int(missing)},{','.join(row)}\n"
            )
    return buf.getvalue()


def write_features_csv(rows: FeatureRows, path: str | Path) -> None:
    Path(path).write_text(features_to_csv(rows), encoding="utf-8")


def _parse_features_csv(text: str, layout: FeatureLayout, source: str) -> FeatureRows:
    """The rows of a features CSV. Each bad row raises one ValueError
    naming `source:line`: a wrong column count, an f4_missing flag other
    than 0 or 1, or a slot value that is not a float."""
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
    keys, f4_missing = [], []
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
            values[len(keys)] = list(map(float, row[4:]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        keys.append(PairKey(report_id, tx, ty))
        f4_missing.append(missing == "1")
    return FeatureRows(keys, values[: len(keys)], f4_missing, layout)


def features_from_csv(text: str, layout: FeatureLayout) -> FeatureRows:
    return _parse_features_csv(text, layout, "<text>")


def read_features_csv(path: str | Path, layout: FeatureLayout) -> FeatureRows:
    # newline="" keeps a quoted "\r" in an id as it was written.
    with open(path, encoding="utf-8", newline="") as fh:
        return _parse_features_csv(fh.read(), layout, str(path))
