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
from ..embeddings import WordVectors, cosine, sentence_vector
from .apriori import METRIC_NAMES, pair_measures
from .discourse import DISCOURSE_ORDER, F3_SIZE, classify_discourse, coref_links
from .layout import ADJACENCY_GAPS, F2_SIZE, GROUP_SLICES, LAYOUT_VERSION, N_SLOTS, SLOT_NAMES
from .markers import F1_SIZE, marker_table


class PairKey(NamedTuple):
    report_id: str
    tx: str
    ty: str


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """Pair-feature rows, held as one matrix.

    Row i is the ordered pair `keys[i]` of report `keys[i].report_id`;
    `values[i]` holds its `N_SLOTS` slots in `SLOT_NAMES` order. `len()`
    is the row count and iterating yields the keys.
    """

    keys: list[PairKey]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        n = len(self.keys)
        if self.values.shape != (n, N_SLOTS):
            raise ValueError(
                f"{n} keys do not fit values of shape {self.values.shape}: "
                f"expected ({n}, {N_SLOTS})"
            )

    @property
    def f4_missing(self) -> np.ndarray:
        """Per row, True when its f4 slots are zero because a technique of
        the pair is not in the usage matrix (or the matrix has no actors).
        A measured pair never has all nine measures at 0 (see
        `features.apriori`), so these are exactly the rows whose f4 slots
        are all zero."""
        return ~self.values[:, GROUP_SLICES["f4"]].any(axis=1)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)


def f4_table(um: UsageMatrix, pairs) -> dict[tuple[str, str], np.ndarray]:
    """Each distinct pair's f4 slots.

    A pair with a technique absent from the usage matrix (or any pair,
    when the matrix has no actors) gets zeroed slots instead of failing.
    F4 depends on the pair and the usage matrix only, never on the
    report, so one table serves every report in a corpus. Every actor
    count comes from one integer product of the pairs' known technique
    columns; the measures are exact functions of those counts.
    """
    pairs = dict.fromkeys(pairs)
    # Without actors there is nothing to measure: every technique is unknown.
    column = {tid: k for k, tid in enumerate(um.techniques)} if um.cells.shape[0] else {}
    known = sorted({tid for pair in pairs for tid in pair if tid in column})
    at = {tid: k for k, tid in enumerate(known)}
    # int64: an int8 product would overflow at 128 actors.
    cells = um.cells[:, [column[tid] for tid in known]].astype(np.int64)
    # counts[i][j]: actors using both techniques i and j; counts[i][i]: using i.
    counts = (cells.T @ cells).tolist()
    table = dict.fromkeys(pairs, np.zeros(len(METRIC_NAMES), dtype=np.float64))
    for tx, ty in pairs:
        if tx in at and ty in at:
            i, j = at[tx], at[ty]
            table[tx, ty] = pair_measures(cells.shape[0], counts[i][i], counts[j][j], counts[i][j])
    return table


def coref_sentences(report_prediction: ReportPrediction) -> frozenset[int]:
    """The sentences `build_report_features` builds its tables over:
    every hit sentence of the report's detected techniques, or none when
    fewer than two were detected (the report has no rows)."""
    hits = report_prediction.hit_sentences
    if len(hits) < 2:
        return frozenset()
    return frozenset(i for tid_hits in hits.values() for i in tid_hits)


def _range_sums(prefix: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per cell, the table rows `start..stop-1` summed, from the table's
    prefix sums (a zero row, then running totals); zero where `stop <=
    start`, whatever the bounds are there."""
    sums = prefix.take(stop, axis=0, mode="clip") - prefix.take(start, axis=0, mode="clip")
    sums[stop <= start] = 0
    return sums


def _f1(hot: np.ndarray, markers: np.ndarray) -> np.ndarray:
    """The (k, k, 20) F1 slots (see `features.markers`) of every pair of
    rows of `hot`, from the report's `marker_table`."""
    k, n = hot.shape
    hit, pos = hot > 0, np.arange(n)
    prefix = np.zeros((n + 1, 3), dtype=markers.dtype)
    np.cumsum(markers, axis=0, out=prefix[1:])
    # Per row and sentence s: the last hit at or before s and the first
    # at or after it, -1 and n where none. A row without hits has first
    # hit n and last -1, so every range needing both rows' hits is empty.
    before = np.maximum.accumulate(np.where(hit, pos, -1), axis=1)
    after = np.minimum.accumulate(np.where(hit, pos, n)[:, ::-1], axis=1)[:, ::-1]
    first = after.min(axis=1, initial=n)[:, None]
    last = before.max(axis=1, initial=-1)[:, None]
    # The nearest (i, j), i a hit of row a and j of row b, by (|i - j|,
    # min, max) has j next to i among b's hits. The key |i - j| * (n +
    # 1) + min(i, j) orders as the tuple does; max is min + |i - j|. It
    # is taken at each hit of row a, then its minimum over a's hits.
    none = (n + 1) ** 2
    rows, at = np.nonzero(hit)
    b_before, b_after = before[:, at], after[:, at]
    key = np.full((k, k), none)
    np.minimum.at(key, rows, np.minimum(
        np.where(b_before >= 0, (at - b_before) * (n + 1) + b_before, none),
        np.where(b_after < n, (b_after - at) * (n + 1) + at, none),
    ).T)
    lo = key % (n + 1)

    side = hot @ markers
    out = np.empty((k, k, F1_SIZE), dtype=np.float64)
    out[..., 0:3] = side[:, None]
    out[..., 3:6] = side[None, :]
    out[..., 6:9] = _range_sums(prefix, lo, np.where(key < none, lo + key // (n + 1) + 1, 0))
    # Sentence s counts tx-first when tx's first hit < s <= ty's last
    # hit, ty-first when ty's first hit < s <= tx's last hit.
    out[..., 9:15:2] = _range_sums(prefix, first + 1, last.T + 1)
    out[..., 10:15:2] = _range_sums(prefix, first.T + 1, last + 1)
    density = (hot @ markers.sum(axis=1)) / np.maximum(hot.sum(axis=1), 1.0)
    out[..., 15] = density[:, None]
    out[..., 16] = density[None, :]
    out[..., 17:20] = _range_sums(prefix, np.minimum(first, first.T) + 1, np.maximum(last, last.T))
    return out


def _f2(hot: np.ndarray, coref: np.ndarray) -> np.ndarray:
    """The (k, k, 13) F2 slots (see `layout.F2_SIZE`) of every pair of
    rows of `hot`, cosines left zero; `coref` is each pair's count of
    straddling links."""
    k, n = hot.shape
    out = np.zeros((k, k, F2_SIZE), dtype=hot.dtype)
    for slot, gap in enumerate(ADJACENCY_GAPS):
        # Gap d >= 0: ty's sentence d + 1 after tx's; d < 0: -d before it.
        shift = gap + 1 if gap >= 0 else -gap
        if shift < n:
            counts = hot[:, : n - shift] @ hot[:, shift:].T
            out[..., slot] = counts if gap >= 0 else counts.T
    out[..., 9] = hot @ hot.T
    out[..., 12] = coref
    return out


def _f3(hot: np.ndarray, report: Report, among, links) -> np.ndarray:
    """The (k, k, 10) F3 slots (see `features.discourse`) of every pair
    of rows of `hot`. Each adjacent sentence pair within `among` and each
    link that two rows straddle (one sentence a hit of row a, the other
    of row b) is classified once and counted for the pairs straddling it."""
    sentences, linked = report.sentences, set(links)
    pairs = [(i, i + 1) for i in sorted(among) if i + 1 in among] + links
    first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    x, y = hot[:, first], hot[:, second]
    both = x * y
    weight = np.zeros((len(pairs), F3_SIZE), dtype=hot.dtype)
    # Only sentence pairs that two different rows straddle are classified:
    # the row pairs over their two sentences, less those with a == b.
    for at in np.flatnonzero(x.sum(axis=0) * y.sum(axis=0) > both.sum(axis=0)).tolist():
        (i, j), is_link = pairs[at], at >= len(pairs) - len(links)
        rel = classify_discourse(sentences[i], sentences[j], is_link or (i, j) in linked)
        # Adjacent pairs fill the first five slots, links the last five.
        weight[at, DISCOURSE_ORDER.index(rel) + len(DISCOURSE_ORDER) * is_link] = 1
    # A sentence pair whose two sentences are hits of both rows would
    # count in both directions; subtract it once.
    one_way = np.einsum("ai,bi,is->abs", x, y, weight)
    return one_way + one_way.transpose(1, 0, 2) - np.einsum("ai,bi,is->abs", both, both, weight)


def build_report_features(
    report: Report,
    report_prediction: ReportPrediction,
    *,
    wv: WordVectors | None,
    f4: dict[tuple[str, str], np.ndarray],
) -> FeatureRows:
    """Rows for every ordered pair of the report's detected techniques:
    [default ++ f1 ++ f2 ++ f3 ++ f4], filled into one block.

    The pairs are `pair_universe(report_prediction.techniques)`; fewer
    than two detected techniques give no rows. Each family is built for
    all pairs at once from one 0/1 matrix of the sorted techniques by
    the report's sentences (the threshold hits), as (k, k, slots) arrays
    whose off-diagonal cells, row-major, are the pairs in universe
    order. Every count is a sum of small integers, exact in any order.
    Coref links are computed once, only among `coref_sentences`, as no
    feature reads a link outside a pair's hit sentences; `coref_links`
    raises ValueError for a hit outside the report, the one range check.
    `f4` is an `f4_table` covering the pairs, computed once for a corpus.
    """
    pairs = pair_universe(report_prediction.techniques)
    keys = [PairKey(report.report_id, tx, ty) for tx, ty in pairs]
    values = np.empty((len(pairs), N_SLOTS), dtype=np.float64)
    if not pairs:
        return FeatureRows(keys, values)
    among = coref_sentences(report_prediction)
    links = sorted(coref_links(report, among))
    techniques = sorted(report_prediction.techniques)
    # Integer products are exact and make no BLAS call: the first
    # float64 matmul of a process raises its peak RSS by about 0.25 MiB.
    hot = np.zeros((len(techniques), len(report.sentences)), dtype=np.int64)
    for row, tid in enumerate(techniques):
        hot[row, list(report_prediction.hit_sentences[tid])] = 1
    # Off-diagonal cells, row-major: the pairs in universe order.
    cells = ~np.eye(len(techniques), dtype=bool)
    tx, ty = np.nonzero(cells)
    top = np.array([report_prediction.top_scores[tid] for tid in techniques], dtype=np.float64)
    f3 = _f3(hot, report, among, links)

    values[:, GROUP_SLICES["default"]] = np.hstack([top[tx], top[ty]])
    values[:, GROUP_SLICES["f1"]] = _f1(hot, marker_table(report))[cells]
    # Each link has one relation, so f3's coref block sums to the
    # pair's straddling links.
    values[:, GROUP_SLICES["f2"]] = _f2(hot, f3[..., len(DISCOURSE_ORDER):].sum(axis=-1))[cells]
    values[:, GROUP_SLICES["f3"]] = f3[cells]
    values[:, GROUP_SLICES["f4"]] = list(map(f4.__getitem__, pairs))
    if wv is not None:
        order = np.flatnonzero(hot.any(axis=0))
        vectors = [sentence_vector(wv, report.sentences[i].tokens) for i in order.tolist()]
        # Each cosine a pair reads (two rows straddle it) is computed once
        # and mirrored: `cosine` is symmetric bit for bit.
        used, cosines = hot[:, order], np.zeros((len(order), len(order)))
        counts = used.sum(axis=0)
        for i, j in np.argwhere(np.triu(np.outer(counts, counts) > used.T @ used)).tolist():
            cosines[i, j] = cosines[j, i] = cosine(vectors[i], vectors[j])
        f2 = values[:, GROUP_SLICES["f2"]]
        for row, (a, b) in enumerate(zip(tx.tolist(), ty.tolist())):
            sims = cosines[np.ix_(used[a] > 0, used[b] > 0)].ravel()
            if sims.size:
                f2[row, 10] = float(np.mean(sims))
                f2[row, 11] = float(np.max(sims))
    return FeatureRows(keys, values)


_META_COLUMNS = ("report_id", "tx", "ty")
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
    row naming every slot of the layout; floats via repr so a read-back
    is bit-exact.

    Rows share few distinct values, so each block of rows formats each
    of its distinct values once. Values are told apart by their bits:
    -0.0 and 0.0 keep their own repr. Report and technique ids are
    quoted as `_csv_field` quotes them."""
    csv.writer(out, lineterminator="\n").writerow([*_META_COLUMNS, *SLOT_NAMES])
    names = {name for key in rows for name in key}
    quoted = dict(zip(names, map(_csv_field, names)))
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        values = rows.values[block]
        # With return_inverse, np.unique sorts; without it, its first call
        # imports numpy.ma, which alone adds about 1.4 MiB of RSS.
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        for (report_id, tx, ty), row in zip(
            rows.keys[block], table[inverse.reshape(values.shape)].tolist()
        ):
            out.write(f"{quoted[report_id]},{quoted[tx]},{quoted[ty]},{','.join(row)}\n")


def write_features_csv(rows: FeatureRows, path: str | Path) -> None:
    """Write the features CSV of `rows` to `path` as it is formatted, so
    the whole text is never held in memory: holding it raised the
    `apply-long` run's peak RSS by about 0.6 MiB."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_csv(rows, fh)


def read_features_csv(path: str | Path) -> FeatureRows:
    """The rows of the features CSV at `path`, whose header must be
    `report_id,tx,ty`, then the slot names of the layout. An empty first
    line, another header (such as a `v1-bins*` file's), and each bad
    row, raises one ValueError naming `path` (and the row's line): a
    wrong column count, or a slot value that is not a float or not
    finite."""
    # newline="" keeps a quoted "\r" in an id as it was written.
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    # Lines end at "\n" alone, as in the file. Split lines keep one byte a
    # character, where a StringIO of the text would hold four.
    reader = csv.reader(line + "\n" for line in text.split("\n"))
    header = next(reader)
    if not header:
        raise ValueError(f"{path}: feature CSV has no header line")
    expected = [*_META_COLUMNS, *SLOT_NAMES]
    if header != expected:
        raise ValueError(
            f"{path}: feature CSV header does not match layout {LAYOUT_VERSION} "
            f"(expected {len(expected)} columns, got {len(header)}); "
            "re-run `ttpmine features`"
        )
    # Every row ends at a newline but perhaps the last, so the file has
    # at most this many rows; the unused tail of the block is never touched.
    values = np.empty((text.count("\n"), N_SLOTS), dtype=np.float64)
    keys = []
    lines = []
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != len(expected):
            raise ValueError(f"{where}: {len(row)} columns, expected {len(expected)}")
        try:
            values[len(keys)] = list(map(float, row[3:]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        keys.append(PairKey(*row[:3]))
        lines.append(reader.line_num)
    values = values[: len(keys)]
    # One pass over the whole matrix: float() parses "nan" and "inf".
    if not np.isfinite(values).all():
        row, slot = np.argwhere(~np.isfinite(values))[0]
        where, name = f"{path}:{lines[row]}", SLOT_NAMES[slot]
        raise ValueError(f"{where}: slot {name} is {values[row, slot]}, not a finite number")
    return FeatureRows(keys, values)
