"""Report corpus handling: sentence segmentation, tokenization, relation
annotations and the ordered technique-pair universe. A report's universe
is the ordered pairs of the techniques detected in it; pairs outside it
get no feature row.

Reports are immutable after load; distinct reports can be processed
concurrently with no shared mutable state.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat
from pathlib import Path
from typing import NamedTuple

from .labels import ALL_LABELS, NULL, SYMMETRIC_LABELS
from .stopwords import STOPWORDS


class CorpusError(ValueError):
    """Raised for unreadable or malformed corpus inputs."""


class AnnotationError(ValueError):
    """Raised for invalid relation annotation lines."""


class Sentence(NamedTuple):
    """One sentence of a report: its position, its text with whitespace
    collapsed, and its tokens.

    A named tuple, so it is immutable and cheap to build. The ``index``
    field shadows ``tuple.index``: ``sentence.index`` is the position in
    the report, never the tuple method.
    """

    index: int
    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Report:
    report_id: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class RelationAnnotation:
    report_id: str
    tx: str
    ty: str
    labels: frozenset[str]
    # True when the loader materialized this label via symmetric closure
    # rather than reading it from the file.
    auto_mirrored: bool = False

    @property
    def pair(self) -> tuple[str, str]:
        return (self.tx, self.ty)


# Sentence boundary inside a line: terminal punctuation, then a run of
# whitespace other than "\n", then an uppercase letter; the match is the
# run. Interior dots with no following whitespace (Updater.vbs,
# rundll32.exe, 3.5) never match. The pattern starts with the run's first
# character, not with the lookbehind, so the regex engine only tries a
# match at whitespace instead of at every position.
_BOUNDARY = re.compile(r"[^\S\n](?<=[.!?][^\S\n])[^\S\n]*(?=[A-Z])")

_NON_ASCII = re.compile(r"[^\x00-\x7f]+")
# Every ASCII character outside [a-z0-9._-] and "\n" becomes a space.
# Every mapping is one character to one character, which keeps
# str.translate on its fast path.
_BLANK_ASCII = str.maketrans(
    {
        c: " "
        for c in range(128)
        if chr(c) not in "abcdefghijklmnopqrstuvwxyz0123456789._-\n"
    }
)
# Marks a line end in the token stream. It is a token of its own, because
# str.split does not split on it, and it cannot come from the text,
# because _BLANK_ASCII blanks every "\x00" first.
_LINE_END = "\x00"


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on anything outside [a-z0-9._-].

    Leading/trailing ``.``/``_``/``-`` are stripped per token, interior
    ones kept (filenames, versions). Stopwords are dropped after
    stripping, so "-The-" and "The" behave the same.
    """
    return list(next(tokenize_texts([text])))


def tokenize_texts(texts: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """`tokenize` of each text, in order, from one pass over all of them.

    The texts are joined with "\\n" and lowercased once, before anything
    is blanked, because lowercasing turns some non-ASCII characters into
    ASCII ones (the Kelvin sign becomes "k"). Non-ASCII characters left
    after that become spaces, then so does every ASCII character outside
    [a-z0-9._-], and each "\\n" becomes a line-end token. The edge strip
    and the empty and stopword filters then run once over the whole token
    stream, and the kept tokens are regrouped at the line ends. All kept
    tokens are held at once; only the per-line tuples are made as they
    are consumed.
    """
    joined = "\n".join(texts)
    one_line_each = joined.count("\n") == len(texts) - 1
    text = joined.lower()
    if not text.isascii():
        text = _NON_ASCII.sub(" ", text)
    words = text.translate(_BLANK_ASCII).replace("\n", f" {_LINE_END} ").split()
    kept = filterfalse(
        STOPWORDS.__contains__, filter(None, map(str.strip, words, repeat("._-")))
    )
    lines = map(tuple, map(str.split, " ".join(kept).split(_LINE_END)))
    if one_line_each:
        return lines
    # Some text holds "\n" and so spans several lines (or there is none).
    return (
        tuple(chain.from_iterable(islice(lines, original.count("\n") + 1)))
        for original in texts
    )


def split_sentences(text: str) -> list[str]:
    """Split text into sentence strings, in document order.

    Newlines are hard boundaries (list items become sentences); inside a
    line the split needs terminal punctuation followed by whitespace and
    an uppercase letter, so dots inside tokens survive. Interior
    whitespace is collapsed to single spaces; empty pieces are dropped.
    Each in-line boundary becomes a "\\n" in one substitution over the
    whole text, so one split gives every piece.
    """
    lines = _BOUNDARY.sub("\n", text).split("\n")
    return list(filter(None, map(" ".join, map(str.split, lines))))


def segment_sentences(text: str) -> tuple[Sentence, ...]:
    """`split_sentences`, the pieces tokenized together in one pass, with
    document-order indices."""
    pieces = split_sentences(text)
    return tuple(map(Sentence, range(len(pieces)), pieces, tokenize_texts(pieces)))


def make_report(report_id: str, text: str) -> Report:
    return Report(report_id=report_id, sentences=segment_sentences(text))


def load_reports(directory: str | Path) -> list[Report]:
    """Load one report per ``*.txt`` file (filename stem = report id),
    sorted by id. Files are read as UTF-8; a byte order mark at the start
    is dropped, so it never reaches the first sentence."""
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"report directory not found: {root}")
    reports = []
    for path in sorted(root.glob("*.txt")):
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"cannot read report file {path}: {exc}") from exc
        reports.append(make_report(path.stem, text))
    return reports


def pair_universe(techniques) -> tuple[tuple[str, str], ...]:
    """All ordered pairs over the technique set, diagonal excluded,
    lexicographic order. Fewer than 2 techniques gives an empty universe.

    Over a report's detected techniques (`ReportPrediction.techniques`)
    this is the report's pair universe, the pairs the features stage
    builds rows for."""
    ordered = sorted(set(techniques))
    return tuple((tx, ty) for tx in ordered for ty in ordered if tx != ty)


def _check_labels(labels: frozenset[str], where: str) -> None:
    unknown = labels - set(ALL_LABELS)
    if unknown:
        raise AnnotationError(f"{where}: unknown relation labels {sorted(unknown)}")
    if not labels:
        raise AnnotationError(f"{where}: empty label set")
    if NULL in labels and len(labels) > 1:
        raise AnnotationError(f"{where}: NULL must be the sole label")


def load_annotations(path: str | Path, catalog=None) -> list[RelationAnnotation]:
    """Load JSON-Lines relation annotations.

    Each line is an object with report_id, tx, ty and a labels list.
    Validation errors name the 1-based line number. When a technique
    catalog is supplied, technique ids must resolve in it. Duplicate
    (report, tx, ty) lines are merged by label union. Symmetric labels
    (CONCURRENT, SIMULTANEOUS_OVERLAP) are closed under pair mirroring:
    missing mirrors are added with auto_mirrored=True; a mirror already
    pinned to NULL is a contradiction and rejected.
    """
    path = Path(path)
    merged: dict[tuple[str, str, str], set[str]] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise AnnotationError(f"cannot read annotations file {path}: {exc}") from exc

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path.name} line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise AnnotationError(f"{where}: expected a JSON object")
        try:
            report_id = obj["report_id"]
            tx = obj["tx"]
            ty = obj["ty"]
            labels = frozenset(obj["labels"])
        except (KeyError, TypeError) as exc:
            raise AnnotationError(
                f"{where}: each line needs report_id, tx, ty, labels"
            ) from exc
        if tx == ty:
            raise AnnotationError(f"{where}: self-pair ({tx}, {ty}) is invalid")
        _check_labels(labels, where)
        if catalog is not None:
            for tid in (tx, ty):
                if tid not in catalog:
                    raise AnnotationError(
                        f"{where}: unknown technique id {tid}"
                    )
        key = (report_id, tx, ty)
        combined = merged.setdefault(key, set())
        combined.update(labels)
        _check_labels(frozenset(combined), where)

    flagged: set[tuple[str, str, str]] = set()
    for (report_id, tx, ty), labels in sorted(merged.items()):
        for lab in sorted(labels & SYMMETRIC_LABELS):
            mirror_key = (report_id, ty, tx)
            mirror = merged.get(mirror_key)
            if mirror is None:
                merged[mirror_key] = {lab}
                flagged.add(mirror_key)
            elif lab not in mirror:
                if mirror == {NULL}:
                    raise AnnotationError(
                        f"{path.name}: ({report_id}, {ty}, {tx}) is NULL but its "
                        f"mirror carries symmetric label {lab}"
                    )
                mirror.add(lab)
                flagged.add(mirror_key)

    return [
        RelationAnnotation(
            report_id=report_id,
            tx=tx,
            ty=ty,
            labels=frozenset(labels),
            auto_mirrored=(report_id, tx, ty) in flagged,
        )
        for (report_id, tx, ty), labels in sorted(merged.items())
    ]
