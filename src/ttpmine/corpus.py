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

from .labels import ALL_LABELS, NULL, SYMMETRIC_LABELS
from .stopwords import STOPWORDS


class CorpusError(ValueError):
    """Raised for unreadable or malformed corpus inputs."""


class AnnotationError(ValueError):
    """Raised for invalid relation annotation lines."""


@dataclass(frozen=True)
class Sentence:
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


# Sentence boundary: terminal punctuation, then whitespace, then an
# uppercase letter. Interior dots with no following whitespace
# (Updater.vbs, rundll32.exe, 3.5) never match.
_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")

_NON_ASCII = re.compile(r"[^\x00-\x7f]+")
# Every ASCII character outside [a-z0-9._-] and "\n" becomes a space.
_BLANK_ASCII = str.maketrans(
    {
        c: " "
        for c in range(128)
        if chr(c) not in "abcdefghijklmnopqrstuvwxyz0123456789._-\n"
    }
)


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
    [a-z0-9._-] except "\\n", and each line is split into its tokens.
    The token tuples are made as they are consumed, so a caller that only
    counts them never holds them all.
    """
    joined = "\n".join(texts)
    one_line_each = joined.count("\n") == len(texts) - 1
    text = joined.lower()
    if not text.isascii():
        text = _NON_ASCII.sub(" ", text)
    lines = (
        tuple(
            filterfalse(
                STOPWORDS.__contains__,
                filter(None, map(str.strip, line.split(), repeat("._-"))),
            )
        )
        for line in text.translate(_BLANK_ASCII).split("\n")
    )
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
    """
    pieces: list[str] = []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        for piece in _BOUNDARY.split(line):
            piece = " ".join(piece.split())
            if piece:
                pieces.append(piece)
    return pieces


def segment_sentences(text: str) -> list[Sentence]:
    """`split_sentences`, the pieces tokenized together in one pass, with
    document-order indices."""
    pieces = split_sentences(text)
    return [
        Sentence(index=i, text=piece, tokens=tokens)
        for i, (piece, tokens) in enumerate(zip(pieces, tokenize_texts(pieces)))
    ]


def make_report(report_id: str, text: str) -> Report:
    return Report(report_id=report_id, sentences=tuple(segment_sentences(text)))


def load_reports(directory: str | Path) -> list[Report]:
    """Load one report per ``*.txt`` file (filename stem = report id),
    sorted by id."""
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"report directory not found: {root}")
    reports = []
    for path in sorted(root.glob("*.txt")):
        try:
            text = path.read_text(encoding="utf-8")
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
