"""Report corpus handling: sentence segmentation, tokenization, relation
annotations and the ordered technique-pair universe. A report's universe
is the ordered pairs of the techniques detected in it; pairs outside it
get no feature row.

Reports are immutable after load; distinct reports can be processed
concurrently. The reports of one load share one read-only vocabulary,
and the only other state they share is a `VocabLookup`'s last array.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import filterfalse, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .labels import NULL, SYMMETRIC_LABELS, label_set_problem
from .records import STRING, STRINGS, check_record
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


@dataclass(frozen=True, eq=False)
class Report:
    """A loaded report: its sentence lines and one stream of token codes.

    ``lines`` holds each sentence as it was split from the text, its
    whitespace not yet collapsed. ``codes`` is a read-only int32 array
    holding every kept token of the report in order, each as its index
    in ``vocab``; sentence ``i``'s tokens are
    ``codes[bounds[i]:bounds[i + 1]]``. Every report of one
    `load_reports` call shares one ``vocab`` tuple, so a whole-corpus
    pass (scoring, marker counts) can look each distinct token up once
    (`VocabLookup`) and gather over ``codes``. ``sentences`` gives the
    sentences one at a time, their tokens as strings.
    """

    report_id: str
    lines: tuple[str, ...]
    vocab: tuple[str, ...]
    codes: np.ndarray
    bounds: tuple[int, ...]

    @property
    def sentences(self) -> ReportSentences:
        return ReportSentences(self)

    def token_sentences(self) -> np.ndarray:
        """The sentence index of each token of ``codes``."""
        return np.repeat(np.arange(len(self.lines)), np.diff(self.bounds))


class ReportSentences(Sequence):
    """A report's sentences as a read-only sequence of `Sentence`.

    ``len()`` builds nothing. Each item is built when it is read: its text
    is the line with whitespace collapsed, its tokens the strings of the
    line's span of the report's codes.
    """

    __slots__ = ("_report",)

    def __init__(self, report: Report):
        self._report = report

    def __len__(self) -> int:
        return len(self._report.lines)

    def __getitem__(self, index: int) -> Sentence:
        report = self._report
        i = range(len(report.lines))[index]
        codes = report.codes[report.bounds[i] : report.bounds[i + 1]].tolist()
        tokens = tuple(map(report.vocab.__getitem__, codes))
        return Sentence(i, " ".join(report.lines[i].split()), tokens)


class VocabLookup:
    """The value in ``table`` of each word of a corpus vocabulary, or -1
    for a word outside it, as an int array that a report's ``codes``
    index: ``lookup(report.vocab)[report.codes]`` is the value of each of
    its tokens.

    The array of the last vocabulary asked is kept, so the reports of one
    load, which share their vocabulary, cost one lookup per distinct
    token together. The vocabulary itself is kept, until another is
    asked, and compared with ``is``, never by its ``id()``, which a freed
    object hands on. The pair is replaced in one assignment, so
    concurrent callers at worst look a vocabulary up twice.
    """

    __slots__ = ("_table", "_last")

    def __init__(self, table: Mapping[str, int]):
        self._table = table
        self._last: tuple[tuple[str, ...], np.ndarray] | None = None

    def __call__(self, vocab: tuple[str, ...]) -> np.ndarray:
        last = self._last
        if last is None or last[0] is not vocab:
            values = map(self._table.get, vocab, repeat(-1))
            last = self._last = (vocab, np.fromiter(values, dtype=np.intp, count=len(vocab)))
        return last[1]


@dataclass(frozen=True)
class RelationAnnotation:
    report_id: str
    tx: str
    ty: str
    labels: frozenset[str]


# Sentence boundaries inside a line, one pattern per terminal mark: the
# mark, then a run of whitespace other than "\n", then an uppercase
# letter. Each match becomes the mark and "\n". Interior dots with no
# following whitespace (Updater.vbs, rundll32.exe, 3.5) never match. A
# pattern that starts with a literal character lets the regex engine skip
# to that character, and a literal replacement keeps `re.sub` in C; one
# pattern over all three marks needs a group reference in its
# replacement, whose expansion costs more per call than two more passes.
_BOUNDARIES = tuple(
    (re.compile(rf"\{mark}[^\S\n]+(?=[A-Z])"), mark + "\n") for mark in ".!?"
)

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
# Marks a line end in the word stream. It is a word of its own, because
# str.split does not split on it, and it cannot come from the text,
# because _BLANK_ASCII blanks every "\x00" first.
_LINE_END = "\x00"
# The codes of a word that is no token (empty once its edges are
# stripped, or a stopword) and of the line-end word. A token's code is
# its index in the vocabulary, so never negative.
_DROPPED = -1
_LINE_END_CODE = -2


class _Coder(dict):
    """Raw word -> code, over every text of one load: a token's index in
    ``words``, `_DROPPED` or `_LINE_END_CODE`.

    A raw word is a piece of the blanked text between spaces. The first
    time one is read, `__missing__` strips its edge ``._-`` and checks it
    against the stopwords; every later read of it is one dict probe. A
    new token is appended to ``words``, so codes follow the order in
    which tokens first appear in the texts, never a set's hash order.
    """

    def __init__(self):
        super().__init__({_LINE_END: _LINE_END_CODE})
        self.words: list[str] = []

    def __missing__(self, word: str) -> int:
        token = word.strip("._-")
        if token != word:
            # A stripped word is its own raw word, so equal tokens share
            # one code (and "-The-" is dropped as "the" is).
            code = self[token]
        elif not token or token in STOPWORDS:
            code = _DROPPED
        else:
            code = len(self.words)
            self.words.append(token)
        self[word] = code
        return code

    def encode(self, lines: Sequence[str]) -> tuple[np.ndarray, tuple[int, ...]]:
        """The codes of the kept tokens of all `lines` (none holding
        "\n") as one read-only int32 array, and the bounds of each line's
        tokens in it: line ``i`` has ``codes[bounds[i]:bounds[i + 1]]``.

        The lines are joined with "\n" and lowercased once, before
        anything is blanked, because lowercasing turns some non-ASCII
        characters into ASCII ones (the Kelvin sign becomes "k").
        Non-ASCII characters left after that become spaces, then so does
        every ASCII character outside [a-z0-9._-], and each "\n" becomes
        a line-end word. Each raw word is one dict probe; the line ends
        and the dropped words then leave the array in one mask, and the
        kept tokens before each line end are its line's bound.
        """
        if not lines:
            codes = np.empty(0, dtype=np.int32)
            codes.flags.writeable = False
            return codes, (0,)
        text = "\n".join(lines).lower()
        if not text.isascii():
            text = _NON_ASCII.sub(" ", text)
        words = text.translate(_BLANK_ASCII).replace("\n", f" {_LINE_END} ").split()
        raw = np.fromiter(map(self.__getitem__, words), dtype=np.int32, count=len(words))
        keep = raw >= 0
        ends = np.cumsum(keep)[raw == _LINE_END_CODE]
        codes = raw[keep]
        codes.flags.writeable = False
        return codes, (0, *ends.tolist(), codes.size)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on anything outside [a-z0-9._-].

    Leading/trailing ``.``/``_``/``-`` are stripped per token, interior
    ones kept (filenames, versions). Stopwords are dropped after
    stripping, so "-The-" and "The" behave the same.
    """
    return list(next(tokenize_texts([text])))


def tokenize_texts(texts: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """`tokenize` of each text, in order, from one code stream over all
    of them (a "\n" inside a text only separates tokens)."""
    coder = _Coder()
    codes, bounds = coder.encode(list(map(str.replace, texts, repeat("\n"), repeat(" "))))
    tokens = tuple(map(coder.words.__getitem__, codes.tolist()))
    return map(tokens.__getitem__, map(slice, bounds, bounds[1:]))


def _pieces(text: str) -> list[str]:
    """`text` split at every sentence boundary, in document order: each
    in-line boundary becomes "\n" (one substitution over the whole text
    per terminal mark), then one split at "\n" gives every piece. Pieces
    that are empty or all whitespace are not sentences."""
    for boundary, mark_and_newline in _BOUNDARIES:
        text = boundary.sub(mark_and_newline, text)
    return text.split("\n")


def split_sentences(text: str) -> list[str]:
    """Split text into sentence strings, in document order.

    Newlines are hard boundaries (list items become sentences); inside a
    line the split needs terminal punctuation followed by whitespace and
    an uppercase letter, so dots inside tokens survive. Interior
    whitespace is collapsed to single spaces; empty pieces are dropped.
    """
    return list(filter(None, map(" ".join, map(str.split, _pieces(text)))))


def _lines(text: str) -> tuple[str, ...]:
    """The sentence lines of `text`, their whitespace not yet collapsed."""
    return tuple(filterfalse(str.isspace, filter(None, _pieces(text))))


def make_report(report_id: str, text: str) -> Report:
    """The report of `text` alone, over a vocabulary of its own tokens:
    its sentence lines and their codes, from one code stream over the
    whole report. No `Sentence` is built."""
    coder = _Coder()
    lines = _lines(text)
    codes, bounds = coder.encode(lines)
    return Report(report_id, lines, tuple(coder.words), codes, bounds)


def load_reports(directory: str | Path) -> list[Report]:
    """Load one report per ``*.txt`` file (filename stem = report id),
    sorted by id. Files are read as UTF-8; a byte order mark at the start
    is dropped, so it never reaches the first sentence.

    Every report is coded against one raw-word table, and all of them
    share its vocabulary; each report's sentences and tokens are those
    `make_report` gives its text alone."""
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"report directory not found: {root}")
    coder = _Coder()
    coded = []
    for path in sorted(root.glob("*.txt"), key=lambda path: path.stem):
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"cannot read report file {path}: {exc}") from exc
        lines = _lines(text)
        coded.append((path.stem, lines, *coder.encode(lines)))
    vocab = tuple(coder.words)
    return [Report(rid, lines, vocab, codes, bounds) for rid, lines, codes, bounds in coded]


def pair_universe(techniques) -> tuple[tuple[str, str], ...]:
    """All ordered pairs over the technique set, diagonal excluded,
    lexicographic order. Fewer than 2 techniques gives an empty universe.

    Over a report's detected techniques (`ReportPrediction.techniques`)
    this is the report's pair universe, the pairs the features stage
    builds rows for."""
    ordered = sorted(set(techniques))
    return tuple((tx, ty) for tx in ordered for ty in ordered if tx != ty)


def _check_labels(labels: frozenset[str], where: str) -> None:
    problem = label_set_problem(labels)
    if problem:
        raise AnnotationError(f"{where}: {problem}")


# The shape of an annotation line.
_ANNOTATION_SHAPE = dict(report_id=STRING, tx=STRING, ty=STRING, labels=STRINGS)


def load_annotations(path: str | Path, techniques=None) -> list[RelationAnnotation]:
    """Load JSON-Lines relation annotations.

    Each line is an object with report_id, tx and ty strings and a list
    of label strings, and no other key (see `check_record`).
    Validation errors name the 1-based line number. When the kb's
    technique ids are given as ``techniques``, each tx and ty must be
    one of them. Duplicate (report, tx, ty) lines are merged by label
    union. Symmetric labels (CONCURRENT, SIMULTANEOUS_OVERLAP) are
    closed under pair mirroring: missing mirrors are added; a mirror
    already pinned to NULL is a contradiction and rejected.
    """
    known = None if techniques is None else frozenset(techniques)
    merged: dict[tuple[str, str, str], set[str]] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise AnnotationError(f"cannot read annotations file {path}: {exc}") from exc

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        try:
            obj = json.loads(line)
            check_record(obj, _ANNOTATION_SHAPE)
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError too
            raise AnnotationError(f"{where}: {exc}") from exc
        report_id, tx, ty = obj["report_id"], obj["tx"], obj["ty"]
        labels = frozenset(obj["labels"])
        if tx == ty:
            raise AnnotationError(f"{where}: self-pair ({tx}, {ty}) is invalid")
        _check_labels(labels, where)
        if known is not None:
            for tid in (tx, ty):
                if tid not in known:
                    raise AnnotationError(
                        f"{where}: unknown technique id {tid}"
                    )
        key = (report_id, tx, ty)
        combined = merged.setdefault(key, set())
        combined.update(labels)
        _check_labels(frozenset(combined), where)

    for (report_id, tx, ty), labels in sorted(merged.items()):
        for lab in sorted(labels & SYMMETRIC_LABELS):
            mirror_key = (report_id, ty, tx)
            mirror = merged.get(mirror_key)
            if mirror is None:
                merged[mirror_key] = {lab}
            elif lab not in mirror:
                if mirror == {NULL}:
                    raise AnnotationError(
                        f"{path}: ({report_id}, {ty}, {tx}) is NULL but its "
                        f"mirror carries symmetric label {lab}"
                    )
                mirror.add(lab)

    return [
        RelationAnnotation(report_id, tx, ty, frozenset(labels))
        for (report_id, tx, ty), labels in sorted(merged.items())
    ]
