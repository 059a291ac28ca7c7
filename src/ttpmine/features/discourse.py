"""Rule-based discourse relation cascade and coreference heuristic.

Both stand in for trained models behind small, fixed contracts: a
five-way DiscourseRelation between two sentences, and a set of (i, j)
coreference links with j - i <= 3.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from enum import Enum

from ..corpus import Report, Sentence
from .markers import BEFORE_MARKERS, MARKERS


class DiscourseRelation(Enum):
    NEXT = "NEXT"
    ELABORATION = "ELABORATION"
    IF_ELSE = "IF_ELSE"
    LIST = "LIST"
    MISC = "MISC"


F3_SIZE = 10

# Order used for the F3 feature slots.
DISCOURSE_ORDER: tuple[DiscourseRelation, ...] = (
    DiscourseRelation.NEXT,
    DiscourseRelation.ELABORATION,
    DiscourseRelation.IF_ELSE,
    DiscourseRelation.LIST,
    DiscourseRelation.MISC,
)

CONDITIONAL_WORDS = frozenset({"if", "otherwise", "unless", "else"})
PRONOUNS = frozenset({"it", "they", "this", "that", "which"})
DEMONSTRATIVES = frozenset({"this", "these", "that", "those"})

COREF_WINDOW = 3

_BULLET = re.compile(r"^\s*(?:[-•*+]|\d+[.)]|\([a-z0-9]+\))\s")
_WORDS = re.compile(r"[a-z0-9._-]+")


def _noun_like(token: str) -> bool:
    return (
        len(token) >= 3
        and token not in MARKERS
        and token not in PRONOUNS
        and token not in DEMONSTRATIVES
        and token not in CONDITIONAL_WORDS
    )


def _plural_forms(word: str) -> set[str]:
    """Every word that matches `word` plural-insensitively: itself, with
    an added "s", and without its final "s"."""
    forms = {word, word + "s"}
    if word.endswith("s"):
        forms.add(word[:-1])
    return forms


def _multiset_jaccard(a, b) -> float:
    if not a and not b:
        return 0.0
    ca: dict[str, int] = {}
    cb: dict[str, int] = {}
    for t in a:
        ca[t] = ca.get(t, 0) + 1
    for t in b:
        cb[t] = cb.get(t, 0) + 1
    keys = set(ca) | set(cb)
    inter = sum(min(ca.get(k, 0), cb.get(k, 0)) for k in keys)
    union = sum(max(ca.get(k, 0), cb.get(k, 0)) for k in keys)
    return inter / union if union else 0.0


def classify_discourse(s1: Sentence, s2: Sentence, coref: bool) -> DiscourseRelation:
    """First matching rule wins: IF_ELSE, NEXT, LIST, ELABORATION, MISC."""
    if (set(s1.tokens) | set(s2.tokens)) & CONDITIONAL_WORDS:
        return DiscourseRelation.IF_ELSE

    if any(t in BEFORE_MARKERS for t in s2.tokens[:3]):
        return DiscourseRelation.NEXT

    if _multiset_jaccard(s1.tokens, s2.tokens) >= 0.6:
        return DiscourseRelation.LIST
    if _BULLET.match(s1.text) and _BULLET.match(s2.text):
        return DiscourseRelation.LIST

    if coref:
        return DiscourseRelation.ELABORATION
    s1_tokens = set(s1.tokens)
    for p, tok in enumerate(s2.tokens):
        if tok in DEMONSTRATIVES:
            for cand in s2.tokens[p + 1 : p + 3]:
                if _noun_like(cand) and not _plural_forms(cand).isdisjoint(s1_tokens):
                    return DiscourseRelation.ELABORATION

    return DiscourseRelation.MISC


def _raw_words(sentence: Sentence) -> list[str]:
    # Raw lowercase word stream, stopwords kept: the definite-NP rule
    # needs "the", which tokenize drops.
    return _WORDS.findall(sentence.text.lower())


def coref_links(report: Report, among: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Heuristic coreference links (i, j), i < j, within a 3-sentence window,
    among the sentences `among`.

    Rule (a): sentence j opens with a pronoun (first 4 tokens), linked to
    the nearest preceding sentence holding a noun-like token. Rule (b):
    sentence j has a definite reference "the X"/"this X" whose X occurs
    (plural-insensitively) in sentence i.

    Only the links whose two sentences are both in `among` (any order,
    repeats allowed) are kept; `range(len(report.sentences))` gives every
    link of the report. Only those sentences are read as j, and as i in
    rule (b). Rule (a) still walks back to the nearest noun-holding
    sentence: when that one is outside `among`, j gets no rule (a) link,
    never a farther one. Raises ValueError for an index outside the report.
    """
    sentences = report.sentences
    n = len(sentences)
    order = sorted(set(among))
    for idx in order:
        if not 0 <= idx < n:
            raise ValueError(
                f"sentence index {idx} outside report {report.report_id!r} "
                f"of {n} sentences"
            )
    kept = set(order)
    links: set[tuple[int, int]] = set()
    # Whether a sentence holds a noun-like token (rule a), filled for the
    # window sentences walked; the raw word set of each kept sentence
    # (rule b), filled as j passes it, since a kept i < j came first.
    has_noun: dict[int, bool] = {}
    word_sets: dict[int, set[str]] = {}

    for j in order:
        window = range(max(0, j - COREF_WINDOW), j)
        sj = sentences[j]

        if any(t in PRONOUNS for t in sj.tokens[:4]):
            for i in reversed(window):
                if i not in has_noun:
                    has_noun[i] = any(_noun_like(t) for t in sentences[i].tokens)
                if has_noun[i]:
                    if i in kept:
                        links.add((i, j))
                    break

        words = _raw_words(sj)
        word_sets[j] = set(words)
        wanted: set[str] = set()
        for word, nxt in zip(words, words[1:]):
            if word in ("the", "this") and _noun_like(nxt):
                wanted |= _plural_forms(nxt)
        if wanted:
            for i in window:
                if i in kept and not wanted.isdisjoint(word_sets[i]):
                    links.add((i, j))

    return frozenset(links)
