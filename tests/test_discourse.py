"""Discourse-relation cascade, coreference heuristic and the F3 family."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import E2E_DIR, pair_row
from oracles import coref_links_oracle, discourse_features_oracle, plural_match_oracle
from ttpmine.corpus import load_reports, make_report
from ttpmine.features.discourse import (
    COREF_WINDOW,
    DISCOURSE_ORDER,
    F3_SIZE,
    DiscourseRelation,
    _plural_forms,
    classify_discourse,
    coref_links,
)
from ttpmine.features.layout import GROUP_SLICES, SLOT_NAMES

F3 = GROUP_SLICES["f3"]


def _f3(report, tx, ty) -> np.ndarray:
    """The F3 slots of the (tx, ty) row: the adjacent block, then the
    coref block, each in `DISCOURSE_ORDER`."""
    return pair_row(report, tx, ty)[F3]


def _pair(text):
    sentences = make_report("", text).sentences
    assert len(sentences) == 2, sentences
    return sentences[0], sentences[1]


class TestCascade:
    def test_conditional_wins(self):
        s1, s2 = _pair(
            "If the beacon fails, the loader retries. Otherwise it sleeps."
        )
        assert classify_discourse(s1, s2, False) is DiscourseRelation.IF_ELSE

    def test_conditional_beats_sequence_marker(self):
        s1, s2 = _pair("If the scan finishes, logs rotate. Then cleanup runs.")
        assert classify_discourse(s1, s2, False) is DiscourseRelation.IF_ELSE

    def test_sequence_marker_opening_second_sentence(self):
        s1, s2 = _pair("The dropper wrote a payload. Afterward the loader started.")
        assert classify_discourse(s1, s2, False) is DiscourseRelation.NEXT

    def test_marker_deep_in_sentence_is_not_next(self):
        s1, s2 = _pair(
            "The dropper wrote a payload. Analysts flagged binaries launched then."
        )
        assert classify_discourse(s1, s2, False) is not DiscourseRelation.NEXT

    def test_high_token_overlap_is_list(self):
        s1, s2 = _pair(
            "Attackers queried domain controllers nightly. "
            "Attackers queried domain admins nightly."
        )
        assert classify_discourse(s1, s2, False) is DiscourseRelation.LIST

    def test_bullet_pair_is_list(self):
        s1, s2 = [
            make_report("", line).sentences[0]
            for line in ("- scan every host", "- copy stolen files")
        ]
        assert classify_discourse(s1, s2, False) is DiscourseRelation.LIST

    def test_coref_flag_gives_elaboration(self):
        s1, s2 = _pair("The implant gathered files. Compression happened on exit.")
        assert classify_discourse(s1, s2, True) is DiscourseRelation.ELABORATION

    def test_demonstrative_noun_match_gives_elaboration(self):
        s1, s2 = _pair(
            "The script dropped a file in temp. That file contained shellcode."
        )
        assert classify_discourse(s1, s2, False) is DiscourseRelation.ELABORATION

    def test_demonstrative_plural_insensitive(self):
        s1, s2 = _pair(
            "Two backdoors persisted after reboot. That backdoor used a run key."
        )
        assert classify_discourse(s1, s2, False) is DiscourseRelation.ELABORATION

    def test_unrelated_sentences_are_misc(self):
        s1, s2 = _pair("The beacon slept for hours. Analysts reviewed logs.")
        assert classify_discourse(s1, s2, False) is DiscourseRelation.MISC

    def test_slot_order_is_fixed(self):
        assert DISCOURSE_ORDER == (
            DiscourseRelation.NEXT,
            DiscourseRelation.ELABORATION,
            DiscourseRelation.IF_ELSE,
            DiscourseRelation.LIST,
            DiscourseRelation.MISC,
        )


def _every_link(report):
    """`coref_links` among every sentence of the report."""
    return coref_links(report, range(len(report.sentences)))


class TestCorefLinks:
    def test_opening_pronoun_links_to_nearest_noun(self):
        report = make_report(
            "r1", "The dropper wrote a file. It executed the payload."
        )
        assert (0, 1) in _every_link(report)

    def test_definite_reference_links(self):
        report = make_report(
            "r1", "A macro launched the stager. The macro deleted itself."
        )
        assert (0, 1) in _every_link(report)

    def test_definite_reference_plural_insensitive(self):
        report = make_report(
            "r1", "Several beacons connected out. The beacon list grew."
        )
        assert (0, 1) in _every_link(report)

    def test_window_limit_enforced(self):
        report = make_report(
            "r1",
            "A beacon connected out.\n"
            "Logging continued.\n"
            "Nothing changed.\n"
            "Quiet held.\n"
            "The beacon reconnected.",
        )
        links = _every_link(report)
        assert (0, 4) not in links
        assert all(j - i <= COREF_WINDOW for i, j in links)

    def test_no_links_without_referring_expressions(self):
        report = make_report(
            "r1", "A beacon connected out. Analysts reviewed logs."
        )
        assert _every_link(report) == frozenset()

    def test_pronoun_beyond_first_four_tokens_ignored(self):
        report = make_report(
            "r1",
            "The loader fetched a module. Defenders later confirmed analysts "
            "had flagged it.",
        )
        links = _every_link(report)
        assert (0, 1) not in links

    def test_links_are_forward_ordered(self):
        report = make_report(
            "r1",
            "The implant slept. It woke at nine. The implant then phoned home.",
        )
        for i, j in _every_link(report):
            assert 0 <= i < j


# Heads and words whose plural-insensitive matches differ: regular
# plurals, words that end in "s" in the singular, and "ss" endings.
_PLURAL_WORDS = (
    "tool", "tools", "toolss", "bus", "buss", "busses", "process", "processes",
    "proces", "class", "classes", "alias", "aliases", "news", "new", "dns",
    "loader", "loaders", "s", "ss", "sss",
)
_FILLER = ("ran", "quietly", "on", "host", "it", "they", "then", "a", "of")


def _coref_report(rng, report_id: str, n: int):
    lines = []
    for _ in range(n):
        words = []
        for _ in range(int(rng.integers(3, 9))):
            roll = rng.random()
            if roll < 0.2:
                words.append(str(rng.choice(("the", "this", "The", "This"))))
            elif roll < 0.6:
                words.append(str(rng.choice(_PLURAL_WORDS)))
            else:
                words.append(str(rng.choice(_FILLER)))
        lines.append(" ".join(words) + ".")
    return make_report(report_id, "\n".join(lines))


class TestCorefOracle:
    """Set-membership coreference against the pairwise `_plural_match`
    scan in `tests/oracles.py`."""

    def test_plural_forms_match_pairwise_rule(self):
        for a in _PLURAL_WORDS:
            for b in _PLURAL_WORDS:
                assert (b in _plural_forms(a)) == plural_match_oracle(a, b), (a, b)

    def test_plural_heads_link(self):
        for text in (
            "Two tools ran.\nThe tool stopped.",
            "One tool ran.\nThe tools stopped.",
            "The bus ran.\nThis buss stopped.",
            "Two buss ran.\nThe bus stopped.",
        ):
            report = make_report("r1", text)
            assert _every_link(report) == coref_links_oracle(report) == {(0, 1)}, text
        # Only a final "s" is added or dropped: "es" plurals do not match.
        report = make_report("r1", "A process ran.\nThe processes stopped.")
        assert _every_link(report) == coref_links_oracle(report) == frozenset()

    def test_head_ending_in_s_drops_only_its_last_s(self):
        report = make_report("r1", "The bu ran.\nThe bus stopped.")
        assert _every_link(report) == coref_links_oracle(report) == {(0, 1)}
        report = make_report(
            "r1", "The processe ran.\nA proc stopped.\nThe process ended."
        )
        assert _every_link(report) == coref_links_oracle(report) == frozenset()

    def test_random_reports_equal_link_sets(self):
        rng = np.random.default_rng(20261018)
        for case in range(40):
            report = _coref_report(rng, f"c{case}", int(rng.integers(1, 40)))
            assert _every_link(report) == coref_links_oracle(report), case

    def test_long_report_equal_link_sets(self):
        rng = np.random.default_rng(3)
        report = _coref_report(rng, "long", 250)
        links = _every_link(report)
        assert len(links) > 50
        assert links == coref_links_oracle(report)

    def test_single_sentence_report_has_no_links(self):
        report = make_report("r1", "The tools ran then it stopped.")
        assert _every_link(report) == coref_links_oracle(report) == frozenset()


def _links_among(whole, among):
    kept = set(among)
    return frozenset((i, j) for i, j in whole if i in kept and j in kept)


def _subsets(rng, n: int, count: int):
    """Random index lists of every density, in random order with repeats,
    and runs of consecutive sentences."""
    for _ in range(count):
        size = int(rng.integers(0, n + 1))
        yield [int(i) for i in rng.choice(n, size=size)]
        start = int(rng.integers(0, n))
        yield list(range(start, min(n, start + int(rng.integers(1, 8)))))


class TestCorefAmong:
    """`coref_links(report, among)` against the oracle's whole-report
    links filtered to `among`."""

    def test_e2e_fixture_reports(self):
        rng = np.random.default_rng(20261020)
        # The fixture's reports hold no links; the seeded reports below do.
        reports = load_reports(E2E_DIR / "reports")
        for report in reports:
            n = len(report.sentences)
            whole = coref_links_oracle(report)
            assert coref_links(report, range(n)) == whole
            for among in _subsets(rng, n, 20):
                assert coref_links(report, among) == _links_among(whole, among), (
                    report.report_id, among,
                )

    def test_seeded_long_reports(self):
        rng = np.random.default_rng(20261021)
        found = 0
        for case in range(3):
            report = _coref_report(rng, f"long{case}", 250)
            whole = coref_links_oracle(report)
            for among in _subsets(rng, 250, 150):
                want = _links_among(whole, among)
                assert coref_links(report, among) == want, (case, sorted(set(among)))
                found += len(want)
        assert found > 500

    def test_nearest_noun_outside_among_gives_no_link(self):
        # Rule (a) links "It" to sentence 1, the nearest one with a noun;
        # without sentence 1 it must not fall back to sentence 0.
        report = make_report(
            "r1", "The dropper wrote a file.\nThe loader ran.\nIt executed."
        )
        assert _every_link(report) == coref_links_oracle(report) == {(1, 2)}
        assert coref_links(report, [0, 2]) == frozenset()
        assert coref_links(report, [1, 2]) == {(1, 2)}

    def test_among_holding_sentence_zero(self):
        report = make_report(
            "r1", "The dropper wrote a file. It executed the payload. Quiet held."
        )
        assert coref_links(report, [0, 1]) == {(0, 1)}
        assert coref_links(report, [0]) == frozenset()
        assert coref_links(report, [0, 2]) == frozenset()

    def test_unsorted_and_repeated_indices(self):
        rng = np.random.default_rng(8)
        report = _coref_report(rng, "order", 30)
        want = _links_among(coref_links_oracle(report), range(0, 30, 2))
        assert want
        shuffled = [int(i) for i in rng.permutation(np.arange(0, 30, 2))]
        assert coref_links(report, shuffled + shuffled[:5]) == want
        assert coref_links(report, tuple(reversed(shuffled))) == want

    def test_empty_among(self):
        report = _coref_report(np.random.default_rng(9), "empty", 20)
        assert _every_link(report)
        assert coref_links(report, []) == coref_links(report, set()) == frozenset()

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_index_outside_report_raises(self, bad):
        report = _coref_report(np.random.default_rng(10), "bad", 5)
        with pytest.raises(
            ValueError,
            match=rf"^sentence index {bad} outside report 'bad' of 5 sentences$",
        ):
            coref_links(report, [0, bad, 2])


class TestDiscourseFeatures:
    def test_adjacent_and_coref_slots(self):
        report = make_report(
            "r1", "The implant collected files. Then it sent everything."
        )
        assert (0, 1) in _every_link(report)
        row = pair_row(report, [0], [1])
        assert row[F3].shape == (F3_SIZE,)
        # Adjacent straddling pair classifies NEXT; the same pair is also
        # a coref link, classified NEXT again in the coref block.
        assert row[SLOT_NAMES.index("f3.adj_next")] == 1.0
        assert row[SLOT_NAMES.index("f3.coref_next")] == 1.0
        assert row[F3].sum() == 2.0

    def test_non_straddling_pairs_ignored(self):
        report = make_report(
            "r1", "The implant collected files. Then it sent everything."
        )
        assert _every_link(report)
        assert np.array_equal(_f3(report, [0], []), np.zeros(F3_SIZE))

    def test_reversed_direction_still_straddles(self):
        report = make_report(
            "r1", "The implant collected files. Then it sent everything."
        )
        forward = _f3(report, [0], [1])
        backward = _f3(report, [1], [0])
        assert forward.any()
        assert np.array_equal(forward, backward)

    def test_distant_coref_pair_counts_in_coref_block_only(self):
        report = make_report(
            "r1",
            "The stager queried a mirror host.\n"
            "Separate activity continued.\n"
            "The mirror host answered slowly.",
        )
        assert (0, 2) in _every_link(report)
        row = pair_row(report, [0], [2])
        adjacent = [SLOT_NAMES.index(f"f3.adj_{rel.value.lower()}") for rel in DISCOURSE_ORDER]
        coref = [SLOT_NAMES.index(f"f3.coref_{rel.value.lower()}") for rel in DISCOURSE_ORDER]
        assert row[adjacent].sum() == 0.0  # not adjacent
        assert row[coref].sum() == 1.0


def _assert_f3_matches_oracle(report, tx, ty, links):
    got = _f3(report, tx, ty)
    want = discourse_features_oracle(report, tx, ty, links)
    assert got.tobytes() == want.tobytes(), (report.report_id, tx, ty)
    return want


class TestDiscourseOracle:
    """The F3 slots of built rows, from the report's links among its hit
    sentences, against the walk over every adjacent pair and every link
    of the whole report in `tests/oracles.py`."""

    def test_seeded_reports_equal_vectors(self):
        rng = np.random.default_rng(20261019)
        adjacent = 0
        for case in range(60):
            n = int(rng.integers(1, 40))
            report = _coref_report(rng, f"d{case}", n)
            links = _every_link(report)
            for _ in range(6):
                tx = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                ty = [int(i) for i in rng.choice(n, size=int(rng.integers(0, 4)))]
                adjacent += _assert_f3_matches_oracle(report, tx, ty, links)[:5].sum()
        assert adjacent > 50

    def test_first_and_last_sentence(self):
        rng = np.random.default_rng(11)
        report = _coref_report(rng, "edges", 12)
        links = _every_link(report)
        last = len(report.sentences) - 1
        for tx, ty in (
            ([0], [1]), ([1], [0]), ([last], [last - 1]), ([last - 1], [last]),
            ([0], [last]), ([0, last], [1, last - 1]), ([0, 1], [0, 1]),
        ):
            _assert_f3_matches_oracle(report, tx, ty, links)

    def test_single_sentence_and_empty_sets(self):
        report = make_report("one", "The tool ran then it stopped.")
        assert len(report.sentences) == 1
        for tx, ty in (([0], [0]), ([0], []), ([], [0]), ([], [])):
            out = _assert_f3_matches_oracle(report, tx, ty, _every_link(report))
            assert not out.any()
        report = _coref_report(np.random.default_rng(5), "empty", 20)
        links = _every_link(report)
        for tx, ty in (([], []), ([3], []), ([], [3])):
            assert not _assert_f3_matches_oracle(report, tx, ty, links).any()
