"""Tokenizer, sentence segmentation, report loading, pair universe and
annotation loading."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import E2E_DIR
from oracles import (
    _count_markers_oracle,
    predict_report_oracle,
    report_sentences_oracle,
    split_sentences_oracle,
    tokenize_oracle,
)
from ttpmine import corpus
from ttpmine.corpus import (
    AnnotationError,
    CorpusError,
    Sentence,
    VocabLookup,
    load_annotations,
    load_reports,
    make_report,
    pair_universe,
    split_sentences,
    tokenize,
    tokenize_texts,
)
from ttpmine.ctfidf import CtfidfModel, predict_report
from ttpmine.features import markers
from ttpmine.features.discourse import _BULLET
from ttpmine.features.markers import marker_table
from ttpmine.labels import BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP


class TestTokenize:
    def test_filename_token_survives(self):
        assert tokenize("The macro created Updater.vbs") == [
            "macro",
            "created",
            "updater.vbs",
        ]

    def test_punctuation_split_keeps_marker(self):
        assert tokenize("rundll32.exe, then PowerShell!") == [
            "rundll32.exe",
            "then",
            "powershell",
        ]

    def test_edge_strip_matches_bare_form(self):
        assert tokenize("-The-") == tokenize("The") == []
        assert tokenize("._-payload-_.") == ["payload"]

    def test_interior_separators_kept(self):
        assert tokenize("win_svc-helper v3.5") == ["win_svc-helper", "v3.5"]

    def test_stopwords_dropped_after_stripping(self):
        assert tokenize("a the and of in is") == []
        assert tokenize("Attacker used a tool") == ["attacker", "used", "tool"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ??? ...") == []


# Characters that separate tokens or turn into token characters only
# after lowercasing: accented letters, dotted capital I (lowercases to
# "i" plus a combining dot), the Kelvin sign (lowercases to ASCII "k"),
# final sigma, a ligature, full-width and Arabic-Indic digits, no-break
# and zero-width spaces.
_NON_ASCII = "éÜïßİ\u212aΣσﬁＡ٣\u00a0\u200b→"
_ALPHABET = "aZt9._-! ()'\"" + _NON_ASCII


class TestTokenizeOracle:
    """`tokenize` against the character-by-character walk in
    `tests/oracles.py`."""

    @pytest.mark.parametrize(
        "text",
        [
            "Ünïcode café naïve straße",
            "İstanbul İS a \u212aELVIN test",
            "ΑΣ ΣΑ σ-loader ﬁle ＡＢＣ ٣rd",
            "no\u00a0break zero\u200bwidth arrow→token",
            "... -_- ._. - _ . --.__ a.-_ .-the-.",
            "(the) -The- _and_ .of. 'is' «the» the... [a] {in}",
            "THE.exe the-loader _a_b_ it's",
        ],
    )
    def test_named_texts(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    def test_edge_only_tokens_and_wrapped_stopwords_drop(self):
        assert tokenize_oracle("... -_- ._.") == tokenize("... -_- ._.") == []
        assert tokenize_oracle("(the) -The- _and_ .of.") == []
        assert tokenize_oracle("İstanbul") == tokenize("İstanbul") == ["stanbul"]
        assert tokenize_oracle("\u212aey") == tokenize("\u212aey") == ["key"]

    def test_seeded_random_texts(self):
        rng = np.random.default_rng(20261024)
        words = ("the", "of", "loader", "v3.5", "cmd.exe", "and", "a")
        for case in range(300):
            parts = []
            for _ in range(int(rng.integers(0, 12))):
                if rng.random() < 0.3:
                    parts.append(str(rng.choice(words)))
                else:
                    k = int(rng.integers(1, 8))
                    parts.append("".join(rng.choice(list(_ALPHABET), size=k)))
            text = "".join(parts)
            assert tokenize(text) == tokenize_oracle(text), (case, text)


# Pieces of multi-line texts: every kind of line break and space, the
# characters that change class when lowercased, full-width and
# Arabic-Indic digits, edge-only runs, separators inside a token,
# stopwords wrapped in punctuation, and a sentence boundary.
_LINE_PIECES = (
    "\r\n", "\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ",
    "\u00a0", "\u200b", "\u212aey", "\u0130S", "\u03c3\u03c2", "\u03a3",
    "\ufb01le", "\uff11\uff12", "\u0663\u0664", "._-", "-_", "a.-b", "x_.y",
    "(the)", "-The-", "_and_", ". Then", "cmd.exe", "v3.5", "Loader", "é",
)


def _multiline_texts(seed: int, n: int = 300) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        "".join(rng.choice(_LINE_PIECES, size=int(rng.integers(0, 40))))
        for _ in range(n)
    ]


class TestTokenizeReports:
    """Each sentence of a report, tokenized in one pass with the rest of
    its report, against the oracle on that sentence alone."""

    def test_make_report_sentences(self):
        for case, text in enumerate(_multiline_texts(20261101)):
            report = make_report("r", text)
            assert [s.text for s in report.sentences] == split_sentences(text)
            for sentence in report.sentences:
                assert list(sentence.tokens) == tokenize_oracle(sentence.text), (
                    case,
                    sentence.text,
                )

    def test_load_reports_sentences(self, tmp_path):
        texts = _multiline_texts(20261102)
        for k, text in enumerate(texts):
            (tmp_path / f"r{k:03d}.txt").write_text(text, encoding="utf-8")
        reports = load_reports(tmp_path)
        assert len(reports) == len(texts)
        for report in reports:
            for sentence in report.sentences:
                assert list(sentence.tokens) == tokenize_oracle(sentence.text), (
                    report.report_id,
                    sentence.text,
                )

    def test_text_with_newlines_is_one_list(self):
        texts = _multiline_texts(20261103)
        for text in texts:
            assert tokenize(text) == tokenize_oracle(text), text
        assert tokenize("one\ntwo\n\nthe three") == ["one", "two", "three"]

    def test_tokenize_texts_keeps_one_list_per_text(self):
        texts = _multiline_texts(20261104, n=50)
        assert any("\n" in text for text in texts)
        expected = [tuple(tokenize_oracle(text)) for text in texts]
        assert list(tokenize_texts(texts)) == expected
        single_line = [" ".join(text.split()) for text in texts]
        assert list(tokenize_texts(single_line)) == [
            tuple(tokenize_oracle(text)) for text in single_line
        ]
        assert list(tokenize_texts([])) == []
        assert list(tokenize_texts(["", "a\nb", ""])) == [(), ("b",), ()]

    def test_tokenize_texts_seeded(self):
        texts = _multiline_texts(20261113, n=2000)
        assert list(tokenize_texts(texts)) == [tuple(tokenize_oracle(text)) for text in texts]


class TestSegmentation:
    def test_dotted_filenames_do_not_split(self):
        text = "The attacker dropped Updater.vbs quietly. Later cmd.exe launched it."
        sentences = make_report("", text).sentences
        assert len(sentences) == 2
        assert "Updater.vbs" in sentences[0].text
        assert "cmd.exe" in sentences[1].text

    def test_split_needs_uppercase_after_punctuation(self):
        assert len(make_report("", "It ran e.g. the usual loader.").sentences) == 1

    def test_newlines_are_hard_boundaries(self):
        sentences = make_report("", "first item\nsecond item\n\nthird item").sentences
        assert [s.text for s in sentences] == [
            "first item",
            "second item",
            "third item",
        ]

    def test_indices_are_document_order(self):
        sentences = make_report("", "One ran. Two ran. Three ran.").sentences
        assert [s.index for s in sentences] == [0, 1, 2]

    def test_interior_whitespace_collapsed(self):
        sentences = make_report("", "A  very   spaced    line.").sentences
        assert sentences[0].text == "A very spaced line."

    def test_tokens_attached(self):
        sentences = make_report("", "The loader started. Then it stopped.").sentences
        assert sentences[0].tokens == ("loader", "started")
        assert sentences[1].tokens == ("then", "it", "stopped")

    def test_question_and_exclamation_terminate(self):
        assert len(make_report("", "Did it run? It did! It kept going.").sentences) == 3

    def test_split_sentences_is_segmentation_without_tokens(self):
        text = (
            "The attacker dropped Updater.vbs quietly. Later cmd.exe ran.\n"
            "\n  first   item  \nDid it run? It did! it e.g. kept going."
        )
        assert split_sentences(text) == [s.text for s in make_report("", text).sentences]
        assert split_sentences("") == split_sentences(" \n\n ") == []


# Terminal punctuation, letters of both cases, digits, and every kind of
# whitespace: "\n" and "\r\n" line breaks, and spaces and separators
# that str.split and the regex "\s" both treat as whitespace.
_SPLIT_ALPHABET = (
    ".", "!", "?", "a", "e", "x", "A", "T", "Z", "3", "0",
    " ", "\n", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
    "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
)


def _report_text(rng, n_sentences: int) -> str:
    """A report written as `n_sentences` sentences: most start with a
    capital and end in terminal punctuation, some hold dotted tokens and
    abbreviations, and they are joined by runs of assorted whitespace or
    by line breaks. A sentence with no terminal punctuation, or one that
    starts with a list marker inside a line, runs on into the next."""
    words = ("loader", "ran", "e.g.", "Updater.vbs", "3.5", "Mb", "the", "cmd.exe")
    seps = (" ", "  ", "\t", "\xa0", "\u3000 ", "\n", "\r\n", "\n\n  \n", " \x85")
    parts = []
    for _ in range(n_sentences):
        body = " ".join(rng.choice(words, size=int(rng.integers(1, 8))))
        parts.append(str(rng.choice(("The", "Then", "It", "- Next", "2."))) + " " + body)
        parts.append(str(rng.choice((".", "!", "?", "", ". "))))
        parts.append(str(rng.choice(seps)))
    return "".join(parts)


class TestSegmentationOracle:
    """`split_sentences` against the line-at-a-time splitter in
    `tests/oracles.py`."""

    @pytest.mark.parametrize(
        "text",
        [
            "It ran e.g. the usual loader.",
            "The file was 3.5 Mb. It ran.",
            "The macro created Updater.vbs. Then it ran.",
            "It ran.\nThen it stopped!\nDid it?\n",
            "It ran.\r\nThen it stopped.  \r\n",
            "",
            "\n\n",
            " \t\n\xa0\u3000\n\x0b\x0c\r\n",
            "first\n   \n\tsecond  line\n\u2028\nthird.",
            "It ran.\u2028Then it stopped.\x85Later It ended.\u3000Done",
            "Stop.\x1c\x1dGo! \x1e\x1fNow? \xa0 Ok",
        ],
    )
    def test_named_texts(self, text):
        assert split_sentences(text) == split_sentences_oracle(text)

    def test_seeded_random_texts(self):
        for case, text in enumerate(_split_texts(20261105, n=2000)):
            assert split_sentences(text) == split_sentences_oracle(text), (case, text)

    @staticmethod
    def _assert_loaded_match_oracle(directory):
        reports = load_reports(directory)
        paths = sorted(directory.glob("*.txt"))
        assert [r.report_id for r in reports] == [p.stem for p in paths]
        for report, path in zip(reports, paths):
            expected = report_sentences_oracle(path.read_text(encoding="utf-8-sig"))
            got = [(s.index, s.text, s.tokens) for s in report.sentences]
            assert got == expected, report.report_id

    def test_load_reports_e2e(self):
        self._assert_loaded_match_oracle(E2E_DIR / "reports")

    def test_load_reports_seeded_long(self, tmp_path):
        rng = np.random.default_rng(20261106)
        for k in range(8):
            text = _report_text(rng, 250)
            (tmp_path / f"r{k}.txt").write_text(text, encoding="utf-8", newline="")
        reports = load_reports(tmp_path)
        # Some of the 250 written sentences run on into the next one.
        assert all(150 < len(r.sentences) <= 250 for r in reports)
        self._assert_loaded_match_oracle(tmp_path)

    def test_load_reports_seeded_odd_texts(self, tmp_path):
        # Byte order marks, non-ASCII letters and digits, every kind of
        # whitespace, lines with no token, and temporal markers.
        for k, text in enumerate(_stream_texts(20261107, n=60)):
            (tmp_path / f"r{k:02d}.txt").write_text(text, encoding="utf-8", newline="")
        self._assert_loaded_match_oracle(tmp_path)


# Pieces of the token stream tests' texts: those of `_LINE_PIECES`, a byte
# order mark (dropped only at the start of a file), runs with no token,
# in-line sentence boundaries and temporal markers of each class.
_STREAM_PIECES = _LINE_PIECES + (
    "\ufeff", "\u3000", "\u2009", "\u202f", "\u1680", "\x1d", "\x1e", "\x1f",
    "!!!", " -- ", ". It", "? The", "! Later",
    "then", "while", "during", "simultaneously", "the", "w1", "w2", "w3",
)


def _stream_texts(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(n):
        body = "".join(rng.choice(_STREAM_PIECES, size=int(rng.integers(0, 80))))
        texts.append(("\ufeff" if rng.random() < 0.3 else "") + body)
    return texts


def _oracle_report(report_id: str, text: str):
    """What `predict_report_oracle` reads of a report, its sentences from
    the line-at-a-time splitter and tokenized one at a time."""
    sentences = [Sentence(*fields) for fields in report_sentences_oracle(text)]
    return SimpleNamespace(report_id=report_id, sentences=sentences)


def _tokens(report) -> list[str]:
    """Every token of `report` in order, read through its vocabulary."""
    return [report.vocab[code] for code in report.codes.tolist()]


def _stream_model(reports, n_classes: int = 5) -> CtfidfModel:
    """Dyadic class weights (every product and partial sum is exact, so
    any summation order gives the same bits) over most of the reports'
    tokens; the rest stay out of the vocabulary."""
    rng = np.random.default_rng(7)
    words = sorted({t for report in reports for t in report.vocab})
    vocab = {w: j for j, w in enumerate(w for w in words if rng.random() < 0.8)}
    weights = rng.integers(1, 32, size=(n_classes, len(vocab))) / 8.0
    weights[rng.random(weights.shape) < 0.6] = 0.0
    return CtfidfModel(
        vocab=vocab,
        class_ids=tuple(f"T{k}" for k in range(n_classes)),
        class_vectors=weights,
    )


class TestTokenStream:
    """A report holds its sentence lines and one token stream; its
    sentences, scores and marker counts equal those of the sentences
    split and tokenized one at a time."""

    @pytest.fixture(scope="class")
    def texts(self):
        rng = np.random.default_rng(20261108)
        e2e = sorted((E2E_DIR / "reports").glob("*.txt"))
        return (
            _stream_texts(20261109, n=200)
            + [_report_text(rng, 250) for _ in range(4)]
            + [path.read_text(encoding="utf-8") for path in e2e]
        )

    def test_sentences_equal_oracle(self, texts):
        for case, text in enumerate(texts):
            report = make_report("r", text)
            expected = [Sentence(*fields) for fields in report_sentences_oracle(text)]
            assert len(report.sentences) == len(report.lines) == len(expected)
            assert list(report.sentences) == expected, case
            assert tuple(report.sentences) == tuple(expected)
            assert _tokens(report) == [t for s in expected for t in s.tokens]
            if expected:
                assert report.sentences[-1] == expected[-1]

    def test_equal_tokens_are_one_string(self, texts):
        repeated = 0
        for text in texts:
            report = make_report("r", text)
            expected = [t for _, _, tokens in report_sentences_oracle(text) for t in tokens]
            tokens = [t for sentence in report.sentences for t in sentence.tokens]
            assert _tokens(report) == tokens == expected
            assert len(set(map(id, tokens))) == len(set(tokens)) == len(report.vocab)
            repeated += len(tokens) - len(set(tokens))
        assert repeated

    def test_sentence_index_out_of_range(self):
        report = make_report("r", "One ran. Two ran.")
        with pytest.raises(IndexError):
            report.sentences[2]
        assert report.sentences[-2].text == "One ran."

    def test_predict_report_equals_oracle(self, texts):
        reports = [make_report(f"r{k}", text) for k, text in enumerate(texts)]
        model = _stream_model(reports)
        detected = 0
        for report, text in zip(reports, texts):
            for threshold in (0.5, 1.0):
                _, expected = predict_report_oracle(
                    model, _oracle_report(report.report_id, text), threshold
                )
                assert predict_report(model, report, threshold) == expected, report.report_id
                detected += len(expected.techniques)
        assert detected

    def test_marker_table_equals_oracle(self, texts):
        counted = 0
        for text in texts:
            table = marker_table(make_report("r", text))
            expected = [
                _count_markers_oracle(tokens) for _, _, tokens in report_sentences_oracle(text)
            ]
            assert table.shape == (len(expected), 3)
            assert table.tolist() == [row.tolist() for row in expected]
            counted += int(table.sum())
        assert counted

    def test_load_classify_and_count_build_no_sentence(self, tmp_path, monkeypatch):
        for k, text in enumerate(_stream_texts(20261110, n=20)):
            (tmp_path / f"r{k:02d}.txt").write_text(text, encoding="utf-8", newline="")
        built = []

        def counting_sentence(*args):
            built.append(args[0])
            return Sentence(*args)

        monkeypatch.setattr(corpus, "Sentence", counting_sentence)
        reports = load_reports(tmp_path)
        assert sum(len(report.sentences) for report in reports) > 100
        assert built == []
        model = _stream_model(reports)
        for report in reports:
            predict_report(model, report, 0.5)
            marker_table(report)
        assert built == []
        # Reading a sentence builds it, and only it.
        assert reports[0].sentences[0].index == 0
        assert built == [0]


def _split_texts(seed: int, n: int) -> list[str]:
    """Texts of the segmentation tests' alphabet, as
    `TestSegmentationOracle.test_seeded_random_texts` draws them."""
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(_SPLIT_ALPHABET, size=int(rng.integers(0, 60)))) for _ in range(n)]


class _CountingTable(dict):
    """A lookup table that counts the words looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class TestCodedCorpus:
    """The reports of one load are coded over one shared vocabulary; each
    equals the report of its text alone, and a whole-load pass looks
    each distinct token up once."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("coded")
        e2e = sorted((E2E_DIR / "reports").glob("*.txt"))
        texts = (
            [path.read_text(encoding="utf-8") for path in e2e]
            + _split_texts(20261111, n=150)
            + _stream_texts(20261112, n=150)
        )
        for k, text in enumerate(texts):
            (directory / f"r{k:03d}.txt").write_text(text, encoding="utf-8", newline="")
        return directory

    @pytest.fixture(scope="class")
    def loaded(self, directory):
        return load_reports(directory)

    def test_reports_share_one_vocabulary(self, loaded):
        vocab = loaded[0].vocab
        assert all(report.vocab is vocab for report in loaded)
        assert len(set(vocab)) == len(vocab)
        # Codes follow the order in which tokens first appear in the load,
        # never a set's hash order.
        assert list(vocab) == list(dict.fromkeys(t for r in loaded for t in _tokens(r)))

    def test_report_equals_its_text_alone(self, directory, loaded):
        paths = sorted(directory.glob("*.txt"))
        alone = [make_report(p.stem, p.read_text(encoding="utf-8-sig")) for p in paths]
        model = _stream_model(alone)
        detected = 0
        for report, single in zip(loaded, alone, strict=True):
            assert report.report_id == single.report_id
            assert report.lines == single.lines
            assert report.bounds == single.bounds
            assert _tokens(report) == _tokens(single)
            assert list(report.sentences) == list(single.sentences)
            for threshold in (0.5, 1.0):
                prediction = predict_report(model, report, threshold)
                assert prediction == predict_report(model, single, threshold)
                detected += len(prediction.techniques)
            assert marker_table(report).tolist() == marker_table(single).tolist()
        assert detected

    def test_codes_are_read_only(self, loaded):
        for report in (loaded[0], make_report("r", "Loader ran."), make_report("r", "")):
            assert report.codes.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                report.codes[:1] = 0

    def test_reports_with_no_token(self, tmp_path):
        texts = {
            "a": "Loader ran. Then it stopped.",
            "b": "._- -The- the (and) -_\n._-\n_of_. -A- is.",
            "c": "",
            "d": "  \n\t\n \u3000 \n\r\n",
            "e": "Later loader stopped.",
        }
        for name, text in texts.items():
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
        reports = {r.report_id: r for r in load_reports(tmp_path)}
        assert [len(reports[k].sentences) for k in "abcde"] == [2, 3, 0, 0, 1]
        assert [s.tokens for s in reports["b"].sentences] == [(), (), ()]
        assert reports["b"].bounds == (0, 0, 0, 0)
        assert reports["c"].bounds == reports["d"].bounds == (0,)
        assert _tokens(reports["e"]) == ["later", "loader", "stopped"]
        model = _stream_model(reports.values())
        for key in "bcd":
            report = reports[key]
            assert report.codes.size == 0
            assert predict_report(model, report, 0.5).techniques == frozenset()
            assert marker_table(report).tolist() == [[0, 0, 0]] * len(report.lines)
        for key, text in texts.items():
            single = make_report(key, text)
            assert list(reports[key].sentences) == list(single.sentences)

    def test_one_lookup_per_vocabulary(self, loaded, monkeypatch):
        model = _stream_model(loaded)
        model = CtfidfModel(
            vocab=_CountingTable(model.vocab),
            class_ids=model.class_ids,
            class_vectors=model.class_vectors,
        )
        relations = _CountingTable(markers.MARKER_RELATION)
        monkeypatch.setattr(markers, "_vocab_relations", VocabLookup(relations))
        for report in loaded:
            predict_report(model, report, 0.5)
            marker_table(report)
        vocab = loaded[0].vocab
        assert model.vocab.probes == relations.probes == len(vocab)
        # A vocabulary equal to the last but not the same object is
        # looked up again: the last one is held and compared with `is`.
        other = make_report("r", " ".join(vocab))
        assert other.vocab == vocab and other.vocab is not vocab
        predict_report(model, other, 0.5)
        assert model.vocab.probes == 2 * len(vocab)

    def test_lookup_values(self):
        lookup = VocabLookup({"loader": 3, "then": 0})
        assert lookup(("then", "ran", "loader")).tolist() == [0, -1, 3]
        assert lookup(("ran",)).tolist() == [-1]
        assert lookup(()).tolist() == []


class TestSentence:
    def test_fields(self):
        assert Sentence._fields == ("index", "text", "tokens")

    def test_fields_are_read_only(self):
        sentence = make_report("r", "It ran.").sentences[0]
        for name in Sentence._fields:
            with pytest.raises(AttributeError):
                setattr(sentence, name, None)


class TestReports:
    def test_load_reports_sorted_by_stem(self, tmp_path):
        (tmp_path / "b.txt").write_text("Beta report.", encoding="utf-8")
        (tmp_path / "a.txt").write_text("Alpha report.", encoding="utf-8")
        (tmp_path / "notes.md").write_text("ignored", encoding="utf-8")
        reports = load_reports(tmp_path)
        assert [r.report_id for r in reports] == ["a", "b"]
        assert reports[0].sentences[0].text == "Alpha report."

    def test_byte_order_mark_dropped(self, tmp_path):
        text = "- First step ran.\n- Second step ran.\n"
        (tmp_path / "r.txt").write_bytes("\ufeff".encode() + text.encode())
        (report,) = load_reports(tmp_path)
        assert [s.text for s in report.sentences] == [
            "- First step ran.",
            "- Second step ran.",
        ]
        assert all(_BULLET.match(s.text) for s in report.sentences)

    def test_sorted_by_report_id(self, tmp_path):
        # By file name "r1-x.txt" sorts before "r1.txt"; by id "r1" comes first.
        for name in ("r1-x", "r1", "r0"):
            (tmp_path / f"{name}.txt").write_text("One step ran.\n", encoding="utf-8")
        assert [r.report_id for r in load_reports(tmp_path)] == ["r0", "r1", "r1-x"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_reports(tmp_path / "nope")


class TestPairUniverse:
    def test_ordered_pairs_without_diagonal(self):
        universe = pair_universe(["T2", "T1", "T3"])
        assert list(universe) == [
            ("T1", "T2"),
            ("T1", "T3"),
            ("T2", "T1"),
            ("T2", "T3"),
            ("T3", "T1"),
            ("T3", "T2"),
        ]
        assert len(universe) == 6

    def test_duplicates_collapse(self):
        assert len(pair_universe(["T1", "T1", "T2"])) == 2

    def test_fewer_than_two_is_empty(self):
        assert len(pair_universe(["T1"])) == 0
        assert len(pair_universe([])) == 0


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestAnnotations:
    def test_basic_line(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["BEFORE"]}'],
        )
        rows = load_annotations(path)
        assert len(rows) == 1
        assert (rows[0].tx, rows[0].ty) == ("T1", "T2")
        assert rows[0].labels == frozenset({BEFORE})

    def test_duplicate_lines_merge_labels(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            [
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["BEFORE"]}',
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["CONCURRENT"]}',
            ],
        )
        rows = load_annotations(path)
        before_rows = [r for r in rows if (r.tx, r.ty) == ("T1", "T2")]
        assert before_rows[0].labels == frozenset({BEFORE, CONCURRENT})

    def test_unknown_label_names_line(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            [
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["BEFORE"]}',
                '{"report_id": "r1", "tx": "T1", "ty": "T3", "labels": ["AFTER"]}',
            ],
        )
        with pytest.raises(AnnotationError, match="line 2"):
            load_annotations(path)

    def test_null_must_be_sole_label(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["NULL", "BEFORE"]}'],
        )
        with pytest.raises(AnnotationError, match="sole"):
            load_annotations(path)

    def test_self_pair_rejected(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T1", "labels": ["BEFORE"]}'],
        )
        with pytest.raises(AnnotationError, match="self-pair"):
            load_annotations(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = _write_lines(tmp_path / "ann.jsonl", ["{broken"])
        with pytest.raises(AnnotationError, match="line 1"):
            load_annotations(path)

    def test_missing_field_rejected(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "labels": ["BEFORE"]}'],
        )
        with pytest.raises(AnnotationError, match="line 1: missing key 'ty'$"):
            load_annotations(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            [
                "",
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["NULL"]}',
                "   ",
            ],
        )
        assert len(load_annotations(path)) == 1

    def test_catalog_validation(self, tmp_path):
        from helpers import attack_pattern, bundle

        from ttpmine.attack_kb import parse_stix

        catalog, _ = parse_stix(bundle(attack_pattern("T1566", "Phishing")))
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1566", "ty": "T9999", "labels": ["BEFORE"]}'],
        )
        with pytest.raises(AnnotationError, match="T9999"):
            load_annotations(path, techniques=catalog.technique_ids)

    def test_symmetric_closure_adds_mirror(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["CONCURRENT"]}'],
        )
        rows = {(r.tx, r.ty): r for r in load_annotations(path)}
        assert rows[("T2", "T1")].labels == frozenset({CONCURRENT})

    def test_symmetric_label_joins_existing_mirror(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            [
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["SIMULTANEOUS_OVERLAP"]}',
                '{"report_id": "r1", "tx": "T2", "ty": "T1", "labels": ["BEFORE"]}',
            ],
        )
        rows = {(r.tx, r.ty): r for r in load_annotations(path)}
        assert rows[("T2", "T1")].labels == frozenset(
            {BEFORE, SIMULTANEOUS_OVERLAP}
        )

    def test_mirror_pinned_null_is_contradiction(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            [
                '{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["CONCURRENT"]}',
                '{"report_id": "r1", "tx": "T2", "ty": "T1", "labels": ["NULL"]}',
            ],
        )
        with pytest.raises(AnnotationError, match="NULL"):
            load_annotations(path)

    def test_before_is_not_mirrored(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["BEFORE"]}'],
        )
        rows = load_annotations(path)
        assert len(rows) == 1

    def test_null_annotation_allowed_alone(self, tmp_path):
        path = _write_lines(
            tmp_path / "ann.jsonl",
            ['{"report_id": "r1", "tx": "T1", "ty": "T2", "labels": ["NULL"]}'],
        )
        assert load_annotations(path)[0].labels == frozenset({NULL})
