"""Word-vector file parsing, sentence pooling and cosine similarity."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ttpmine.embeddings import (
    EmbeddingParseError,
    WordVectors,
    cosine,
    load_word_vectors,
    sentence_vector,
)


def _write(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_small_file(self, tmp_path):
        wv = load_word_vectors(_write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert wv.dim == 3
        assert len(wv.table) == 2
        assert np.array_equal(wv.table["a"], [1.0, 0.0, 0.0])
        assert np.array_equal(wv.table["b"], [0.0, 1.0, 0.0])
        assert "a" in wv.table and "zzz" not in wv.table

    def test_row_arity_error_names_line(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_word_vectors(_write(tmp_path, "2 3\na 1 0\nb 0 1 0\n"))

    def test_bad_header_named_line_one(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 1"):
            load_word_vectors(_write(tmp_path, "3\na 1 0 0\n"))

    def test_non_integer_header(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 1"):
            load_word_vectors(_write(tmp_path, "two 3\na 1 0 0\n"))

    def test_zero_dim_rejected(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="D >= 1"):
            load_word_vectors(_write(tmp_path, "1 0\na\n"))

    def test_too_many_rows_names_line(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 4"):
            load_word_vectors(_write(tmp_path, "2 2\na 1 0\nb 0 1\nc 1 1\n"))

    def test_too_few_rows_reported(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="declares 3"):
            load_word_vectors(_write(tmp_path, "3 2\na 1 0\nb 0 1\n"))

    def test_non_numeric_value_names_line(self, tmp_path):
        with pytest.raises(EmbeddingParseError, match="line 3"):
            load_word_vectors(_write(tmp_path, "2 2\na 1 0\nb x 1\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        # float() parses these, and a NaN vector would reach the features.
        path = _write(tmp_path, f"3 2\na 1 0\n\nb 0 {value}\nc 1 1\n")
        with pytest.raises(
            EmbeddingParseError,
            match=f"^{re.escape(str(path))} line 4: non-finite vector value$",
        ):
            load_word_vectors(path)

    def test_duplicate_token_keeps_first(self, tmp_path):
        wv = load_word_vectors(_write(tmp_path, "2 2\na 1 0\na 0 1\n"))
        assert len(wv.table) == 1
        assert np.array_equal(wv.table["a"], [1.0, 0.0])

    def test_blank_lines_ignored(self, tmp_path):
        wv = load_word_vectors(_write(tmp_path, "1 2\n\na 1 0\n\n"))
        assert len(wv.table) == 1

    def test_large_file_round_trips_sampled_vectors(self, tmp_path):
        vocab_size, dim = 50_000, 300
        rng = np.random.default_rng(20260822)
        values = rng.integers(-9, 10, size=(vocab_size, dim))
        path = tmp_path / "big.txt"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{vocab_size} {dim}\n")
            for row in range(vocab_size):
                fh.write(
                    f"tok{row:05d} " + " ".join(map(str, values[row])) + "\n"
                )
        wv = load_word_vectors(path)
        assert wv.dim == dim
        assert len(wv.table) == vocab_size
        for row in rng.integers(0, vocab_size, size=25):
            assert np.array_equal(wv.table[f"tok{row:05d}"], values[row])


class TestSentenceVector:
    def _wv(self):
        return WordVectors(
            dim=3,
            table={
                "a": np.array([1.0, 0.0, 0.0]),
                "b": np.array([0.0, 1.0, 0.0]),
            },
        )

    def test_mean_of_known_tokens(self):
        assert np.array_equal(
            sentence_vector(self._wv(), ["a", "b"]), [0.5, 0.5, 0.0]
        )

    def test_oov_skipped(self):
        assert np.array_equal(
            sentence_vector(self._wv(), ["a", "zzz"]), [1.0, 0.0, 0.0]
        )

    def test_all_oov_is_zero_vector(self):
        assert np.array_equal(sentence_vector(self._wv(), ["zzz"]), [0.0, 0.0, 0.0])
        assert np.array_equal(sentence_vector(self._wv(), []), [0.0, 0.0, 0.0])

    def test_token_order_irrelevant(self):
        wv = self._wv()
        assert np.array_equal(
            sentence_vector(wv, ["a", "b", "a"]),
            sentence_vector(wv, ["a", "a", "b"]),
        )


class TestCosine:
    def test_parallel_orthogonal_fixed_values(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert abs(cosine([1.0, 1.0], [1.0, 0.0]) - 0.7071067811865475) < 1e-6

    def test_zero_norm_gives_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine([1.0], [1.0, 2.0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha = float(rng.uniform(0.1, 10.0))
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12
