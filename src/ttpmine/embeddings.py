"""Word-vector loading (word2vec text format) and sentence similarity."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class EmbeddingParseError(ValueError):
    """Raised for malformed word-vector files; names the line number."""


@dataclass(eq=False)
class WordVectors:
    dim: int
    table: dict[str, np.ndarray]


def load_word_vectors(path: str | Path) -> WordVectors:
    """Read "V D" header then V rows of "token v1 .. vD".

    Duplicate tokens keep the first occurrence. An arity mismatch (header,
    row width, row count) or a non-finite value raises with the 1-based
    line number, and a file that is not UTF-8 with its path.
    """
    try:
        return _read_word_vectors(path)
    except UnicodeDecodeError as exc:
        raise EmbeddingParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_word_vectors(path: str | Path) -> WordVectors:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingParseError(
                f"{path} line 1: header must be 'V D', got {header.strip()!r}"
            )
        try:
            vocab_size, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EmbeddingParseError(
                f"{path} line 1: non-integer header {header.strip()!r}"
            ) from exc
        if vocab_size < 0 or dim < 1:
            raise EmbeddingParseError(
                f"{path} line 1: need V >= 0 and D >= 1, got V={vocab_size} D={dim}"
            )

        table: dict[str, np.ndarray] = {}
        rows = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rows += 1
            if rows > vocab_size:
                raise EmbeddingParseError(
                    f"{path} line {lineno}: more rows than the declared {vocab_size}"
                )
            fields = line.split()
            if len(fields) != dim + 1:
                raise EmbeddingParseError(
                    f"{path} line {lineno}: expected {dim} values, got {len(fields) - 1}"
                )
            token = fields[0]
            if token in table:
                continue
            try:
                vector = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(
                    f"{path} line {lineno}: non-numeric vector value"
                ) from exc
            if not np.isfinite(vector).all():
                raise EmbeddingParseError(f"{path} line {lineno}: non-finite vector value")
            table[token] = vector
        if rows != vocab_size:
            raise EmbeddingParseError(
                f"{path}: header declares {vocab_size} rows, file has {rows}"
            )
    return WordVectors(dim=dim, table=table)


def sentence_vector(wv: WordVectors, tokens) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector if none are known."""
    known = [wv.table[t] for t in tokens if t in wv.table]
    if not known:
        return np.zeros(wv.dim, dtype=np.float64)
    return np.mean(known, axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Standard cosine similarity; either norm zero gives 0.0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))
