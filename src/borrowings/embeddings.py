"""Word embedding tables in the word2vec text format.

Each line holds a word followed by its vector components, whitespace
separated, at most `MAX_DIM` of them.  An optional first line giving
`count dimension` is recognized and skipped.  Lookups fall back from
the exact surface form to its lowercase form, and to a zero vector for
unknown words.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import IO, NoReturn

import numpy as np

from .errors import ValidationError

# The most components a vector may have.  The dimension sets how many
# attribute entries the encoder builds for every centre cell, so one
# long line would size every encoding: with a one-line table of 2,000
# components, encoding a training corpus of 257 token types peaked at
# 29 MB under tracemalloc, growing linearly with the dimension.
MAX_DIM = 1024

@dataclass(eq=False)
class EmbeddingTable:
    """Immutable word-to-vector map with a fixed dimension."""

    name: str
    dim: int
    vectors: dict[str, np.ndarray]
    duplicates: int = 0
    _zero: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        zero = np.zeros(self.dim)
        zero.flags.writeable = False
        object.__setattr__(self, "_zero", zero)

    def __len__(self) -> int:
        return len(self.vectors)

    def lookup(self, word: str) -> np.ndarray:
        """Vector for `word`, its lowercase form, or all zeros."""
        vec = self.vectors.get(word)
        if vec is None:
            vec = self.vectors.get(word.lower())
        return vec if vec is not None else self._zero


def load_embeddings(stream: IO[str], name: str = "embeddings") -> EmbeddingTable:
    """Read a word2vec-text table, dropping repeats of an earlier word.

    The dimension is fixed by the first vector line; more than `MAX_DIM`
    components on it, ragged lines, and non-numeric or non-finite
    components all raise ValidationError with the line number.
    Components are parsed line by line into one flat buffer, and the
    vectors are read-only rows of one matrix.
    """
    words: dict[str, None] = {}
    values = array("d")
    linenos = array("q")
    dim: int | None = None
    duplicates = 0
    first_data_line = True

    def fail(lineno: int, message: str) -> NoReturn:
        # Finiteness is checked in bulk, so a non-finite component on an
        # earlier line is the first fault.
        _check_finite(values, linenos, dim or 0)
        raise ValidationError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(stream, 1):
        parts = raw.split()
        if not parts:
            continue
        if first_data_line:
            first_data_line = False
            if len(parts) == 2 and _is_count_header(parts):
                continue
        if len(parts) < 2:
            fail(lineno, "expected word and vector")
        word = parts[0]
        if dim is None:
            if len(parts) - 1 > MAX_DIM:
                fail(lineno, f"{len(parts) - 1} components, more than {MAX_DIM}")
            dim = len(parts) - 1
        elif len(parts) - 1 != dim:
            fail(lineno, f"expected {dim} components, got {len(parts) - 1}")
        if word in words:
            duplicates += 1
            continue
        try:
            values.extend(map(float, itertools.islice(parts, 1, None)))
        except ValueError:
            fail(lineno, "non-numeric vector component")
        words[word] = None
        linenos.append(lineno)
    if dim is None:
        raise ValidationError("embedding table contains no vectors")
    _check_finite(values, linenos, dim)
    matrix = np.frombuffer(values, dtype=float).reshape(len(linenos), dim)
    matrix.flags.writeable = False
    return EmbeddingTable(
        name=name, dim=dim, vectors=dict(zip(words, matrix)), duplicates=duplicates
    )


def _check_finite(values: array, linenos: array, dim: int) -> None:
    """Raise for the first line of `linenos` whose row of `values` has a
    non-finite component; `values` may end with part of a row."""
    rows = np.frombuffer(values, dtype=float)[: len(linenos) * dim]
    finite = np.isfinite(rows.reshape(len(linenos), dim)).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValidationError(f"line {lineno}: non-finite vector component")


def _is_count_header(parts: list[str]) -> bool:
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return count >= 0 and dim > 0
