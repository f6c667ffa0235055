"""Word embedding tables in the word2vec text format.

Each line holds a word followed by its vector components, whitespace
separated.  An optional first line giving `count dimension` is
recognized and skipped.  Lookups fall back from the exact surface form
to its lowercase form, and to a zero vector for unknown words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import ValidationError


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


def _parse_components(parts: list[str], lineno: int) -> np.ndarray:
    try:
        vec = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise ValidationError(
            f"line {lineno}: non-numeric vector component"
        ) from None
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"line {lineno}: non-finite vector component")
    vec.flags.writeable = False
    return vec


def load_embeddings(
    stream: IO[str],
    name: str = "embeddings",
    expected_dim: int | None = None,
) -> EmbeddingTable:
    """Read a word2vec-text table, dropping repeats of an earlier word.

    The dimension is fixed by the first vector line; ragged lines,
    non-numeric or non-finite components, and a mismatch against
    `expected_dim` all raise ValidationError with the line number.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    duplicates = 0
    first_data_line = True
    for lineno, raw in enumerate(stream, 1):
        parts = raw.split()
        if not parts:
            continue
        if first_data_line:
            first_data_line = False
            if len(parts) == 2 and _is_count_header(parts):
                continue
        if len(parts) < 2:
            raise ValidationError(f"line {lineno}: expected word and vector")
        word = parts[0]
        if dim is None:
            dim = len(parts) - 1
            if expected_dim is not None and dim != expected_dim:
                raise ValidationError(
                    f"line {lineno}: dimension {dim} does not match "
                    f"expected {expected_dim}"
                )
        elif len(parts) - 1 != dim:
            raise ValidationError(
                f"line {lineno}: expected {dim} components, got {len(parts) - 1}"
            )
        if word in vectors:
            duplicates += 1
            continue
        vectors[word] = _parse_components(parts[1:], lineno)
    if dim is None:
        raise ValidationError("embedding table contains no vectors")
    return EmbeddingTable(name=name, dim=dim, vectors=vectors, duplicates=duplicates)


def _is_count_header(parts: list[str]) -> bool:
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return count >= 0 and dim > 0
