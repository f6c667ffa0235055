"""Token attribute extraction and the windowed feature representation.

Ten independently switchable families describe a token.  All but two
depend only on the token's type, its (text, POS) pair:
`base_attributes` gives a type's binary attribute names in family
order, split where the quotation attribute goes.  The quotation flag
depends on the token's place in its headline (`quotation_flags` marks
a whole headline at once), and the scaled embedding components
(`embedding_values`, named `emb0`, `emb1`, ...) are emitted at the
centre of the window only.

The dict view builds on the same functions.  An attribute vector is an
ordered mapping from attribute name to a finite value.  A position's
windowed vector (`windowed_attributes`) is the union of its neighbors'
attributes within a symmetric window, each name prefixed with the
originating offset (`[-2]`, `[-1]`, `[0]`, `[+1]`, `[+2]`).  Offsets
outside the headline contribute a single `[o]BOS` or `[o]EOS`
attribute.  The CRF encodes corpora from the base names directly,
without building these dicts; see `crf`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .corpus import Corpus, Headline, Token
from .embeddings import EmbeddingTable
from .errors import ConfigError

AttributeVector = dict[str, float]

FAMILIES = (
    "bias",
    "token",
    "uppercase",
    "titlecase",
    "char_trigram",
    "quotation",
    "suffix3",
    "pos",
    "shape",
    "embedding",
)


@dataclass(frozen=True)
class FeatureConfig:
    """Which attribute families are active, plus window and scaling knobs."""

    bias: bool = True
    token: bool = True
    uppercase: bool = True
    titlecase: bool = True
    char_trigram: bool = True
    quotation: bool = True
    suffix3: bool = True
    pos: bool = True
    shape: bool = True
    embedding: bool = False
    window_radius: int = 2
    embedding_scaling: float = 1.0

    def __post_init__(self) -> None:
        if self.window_radius < 0:
            raise ConfigError("window_radius must be >= 0")
        if not 0 < self.embedding_scaling < math.inf:
            raise ConfigError("embedding_scaling must be finite and positive")
        if not self.enabled_families():
            raise ConfigError("at least one attribute family must be enabled")

    def enabled_families(self) -> tuple[str, ...]:
        return tuple(f for f in FAMILIES if getattr(self, f))

    def without(self, family: str) -> "FeatureConfig":
        """Copy of this config with one family switched off."""
        if family not in FAMILIES:
            raise ConfigError(f"unknown attribute family {family!r}")
        return replace(self, **{family: False})


def word_shape(text: str) -> str:
    """Collapse the token to a character-class sketch.

    Uppercase letters map to X, lowercase to x, digits to d, everything
    else stays verbatim; runs of more than four identical output
    characters are truncated to four.
    """
    out: list[str] = []
    last = ""
    run = 0
    for ch in text:
        if ch.isupper():
            mapped = "X"
        elif ch.islower():
            mapped = "x"
        elif ch.isdigit():
            mapped = "d"
        else:
            mapped = ch
        run = run + 1 if mapped == last else 1
        last = mapped
        if run <= 4:
            out.append(mapped)
    return "".join(out)


def char_trigrams(text: str) -> list[str]:
    """All character trigrams of the token padded with ^ and $."""
    padded = f"^{text}$"
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


# Quote characters that open a quotation region, with their closers.
_QUOTE_PAIRS = {
    "«": "»",  # « »
    "“": "”",  # " "
    "‘": "’",  # ' '
    '"': '"',
    "'": "'",
}
_QUOTE_CHARS = set(_QUOTE_PAIRS) | set(_QUOTE_PAIRS.values())


def quotation_flags(headline: Headline) -> list[bool]:
    """Per-token flags marking tokens strictly inside a quotation.

    An opening quote starts a region closed by its matching closer; an
    unmatched opener extends to the end of the headline.  The quote
    tokens themselves are not flagged.
    """
    flags = [False] * len(headline)
    closer: str | None = None
    for i, token in enumerate(headline.tokens):
        text = token.text
        if closer is not None and text == closer:
            closer = None
            continue
        if closer is None and text in _QUOTE_PAIRS:
            closer = _QUOTE_PAIRS[text]
            continue
        if closer is not None:
            flags[i] = True
    return flags


def _is_upper(text: str) -> bool:
    cased = [ch for ch in text if ch.isalpha()]
    return bool(cased) and all(not ch.islower() for ch in cased)


def _is_title(text: str) -> bool:
    if not text[0].isupper():
        return False
    return all(not ch.isupper() for ch in text[1:])


QUOTATION = "quot=1"
BOS = "BOS"
EOS = "EOS"


def base_attributes(
    text: str, pos: str | None, config: FeatureConfig
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Binary attribute names of a token type, before and after `quot=1`.

    Names come in family order.  A trigram that occurs twice in the
    token is named once, at its first occurrence.
    """
    before: list[str] = []
    if config.bias:
        before.append("bias")
    if config.token:
        before.append(f"w={text}")
    if config.uppercase and _is_upper(text):
        before.append("upper=1")
    if config.titlecase and _is_title(text):
        before.append("title=1")
    if config.char_trigram:
        before.extend(dict.fromkeys(f"tri={gram}" for gram in char_trigrams(text)))
    after: list[str] = []
    if config.suffix3:
        after.append(f"suf3={text[-3:]}")
    if config.pos and pos is not None:
        after.append(f"pos={pos}")
    if config.shape:
        after.append(f"shape={word_shape(text)}")
    return tuple(before), tuple(after)


def embedding_names(dim: int) -> tuple[str, ...]:
    return tuple(f"emb{i}" for i in range(dim))


def embedding_values(
    text: str, config: FeatureConfig, embeddings: EmbeddingTable | None
) -> list[float]:
    """The token's embedding components times the configured scaling."""
    if embeddings is None:
        raise ConfigError(
            "embedding family is enabled but no embedding table was given"
        )
    scale = config.embedding_scaling
    return [float(component) * scale for component in embeddings.lookup(text)]


def _extract(
    token: Token,
    quoted: bool,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
    emit_embedding: bool,
) -> AttributeVector:
    before, after = base_attributes(token.text, token.pos, config)
    attrs = dict.fromkeys(before, 1.0)
    if quoted:
        attrs[QUOTATION] = 1.0
    attrs.update(dict.fromkeys(after, 1.0))
    if config.embedding and emit_embedding:
        values = embedding_values(token.text, config, embeddings)
        attrs.update(zip(embedding_names(len(values)), values))
    return attrs


def quoted_tokens(headline: Headline, config: FeatureConfig) -> list[bool]:
    """Which tokens get `quot=1`: none when the family is off."""
    if config.quotation:
        return quotation_flags(headline)
    return [False] * len(headline)


def extract_token_attributes(
    headline: Headline,
    t: int,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> AttributeVector:
    """Attribute vector of a single token, before windowing."""
    quoted = quoted_tokens(headline, config)[t]
    return _extract(headline.tokens[t], quoted, config, embeddings, True)


def offset_prefix(offset: int) -> str:
    """The prefix that marks attributes of the neighbor at `offset`."""
    return "[0]" if offset == 0 else f"[{offset:+d}]"


def windowed_attributes(
    headline: Headline,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> list[AttributeVector]:
    """Window-expanded attribute vectors for every position."""
    n = len(headline)
    radius = config.window_radius
    quoted = quoted_tokens(headline, config)
    center = [
        _extract(token, q, config, embeddings, emit_embedding=True)
        for token, q in zip(headline.tokens, quoted)
    ]
    if config.embedding:
        neighbor = [
            _extract(token, q, config, embeddings, emit_embedding=False)
            for token, q in zip(headline.tokens, quoted)
        ]
    else:
        neighbor = center
    out: list[AttributeVector] = []
    for t in range(n):
        vec: AttributeVector = {}
        for offset in range(-radius, radius + 1):
            prefix = offset_prefix(offset)
            j = t + offset
            if j < 0:
                vec[prefix + BOS] = 1.0
            elif j >= n:
                vec[prefix + EOS] = 1.0
            else:
                source = center[j] if offset == 0 else neighbor[j]
                for name, value in source.items():
                    vec[f"{prefix}{name}"] = value
        out.append(vec)
    return out


class FeatureIndex:
    """Dense attribute-name-to-id mapping, frozen before training."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._names)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def add(self, name: str) -> int:
        """Id for `name`, assigning the next id on first sight."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        if self._frozen:
            raise ConfigError("cannot add attributes to a frozen index")
        self._ids[name] = len(self._names)
        self._names.append(name)
        return self._ids[name]

    def get(self, name: str) -> int | None:
        """Id for `name`, or None if it was never indexed."""
        return self._ids.get(name)

    def ids_of(self, names: Iterable[str]) -> np.ndarray:
        """Ids of `names` as an int64 array, -1 for names never indexed."""
        return np.fromiter(
            map(self._ids.get, names, itertools.repeat(-1)), dtype=np.int64
        )

    def name(self, i: int) -> str:
        return self._names[i]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def freeze(self) -> "FeatureIndex":
        self._frozen = True
        return self

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "FeatureIndex":
        """Frozen index giving each name its position; names must be distinct."""
        index = cls()
        index._names = list(names)
        index._ids = dict(zip(index._names, range(len(index._names))))
        if len(index._ids) != len(index._names):
            raise ConfigError("duplicate attribute names")
        return index.freeze()


def build_index(
    corpus: Corpus,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> FeatureIndex:
    """Frozen index over every attribute the corpus produces."""
    # The encoder that assigns ids lives with the flat encoding in `crf`,
    # which imports this module.
    from .crf import index_corpus

    return index_corpus(corpus, config, embeddings)[1]
