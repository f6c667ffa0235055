"""Token attribute extraction and the windowed feature representation.

Ten independently switchable families describe a token.  They are the
boolean fields of `FeatureConfig`, and their declaration order is the
family order (`FAMILIES`).  All but two depend only on the token's
type, its (text, POS) pair: `type_attributes` gives the binary
attribute names of a batch of types in family order, as interned ids,
split where the quotation attribute goes.  The quotation flag depends
on the token's place in its headline (`quotation_flags` marks a whole
headline at once), and the scaled embedding components
(`embedding_rows`, named `emb0`, `emb1`, ...) are emitted at the
centre of the window only.

A position's windowed attributes are the union of its neighbors'
attributes within a symmetric window, each name prefixed with the
originating offset (`[-2]`, `[-1]`, `[0]`, `[+1]`, `[+2]`).  Offsets
outside the headline contribute a single `[o]BOS` or `[o]EOS`
attribute.  The CRF encodes corpora from the base names directly,
without building any prefixed name (`crf._encode_windows`), and a
`FeatureIndex` is the table of the ids it assigns, by base name and
window slot.  `windowed_attributes` and `build_index` are views of
that one encoding: the first gives each token's attributes as an
ordered mapping from attribute name to a finite value, the second the
index of a corpus.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Headline
from .embeddings import EmbeddingTable
from .errors import ConfigError

AttributeVector = dict[str, float]


@dataclass(frozen=True)
class FeatureConfig:
    """Which attribute families are active, plus window and scaling knobs.

    Each boolean field switches the family of its name, and their order
    is the family order (`FAMILIES`).
    """

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
        # Id tables and the (token, slot) visit table are 2 * radius + 1
        # wide, so the radius alone must not size an allocation.
        if not 0 <= self.window_radius <= 16:
            raise ConfigError("window_radius must be between 0 and 16")
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


# The attribute families in family order.
FAMILIES = tuple(f.name for f in fields(FeatureConfig) if f.type == "bool")


class CharTables(NamedTuple):
    """`str.translate` tables of the character classes of some texts.

    `shape` maps uppercase characters to X, lowercase ones to x and
    digits to d, in that order of precedence, and leaves every other
    character out, so that it stays verbatim.  `case` maps alphabetic
    characters to l when lowercase and to u otherwise, and every other
    character to None, which deletes it.  Each class comes from the
    `str` predicates of that one character, so the tables follow the
    interpreter's Unicode database; they cover only the characters of
    the texts they were built from (`char_tables`).
    """

    shape: dict[int, str]
    case: dict[int, str | None]


def char_tables(texts: Iterable[str]) -> CharTables:
    """Class tables of every character in `texts`."""
    shape: dict[int, str] = {}
    case: dict[int, str | None] = {}
    for ch in set("".join(texts)):
        code = ord(ch)
        if ch.isupper():
            shape[code] = "X"
        elif ch.islower():
            shape[code] = "x"
        elif ch.isdigit():
            shape[code] = "d"
        case[code] = ("l" if ch.islower() else "u") if ch.isalpha() else None
    return CharTables(shape, case)


# A run of five or more identical characters, and its first four.
_LONG_RUN = re.compile(r"((.)\2{3})\2+", re.DOTALL)
_FIRST_FOUR = operator.itemgetter(1)


def _shape_classes(texts: Sequence[str], tables: CharTables) -> list[str]:
    """Each text with every character replaced by its `shape` class."""
    return list(map(str.translate, texts, itertools.repeat(tables.shape)))


def _word_shapes(classes: Sequence[str]) -> list[str]:
    """Word shapes from `_shape_classes`: runs kept to four."""
    return list(map(_LONG_RUN.sub, itertools.repeat(_FIRST_FOUR), classes))


def _title_flags(classes: Sequence[str]) -> np.ndarray:
    """From `_shape_classes`, 1 where only the first character is
    uppercase and 0 elsewhere.  X marks exactly the uppercase
    characters, as X is one."""
    first = map(str.startswith, classes, itertools.repeat("X"))
    upper = map(str.count, classes, itertools.repeat("X"))
    alone = map(operator.eq, upper, itertools.repeat(1))
    return np.fromiter(map(operator.and_, first, alone), np.int64, len(classes))


def _upper_flags(texts: Sequence[str], tables: CharTables) -> np.ndarray:
    """1 where a text has a letter and no lowercase one, 0 elsewhere."""
    letters = list(map(str.translate, texts, itertools.repeat(tables.case)))
    lower = map(operator.contains, letters, itertools.repeat("l"))
    # A letter, and no lowercase one: bool(letters) > ("l" in letters).
    upper = map(operator.gt, map(bool, letters), lower)
    return np.fromiter(upper, np.int64, len(letters))


# Quote characters that open a quotation region, with their closers.
_QUOTE_PAIRS = {
    "«": "»",  # « »
    "“": "”",  # " "
    "‘": "’",  # ' '
    '"': '"',
    "'": "'",
}


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


QUOTATION = "quot=1"
BOS = "BOS"
EOS = "EOS"


class TypeAttributes(NamedTuple):
    """The binary attribute names of a batch of token types.

    Type t's names, in family order, have the base ids
    `ids[rows[t]:rows[t + 1]]`; the first `n_before[t]` of them go
    before `quot=1`.  `names` lists the names by base id.
    """

    names: list[str]
    ids: np.ndarray
    rows: np.ndarray
    n_before: np.ndarray


def type_attributes(
    types: Sequence[tuple[str, str | None]], config: FeatureConfig
) -> TypeAttributes:
    """Binary attribute names of each (text, POS) token type of `types`.

    Each family is built for all types at once and gives every type
    zero or more names, interned to base ids as they come; the ids are
    then laid out type by type.  The types share one set of character
    class tables, and trigrams are keyed as integers, so that only the
    distinct ones become names.
    """
    texts = [text for text, _ in types]
    n = len(texts)
    base: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    intern = base.__getitem__
    ones = np.ones(n, dtype=np.int64)

    def every(names: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        return ones, np.fromiter(map(intern, names), np.int64, n)

    def where(flags: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        return flags, np.full(int(flags.sum()), intern(name))

    if config.uppercase or config.titlecase or config.shape:
        tables = char_tables(texts)
        classes = _shape_classes(texts, tables)
    # (names per type, their base ids type by type) of each family.
    families: list[tuple[np.ndarray, np.ndarray]] = []
    if config.bias:
        families.append(every(itertools.repeat("bias", n)))
    if config.token:
        families.append(every(map("w=".__add__, texts)))
    if config.uppercase:
        families.append(where(_upper_flags(texts, tables), "upper=1"))
    if config.titlecase:
        families.append(where(_title_flags(classes), "title=1"))
    if config.char_trigram:
        counts, trigrams, trigram_names = _trigram_ids(texts)
        families.append((counts, trigrams))
    n_before = sum((counts for counts, _ in families), np.zeros(n, dtype=np.int64))
    if config.suffix3:
        families.append(every(map("suf3=".__add__, map(_SUFFIX3, texts))))
    if config.pos:
        poses = [pos for _, pos in types]
        known = map(operator.is_not, poses, itertools.repeat(None))
        counts = np.fromiter(known, np.int64, n)
        names = map("pos=".__add__, itertools.compress(poses, counts))
        families.append((counts, np.fromiter(map(intern, names), np.int64)))
    if config.shape:
        families.append(every(map("shape=".__add__, _word_shapes(classes))))
    names = list(base)
    if config.char_trigram:
        # Trigram names are distinct, and no other family spells one.
        trigrams += len(names)
        names += trigram_names
    n_names = sum((counts for counts, _ in families), np.zeros(n, dtype=np.int64))
    rows = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_names, out=rows[1:])
    ids = np.empty(rows[-1], dtype=np.int64)
    at = rows[:-1].copy()
    for counts, family_ids in families:
        first = np.cumsum(counts) - counts
        ids[np.repeat(at - first, counts) + np.arange(family_ids.size)] = family_ids
        at += counts
    return TypeAttributes(names, ids, rows, n_before)


_SUFFIX3 = operator.itemgetter(slice(-3, None))


def _trigram_ids(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """How many distinct trigrams each text has; their numbers, text by
    text, each at its first occurrence in the text; and the names of
    the distinct trigrams by number."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    # The code points of the padded texts: numpy stores text as UCS-4.
    code = np.array(["^" + "$^".join(texts) + "$"]).view(np.uint32)
    # A text of length m has m trigrams; the padding adds 2 characters.
    text_of = np.repeat(np.arange(len(texts)), lengths)
    start = np.arange(text_of.size) + 2 * text_of
    grams = code[start[:, None] + np.arange(3)].astype(np.int64)
    # Code points are below 2**21, so three fit one key.
    key = (grams[:, 0] * 2**21 + grams[:, 1]) * 2**21 + grams[:, 2]
    gram, distinct = _ranks(key)
    # A trigram that recurs in a text is kept at its first occurrence.
    pair, _ = _ranks(text_of * distinct.size + gram)
    first = np.full(pair.size, pair.size)
    np.minimum.at(first, pair, np.arange(pair.size))
    kept = np.zeros(pair.size, dtype=bool)
    kept[first[first < pair.size]] = True
    text_of, gram = text_of[kept], gram[kept]
    # The names, as one UCS-4 string of 7 code points per trigram.  A
    # final `$` keeps numpy from stripping trailing NULs.
    block = np.empty(7 * distinct.size + 1, dtype=np.uint32)
    named = block[:-1].reshape(-1, 7)
    named[:, :4] = _TRI
    high, named[:, 6] = np.divmod(distinct, 2**21)
    named[:, 4], named[:, 5] = np.divmod(high, 2**21)
    block[-1] = ord("$")
    names = _SEVEN.findall(str(block.view(f"<U{block.size}")[0]))
    return np.bincount(text_of, minlength=len(texts)), gram, names


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's index among the distinct `keys`, and the distinct keys
    in ascending order."""
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.ones(keys.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    ranks = np.empty_like(order)
    ranks[order] = np.cumsum(new) - 1
    return ranks, ranked[new]


_TRI = np.array([ord(ch) for ch in "tri="], dtype=np.uint32)
_SEVEN = re.compile(".{7}", re.DOTALL)


def embedding_names(dim: int) -> tuple[str, ...]:
    return tuple(f"emb{i}" for i in range(dim))


def embedding_rows(
    texts: Sequence[str], config: FeatureConfig, embeddings: EmbeddingTable | None
) -> np.ndarray:
    """The embedding components of each text times the configured
    scaling, one row per text."""
    if embeddings is None:
        raise ConfigError(
            "embedding family is enabled but no embedding table was given"
        )
    rows = np.array(list(map(embeddings.lookup, texts)), dtype=float)
    return rows.reshape(len(texts), embeddings.dim) * config.embedding_scaling


def offset_prefix(offset: int) -> str:
    """The prefix that marks attributes of the neighbor at `offset`."""
    return "[0]" if offset == 0 else f"[{offset:+d}]"


def windowed_attributes(
    headline: Headline,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> list[AttributeVector]:
    """Window-expanded attribute vectors for every position.

    A view of the headline's encoding alone (`crf._encode_windows`):
    each token's vector holds the entries of the cells it visits, in
    slot order, each named through the encoding's index.  The cells are
    read off the cell-major entries by their entry counts.
    """
    from .crf import _encode_windows

    enc, index = _encode_windows((headline,), config, embeddings)
    names = map(index.names().__getitem__, enc.ids.tolist())
    vals = itertools.repeat(1.0) if enc.vals is None else enc.vals.tolist()
    entries = zip(names, vals)
    cells = [dict(itertools.islice(entries, n)) for n in enc.sizes.tolist()]
    out: list[AttributeVector] = []
    for row in enc.visits.tolist():
        vec: AttributeVector = {}
        for cell in row:
            vec.update(cells[cell])
        out.append(vec)
    return out


def window_table(names: Sequence[str], radius: int) -> FeatureIndex:
    """The index of the distinct attribute names `names`, ids by
    position, for a window of `radius`.  A name that is not
    `offset_prefix(k) + base` with |k| <= radius is left out.

    Bases are numbered in order of their first name.
    """
    width = 2 * radius + 1
    slot_of = {offset_prefix(k): k + radius for k in range(-radius, radius + 1)}
    rows: dict[str, int] = {}
    ids_by_cell: dict[int, int] = {}
    for i, name in enumerate(names):
        head, sep, base = name.partition("]")
        slot = slot_of.get(head + sep)
        if slot is not None:
            ids_by_cell[rows.setdefault(base, len(rows)) * width + slot] = i
    ids = np.full(len(rows) * width, -1, dtype=np.int64)
    ids[list(ids_by_cell)] = list(ids_by_cell.values())
    return FeatureIndex(rows, ids.reshape(len(rows), width))


class FeatureIndex:
    """Dense, immutable attribute-name-to-id mapping, held as attribute
    ids by base name and window slot.

    Windowed attribute names are `offset_prefix(k) + base`.  Row
    `rows[base]` of the (bases, 2 * radius + 1) array `ids` holds the id
    of that name at column `k + radius`, and -1 where the base has no
    attribute at offset k; rows are numbered in the order of `rows`, and
    the ids are a permutation of range(n) for some n.  Training, tagging
    and model files read the table; `names` spells the windowed names
    out on first use.
    """

    def __init__(self, rows: dict[str, int], ids: np.ndarray) -> None:
        self.rows = rows
        self.ids = ids
        self._size = int(np.count_nonzero(ids >= 0))
        self._names: tuple[str, ...] | None = None

    @property
    def radius(self) -> int:
        return self.ids.shape[1] // 2

    def __len__(self) -> int:
        return self._size

    def in_first_id_order(self) -> FeatureIndex:
        """This index with its bases in order of their first (lowest)
        id, and without the bases that have none."""
        # No id of a table reaches its size.
        first = np.where(self.ids >= 0, self.ids, self.ids.size).min(axis=1)
        kept = np.flatnonzero(first < self.ids.size)
        order = kept[np.argsort(first[kept])]
        bases = list(self.rows)
        rows = dict(zip(map(bases.__getitem__, order.tolist()), itertools.count()))
        return FeatureIndex(rows, self.ids[order])

    def names(self) -> tuple[str, ...]:
        """The windowed names, by id."""
        if self._names is None:
            radius = self.radius
            prefixes = np.array(
                [offset_prefix(k) for k in range(-radius, radius + 1)], dtype=object
            )
            bases = np.array(list(self.rows), dtype=object)
            row, slot = np.nonzero(self.ids >= 0)
            names = np.empty(self._size, dtype=object)
            names[self.ids[row, slot]] = prefixes[slot] + bases[row]
            self._names = tuple(names.tolist())
        return self._names


def build_index(
    corpus: Corpus,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> FeatureIndex:
    """Index over every attribute the corpus produces, numbered by first
    appearance: the index of the corpus's encoding."""
    # The encoder lives with the flat encoding in `crf`, which imports
    # this module.
    from .crf import _encode_windows

    return _encode_windows(corpus.headlines, config, embeddings)[1]
