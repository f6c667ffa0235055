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
attribute.  The encoder (`_encode_windows`) works from the base names
directly, without building any prefixed name, and a `FeatureIndex` is
the table of the ids it assigns, by base name and window slot.
`windowed_attributes` and `build_index` are views of that one
encoding: the first gives each token's attributes as an ordered
mapping from attribute name to a finite value, the second the index of
a corpus.

A batch of sequences (a training corpus, or the headlines being
tagged) is encoded once into flat arrays (`Encoding`), as in CRFsuite,
but factored by window cell: a cell is the list of (attribute id,
value) entries one token type contributes at one window slot, inside
a quotation or outside one when the quotation family is on.  Each
distinct cell is stored once, as its entry count and its entries, and
a (token, slot) table of cell numbers records which cells every token
visits, plus the token offset of every sequence.  The encoder lays it
out once for every pass that reads it (`_flat_encoding`), so neither
training nor tagging re-derives a layout.  The entries are also kept
rank-major: entry 0 of every cell, then entry 1 of every cell that has
one, and so on, with the cells ranked by descending entry count.  The
sequences are ranked the same way, by descending length, into packed
time steps, as packed sequences are in cuDNN: step t takes token t of
every sequence longer than t, so each step is one contiguous block of
rows that continues the first rows of the step before, and the
encoding links every row to its predecessor's (`_packed` lays out
both).

Corpora are encoded without building any windowed attribute name per
token, and with Python work that grows with the token types and the
distinct names rather than with the entries.  The base names of all
the types of a batch are built at once, family by family, and each
distinct base name gets a base id; one stable sort by type lays the
ids out type by type (`type_attributes`).  Character trigrams are
keyed as integers and ranked by `np.unique`, so only the distinct ones
are spelled out.  Everything else is array work: every (token, window
slot) visit is keyed by its cell, (type, slot, quoted), and cells are
numbered by first visit; each cell's entries are gathered from its
type's base ids and keyed by (slot, base id).  No key becomes a
prefixed name.  Training numbers the distinct keys by first
appearance, so ids are exactly those of numbering the windowed names
one by one as the tokens list them, and the index holds them as a
table of ids by base name and slot (`FeatureIndex`); tagging looks
each distinct base name of a batch up once in the model's table and
drops the entries it has no id for.  Without embeddings every entry's
value is 1.0, and none is kept or multiplied.
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
from .errors import ConfigError, ValidationError

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
    zero or more names, interned to base ids as they come.  One stable
    sort by type over the families' ids, taken family by family, then
    lays the ids out type by type in family order.  The types share one
    set of character class tables, and trigrams are keyed as integers
    and ranked by `np.unique`, so that only the distinct ones become
    names.
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
    n_first = len(families)  # the families before quot=1
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
    # Row f of `counts` is family f's names per type.  Each family lists
    # its ids type by type, so a stable sort by type lays all of them
    # out type by type, in family order.
    counts = np.array([c for c, _ in families], np.int64).reshape(len(families), n)
    type_of = np.repeat(np.tile(np.arange(n), len(families)), counts.ravel())
    ids = np.concatenate([np.empty(0, np.int64), *(i for _, i in families)])
    ids = ids[np.argsort(type_of, kind="stable")]
    rows = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=rows[1:])
    return TypeAttributes(names, ids, rows, counts[:n_first].sum(axis=0))


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
    distinct, gram = np.unique(key, return_inverse=True)
    # A trigram that recurs in a text is kept at its first occurrence.
    _, first = np.unique(text_of * distinct.size + gram, return_index=True)
    first.sort()
    text_of, gram = text_of[first], gram[first]
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

    A view of the headline's encoding alone (`_encode_windows`):
    each token's vector holds the entries of the cells it visits, in
    slot order, each named through the encoding's index.  The cells are
    read off the cell-major entries by their entry counts.
    """
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
    the ids are a permutation of range(n) for some n.  The encoder
    (`_encode_windows`) builds the table of a training corpus and looks
    the base names of a batch up in a model's; model files store it,
    and `names` spells the windowed names out on first use.
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
    appearance: the index of the corpus's encoding (`_encode_windows`)."""
    return _encode_windows(corpus.headlines, config, embeddings)[1]


# --- flat encoding -----------------------------------------------------------

@dataclass(frozen=True)
class Encoding:
    """A batch of sequences as window cells and the tokens' visits to
    them, laid out once for every pass that reads it.

    A cell is a list of attribute entries: entry k gives attribute
    `ids[k]` the value `vals[k]`; `vals` is None when every value is
    1.0, as in an encoding of windowed attributes without embedding
    entries.  Entries are stored cell by cell, cell c holding the next
    `sizes[c]` of them, and each cell once, however many tokens visit
    it.  Row t of the (n_tokens, width) table `visits` lists the cells
    token t visits, one per window slot in ascending slot order; its
    entries are those of all these cells, in that order.  `visits` is
    column-major, so each slot's column is contiguous.  Every cell is
    visited at least once.

    The emissions read the same entries rank-major: with the cells
    renumbered by descending entry count, ties in cell order,
    `ranked_ids[ranks[r]:ranks[r + 1]]` are the attribute ids of entry r
    of cells 0, 1, 2, ... (new numbers), that is, of every cell with
    more than r entries, which by the renumbering come first.
    `ranked_vals` are their values, None when `vals` is, and
    `ranked_visits` is `visits` in the new numbers.

    Sequence i covers the tokens `offsets[i]:offsets[i + 1]`.  `order`
    lists the token indices step-major, as packed sequences do: rank the
    sequences by descending length, ties in input order; then
    `order[steps[t]:steps[t + 1]]` holds token t of every sequence
    longer than t, by rank.  The sequences alive at step t + 1 are so
    the first ones alive at step t.  `prev` is the packed row of the
    predecessor of every row after step 0, in row order, and `last` the
    last row of every sequence, ascending.
    """

    ids: np.ndarray
    vals: np.ndarray | None
    sizes: np.ndarray
    visits: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    steps: np.ndarray
    prev: np.ndarray
    last: np.ndarray
    ranked_ids: np.ndarray
    ranked_vals: np.ndarray | None
    ranks: np.ndarray
    ranked_visits: np.ndarray

    @property
    def n_tokens(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_cells(self) -> int:
        return self.sizes.size


def _flat_encoding(
    ids: np.ndarray,
    vals: np.ndarray | None,
    sizes: np.ndarray,
    visits: np.ndarray,
    seq_lengths: np.ndarray,
) -> Encoding:
    """Encoding of the given cells, visits and sequence lengths.

    Entries and sequences are laid out by one rule: entry r of every
    cell is packed as token r of every sequence is (`_packed`).
    """
    offsets = np.concatenate([[0], np.cumsum(seq_lengths)])
    _, order, steps = _packed(offsets)
    # Row k of step t > 0 continues row k - alive[t - 1] of step t - 1.
    alive = np.diff(steps)
    n_rows = int(steps[-1])
    prev = np.arange(n_rows - alive[1:].sum(), n_rows) - np.repeat(
        alive[:-1], alive[1:]
    )
    is_last = np.ones(n_rows, dtype=bool)
    is_last[prev] = False
    by_size, at, ranks = _packed(np.concatenate([[0], np.cumsum(sizes)]))
    renumber = np.empty_like(by_size)
    renumber[by_size] = np.arange(by_size.size)
    return Encoding(
        ids=ids,
        vals=vals,
        sizes=sizes,
        visits=visits,
        offsets=offsets,
        order=order,
        steps=steps,
        prev=prev,
        last=np.flatnonzero(is_last),
        ranked_ids=ids[at],
        ranked_vals=None if vals is None else vals[at],
        ranks=ranks,
        ranked_visits=renumber[visits],
    )


def _packed(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs at `offsets`, packed.

    Returns the runs ranked by descending length, ties in input order
    (the stable argsort of the negated lengths); the position of every
    item step-major, item t of every run longer than t, by rank, for
    t = 0, 1, ...; and the bounds of each step.
    Of sequences these give `Encoding.order` and `Encoding.steps`, of
    cells the renumbering and the rank-major entries and `ranks`.
    """
    lengths = np.diff(offsets)
    by_length = np.argsort(-lengths, kind="stable")
    ranked = offsets[:-1][by_length]
    # alive[t] counts the runs longer than t.
    alive = np.cumsum(np.bincount(lengths, minlength=1)[::-1])[-2::-1]
    steps = np.concatenate([[0], np.cumsum(alive)])
    order = np.empty(steps[-1], dtype=np.int64)
    bounds = steps.tolist()
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.add(ranked[: hi - lo], t, out=order[lo:hi])
    return by_length, order, steps


# --- interned window encoding ------------------------------------------------

_BOS_TYPE, _EOS_TYPE = 0, 1


class _Types(NamedTuple):
    """The token types of a batch of headlines, and its tokens.

    Type 0 is BOS and type 1 EOS, the markers outside a headline.  Row t
    of the CSR table `src`, `src[rows[t]:rows[t + 1]]`, holds type t's
    base ids: its `n_before[t]` names before `quot=1`, the rest of its
    `n_names[t]` names, then its embedding names, with their values in
    `src_vals`, which is None when there are no embedding names and every
    value is 1.0.  `src[0]` is `quot=1` itself.  `base_names` lists the
    base names by base id.  Token i has type `token_types[i]` and is
    quoted if `quoted[i]`; no token is quoted when the quotation family
    is off.
    """

    base_names: list[str]
    src: np.ndarray
    src_vals: np.ndarray | None
    rows: np.ndarray
    n_before: np.ndarray
    n_names: np.ndarray
    token_types: np.ndarray
    quoted: np.ndarray
    lengths: np.ndarray


def _intern_types(
    headlines: Sequence[Headline],
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
) -> _Types:
    """Base ids of every token type, built once per type.

    Types are numbered by first appearance after BOS and EOS, and their
    names are built in one batch (`type_attributes`).  Base
    ids 0, 1 and 2 are `quot=1`, BOS and EOS, then come the embedding
    names and the types' names, which no family can spell the same.
    """
    keys = [
        (token.text, token.pos) for headline in headlines for token in headline.tokens
    ]
    types = dict(zip(dict.fromkeys(keys), itertools.count(2)))
    attrs = type_attributes(list(types), config)
    dim = embeddings.dim if config.embedding and embeddings is not None else 0
    fixed = (QUOTATION, BOS, EOS, *embedding_names(dim))
    n_names = np.concatenate([[1, 1], np.diff(attrs.rows)])
    # Each type's row holds its names, then its embedding names; BOS's
    # and EOS's hold their own name only.  Row 0 starts after `quot=1`.
    row_lengths = n_names + dim
    row_lengths[:2] = 1
    rows = np.concatenate([[1], 1 + np.cumsum(row_lengths)])
    src = np.empty(rows[-1], dtype=np.int64)
    src_vals = np.ones(rows[-1]) if dim else None
    src[:3] = (0, 1, 2)
    src[_ranges(rows[2:-1], n_names[2:])] = attrs.ids + len(fixed)
    if config.embedding and types:
        # Raises ConfigError when the family is on but no table was given.
        values = embedding_rows([text for text, _ in types], config, embeddings)
        if dim:
            at = _ranges(rows[2:-1] + n_names[2:], np.full(len(types), dim))
            src[at] = np.tile(np.arange(3, 3 + dim), len(types))
            src_vals[at] = values.ravel()
    if config.quotation:
        flags = itertools.chain.from_iterable(map(quotation_flags, headlines))
        quoted = np.fromiter(flags, dtype=np.int8, count=len(keys))
    else:
        quoted = np.zeros(len(keys), dtype=np.int8)
    return _Types(
        base_names=[*fixed, *attrs.names],
        src=src,
        src_vals=src_vals,
        rows=rows,
        n_before=np.concatenate([[1, 1], attrs.n_before]),
        n_names=n_names,
        token_types=np.fromiter(map(types.__getitem__, keys), np.int64, len(keys)),
        quoted=quoted,
        lengths=np.fromiter(map(len, headlines), np.int64, len(headlines)),
    )


def _visit_cells(types: _Types, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell keys in order of first visit, and the (n_tokens, width)
    column-major table of the cell number every token visits per slot.

    A cell's key is (type * width + slot) * 2 + quoted.  Visits are
    numbered token-major, and each headline is padded with `radius` BOS
    and EOS types.
    """
    width = 2 * radius + 1
    lengths = types.lengths
    n_tokens = types.token_types.size
    headline_of = np.repeat(np.arange(lengths.size), lengths)
    at = np.arange(n_tokens) + radius * (2 * headline_of + 1)
    padded_type = np.full(n_tokens + 2 * radius * lengths.size, _EOS_TYPE)
    padded_quoted = np.zeros(padded_type.size, dtype=np.int64)
    padded_type[at] = types.token_types
    padded_quoted[at] = types.quoted
    first_at = np.cumsum(lengths) - lengths
    first_at += 2 * radius * np.arange(lengths.size)
    padded_type[(first_at[:, None] + np.arange(radius)).ravel()] = _BOS_TYPE
    window = (at - radius)[:, None] + np.arange(width)
    keys = padded_type[window] * width + np.arange(width)
    keys *= 2
    keys += padded_quoted[window]
    cells = _number_by_first_appearance(keys.ravel(), 2 * width * types.n_names.size)
    return cells, np.asfortranarray(keys)


def _cell_entries(
    types: _Types, cells: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where in `types.src` each entry of `cells` comes from, its (slot,
    base id) key, and every cell's number of entries.

    A cell's entries are four runs of its type's row: the names before
    `quot=1`, `quot=1` if the cell is quoted, the
    names after it, and at the centre slot the embedding names.  A key
    is slot * len(base_names) + base id.
    """
    width = 2 * radius + 1
    cell_type, cell_slot = np.divmod(cells // 2, width)
    row = types.rows[cell_type]
    n_before = types.n_before[cell_type]
    n_names = types.n_names[cell_type]
    run_start = np.stack(
        [row, np.zeros_like(row), row + n_before, row + n_names], axis=1
    )
    run_length = np.stack(
        [
            n_before,
            cells % 2,
            n_names - n_before,
            (types.rows[cell_type + 1] - row - n_names) * (cell_slot == radius),
        ],
        axis=1,
    )
    at = _ranges(run_start.ravel(), run_length.ravel())
    sizes = run_length.sum(axis=1)
    keys = types.src[at]
    keys += np.repeat(cell_slot * len(types.base_names), sizes)
    return at, keys, sizes


def _check_window(
    width: int, radius: int, error: type[ValidationError] = ValidationError
) -> None:
    """Raise `error` unless an attribute id table of `width` window
    slots fits `window_radius` `radius`, which has 2 * radius + 1."""
    if width != 2 * radius + 1:
        raise error(
            f"an attribute id table of window width {width} does not fit "
            f"window_radius {radius}, which needs width {2 * radius + 1}"
        )


def _encode_windows(
    headlines: Sequence[Headline],
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
    index: FeatureIndex | None = None,
) -> tuple[Encoding, FeatureIndex]:
    """Cell encoding of the windowed attributes of `headlines`, and its index.

    Each token visits one cell per window slot: the entries its type
    contributes there, quoted or not.  Laid out visit by visit, a
    token's entries are its windowed attributes in order, which
    `windowed_attributes` names: slot by slot from offset
    -radius, BOS or EOS outside the headline, and otherwise the
    neighbor's names before `quot=1`, `quot=1` if the family is on and
    the neighbor quoted, the names after it, and at the centre the
    embedding components.  Cells are numbered in order of first visit,
    and each is stored once.  Without `index`, every name gets an id,
    in order of first appearance, and a new index of them is returned;
    with one, names are looked up in it, those it lacks are dropped, and
    `index` itself is returned; its table must have one column per
    window slot (ValidationError).  Either way no prefixed name is built.
    The values are None unless the embedding family adds entries.

    Python work grows with the token types and the distinct names, not
    with the tokens or the entries.  Each type's base names and
    embedding values are built once, and each base name gets a base id
    (`_intern_types`).  The rest is array work: every (token, slot)
    visit is keyed by its cell (`_visit_cells`), each cell's entries are
    gathered from its type's base ids and keyed by (slot, base id)
    (`_cell_entries`).  The distinct keys become the new index's table
    of ids by base name and slot, or each distinct base name is looked
    up once in the given index's table.
    """
    radius = config.window_radius
    width = 2 * radius + 1
    types = _intern_types(headlines, config, embeddings)
    cells, visits = _visit_cells(types, radius)
    at, keys, sizes = _cell_entries(types, cells, radius)
    n_base = len(types.base_names)
    # The keys are replaced by their ids in place.
    if index is None:
        distinct = _number_by_first_appearance(keys, width * n_base)
        slot, base_id = np.divmod(distinct, n_base)
        # Bases in order of their first id; `base_id` becomes their row.
        bases = _number_by_first_appearance(base_id, n_base)
        ids = np.full((bases.size, width), -1, dtype=np.int64)
        ids[base_id, slot] = np.arange(distinct.size)
        names = map(types.base_names.__getitem__, bases.tolist())
        rows = dict(zip(names, itertools.count()))
        index = FeatureIndex(rows, ids)
    else:
        # Each base name of the batch is looked up once, and its row of
        # the model's table gives its ids at every slot.
        _check_window(index.ids.shape[1], radius)
        row = np.fromiter(
            map(index.rows.get, types.base_names, itertools.repeat(-1)),
            np.int64,
            n_base,
        )
        known = row >= 0
        by_key = np.full((width, n_base), -1, dtype=np.int64)
        by_key[:, known] = index.ids[row[known]].T
        np.take(by_key.ravel(), keys, out=keys, mode="clip")
        known = keys >= 0
        if not known.all():
            # Entries kept before each cell's end, and so in each cell.
            kept = np.concatenate([[0], np.cumsum(known)])[np.cumsum(sizes)]
            sizes = np.diff(kept, prepend=0)
            keys, at = keys[known], at[known]
    vals = None if types.src_vals is None else types.src_vals[at]
    del at
    return _flat_encoding(keys, vals, sizes, visits, types.lengths), index


def _number_by_first_appearance(
    keys: np.ndarray, space: int
) -> np.ndarray:
    """The distinct `keys` in order of first appearance; each key is
    replaced by its number in that order.  Keys lie in range(space)."""
    first = np.full(space, keys.size)
    np.minimum.at(first, keys, np.arange(keys.size))
    seen = np.flatnonzero(first < keys.size)
    distinct = seen[np.argsort(first[seen])]
    first[distinct] = np.arange(distinct.size)
    # Each key is read before its slot is written, and all are in range.
    np.take(first, keys, out=keys, mode="clip")
    return distinct


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges `starts[i] : starts[i] + lengths[i]`, concatenated."""
    kept = lengths > 0
    starts, lengths = starts[kept], lengths[kept]
    # Steps of 1 within a range, and a jump to the next range's start.
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(out, out=out)
    return out
