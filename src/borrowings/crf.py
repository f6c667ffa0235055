"""Linear-chain CRF over windowed token attributes.

Parameters are state weights W (one row per indexed attribute, one
column per tag), tag-pair transition weights T, and explicit start/end
weights S and E.  A tag sequence scores

    S[y_0] + sum_t sum_(a,v) v * W[a, y_t] + sum_t T[y_{t-1}, y_t] + E[y_{n-1}]

Training minimizes the negative conditional log-likelihood plus
c1*||w||_1 + (c2/2)*||w||_2^2 with the quasi-Newton routines in
`optim`; the L1 term is handled exactly by the orthant-wise variant.

The partition function and the marginals come from a scaled
forward-backward pass over exponentiated scores, as in CRFsuite.  Every
factor is shifted by a maximum before it is exponentiated, and forward
scores are renormalised at each position by a scale c, so nothing
overflows, and log Z is the sum of the log scales and the shifts.
Scores still underflow when weights are extreme: if the mass through
one position falls more than about 700 nats below the shifted maxima
(transition and emission gaps of several hundred on every path), a
scale becomes 0 or subnormal, and the objective raises
`DivergenceError` rather than return an inaccurate value.
Decoding stays in log space (max-plus Viterbi).

A batch of sequences (a training corpus, or the headlines being
tagged) is encoded once into flat arrays (`Encoding`), as in CRFsuite,
but factored by window cell: a cell is the list of (attribute id,
value) entries one token type contributes at one window slot, inside
a quotation or outside one.  Each distinct cell is stored once, as its
entry count and its entries, and a (token, slot) table of cell numbers
records which cells every token visits, plus the token offset of every
sequence.  The encoder lays it out once for every pass that reads it
(`_flat_encoding`), so neither training nor tagging re-derives a layout.
Training and tagging sum emissions the same way
(`_rank_major_emissions`): each cell sums its entries in entry order,
starting from 0.0, and each token its cells' scores in ascending slot
order.  The entries are visited cell-interleaved, from a rank-major
copy: entry 0 of every cell, then entry 1 of every cell that has one,
and so on, with the cells ranked by descending entry count, as the
sequences are below (`_packed` lays out both).  Each rank adds one
weight row onto each of the first cells, as one block for every label
at once, and consecutive adds never go to the same cell.  The state
gradient, which sums by attribute id, keeps the stored order: it sums
the residuals of each cell's visits first, repeats each cell's sum
over its entries, and takes one `np.bincount` per label over them.
Forward-backward and Viterbi then loop once over time steps for the
whole batch, as packed sequences do in cuDNN: step t takes token t of
every sequence longer than t, with the sequences ranked by descending
length, so each step is one contiguous block of rows that continues
the first rows of the step before, and the encoding links every row
to its predecessor's.  No sequence is padded, and each token's
marginals and best label are those of its sequence decoded alone, bit
for bit.  Sums over tokens and sequences (log Z, pair marginals) run
in packed row order, which the sequence lengths and their input order
fix.

Corpora are encoded without building any windowed attribute name per
token, and with Python work that grows with the token types and the
distinct names rather than with the entries.  The base names of all
the types of a batch are built at once, family by family
(`features.type_attributes`), and each distinct base name gets a base
id; character trigrams are keyed as integers, so only the distinct
ones are spelled out.  Everything else is array work:
every (token, window slot) visit is keyed by its cell, (type, slot,
quoted), and cells are numbered by first visit; each cell's entries are
gathered from its type's base ids and keyed by (slot, base id).  No
key becomes a prefixed name.  Training numbers the distinct keys by
first appearance, so ids are exactly those of numbering the windowed
names one by one as the tokens list them, and the index holds them as
a table of ids by base name and slot (`features.FeatureIndex`); tagging
looks each distinct base name of a batch up once in the model's table
and drops the entries it has no id for.  Without embeddings every
entry's value is 1.0, and none is kept or multiplied.

A trained model keeps only the attributes with a nonzero state weight,
as CRFsuite's models do: with an L1 penalty most end at exactly zero,
and an attribute without a weight adds nothing to any score.  Its ids
are renumbered in their order, so decoding is unchanged bit for bit.

A model is saved as versioned UTF-8 text (`save_model`, format 3), with
the model's attribute dictionary and weights in the form the tagger
reads, as CRFsuite reads its own as stored.  After the header,
configuration, start, end and transition lines come the distinct base
names, one per line in order of their first id; then the (base names,
window slots) table of attribute ids, -1 where a base has none, and the
dense (attributes, labels) state weight matrix, each as one line of
base64 over its little-endian int64 or float64 bytes, with every zero
weight written as +0.0.  `load_model` hashes only the base names,
decodes each block with one `base64` call and one `np.frombuffer`, and
checks whole arrays: the block sizes, the ids (a permutation of the
attributes) and the weights (finite).  It also reads format 1, which
lists the windowed names one per line in id order and writes one
`name<TAB>tag<TAB>weight` line per nonzero state weight; it derives the
table from those names, and rejects a name that is not `[k]base` within
the model's window.  These text sections are read line by line, with
one loop per section, and a fault is reported for the first faulty
line in file order; only the checks that need a whole section (a
repeated name, the declared line count, non-finite weights, a repeated
weight line) wait for it.  Any other version, 2 among them, raises
`ModelVersionError`.  Loading keeps every attribute a file lists,
weighted or not, so every valid file reads and saves back as it is, a
version-3 file byte for byte.
"""

from __future__ import annotations

import base64
import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from . import optim
from .corpus import (
    Corpus,
    Headline,
    TagAlphabet,
    alphabet_for,
    spans_to_bio,
    with_tags,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, ValidationError
from .features import (
    BOS,
    EOS,
    QUOTATION,
    FeatureConfig,
    FeatureIndex,
    embedding_names,
    embedding_rows,
    quotation_flags,
    type_attributes,
    window_table,
)

DivergenceError = optim.DivergenceError

# Headlines encoded at once by `tag`: enough that each packed time step
# spans many headlines, while the encoding stays a few MB however large
# the corpus is.  On open-vocabulary news feeds (the benchmark's
# `tag-feeds` inputs) a 512-headline chunk has about 4,600 tokens, 1,400
# token types and 6,000 cells.  Encoding it builds every entry before
# the names the model lacks are dropped: about 85,000 entries, 18 per
# token, with three or four 8-byte values each alive at once (gather
# index, key and scratch values), plus a 1-byte mask; its 4,100
# distinct base names are looked up once each in the model's table, for
# 18,000 distinct (slot, base name) keys.  That is about 4 MB at the
# peak, freed once the chunk is encoded.  What is kept is 5 visits per
# token and the entries of the model's attributes: about 5 per token
# with the L1-sparse `tag-feeds` model, up to all 18 with a dense one.
# A kept entry takes 16 bytes, its id in cell order and again in the
# rank-major order the emissions read (`Encoding.ranked_ids`), and 16
# more for its value twice when there are embedding entries.  A visit
# takes 16 (its cell in both numberings), a cell 8 (its entry count)
# and, in decoding, 16 per label (its scores and one gathered row):
# about 1 MB kept per chunk with the sparse model, 2 MB with a dense
# one, and about 1 MB more while it is decoded.
_TAG_CHUNK = 512

_FORMAT_MAGIC = "borrowings-crf"
_FORMAT_VERSION = 3


class ModelFormatError(ValidationError):
    """The model file is not in the expected format."""


class ModelVersionError(ModelFormatError):
    """The model file header announces an unsupported format version."""


class ModelTruncatedError(ModelFormatError):
    """The model file ends before all declared sections are present."""


class ModelDimensionError(ModelFormatError):
    """A section's size disagrees with the declared dimensions."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for one training run."""

    c1: float = 0.0
    c2: float = 0.0
    delta: float = 1e-3
    period: int = 10
    max_iterations: int = 1000
    lbfgs_memory: int = 6

    def __post_init__(self) -> None:
        if not (0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf):
            raise ConfigError("c1 and c2 must be finite and >= 0")
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta must be finite and > 0")
        if self.period < 1:
            raise ConfigError("period must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.lbfgs_memory < 1:
            raise ConfigError("lbfgs_memory must be >= 1")


@dataclass(eq=False)
class CrfModel:
    """Trained weights plus everything needed to reapply them.

    A model `train` returns keeps the optimizer's result as
    `diagnostics`, and `transition`, `start` and `end` are views of
    `diagnostics.x`.  Its index holds only the attributes with a nonzero
    state weight, so `state` is a view of `diagnostics.x` only when no
    attribute was dropped, and otherwise a copy of the kept rows.  A
    loaded model has `diagnostics=None`, and holds every attribute its
    file lists.
    """

    alphabet: TagAlphabet
    index: FeatureIndex
    state: np.ndarray  # (K, L)
    transition: np.ndarray  # (L, L)
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)
    feature_config: FeatureConfig
    train_config: TrainConfig
    diagnostics: optim.OptimResult | None = None

    @property
    def n_labels(self) -> int:
        return len(self.alphabet)

    @property
    def n_features(self) -> int:
        return len(self.index)


# --- parameter vector layout -------------------------------------------------

def _unpack(
    weights: np.ndarray, n_features: int, n_labels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    k, l = n_features, n_labels
    state = weights[: k * l].reshape(k, l)
    transition = weights[k * l : k * l + l * l].reshape(l, l)
    start = weights[k * l + l * l : k * l + l * l + l]
    end = weights[k * l + l * l + l :]
    return state, transition, start, end


def n_parameters(n_features: int, n_labels: int) -> int:
    return n_features * n_labels + n_labels * n_labels + 2 * n_labels


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

    Returns the runs ranked by descending length, ties in input order;
    the position of every item step-major, item t of every run longer
    than t, by rank, for t = 0, 1, ...; and the bounds of each step.
    Of sequences these give `Encoding.order` and `Encoding.steps`, of
    cells the renumbering and the rank-major entries and `ranks`.
    """
    lengths = np.diff(offsets)
    by_length = _descending(lengths)
    ranked = offsets[:-1][by_length]
    # alive[t] counts the runs longer than t.
    alive = np.cumsum(np.bincount(lengths, minlength=1)[::-1])[-2::-1]
    steps = np.concatenate([[0], np.cumsum(alive)])
    order = np.empty(steps[-1], dtype=np.int64)
    bounds = steps.tolist()
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.add(ranked[: hi - lo], t, out=order[lo:hi])
    return by_length, order, steps


def _descending(counts: np.ndarray) -> np.ndarray:
    """The stable `np.argsort(-counts)` of nonnegative `counts`.

    It sorts `counts.max() - counts` in the narrowest unsigned dtype
    that holds it: numpy radix-sorts 8- and 16-bit keys stably, about
    four times faster than it sorts int64 ones.
    """
    top = int(counts.max(initial=0))
    return np.argsort((top - counts).astype(np.min_scalar_type(top)), kind="stable")


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
    quoted if `quoted[i]`.
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
    names are built in one batch (`features.type_attributes`).  Base
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
    return _Types(
        base_names=[*fixed, *attrs.names],
        src=src,
        src_vals=src_vals,
        rows=rows,
        n_before=np.concatenate([[1, 1], attrs.n_before]),
        n_names=n_names,
        token_types=np.fromiter(map(types.__getitem__, keys), np.int64, len(keys)),
        quoted=np.fromiter(
            itertools.chain.from_iterable(map(quotation_flags, headlines)),
            dtype=np.int8,
            count=len(keys),
        ),
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
    types: _Types, cells: np.ndarray, radius: int, quotation: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where in `types.src` each entry of `cells` comes from, its (slot,
    base id) key, and every cell's number of entries.

    A cell's entries are four runs of its type's row: the names before
    `quot=1`, `quot=1` if the cell is quoted and the family on, the
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
            cells % 2 if quotation else np.zeros_like(cells),
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
    `features.windowed_attributes` names: slot by slot from offset
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

    Cells are keyed by `quotation_flags` whether or not the quotation
    family is on; without it a type's quoted and unquoted cells hold
    the same entries.  Merging them would change the order in which
    emissions and gradients are summed, and so the bytes of models
    trained without the family, at rounding level; keeping the key
    keeps those bytes stable.
    """
    radius = config.window_radius
    width = 2 * radius + 1
    types = _intern_types(headlines, config, embeddings)
    cells, visits = _visit_cells(types, radius)
    at, keys, sizes = _cell_entries(types, cells, radius, config.quotation)
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


def _rank_major_emissions(enc: Encoding, state: np.ndarray) -> np.ndarray:
    """(n_tokens, L) emission scores, for training and tagging alike.

    Each cell's entries are summed in entry order, starting from 0.0,
    then each token's cell scores in ascending slot order.  The entries
    are visited cell-interleaved, rank-major (`Encoding.ranked_ids`):
    entry 0 of every cell, then entry 1 of every cell that has one, and
    so on.  Rank r's entries belong to the first cells, one each, so
    their weight rows are gathered as one block and added onto those
    cells' rows, for every label at once: consecutive adds go to
    different cells, and no entry-sized array is needed.
    """
    per_cell = np.zeros((enc.n_cells, state.shape[1]))
    rows = np.empty_like(per_cell)
    ranks = enc.ranks.tolist()
    for lo, hi in zip(ranks, ranks[1:]):
        block = rows[: hi - lo]
        # Ids are in range; mode="raise" would make take() allocate.
        np.take(state, enc.ranked_ids[lo:hi], axis=0, out=block, mode="clip")
        if enc.ranked_vals is not None:
            block *= enc.ranked_vals[lo:hi, None]
        per_cell[: hi - lo] += block
    visits = enc.ranked_visits
    e = np.take(per_cell, visits[:, 0], axis=0)
    slot = np.empty_like(e)
    for k in range(1, visits.shape[1]):
        np.take(per_cell, visits[:, k], axis=0, out=slot)
        e += slot
    return e


def _scatter_state(
    enc: Encoding, residual: np.ndarray, g_state: np.ndarray
) -> None:
    """g_state[a, l] += sum of v * residual[t, l] over token t's entries (a, v).

    The residuals of each cell's visits are summed first, slot by slot
    and tokens ascending within a slot; then every cell's entries are
    scattered by id, in entry order, and each sum is added to g_state.
    """
    n_cells = enc.n_cells
    n_tokens, width = enc.visits.shape
    # Slot-major visits, and one label's residuals repeated to match
    # them.
    flat = enc.visits.ravel(order="F")
    repeated = np.empty(width * n_tokens)
    per_cell = np.empty((residual.shape[1], n_cells))
    for label in range(residual.shape[1]):
        np.copyto(repeated.reshape(width, n_tokens), residual[:, label])
        per_cell[label] = np.bincount(flat, weights=repeated, minlength=n_cells)
    for label in range(g_state.shape[1]):
        scaled = np.repeat(per_cell[label], enc.sizes)
        if enc.vals is not None:
            scaled *= enc.vals
        g_state[:, label] += np.bincount(
            enc.ids, weights=scaled, minlength=g_state.shape[0]
        )
        # Freed before the next label's is built: one is alive at a time.
        del scaled


def _path_counts(
    paths: np.ndarray, offsets: np.ndarray, n_labels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition, start and end counts of flat per-token tag paths."""
    first = offsets[:-1]
    inner = np.ones(len(paths), dtype=bool)
    inner[first] = False
    t = np.flatnonzero(inner)
    transition = np.bincount(
        paths[t - 1] * n_labels + paths[t], minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)
    start = np.bincount(paths[first], minlength=n_labels)
    end = np.bincount(paths[offsets[1:] - 1], minlength=n_labels)
    return transition.astype(float), start.astype(float), end.astype(float)


def _path_score(
    e: np.ndarray,
    paths: np.ndarray,
    counts: tuple[np.ndarray, np.ndarray, np.ndarray],
    transition: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> float:
    """Summed scores of the paths whose `_path_counts` are `counts`."""
    n_transition, n_start, n_end = counts
    score = np.take_along_axis(e, paths[:, None], axis=1).sum()
    score += np.sum(n_transition * transition)
    score += np.dot(n_start, start) + np.dot(n_end, end)
    return float(score)


# --- inference over packed time steps ---------------------------------------
#
# Forward-backward is scaled and runs in exp space (CRFsuite; Rabiner
# 1989, section V.A); see the module docstring.  Both it and Viterbi
# take the emissions gathered once into packed rows, `e[enc.order]`, and
# loop once over the time steps.  Step t's rows are one contiguous slice,
# and its sequences continue the first rows of step t - 1, so every step
# is a product of two slices; each sequence's last row is read once
# after the loop.  Every product is an `einsum` without `optimize`, which
# sums in a fixed order and never calls BLAS.

_TINY = np.finfo(float).tiny


def _exp_shifted(a: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(a - max(a)) and max(a)."""
    shift = float(a.max())
    return np.exp(a - shift), shift


def _scaled_forward(
    f: np.ndarray,
    bounds: list[int],
    last: np.ndarray,
    transition: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward pass over exponentiated packed factors.

    Returns alpha (n_rows, L), whose rows sum to 1, the scales c
    (n_rows, 1) and the scaled end sums of the sequences ending at the
    rows `last`.  Raises DivergenceError when a scale or an end sum is
    not a positive normal number: dividing by it would overflow or lose
    precision.
    """
    alpha = np.empty_like(f)
    c = np.empty((f.shape[0], 1))
    # A scale of 0 makes every later step 0/0; the check below reports it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if t:
                before = bounds[t - 1]
                block = alpha[before : before + hi - lo]
                np.einsum("bi,ij->bj", block, transition, out=alpha[lo:hi])
                alpha[lo:hi] *= f[lo:hi]
            else:
                np.multiply(f[lo:hi], start, out=alpha[lo:hi])
            np.add.reduce(alpha[lo:hi], axis=1, keepdims=True, out=c[lo:hi])
            alpha[lo:hi] /= c[lo:hi]
        z = np.einsum("bj,j->b", alpha[last], end)
    if not (np.all(c >= _TINY) and np.all(z >= _TINY)):
        raise DivergenceError(
            "forward-backward scale underflowed: weights too extreme"
        )
    return alpha, c, z


def _forward_backward(
    e: np.ndarray,
    enc: Encoding,
    transition: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed log Z, unary marginals (n_tokens, L) and summed pair marginals.

    `e` holds the log-space emissions of every token of `enc`.
    """
    bounds, prev, last = enc.steps.tolist(), enc.prev, enc.last
    shift = e.max(axis=1, keepdims=True)
    t_exp, t_shift = _exp_shifted(transition)
    s_exp, s_shift = _exp_shifted(start)
    e_exp, e_shift = _exp_shifted(end)
    f = np.exp(e - shift)[enc.order]
    alpha, c, z = _scaled_forward(f, bounds, last, t_exp, s_exp, e_exp)
    n_seq = last.size
    log_z = float(shift.sum()) + float(np.log(c).sum() + np.log(z).sum())
    log_z += n_seq * (s_shift + e_shift) + prev.size * t_shift
    # From here on f holds the emission factors over c, times beta once
    # that is known: the right half of every pair term.
    f /= c
    beta = np.empty_like(f)
    beta[last] = e_exp / z[:, None]
    for t in range(len(bounds) - 2, 0, -1):
        lo, hi, before = bounds[t], bounds[t + 1], bounds[t - 1]
        f[lo:hi] *= beta[lo:hi]
        block = beta[before : before + hi - lo]
        np.einsum("ij,bj->bi", t_exp, f[lo:hi], out=block)
    # Step 0 holds the first n_seq rows; each later row pairs with its
    # predecessor in `prev`.
    pair = np.einsum("ni,nj->ij", alpha[prev], f[n_seq:])
    pair *= t_exp
    alpha *= beta
    marginal = np.empty_like(e)
    marginal[enc.order] = alpha
    return log_z, marginal, pair


def _viterbi_ids(
    e: np.ndarray,
    enc: Encoding,
    transition: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Best tag id of every packed row of `enc`, given packed emissions."""
    n_rows, n_labels = e.shape
    bounds, last = enc.steps.tolist(), enc.last
    into = transition.T.copy()
    # Flat index of scores[r, j, 0] below, for every row r and label j.
    score_rows = np.arange(last.size * n_labels).reshape(-1, n_labels) * n_labels
    delta = np.empty_like(e)
    backpointers = np.empty((n_rows, n_labels), dtype=np.int64)
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if not t:
            np.add(start, e[lo:hi], out=delta[lo:hi])
            continue
        before = bounds[t - 1]
        # scores[r, j, i]: the best path into label i at step t - 1,
        # then label j.  argmax returns the first (lowest-index)
        # maximizer, which is exactly the documented tie-break.
        scores = delta[before : before + hi - lo, None, :] + into
        best = scores.argmax(axis=2)
        backpointers[lo:hi] = best
        best += score_rows[: hi - lo]
        np.add(scores.ravel()[best], e[lo:hi], out=delta[lo:hi])
    path = np.empty(n_rows, dtype=np.int64)
    path[last] = np.argmax(delta[last] + end, axis=1)
    flat = backpointers.ravel()
    row_starts = np.arange(0, n_rows * n_labels, n_labels)
    for t in range(len(bounds) - 2, 0, -1):
        lo, hi, before = bounds[t], bounds[t + 1], bounds[t - 1]
        path[before : before + hi - lo] = flat[row_starts[lo:hi] + path[lo:hi]]
    return path


# --- model-level operations --------------------------------------------------

def _decode(model: CrfModel, enc: Encoding) -> np.ndarray:
    """Best tag id of every token."""
    e = _rank_major_emissions(enc, model.state)
    paths = np.empty(enc.n_tokens, dtype=np.int64)
    paths[enc.order] = _viterbi_ids(
        e[enc.order], enc, model.transition, model.start, model.end
    )
    return paths


# --- training objective ------------------------------------------------------

class TrainingSet:
    """Flat-encoded corpus with gold tags and the parameter layout.

    Every evaluation of the objective reads the encoding as the encoder
    laid it out, plus the gold path counts and the token numbers that
    index the gold tags, built once here.  Without embeddings the
    encoder keeps no values (`Encoding.vals` is None), and none is
    multiplied.
    """

    def __init__(
        self,
        encoding: Encoding,
        gold: np.ndarray,
        n_features: int,
        n_labels: int,
    ) -> None:
        if len(encoding.offsets) < 2:
            raise ValidationError("training set must contain at least one instance")
        if gold.shape != (encoding.n_tokens,):
            raise ValidationError(
                f"expected {encoding.n_tokens} gold tags, got {gold.shape}"
            )
        self.encoding = encoding
        self.gold = gold
        self.n_features = n_features
        self.n_labels = n_labels
        self.empirical = _path_counts(gold, encoding.offsets, n_labels)
        self._tokens = np.arange(encoding.n_tokens)

    @property
    def n_parameters(self) -> int:
        return n_parameters(self.n_features, self.n_labels)

    def nll_and_gradient(
        self, weights: np.ndarray, c2: float, out: np.ndarray | None = None
    ) -> tuple[float, np.ndarray]:
        """Negative log-likelihood plus (c2/2)||w||^2, with its gradient.

        The gradient is expected feature counts under the model minus
        empirical counts, plus c2*w.  Forward-backward runs once over
        the packed time steps of the whole set (`Encoding`), and every
        sum runs in an order the encoding fixes, so results are
        bit-reproducible.  The gradient is written to `out` and `out`
        returned, when it is given (a float64 array of the weights'
        shape, not overlapping them); otherwise to a new array.  Raises
        DivergenceError when the result is not finite or the scaled
        forward-backward pass underflows (see the module docstring); `out`
        may then hold part of a gradient.
        """
        if weights.shape != (self.n_parameters,):
            raise ValidationError(
                f"expected {self.n_parameters} weights, got {weights.shape}"
            )
        if out is None:
            grad = np.empty_like(weights)
        elif out.shape != weights.shape or out.dtype != np.float64:
            raise ValidationError(
                f"expected a float64 gradient buffer of shape {weights.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        elif np.may_share_memory(out, weights):
            raise ValidationError("the gradient buffer overlaps the weights")
        else:
            grad = out
        enc = self.encoding
        state, transition, start, end = _unpack(
            weights, self.n_features, self.n_labels
        )
        e = _rank_major_emissions(enc, state)
        # Unary marginals, turned into residuals once the gold one-hot
        # is subtracted below.
        log_z, marginal, pair = _forward_backward(e, enc, transition, start, end)
        n_transition, n_start, n_end = self.empirical
        value = float(
            log_z
            - _path_score(e, self.gold, self.empirical, transition, start, end)
        )
        # Each part is added onto c2*w, already in `grad`: addition
        # commutes exactly, so the bits are those of part + c2*w, and no
        # parameter-sized temporary is needed.  With c2 = 0 the seed is
        # -0.0, the exact additive identity (x + -0.0 is x, signed zeros
        # and NaN included), so the bits are those of the parts alone.
        if c2 > 0:
            value += 0.5 * c2 * optim.dot(weights, weights)
            np.multiply(weights, c2, out=grad)
        else:
            grad.fill(-0.0)
        g_state, g_transition, g_start, g_end = _unpack(
            grad, self.n_features, self.n_labels
        )
        marginal_start = marginal[enc.offsets[:-1]].sum(axis=0)
        marginal_end = marginal[enc.offsets[1:] - 1].sum(axis=0)
        for part, values in (
            (g_transition, pair - n_transition),
            (g_start, marginal_start - n_start),
            (g_end, marginal_end - n_end),
        ):
            part += values
        marginal[self._tokens, self.gold] -= 1.0
        _scatter_state(enc, marginal, g_state)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise DivergenceError("objective diverged to a non-finite value")
        return value, grad


def encode_training_set(
    corpus: Corpus,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
    ignore_other: bool = False,
) -> tuple[TrainingSet, FeatureIndex, TagAlphabet]:
    """Extract, index, and encode a corpus for training.

    With ignore_other the OTHER spans are dropped from the gold tags and
    the three-tag alphabet is used.
    """
    alphabet = alphabet_for(ignore_other)
    enc, index = _encode_windows(corpus.headlines, config, embeddings)
    dataset = TrainingSet(
        enc, _gold(corpus, alphabet, ignore_other), len(index), len(alphabet)
    )
    return dataset, index, alphabet


def _gold(corpus: Corpus, alphabet: TagAlphabet, ignore_other: bool) -> np.ndarray:
    """Flat gold tag ids of the corpus, without OTHER spans if asked."""
    gold: list[int] = []
    for headline in corpus:
        spans = headline.spans
        if ignore_other:
            spans = tuple(s for s in spans if s.label == "ENG")
        gold.extend(alphabet.index(t) for t in spans_to_bio(spans, len(headline)))
    return np.array(gold, dtype=np.int64)


def train(
    corpus: Corpus,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
    train_config: TrainConfig,
    ignore_other: bool = False,
    progress: Callable[[int, float], None] | None = None,
) -> CrfModel:
    """Fit a CRF to the corpus by regularized maximum likelihood.

    Optimization starts from all-zero weights and is deterministic for
    identical inputs.  `progress` receives (iteration, objective) after
    every accepted optimizer step.  The model keeps only the attributes
    with a nonzero state weight; with c1 > 0 most end at exactly zero.
    """
    dataset, index, alphabet = encode_training_set(
        corpus, config, embeddings, ignore_other
    )
    # One gradient buffer for every evaluation: `minimize` copies what
    # it keeps.  It copies the start point too, so a read-only zero view
    # stands for it, and no parameter-sized array of zeros stays alive
    # through the fit.
    gradient = np.empty(dataset.n_parameters)
    result = optim.minimize(
        lambda w: dataset.nll_and_gradient(w, train_config.c2, out=gradient),
        np.broadcast_to(0.0, dataset.n_parameters),
        l1=train_config.c1,
        memory=train_config.lbfgs_memory,
        max_iterations=train_config.max_iterations,
        delta=train_config.delta,
        period=train_config.period,
        callback=progress,
    )
    state, transition, start, end = _unpack(
        result.x, dataset.n_features, dataset.n_labels
    )
    index, state = _active(index, state)
    return CrfModel(
        alphabet=alphabet,
        index=index,
        state=state,
        transition=transition,
        start=start,
        end=end,
        feature_config=config,
        train_config=train_config,
        diagnostics=result,
    )


def _active(
    index: FeatureIndex, state: np.ndarray
) -> tuple[FeatureIndex, np.ndarray]:
    """The index and state rows of the attributes with a nonzero state
    weight, renumbered in their id order; `index` and `state` themselves
    when every attribute has one.

    A dropped attribute adds only ±0.0 to an emission sum, so the kept
    ones decode exactly as all of them do.  Bases are numbered in order
    of their first kept id, and a base with none is dropped
    (`FeatureIndex.in_first_id_order`), so the table is the one
    `load_model(save_model(...))` gives.
    """
    active = np.any(state != 0, axis=1)
    if active.all():
        return index, state
    # New id by old id; the last entry maps the table's -1 to -1.
    new_id = np.full(active.size + 1, -1, dtype=np.int64)
    new_id[np.flatnonzero(active)] = np.arange(np.count_nonzero(active))
    kept = FeatureIndex(index.rows, new_id[index.ids]).in_first_id_order()
    return kept, state[active]


def tag(
    model: CrfModel,
    corpus: Corpus,
    embeddings: EmbeddingTable | None = None,
) -> Corpus:
    """Corpus with each headline's spans replaced by model predictions.

    The input corpus is immutable and untouched; gold annotations live
    only there.  An embedding table must be supplied when the model's
    feature configuration uses the embedding family.
    """
    if model.feature_config.embedding and embeddings is None:
        raise ConfigError(
            "model uses the embedding family; an embedding table is required"
        )
    tagged: list[Headline] = []
    for first in range(0, len(corpus), _TAG_CHUNK):
        chunk = corpus.headlines[first : first + _TAG_CHUNK]
        enc, _ = _encode_windows(
            chunk, model.feature_config, embeddings, model.index
        )
        tags = [model.alphabet.tags[i] for i in _decode(model, enc).tolist()]
        tagged += with_tags(chunk, tags, enc.offsets.tolist())
    return Corpus(corpus.name, tuple(tagged))


# --- persistence ---------------------------------------------------------

def _format_float(x: float) -> str:
    return repr(float(x))


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValidationError(f"expected true or false, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"expected a number, got {raw!r}") from None


# Parsers of `key=value` settings, in config files and in the model
# file's config lines, by the declared type of the dataclass field.
TYPE_PARSERS = {"bool": _parse_bool, "int": _parse_int, "float": _parse_float}


def field_parsers(cls: type) -> dict[str, Callable[[str], object]]:
    """Value parser of every field of a settings dataclass, by its type."""
    return {f.name: TYPE_PARSERS[f.type] for f in dataclasses.fields(cls)}


def _config_echo(config: object) -> str:
    parts = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            parts.append(f"{f.name}={'true' if value else 'false'}")
        elif isinstance(value, float):
            parts.append(f"{f.name}={_format_float(value)}")
        else:
            parts.append(f"{f.name}={value}")
    return "\t".join(parts)


def _block(values: np.ndarray, dtype: type) -> str:
    """`values` as one line of base64, stored as little-endian `dtype`."""
    stored = np.dtype(dtype).newbyteorder("<")
    return base64.b64encode(values.astype(stored, copy=False).tobytes()).decode("ascii")


def save_model(model: CrfModel, stream: IO[str]) -> None:
    """Write the model losslessly as versioned UTF-8 text (format 3).

    Raises ValidationError if the index's window is not the model's,
    which the format cannot hold.
    """
    _check_window(model.index.ids.shape[1], model.feature_config.window_radius)
    index = model.index.in_first_id_order()
    lines = [
        f"{_FORMAT_MAGIC} {_FORMAT_VERSION}",
        "labels\t" + "\t".join(model.alphabet.tags),
        f"attributes\t{model.n_features}",
        "feature_config\t" + _config_echo(model.feature_config),
        "train_config\t" + _config_echo(model.train_config),
        "start\t" + "\t".join(_format_float(x) for x in model.start),
        "end\t" + "\t".join(_format_float(x) for x in model.end),
        "transitions",
        *("\t".join(_format_float(x) for x in row) for row in model.transition),
        f"base_names\t{len(index.rows)}",
        *index.rows,
        "attribute_ids",
        _block(index.ids, np.int64),
        "state_weights",
        # Adding +0.0 turns -0.0 into +0.0 and keeps every other bit.
        _block(model.state + 0.0, np.float64),
        "end_of_model",
    ]
    stream.write("\n".join(lines) + "\n")


class _Reader:
    """Sequential line reader that reports truncation with context."""

    def __init__(self, stream: IO[str]) -> None:
        self.lines = stream.read().split("\n")
        self.pos = 0
        # A trailing newline yields one final empty chunk, not a line.
        self.end = len(self.lines) - (self.lines[-1] == "")

    def next_lines(self, count: int, context: str) -> list[str]:
        end = self.pos + count
        if end > self.end:
            raise ModelTruncatedError(f"model file ends inside {context}")
        block = self.lines[self.pos : end]
        self.pos = end
        return block

    def peek_lines(self, count: int) -> list[str]:
        """Up to `count` next lines, left unread."""
        return self.lines[self.pos : min(self.pos + count, self.end)]

    def next_line(self, context: str) -> str:
        return self.next_lines(1, context)[0]


def _parse_floats(
    line: str, expect: int, context: str, prefix: str | None = None
) -> np.ndarray:
    parts = line.split("\t")
    if prefix is not None:
        if parts[0] != prefix:
            raise ModelFormatError(f"expected {prefix} line, got {line!r}")
        parts = parts[1:]
    if len(parts) != expect:
        raise ModelDimensionError(
            f"{context}: expected {expect} values, got {len(parts)}"
        )
    try:
        values = np.array([float(v) for v in parts], dtype=float)
    except ValueError:
        raise ModelFormatError(f"{context}: non-numeric weight") from None
    if not np.isfinite(values).all():
        raise ModelFormatError(f"{context}: non-finite weight")
    return values


def _parse_config_echo(line: str, prefix: str, cls: type) -> object:
    parts = line.split("\t")
    if not parts or parts[0] != prefix:
        raise ModelFormatError(f"expected {prefix} line, got {line!r}")
    parsers = field_parsers(cls)
    kwargs: dict[str, object] = {}
    for part in parts[1:]:
        name, _, raw = part.partition("=")
        if name not in parsers:
            raise ModelFormatError(f"unknown {prefix} field {name!r}")
        try:
            kwargs[name] = parsers[name](raw)
        except ValidationError as exc:
            raise ModelFormatError(f"bad {prefix} field {name!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ConfigError) as exc:
        raise ModelFormatError(f"bad {prefix}: {exc}") from None


def _read_names(
    reader: _Reader, n_features: int, radius: int
) -> tuple[FeatureIndex, dict[str, int]]:
    """The index of a version-1 file, and its ids by name: one windowed
    name per line, in id order, from which the (base name, slot) table
    is derived.  A repeated name is reported before a name that is not
    `[k]base` within the window, and of those the first in id order."""
    if reader.next_line("attribute names") != "attribute_names":
        raise ModelFormatError("missing attribute_names section")
    names = reader.next_lines(n_features, "attribute names")
    by_name = dict(zip(names, itertools.count()))
    if len(by_name) != n_features:
        raise ModelFormatError("duplicate attribute names")
    index = window_table(names, radius)
    if len(index) < n_features:
        # The first name the table leaves out.
        name = names[np.setdiff1d(np.arange(n_features), index.ids)[0]]
        raise ModelFormatError(
            f"attribute name {name!r} is not [k]base with |k| <= {radius}"
        )
    return index, by_name


def _read_block(reader: _Reader, context: str, dtype: type) -> np.ndarray:
    """The values of the next line, a version-3 base64 block of
    little-endian `dtype`, as a new array of `dtype`.  A line that is
    not base64 in whole 4-character groups raises ModelFormatError, and
    one whose bytes do not make whole values ModelDimensionError."""
    line = reader.next_line(context)
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError:
        raw = None
    # Whole 4-character groups only: the decoder ignores padding that
    # follows one.
    if raw is None or len(line) % 4:
        raise ModelFormatError(f"{context}: not a base64 block")
    stored = np.dtype(dtype).newbyteorder("<")
    if len(raw) % stored.itemsize:
        raise ModelDimensionError(
            f"{context}: {len(raw)} bytes are not whole {stored.itemsize}-byte values"
        )
    return np.frombuffer(raw, dtype=stored).astype(dtype)


def _read_table(reader: _Reader, n_features: int, radius: int) -> FeatureIndex:
    """The index of a version-3 file: the base names, one per line, then
    each one's row of ids at the 2 * radius + 1 window slots, -1 where
    it has none, the whole table as one base64 block of little-endian
    int64.

    Faults are reported for the first one in file order: more attributes
    than the table has cells (ModelDimensionError), a repeated base name,
    then a block that is not base64 or without its size
    (ModelDimensionError), or an id out of range or repeating one before
    it; then ids missing from range(n_features).
    """
    width = 2 * radius + 1
    count = reader.next_line("base name count").split("\t")
    if count[0] != "base_names" or len(count) != 2:
        raise ModelFormatError("missing base_names section")
    n_bases = _parse_count(count[1], "base name count")
    if n_features > n_bases * width:
        raise ModelDimensionError(
            f"{n_features} attributes do not fit {n_bases} base names at "
            f"{width} window slots"
        )
    bases = reader.next_lines(n_bases, "base names")
    rows = dict(zip(bases, itertools.count()))
    if len(rows) != n_bases:
        repeated = next(base for i, base in enumerate(bases) if rows[base] != i)
        raise ModelFormatError(f"repeated base name {repeated!r}")
    if reader.next_line("attribute ids") != "attribute_ids":
        raise ModelFormatError("missing attribute_ids section")
    not_permutation = f"attribute ids are not a permutation of range({n_features})"
    ids = _read_block(reader, "attribute ids", np.int64)
    # The block holds one row per base name, as wide as the window.
    found = ids.size // n_bases if n_bases else width
    if found * n_bases != ids.size:
        raise ModelDimensionError(
            f"attribute ids: {ids.size} ids are not {n_bases} rows"
        )
    _check_window(found, radius, ModelDimensionError)
    # Each id at most once: faulty where out of range, or where it
    # repeats an id before it.
    faulty = (ids < -1) | (ids >= n_features)
    at = np.flatnonzero(~faulty & (ids >= 0))
    if np.bincount(ids[at], minlength=n_features).max(initial=0) > 1:
        first = np.full(n_features, ids.size)
        np.minimum.at(first, ids[at], at)
        faulty[at] = first[ids[at]] != at
    if faulty.any():
        bad = int(np.argmax(faulty))
        raise ModelFormatError(f"{not_permutation}: {ids[bad]} in row {bad // width}")
    if np.count_nonzero(ids >= 0) != n_features:
        raise ModelFormatError(f"{not_permutation}: ids are missing")
    return FeatureIndex(rows, ids.reshape(n_bases, width))


def _parse_count(raw: str, context: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        raise ModelFormatError(f"{context} is not an integer") from None
    if count < 0:
        raise ModelDimensionError(f"{context} must be >= 0")
    return count


def _read_weight_lines(
    reader: _Reader,
    alphabet: TagAlphabet,
    n_features: int,
    by_name: dict[str, int],
) -> np.ndarray:
    """The state weights of a version-1 file, and its trailer: a count,
    then one `name<TAB>tag<TAB>weight` line per nonzero weight, keyed by
    attribute name through `by_name`."""
    n_labels = len(alphabet)
    sw_parts = reader.next_line("state weight count").split("\t")
    if sw_parts[0] != "state_weights" or len(sw_parts) != 2:
        raise ModelFormatError("missing state_weights section")
    declared = _parse_count(sw_parts[1], "state weight count")
    if declared > n_features * n_labels:
        raise ModelDimensionError(
            f"declared {declared} state weights for a "
            f"{n_features}x{n_labels} weight matrix"
        )
    # Lines are checked before the count is, so a bad line or an early
    # end_of_model is reported ahead of a truncated file: the first line
    # with a fault in file order, checked for its fields, key, tag and
    # weight in that order, then all weights for finiteness.
    tag_ids = {tag_name: i for i, tag_name in enumerate(alphabet.tags)}
    present = reader.peek_lines(declared)
    than_declared = f"state weight lines than the declared {declared}"
    cells: list[int] = []
    weights: list[float] = []
    for line in present:
        fields = line.split("\t")
        if len(fields) != 3:
            if line == "end_of_model":
                raise ModelDimensionError(f"fewer {than_declared}")
            raise ModelFormatError("state weight line needs name, tag, weight")
        name, tag_name, weight = fields
        row = by_name.get(name)
        if row is None:
            raise ModelDimensionError(f"state weight for unknown attribute {name!r}")
        col = tag_ids.get(tag_name)
        if col is None:
            raise ModelDimensionError(f"state weight for unknown tag {tag_name!r}")
        try:
            weights.append(float(weight))
        except ValueError:
            raise ModelFormatError("non-numeric state weight") from None
        cells.append(row * n_labels + col)
    finite = np.isfinite(weights)
    if not finite.all():
        raise ModelFormatError(f"non-finite state weight: {present[finite.argmin()]!r}")
    reader.next_lines(declared, "state weights")
    trailer = reader.next_line("trailer")
    if trailer != "end_of_model":
        if len(trailer.split("\t")) == 3:
            raise ModelDimensionError(f"more {than_declared}")
        raise ModelFormatError(f"expected end_of_model, got {trailer!r}")
    # Checked once the count is known to match, so a surplus line that
    # repeats another is reported as a surplus.
    first = np.unique(cells, return_index=True)[1]
    if first.size < len(cells):
        repeat = np.setdiff1d(np.arange(len(cells)), first)[0]
        raise ModelFormatError(f"repeated state weight line: {present[repeat]!r}")
    state = np.zeros((n_features, n_labels))
    state.flat[cells] = weights
    return state


def _read_state_block(reader: _Reader, n_features: int, n_labels: int) -> np.ndarray:
    """The state weights of a version-3 file, and its trailer: the dense
    (attributes, labels) matrix as one base64 block of little-endian
    float64."""
    if reader.next_line("state weights") != "state_weights":
        raise ModelFormatError("missing state_weights section")
    state = _read_block(reader, "state weights", np.float64)
    if state.size != n_features * n_labels:
        raise ModelDimensionError(
            f"state weights: expected {n_features}x{n_labels} weights, got {state.size}"
        )
    if not np.isfinite(state).all():
        raise ModelFormatError("non-finite state weight")
    trailer = reader.next_line("trailer")
    if trailer != "end_of_model":
        raise ModelFormatError(f"expected end_of_model, got {trailer!r}")
    return state.reshape(n_features, n_labels)


def load_model(stream: IO[str]) -> CrfModel:
    """Parse a model file written by save_model (format 3), or a legacy
    format-1 file.

    Raises ModelVersionError on a bad header or any other version (2
    among them), ModelTruncatedError when the file ends early, and
    ModelDimensionError when any section disagrees with the declared
    label or attribute counts.  Any other malformed content raises
    ModelFormatError, among it a weight that is `nan` or infinite, a
    block that is not base64, and two state weight lines for the same
    (attribute, tag) pair.  The text sections of format 1 are read line
    by line, and the error is that of the first fault in file order.
    """
    reader = _Reader(stream)
    header = reader.next_line("header").split(" ")
    if len(header) != 2 or header[0] != _FORMAT_MAGIC:
        raise ModelVersionError("not a recognized model file")
    version = header[1]
    if version not in ("1", "3"):
        raise ModelVersionError(f"unsupported model format version {version!r}")
    label_parts = reader.next_line("label list").split("\t")
    if label_parts[0] != "labels" or len(label_parts) < 2:
        raise ModelFormatError("missing label list")
    try:
        alphabet = TagAlphabet(tuple(label_parts[1:]))
    except ValidationError as exc:
        raise ModelFormatError(f"bad label list: {exc}") from None
    n_labels = len(alphabet)
    attr_parts = reader.next_line("attribute count").split("\t")
    if attr_parts[0] != "attributes" or len(attr_parts) != 2:
        raise ModelFormatError("missing attribute count")
    n_features = _parse_count(attr_parts[1], "attribute count")
    feature_config = _parse_config_echo(
        reader.next_line("feature config"), "feature_config", FeatureConfig
    )
    train_config = _parse_config_echo(
        reader.next_line("train config"), "train_config", TrainConfig
    )
    start = _parse_floats(
        reader.next_line("start weights"), n_labels, "start weights", prefix="start"
    )
    end = _parse_floats(
        reader.next_line("end weights"), n_labels, "end weights", prefix="end"
    )
    if reader.next_line("transitions") != "transitions":
        raise ModelFormatError("missing transitions section")
    transition = np.empty((n_labels, n_labels))
    for i in range(n_labels):
        transition[i] = _parse_floats(
            reader.next_line("transitions"), n_labels, f"transition row {i}"
        )
    radius = feature_config.window_radius
    if version == "1":
        index, by_name = _read_names(reader, n_features, radius)
        state = _read_weight_lines(reader, alphabet, n_features, by_name)
    else:
        index = _read_table(reader, n_features, radius)
        state = _read_state_block(reader, n_features, n_labels)
    return CrfModel(
        alphabet=alphabet,
        index=index,
        state=state,
        transition=transition,
        start=start,
        end=end,
        feature_config=feature_config,
        train_config=train_config,
    )
