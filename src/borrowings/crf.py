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
scale becomes 0 or subnormal, and the objective and `log_partition`
raise `DivergenceError` rather than return an inaccurate value.
Decoding stays in log space (max-plus Viterbi).

A batch of sequences (a training corpus, or the headlines being tagged)
is encoded once into flat arrays, as in CRFsuite, but factored by
window cell: a cell is the list of (attribute id, value) entries one
token type contributes at one window slot, inside a quotation or
outside one.  Each distinct cell is stored once, and a
(token, slot) table of cell numbers records which cells every token
visits, plus the token offset of every sequence.  Emissions take one
`np.bincount` per label over the cell entries, giving a score per cell,
and then one gather per window slot; the state gradient sums the
residuals of each cell's visits first, then takes one `np.bincount` per
label over the cell entries.  Forward-backward and Viterbi then loop
once over time steps for the whole batch, as packed sequences do in
cuDNN: step t takes token t of every sequence longer than t, with the
sequences ranked by descending length, so each step is one contiguous
block of rows that continues the first rows of the step before.  No
sequence is padded, and each token's marginals and best label are
those of its sequence decoded alone, bit for bit.  Sums over tokens
and sequences (log Z, pair marginals) run in packed row order, which
the sequence lengths and their input order fix.

Corpora are encoded without building any windowed attribute name per
token.  The base names of each token type (`features.base_attributes`)
are built once per call, and the ids of each cell are resolved once,
the first time a window visits it.  Training resolves cells by adding
the prefixed names to a fresh index; because cells are resolved in the
order the windowed vectors list their names, ids are numbered exactly
as if every name were added one by one.  Tagging resolves cells by
looking the prefixed names up in the model's index and drops the names
it does not know.

A sweep of many runs on the same corpora encodes them once
(`SharedEncoding`), with the encoder `train` uses, and derives each
run's encoding from that one by masking families out and rescaling the
embedding entries; each id's family is read off its name
(`features.attribute_family`).  `fit` then trains on a derived
training set, as `train` does on one it encodes itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import optim
from .corpus import (
    Corpus,
    Headline,
    TagAlphabet,
    alphabet_for,
    bio_to_spans,
    spans_to_bio,
)
from .embeddings import EmbeddingTable
from .errors import ConfigError, ValidationError
from .features import (
    BOS,
    EOS,
    FAMILIES,
    QUOTATION,
    AttributeVector,
    FeatureConfig,
    FeatureIndex,
    attribute_family,
    base_attributes,
    embedding_names,
    embedding_values,
    offset_prefix,
    quotation_flags,
    require_table,
)

DivergenceError = optim.DivergenceError

# Headlines encoded at once by `tag`: enough that each packed time step
# spans many headlines, while the encoding stays a few MB however large
# the corpus is.  A cell entry takes 32 bytes (id, value, cell, one
# scratch value), a visit 8 and a cell's scores 8 per label.  On
# open-vocabulary news feeds (the benchmark's `tag-feeds` inputs) a
# 512-headline chunk has about 4,600 tokens and 6,000 cells of about 12
# indexed entries each: about 15 entries and 5 visits per token, some
# 0.6 KB per token with the emissions, and about 3 MB per chunk.
_TAG_CHUNK = 512

_FORMAT_MAGIC = "borrowings-crf"
_FORMAT_VERSION = 1


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


@dataclass(frozen=True)
class TrainDiagnostics:
    """Optimizer outcome attached to a freshly trained model."""

    iterations: int
    converged: bool
    stalled: bool
    line_search_failed: bool
    final_objective: float
    objective_trace: tuple[float, ...]


@dataclass(eq=False)
class CrfModel:
    """Trained weights plus everything needed to reapply them."""

    alphabet: TagAlphabet
    index: FeatureIndex
    state: np.ndarray  # (K, L)
    transition: np.ndarray  # (L, L)
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)
    feature_config: FeatureConfig
    train_config: TrainConfig
    diagnostics: TrainDiagnostics | None = None

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
    """A batch of sequences as window cells and the tokens' visits to them.

    A cell is a list of attribute entries: entry k gives attribute
    `ids[k]` the value `vals[k]` and belongs to cell `cell[k]`.  Entries
    are stored cell by cell, so `cell` ascends, and each cell once,
    however many tokens visit it.  Row t of the (n_tokens, width) table
    `visits` lists the cells token t visits, one per window slot in
    ascending slot order; its entries are those of all these cells, in
    that order.  `visits` is column-major, so each slot's column is
    contiguous.  Every cell is visited at least once.

    Sequence i covers the tokens `offsets[i]:offsets[i + 1]`.  `order`
    lists the token indices step-major, as packed sequences do: rank the
    sequences by descending length, ties in input order; then
    `order[steps[t]:steps[t + 1]]` holds token t of every sequence
    longer than t, by rank.  The sequences alive at step t + 1 are so
    the first ones alive at step t.
    """

    ids: np.ndarray
    vals: np.ndarray
    cell: np.ndarray
    visits: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    steps: np.ndarray

    @property
    def n_tokens(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_cells(self) -> int:
        return int(self.visits.max(initial=-1)) + 1


def encode_attributes(
    sequences: Iterable[Sequence[AttributeVector]],
    lookup: Callable[[str], int | None],
) -> Encoding:
    """Flat encoding of attribute sequences, one cell per token.

    `lookup` maps an attribute name to its id, or to None for attributes
    that are dropped.
    """
    ids = array("q")
    vals = array("d")
    sizes = array("q")
    seq_lengths = array("q")
    for vecs in sequences:
        seq_lengths.append(len(vecs))
        for vec in vecs:
            before = len(ids)
            for name, value in vec.items():
                i = lookup(name)
                if i is not None:
                    ids.append(i)
                    vals.append(value)
            sizes.append(len(ids) - before)
    visits = array("q", range(len(sizes)))
    return _flat_encoding(ids, vals, sizes, visits, 1, seq_lengths)


def _flat_encoding(
    ids: array,
    vals: array,
    sizes: array,
    visits: array,
    width: int,
    seq_lengths: array,
) -> Encoding:
    """Encoding of cells with `sizes` entries each and token-major visits."""
    lengths = np.frombuffer(seq_lengths, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    order, steps = _packed(offsets)
    sizes = np.frombuffer(sizes, dtype=np.int64)
    return Encoding(
        ids=np.frombuffer(ids, dtype=np.int64),
        vals=np.frombuffer(vals, dtype=float),
        cell=np.repeat(np.arange(len(sizes)), sizes),
        visits=np.asfortranarray(
            np.frombuffer(visits, dtype=np.int64).reshape(-1, width)
        ),
        offsets=offsets,
        order=order,
        steps=steps,
    )


def _packed(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Encoding.order` and `Encoding.steps` of the sequences at `offsets`."""
    lengths = np.diff(offsets)
    ranked = offsets[:-1][np.argsort(-lengths, kind="stable")]
    # alive[t] counts the sequences longer than t.
    alive = np.cumsum(np.bincount(lengths, minlength=1)[::-1])[-2::-1]
    steps = np.concatenate([[0], np.cumsum(alive)])
    step = np.repeat(np.arange(alive.size), alive)
    rank = np.arange(steps[-1]) - steps[step]
    return ranked[rank] + step, steps


# --- interned window encoding ------------------------------------------------
#
# A resolver maps window slot k (offset k - radius) and a list of base
# attribute names to their ids there, with None for names it drops.

_Resolver = Callable[[int, Sequence[str]], list]


class _Type:
    """A token type's base attributes and its window cells.

    `cells[2k + q]` is the number of the cell the type contributes at
    window slot k, inside a quotation if q is 1, or None until a window
    first visits it.
    """

    __slots__ = ("before", "after", "embedding", "cells")

    def __init__(self, before: tuple, after: tuple, embedding: list, width: int) -> None:
        self.before = before
        self.after = after
        self.embedding = embedding
        self.cells: list = [None] * (2 * width)


def _encode_windows(
    headlines: Sequence[Headline],
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
    resolve: _Resolver,
) -> Encoding:
    """Cell encoding of the windowed attributes of `headlines`.

    Each token visits one cell per window slot: the entries its type
    contributes there, quoted or not.  Laid out visit by visit, the
    entries are those of `encode_attributes` over `windowed_attributes`,
    in the same order, with the ids `resolve` gives.  Base names are
    built once per token type, and every cell is resolved and stored
    once, when a window first visits it, so cells are numbered in order
    of first visit and `resolve` sees the names in the order the
    windowed vectors list them.

    Cells are keyed by `quotation_flags` whether or not the quotation
    family is on; without it a type's quoted and unquoted cells hold
    the same entries.  So switching the family off changes the entries
    of quoted cells only, never which cells there are, and an encoding
    derived by masking `quot=1` out (`SharedEncoding`) equals a fresh
    one bit for bit.
    """
    radius = config.window_radius
    width = 2 * radius + 1
    emb_names = embedding_names(embeddings.dim) if embeddings is not None else ()
    ids = array("q")
    vals = array("d")
    sizes = array("q")

    def new_cell(typ: _Type, k: int, quoted: bool) -> int:
        """Resolve and store the entries of a type's cell; its number."""
        if quoted and config.quotation:
            names = typ.before + (QUOTATION,) + typ.after
        else:
            names = typ.before + typ.after
        before = len(ids)
        kept = [i for i in resolve(k, names) if i is not None]
        ids.extend(kept)
        vals.extend([1.0] * len(kept))
        if k == radius and typ.embedding:
            resolved = resolve(k, emb_names)
            for i, v in zip(resolved, typ.embedding):
                if i is not None:
                    ids.append(i)
                    vals.append(v)
        sizes.append(len(ids) - before)
        return len(sizes) - 1

    # A type that occurs once is never looked up again, so it is not kept
    # in `types`, and its base names are freed with its headline.
    counts = Counter(
        (token.text, token.pos) for headline in headlines for token in headline.tokens
    )
    types: dict[tuple[str, str | None], _Type] = {}
    bos = [_Type((BOS,), (), [], width)] * radius
    eos = [_Type((EOS,), (), [], width)] * radius
    unquoted = [False] * radius
    visits = array("q")
    seq_lengths = array("q")
    for headline in headlines:
        row = bos.copy()
        for token in headline.tokens:
            typ = types.get((token.text, token.pos))
            if typ is None:
                before, after = base_attributes(token.text, token.pos, config)
                emb = (
                    embedding_values(token.text, config, embeddings)
                    if config.embedding
                    else []
                )
                typ = _Type(before, after, emb, width)
                if counts[token.text, token.pos] > 1:
                    types[token.text, token.pos] = typ
            row.append(typ)
        row += eos
        quoted = unquoted + quotation_flags(headline) + unquoted
        seq_lengths.append(len(headline))
        for t in range(len(headline)):
            for k in range(width):
                typ = row[t + k]
                slot = 2 * k + quoted[t + k]
                cell = typ.cells[slot]
                if cell is None:
                    cell = typ.cells[slot] = new_cell(typ, k, quoted[t + k])
                visits.append(cell)
    return _flat_encoding(ids, vals, sizes, visits, width, seq_lengths)


def _resolver(lookup: Callable[[str], int | None], radius: int) -> _Resolver:
    """Resolver that passes every prefixed name to `lookup`."""
    prefixes = [offset_prefix(k - radius) for k in range(2 * radius + 1)]

    def resolve(k: int, names: Sequence[str]) -> list:
        prefix = prefixes[k]
        return [lookup(prefix + name) for name in names]

    return resolve


def index_corpus(
    corpus: Corpus,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> tuple[Encoding, FeatureIndex]:
    """Flat encoding of a corpus, with the frozen index it assigns.

    Ids follow the order in which names first appear in the windowed
    vectors.
    """
    index = FeatureIndex()
    resolve = _resolver(index.add, config.window_radius)
    enc = _encode_windows(corpus.headlines, config, embeddings, resolve)
    return enc, index.freeze()


def _emissions(enc: Encoding, state: np.ndarray) -> np.ndarray:
    """(n_tokens, L) emission scores.

    Each cell's entries are summed in entry order, then each token's
    cell scores in ascending slot order.
    """
    n_cells = enc.n_cells
    per_cell = np.empty((n_cells, state.shape[1]))
    scaled = np.empty(enc.ids.size)
    for label in range(state.shape[1]):
        _scaled_gather(state[:, label], enc.ids, enc.vals, out=scaled)
        per_cell[:, label] = np.bincount(enc.cell, weights=scaled, minlength=n_cells)
    visits = enc.visits
    e = np.take(per_cell, visits[:, 0], axis=0)
    row = np.empty_like(e)
    for k in range(1, visits.shape[1]):
        np.take(per_cell, visits[:, k], axis=0, out=row)
        e += row
    return e


def _scatter_state(enc: Encoding, residual: np.ndarray, g_state: np.ndarray) -> None:
    """g_state[a, l] = sum of v * residual[t, l] over token t's entries (a, v).

    The residuals of each cell's visits are summed first, slot by slot
    and tokens ascending within a slot; then every cell's entries are
    scattered by id, in entry order.
    """
    n_cells = enc.n_cells
    width = enc.visits.shape[1]
    # Slot-major visits, and the residual rows repeated to match them.
    flat = enc.visits.ravel(order="F")
    repeated = np.tile(residual.T, width)
    per_cell = np.empty((residual.shape[1], n_cells))
    for label in range(residual.shape[1]):
        per_cell[label] = np.bincount(
            flat, weights=repeated[label], minlength=n_cells
        )
    scaled = np.empty(enc.ids.size)
    for label in range(g_state.shape[1]):
        _scaled_gather(per_cell[label], enc.cell, enc.vals, out=scaled)
        g_state[:, label] = np.bincount(
            enc.ids, weights=scaled, minlength=g_state.shape[0]
        )


def _scaled_gather(
    column: np.ndarray, index: np.ndarray, vals: np.ndarray, out: np.ndarray
) -> None:
    """out = vals * column[index], in one entry-sized buffer."""
    # Indices come from the encoding and are in range; mode="raise"
    # would make take() allocate a second buffer.
    np.take(column, index, out=out, mode="clip")
    out *= vals


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


def _step_links(bounds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Packed row of every row's predecessor, and every sequence's last row.

    `bounds` are the step offsets (`Encoding.steps`).  The predecessors
    are those of the rows after step 0, in row order.
    """
    alive = np.diff(bounds)
    n_rows = bounds[-1]
    prev = np.arange(n_rows - alive[1:].sum(), n_rows) - np.repeat(
        alive[:-1], alive[1:]
    )
    is_last = np.ones(n_rows, dtype=bool)
    is_last[prev] = False
    return prev, np.flatnonzero(is_last)


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
    shift = e.max(axis=1, keepdims=True)
    t_exp, t_shift = _exp_shifted(transition)
    s_exp, s_shift = _exp_shifted(start)
    e_exp, e_shift = _exp_shifted(end)
    f = np.exp(e - shift)[enc.order]
    bounds = enc.steps.tolist()
    prev, last = _step_links(bounds)
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
    bounds: list[int],
    transition: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Best tag id of every packed row, given packed emissions."""
    n_rows, n_labels = e.shape
    _, last = _step_links(bounds)
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
    e = _emissions(enc, model.state)
    paths = np.empty(enc.n_tokens, dtype=np.int64)
    paths[enc.order] = _viterbi_ids(
        e[enc.order], enc.steps.tolist(), model.transition, model.start, model.end
    )
    return paths


def _encode_one(model: CrfModel, attrs: Sequence[AttributeVector]) -> Encoding:
    if not attrs:
        raise ValidationError("attribute sequence must be non-empty")
    return encode_attributes([attrs], model.index.get)


def score_sequence(
    model: CrfModel, attrs: Sequence[AttributeVector], y: Sequence[str]
) -> float:
    """Unnormalized score of tag sequence `y`; unknown attributes add 0."""
    if len(attrs) != len(y):
        raise ValidationError(
            f"{len(attrs)} attribute vectors but {len(y)} tags"
        )
    enc = _encode_one(model, attrs)
    gold = np.array([model.alphabet.index(tag) for tag in y], dtype=np.int64)
    counts = _path_counts(gold, enc.offsets, model.n_labels)
    e = _emissions(enc, model.state)
    return _path_score(e, gold, counts, model.transition, model.start, model.end)


def log_partition(model: CrfModel, attrs: Sequence[AttributeVector]) -> float:
    """log of the summed exponentiated scores of all tag sequences.

    Raises DivergenceError where the scaled forward pass underflows.
    """
    enc = _encode_one(model, attrs)
    e = _emissions(enc, model.state)
    log_z, _, _ = _forward_backward(
        e, enc, model.transition, model.start, model.end
    )
    return log_z


def viterbi(model: CrfModel, attrs: Sequence[AttributeVector]) -> list[str]:
    """Highest-scoring tag sequence, lower tag index winning ties."""
    path = _decode(model, _encode_one(model, attrs))
    return [model.alphabet.tags[i] for i in path]


# --- training objective ------------------------------------------------------

class TrainingSet:
    """Flat-encoded corpus with gold tags and the parameter layout."""

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

    @property
    def n_parameters(self) -> int:
        return n_parameters(self.n_features, self.n_labels)

    def nll_and_gradient(self, weights: np.ndarray, c2: float) -> tuple[float, np.ndarray]:
        """Negative log-likelihood plus (c2/2)||w||^2, with its gradient.

        The gradient is expected feature counts under the model minus
        empirical counts, plus c2*w.  Forward-backward runs once over
        the packed time steps of the whole set (`Encoding`), and every
        sum runs in an order the encoding fixes, so results are
        bit-reproducible.  Raises
        DivergenceError when the result is not finite or the scaled
        forward-backward pass underflows (see the module docstring).
        """
        if weights.shape != (self.n_parameters,):
            raise ValidationError(
                f"expected {self.n_parameters} weights, got {weights.shape}"
            )
        enc = self.encoding
        state, transition, start, end = _unpack(
            weights, self.n_features, self.n_labels
        )
        e = _emissions(enc, state)
        # Unary marginals, turned into residuals once the gold one-hot
        # is subtracted below.
        log_z, marginal, pair = _forward_backward(e, enc, transition, start, end)
        n_transition, n_start, n_end = self.empirical
        value = float(
            log_z
            - _path_score(e, self.gold, self.empirical, transition, start, end)
        )
        grad = np.empty_like(weights)
        g_state, g_transition, g_start, g_end = _unpack(
            grad, self.n_features, self.n_labels
        )
        g_transition[:] = pair - n_transition
        g_start[:] = marginal[enc.offsets[:-1]].sum(axis=0) - n_start
        g_end[:] = marginal[enc.offsets[1:] - 1].sum(axis=0) - n_end
        marginal[np.arange(enc.n_tokens), self.gold] -= 1.0
        _scatter_state(enc, marginal, g_state)
        if c2 > 0:
            value += 0.5 * c2 * optim.dot(weights, weights)
            grad += c2 * weights
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
    enc, index = index_corpus(corpus, config, embeddings)
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
    every accepted optimizer step.
    """
    dataset, index, alphabet = encode_training_set(
        corpus, config, embeddings, ignore_other
    )
    return fit(dataset, index, alphabet, config, train_config, progress)


def fit(
    dataset: TrainingSet,
    index: FeatureIndex,
    alphabet: TagAlphabet,
    feature_config: FeatureConfig,
    train_config: TrainConfig,
    progress: Callable[[int, float], None] | None = None,
) -> CrfModel:
    """Fit a CRF to an encoded training set; see `train`.

    `index`, `alphabet` and `feature_config` are those the training set
    was encoded with.
    """
    result = optim.minimize(
        lambda w: dataset.nll_and_gradient(w, train_config.c2),
        np.zeros(dataset.n_parameters),
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
    return CrfModel(
        alphabet=alphabet,
        index=index,
        state=state.copy(),
        transition=transition.copy(),
        start=start.copy(),
        end=end.copy(),
        feature_config=feature_config,
        train_config=train_config,
        diagnostics=TrainDiagnostics(
            iterations=result.iterations,
            converged=result.converged,
            stalled=result.stalled,
            line_search_failed=result.line_search_failed,
            final_objective=result.value,
            objective_trace=result.trace,
        ),
    )


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
    resolve = _resolver(model.index.get, model.feature_config.window_radius)
    tagged: list[Headline] = []
    for first in range(0, len(corpus), _TAG_CHUNK):
        chunk = corpus.headlines[first : first + _TAG_CHUNK]
        enc = _encode_windows(chunk, model.feature_config, embeddings, resolve)
        tagged.extend(_predicted(model, chunk, enc))
    return Corpus(corpus.name, tuple(tagged))


def tag_encoded(model: CrfModel, corpus: Corpus, enc: Encoding) -> Corpus:
    """`tag`, given the corpus already encoded against the model's index."""
    return Corpus(corpus.name, tuple(_predicted(model, corpus.headlines, enc)))


def _predicted(
    model: CrfModel, headlines: Sequence[Headline], enc: Encoding
) -> list[Headline]:
    tags = [model.alphabet.tags[i] for i in _decode(model, enc).tolist()]
    bounds = enc.offsets.tolist()
    return [
        dataclasses.replace(headline, spans=tuple(bio_to_spans(tags[lo:hi])))
        for headline, lo, hi in zip(headlines, bounds, bounds[1:])
    ]


# --- one encoding for many runs ------------------------------------------

# Family codes of `SharedEncoding.families`: the `FAMILIES` index, or
# `len(FAMILIES)` for BOS and EOS, which belong to no family.
_FAMILY_CODES = {family: code for code, family in enumerate((*FAMILIES, None))}
_EMBEDDING = _FAMILY_CODES["embedding"]


class SharedEncoding:
    """Training and development corpora encoded once for many runs.

    Both corpora are encoded under `config` with unscaled embedding
    components: the training corpus by `encode_training_set`, the
    development corpus against the training index, as `tag` would.
    `families` holds the family code of every id, read off its name by
    `attribute_family`.  `derive` gives the encodings of a config that
    switches some of those families off and scales the embeddings its
    own way.  They equal bit for bit those of encoding the corpora
    afresh, so training on them gives the same bytes:

    - Ids follow first appearance, and dropping a family's names keeps
      the order of the rest, so a kept id's new number is its rank among
      the kept ids.  Only cell entries are masked; the cells, their
      visits, `offsets` and the packed `order` and `steps` are shared
      unchanged.  Cells are keyed by quotation whether or not the family
      is on, so dropping it leaves the cells those of a fresh encoding,
      and no other family decides which cells there are.  A cell may end
      up empty.
    - A scaled embedding entry is the unscaled component times the
      scaling, the same IEEE product `embedding_values` computes.
    """

    def __init__(
        self,
        train_corpus: Corpus,
        dev_corpus: Corpus,
        config: FeatureConfig,
        embeddings: EmbeddingTable | None,
        ignore_other: bool = False,
    ) -> None:
        self.config = dataclasses.replace(config, embedding_scaling=1.0)
        self.embeddings = embeddings
        dataset, self.index, self.alphabet = encode_training_set(
            train_corpus, self.config, embeddings, ignore_other
        )
        self.train, self.gold = dataset.encoding, dataset.gold
        self.families = np.array(
            [_FAMILY_CODES[attribute_family(name)] for name in self.index.names()],
            dtype=np.int8,
        )
        self.dev = _encode_windows(
            dev_corpus.headlines,
            self.config,
            embeddings,
            _resolver(self.index.get, config.window_radius),
        )

    def derive(
        self, config: FeatureConfig
    ) -> tuple[TrainingSet, FeatureIndex, Encoding]:
        """Training set, index and development encoding under `config`.

        `config` may differ from the shared one only by families it
        switches off and by its embedding scaling.
        """
        if config.embedding:
            require_table(self.embeddings)
        dropped = [
            f for f in self.config.enabled_families() if not getattr(config, f)
        ]
        restored = dataclasses.replace(
            config, embedding_scaling=1.0, **dict.fromkeys(dropped, True)
        )
        if restored != self.config:
            raise ConfigError(f"{config} cannot be derived from {self.config}")
        index = self.index
        keep = None
        if dropped:
            kept_families = np.ones(len(_FAMILY_CODES), dtype=bool)
            kept_families[[_FAMILY_CODES[f] for f in dropped]] = False
            keep = kept_families[self.families]
            index = FeatureIndex.from_names(itertools.compress(index.names(), keep))
        scaling = config.embedding_scaling if config.embedding else 1.0
        train = self._variant(self.train, keep, scaling)
        dev = self._variant(self.dev, keep, scaling)
        dataset = TrainingSet(train, self.gold, len(index), len(self.alphabet))
        return dataset, index, dev

    def _variant(
        self, enc: Encoding, keep: np.ndarray | None, scaling: float
    ) -> Encoding:
        """`enc` with only the ids in `keep`, renumbered, and scaled embeddings."""
        if keep is None and scaling == 1.0:
            return enc
        ids, vals, cell = enc.ids, enc.vals, enc.cell
        new_ids = ids
        if keep is not None:
            kept = keep[ids]
            ids, vals, cell = ids[kept], vals[kept], cell[kept]
            new_ids = (np.cumsum(keep) - 1)[ids]
        if scaling != 1.0:
            vals = vals.copy()
            vals[self.families[ids] == _EMBEDDING] *= scaling
        return dataclasses.replace(enc, ids=new_ids, vals=vals, cell=cell)


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


def save_model(model: CrfModel, stream: IO[str]) -> None:
    """Write the model losslessly as versioned UTF-8 text."""
    n_labels = model.n_labels
    n_features = model.n_features
    stream.write(f"{_FORMAT_MAGIC} {_FORMAT_VERSION}\n")
    stream.write("labels\t" + "\t".join(model.alphabet.tags) + "\n")
    stream.write(f"attributes\t{n_features}\n")
    stream.write("feature_config\t" + _config_echo(model.feature_config) + "\n")
    stream.write("train_config\t" + _config_echo(model.train_config) + "\n")
    stream.write(
        "start\t" + "\t".join(_format_float(x) for x in model.start) + "\n"
    )
    stream.write("end\t" + "\t".join(_format_float(x) for x in model.end) + "\n")
    stream.write("transitions\n")
    for row in model.transition:
        stream.write("\t".join(_format_float(x) for x in row) + "\n")
    stream.write("attribute_names\n")
    for i in range(n_features):
        stream.write(model.index.name(i) + "\n")
    rows, cols = np.nonzero(model.state)
    stream.write(f"state_weights\t{len(rows)}\n")
    for r, c in zip(rows, cols):
        stream.write(
            f"{model.index.name(int(r))}\t{model.alphabet.tags[int(c)]}\t"
            f"{_format_float(model.state[r, c])}\n"
        )
    stream.write("end_of_model\n")


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
        return np.array([float(v) for v in parts], dtype=float)
    except ValueError:
        raise ModelFormatError(f"{context}: non-numeric weight") from None


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


def load_model(stream: IO[str]) -> CrfModel:
    """Parse a model file written by save_model.

    Raises ModelVersionError on a bad header, ModelTruncatedError when
    the file ends early, and ModelDimensionError when any section
    disagrees with the declared label or attribute counts.
    """
    reader = _Reader(stream)
    header = reader.next_line("header").split(" ")
    if len(header) != 2 or header[0] != _FORMAT_MAGIC:
        raise ModelVersionError("not a recognized model file")
    if header[1] != str(_FORMAT_VERSION):
        raise ModelVersionError(f"unsupported model format version {header[1]!r}")
    label_parts = reader.next_line("label list").split("\t")
    if label_parts[0] != "labels" or len(label_parts) < 2:
        raise ModelFormatError("missing label list")
    alphabet = TagAlphabet(tuple(label_parts[1:]))
    n_labels = len(alphabet)
    attr_parts = reader.next_line("attribute count").split("\t")
    if attr_parts[0] != "attributes" or len(attr_parts) != 2:
        raise ModelFormatError("missing attribute count")
    try:
        n_features = int(attr_parts[1])
    except ValueError:
        raise ModelFormatError("attribute count is not an integer") from None
    if n_features < 0:
        raise ModelDimensionError("attribute count must be >= 0")
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
    if reader.next_line("attribute names") != "attribute_names":
        raise ModelFormatError("missing attribute_names section")
    try:
        index = FeatureIndex.from_names(
            reader.next_lines(n_features, "attribute names")
        )
    except ConfigError:
        raise ModelFormatError("duplicate attribute names") from None
    sw_parts = reader.next_line("state weight count").split("\t")
    if sw_parts[0] != "state_weights" or len(sw_parts) != 2:
        raise ModelFormatError("missing state_weights section")
    try:
        declared = int(sw_parts[1])
    except ValueError:
        raise ModelFormatError("state weight count is not an integer") from None
    if declared < 0 or declared > n_features * n_labels:
        raise ModelDimensionError(
            f"declared {declared} state weights for a "
            f"{n_features}x{n_labels} weight matrix"
        )
    # Lines are checked in file order before the count is, so a bad line
    # or an early end_of_model is reported ahead of a truncated file.
    present = reader.peek_lines(declared)
    tag_ids = {tag_name: i for i, tag_name in enumerate(alphabet.tags)}
    rows, cols, weights = [], [], []
    for line in present:
        fields = line.split("\t")
        if len(fields) != 3:
            if line == "end_of_model":
                raise ModelDimensionError(
                    f"fewer state weight lines than the declared {declared}"
                )
            raise ModelFormatError("state weight line needs name, tag, weight")
        name, tag_name, raw = fields
        row = index.get(name)
        if row is None:
            raise ModelDimensionError(f"state weight for unknown attribute {name!r}")
        col = tag_ids.get(tag_name)
        if col is None:
            raise ModelDimensionError(f"state weight for unknown tag {tag_name!r}")
        try:
            weights.append(float(raw))
        except ValueError:
            raise ModelFormatError("non-numeric state weight") from None
        rows.append(row)
        cols.append(col)
    reader.next_lines(declared, "state weights")
    state = np.zeros((n_features, n_labels))
    state[rows, cols] = weights
    trailer = reader.next_line("trailer")
    if trailer != "end_of_model":
        if len(trailer.split("\t")) == 3:
            raise ModelDimensionError(
                f"more state weight lines than the declared {declared}"
            )
        raise ModelFormatError(f"expected end_of_model, got {trailer!r}")
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
