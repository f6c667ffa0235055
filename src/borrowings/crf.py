"""Linear-chain CRF over windowed token attributes.

Parameters are state weights W (one row per indexed attribute, one
column per tag), tag-pair transition weights T, and explicit start/end
weights S and E.  A tag sequence scores

    S[y_0] + sum_t sum_(a,v) v * W[a, y_t] + sum_t T[y_{t-1}, y_t] + E[y_{n-1}]

and all inference (partition function, marginals, decoding) runs in log
space.  Training minimizes the negative conditional log-likelihood plus
c1*||w||_1 + (c2/2)*||w||_2^2 with the quasi-Newton routines in
`optim`; the L1 term is handled exactly by the orthant-wise variant.

A batch of sequences (a training corpus, or the headlines being tagged)
is encoded once into flat arrays, as in CRFsuite: one entry per
(token, indexed attribute) pair with its attribute id, its value and
its global token index, plus the token offset of every sequence.
Emissions for all tokens then take one `np.bincount` per label, and so
does the state gradient.  Sequences of equal length form a bucket, and
forward-backward and Viterbi run over a whole bucket at once, looping
over time steps only.  Buckets are visited in ascending length order,
which fixes the order of every sum.

Corpora are encoded without building any windowed attribute name per
token.  The base names of each token type (`features.base_attributes`)
are built once per call, and the ids a type contributes at each window
slot, with or without the quotation attribute, are resolved once, the
first time a window visits that cell, and then copied for every later
visit.  Training resolves cells by adding the prefixed names to a fresh
index; because cells are resolved in the order the windowed vectors
list their names, ids are numbered exactly as if every name were added
one by one.  Tagging resolves cells by looking the prefixed names up in
the model's index and drops the names it does not know.

A sweep of many runs on the same corpora encodes them once
(`SharedEncoding`), recording each id's feature family, and derives
each run's encoding from that one by masking families out and
rescaling the embedding entries.  `fit` then trains on a derived
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
    base_attributes,
    embedding_names,
    embedding_values,
    offset_prefix,
    quoted_tokens,
    require_table,
)

DivergenceError = optim.DivergenceError

# Headlines encoded at once by `tag`: enough for full length buckets,
# while the flat encoding stays a few MB however large the corpus is.
# An entry takes 32 bytes (id, value, token, one scratch value).  With
# the default features a token has about 50 windowed attributes, at
# most 1.6 KB; only the indexed ones are encoded, about 47 per token on
# open-vocabulary news feeds.
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
    """A batch of sequences as one flat list of attribute entries.

    Entry k gives attribute `ids[k]` the value `vals[k]` at global token
    `token[k]`; entries appear in token order.  Sequence i covers the
    tokens `offsets[i]:offsets[i + 1]`.  Each array in `buckets` holds
    the global token indices of all sequences of one length, one row
    per sequence in input order; buckets ascend by length.
    """

    ids: np.ndarray
    vals: np.ndarray
    token: np.ndarray
    offsets: np.ndarray
    buckets: tuple[np.ndarray, ...]

    @property
    def n_tokens(self) -> int:
        return int(self.offsets[-1])


def encode_attributes(
    sequences: Iterable[Sequence[AttributeVector]],
    lookup: Callable[[str], int | None],
) -> Encoding:
    """Flat encoding of attribute sequences.

    `lookup` maps an attribute name to its id, or to None for attributes
    that are dropped.
    """
    ids = array("q")
    vals = array("d")
    per_token = array("q")
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
            per_token.append(len(ids) - before)
    return _flat_encoding(ids, vals, per_token, seq_lengths)


def _flat_encoding(
    ids: array, vals: array, per_token: array, seq_lengths: array
) -> Encoding:
    lengths = np.frombuffer(seq_lengths, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    buckets = tuple(
        offsets[:-1][lengths == n][:, None] + np.arange(n)
        for n in np.flatnonzero(np.bincount(lengths)).tolist()
    )
    return Encoding(
        ids=np.frombuffer(ids, dtype=np.int64),
        vals=np.frombuffer(vals, dtype=float),
        token=np.repeat(
            np.arange(offsets[-1]), np.frombuffer(per_token, dtype=np.int64)
        ),
        offsets=offsets,
        buckets=buckets,
    )


# --- interned window encoding ------------------------------------------------
#
# A resolver maps window slot k (offset k - radius) and a list of base
# attribute names to their ids there, with None for names it drops.

_Resolver = Callable[[int, Sequence[str]], list]


# Family code of the BOS and EOS markers, which belong to no family.
_NO_FAMILY = len(FAMILIES)
_QUOTATION = FAMILIES.index("quotation")
_EMBEDDING = FAMILIES.index("embedding")


class _Type:
    """A token type's base attributes and its resolved window cells.

    Cell 2k + q holds the (ids, vals) entries the type contributes at
    window slot k, with the quotation attribute if q is 1.  When
    families are recorded, `families[q]` holds the family codes of the
    names of such a cell, else `families` is None.
    """

    __slots__ = ("before", "after", "embedding", "families", "cells")

    def __init__(
        self,
        before: tuple,
        after: tuple,
        embedding: list,
        width: int,
        families: tuple | None = None,
    ) -> None:
        self.before = before
        self.after = after
        self.embedding = embedding
        self.families = families
        self.cells: list = [None] * (2 * width)


def _encode_windows(
    headlines: Sequence[Headline],
    config: FeatureConfig,
    embeddings: EmbeddingTable | None,
    resolve: _Resolver,
    families: array | None = None,
) -> Encoding:
    """Flat encoding of the windowed attributes of `headlines`.

    The entries are those of `encode_attributes` over
    `windowed_attributes`, in the same order, with the ids `resolve`
    gives.  Base names are built once per token type, and every cell of
    a type is resolved once, when a window first visits it, so `resolve`
    sees the names in the order the windowed vectors list them.

    Given a `families` array, `resolve` must hand out new ids in order,
    as a fresh index's `add` does, and the family code of every id it
    creates is appended to the array: the `FAMILIES` index of the name,
    or `_NO_FAMILY` for BOS and EOS.
    """
    radius = config.window_radius
    width = 2 * radius + 1
    emb_names = embedding_names(embeddings.dim) if embeddings is not None else ()
    emb_families = (_EMBEDDING,) * len(emb_names)

    def record(ids: list, codes: tuple) -> None:
        # A cell names no attribute twice, so its new ids are the ones
        # past the end of `families`, in ascending order.
        known = len(families)
        families.extend(f for i, f in zip(ids, codes) if i >= known)

    def resolve_cell(typ: _Type, k: int, quoted: bool) -> tuple[list, list]:
        if quoted:
            names = typ.before + (QUOTATION,) + typ.after
        else:
            names = typ.before + typ.after
        resolved = resolve(k, names)
        if families is not None:
            record(resolved, typ.families[quoted])
        ids = [i for i in resolved if i is not None]
        vals = [1.0] * len(ids)
        if k == radius and typ.embedding:
            resolved = resolve(k, emb_names)
            if families is not None:
                record(resolved, emb_families)
            for i, v in zip(resolved, typ.embedding):
                if i is not None:
                    ids.append(i)
                    vals.append(v)
        return ids, vals

    # A type that occurs once uses each of its cells once, so it is not
    # kept in `types`, and its cells are freed with its headline.
    counts = Counter(
        (token.text, token.pos) for headline in headlines for token in headline.tokens
    )
    types: dict[tuple[str, str | None], _Type] = {}
    markers = ((_NO_FAMILY,),) * 2 if families is not None else None
    bos = [_Type((BOS,), (), [], width, markers)] * radius
    eos = [_Type((EOS,), (), [], width, markers)] * radius
    unquoted = [False] * radius
    ids = array("q")
    vals = array("d")
    per_token = array("q")
    seq_lengths = array("q")
    for headline in headlines:
        row = bos.copy()
        for token in headline.tokens:
            typ = types.get((token.text, token.pos))
            if typ is None:
                codes = [] if families is not None else None
                before, after = base_attributes(token.text, token.pos, config, codes)
                emb = (
                    embedding_values(token.text, config, embeddings)
                    if config.embedding
                    else []
                )
                if codes is not None:
                    split = len(before)
                    codes = (
                        tuple(codes),
                        (*codes[:split], _QUOTATION, *codes[split:]),
                    )
                typ = _Type(before, after, emb, width, codes)
                if counts[token.text, token.pos] > 1:
                    types[token.text, token.pos] = typ
            row.append(typ)
        row += eos
        quoted = unquoted + quoted_tokens(headline, config) + unquoted
        seq_lengths.append(len(headline))
        for t in range(len(headline)):
            start = len(ids)
            for k in range(width):
                j = t + k
                typ = row[j]
                q = quoted[j]
                cell = typ.cells[2 * k + q]
                if cell is None:
                    cell = typ.cells[2 * k + q] = resolve_cell(typ, k, q)
                ids.extend(cell[0])
                vals.extend(cell[1])
            per_token.append(len(ids) - start)
    return _flat_encoding(ids, vals, per_token, seq_lengths)


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
    """(n_tokens, L) emission scores, summed in entry order per token."""
    e = np.empty((enc.n_tokens, state.shape[1]))
    scaled = np.empty(enc.ids.size)
    for label in range(state.shape[1]):
        _scaled_gather(state[:, label], enc.ids, enc.vals, out=scaled)
        e[:, label] = np.bincount(enc.token, weights=scaled, minlength=enc.n_tokens)
    return e


def _scatter_state(enc: Encoding, residual: np.ndarray, g_state: np.ndarray) -> None:
    """g_state[a, l] = sum of v * residual[token, l] over entries (a, v, token)."""
    scaled = np.empty(enc.ids.size)
    for label in range(g_state.shape[1]):
        _scaled_gather(residual[:, label], enc.token, enc.vals, out=scaled)
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


# --- log-space inference over one bucket -------------------------------------
#
# Every helper below takes the (B, n, L) emissions of B sequences of the
# same length n and loops over time steps only.

def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _forward(
    e: np.ndarray, transition: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward log scores alpha (B, n, L) and log Z per sequence (B,)."""
    alpha = np.empty_like(e)
    alpha[:, 0] = start + e[:, 0]
    for t in range(1, e.shape[1]):
        scores = alpha[:, t - 1, :, None] + transition
        alpha[:, t] = e[:, t] + _logsumexp(scores, axis=1)
    return alpha, _logsumexp(alpha[:, -1] + end, axis=1)


def _backward(
    e: np.ndarray, transition: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Backward log scores beta (B, n, L)."""
    beta = np.empty_like(e)
    beta[:, -1] = end
    for t in range(e.shape[1] - 2, -1, -1):
        scores = transition + (e[:, t + 1] + beta[:, t + 1])[:, None, :]
        beta[:, t] = _logsumexp(scores, axis=2)
    return beta


def _viterbi_ids(
    e: np.ndarray, transition: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Best tag ids (B, n) per sequence."""
    n_seq, n, n_labels = e.shape
    seq = np.arange(n_seq)
    labels = np.arange(n_labels)
    delta = start + e[:, 0]
    backpointers = np.empty((n_seq, n, n_labels), dtype=np.int64)
    for t in range(1, n):
        scores = delta[:, :, None] + transition
        # argmax returns the first (lowest-index) maximizer, which is
        # exactly the documented tie-break.
        best_prev = scores.argmax(axis=1)
        backpointers[:, t] = best_prev
        delta = scores[seq[:, None], best_prev, labels] + e[:, t]
    path = np.empty((n_seq, n), dtype=np.int64)
    path[:, -1] = np.argmax(delta + end, axis=1)
    for t in range(n - 1, 0, -1):
        path[:, t - 1] = backpointers[seq, t, path[:, t]]
    return path


# --- model-level operations --------------------------------------------------

def _decode(model: CrfModel, enc: Encoding) -> np.ndarray:
    """Best tag id of every token, bucket by bucket."""
    e = _emissions(enc, model.state)
    paths = np.empty(enc.n_tokens, dtype=np.int64)
    for rows in enc.buckets:
        paths[rows] = _viterbi_ids(e[rows], model.transition, model.start, model.end)
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
    """log of the summed exponentiated scores of all tag sequences."""
    e = _emissions(_encode_one(model, attrs), model.state)
    _, log_z = _forward(e[None], model.transition, model.start, model.end)
    return float(log_z[0])


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
        empirical counts, plus c2*w.  Sequences are processed in buckets
        of equal length, in ascending length order, and every sum runs
        in a fixed order, so results are bit-reproducible.
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
        marginal = np.empty_like(e)
        pair = np.zeros_like(transition)
        log_z = 0.0
        for rows in enc.buckets:
            e_b = e[rows]
            alpha, log_z_b = _forward(e_b, transition, start, end)
            beta = _backward(e_b, transition, end)
            shift = log_z_b[:, None, None]
            marginal[rows] = np.exp(alpha + beta - shift)
            if rows.shape[1] > 1:
                pair += np.exp(
                    alpha[:, :-1, :, None]
                    + transition
                    + (e_b[:, 1:] + beta[:, 1:])[:, :, None, :]
                    - shift[..., None]
                ).sum(axis=(0, 1))
            log_z += log_z_b.sum()
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
            value += 0.5 * c2 * float(np.dot(weights, weights))
            grad += c2 * weights
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise DivergenceError("objective diverged to a non-finite value")
        return value, grad


def nll_and_gradient(
    weights: np.ndarray, data: TrainingSet, c2: float
) -> tuple[float, np.ndarray]:
    """Smooth part of the training objective; see TrainingSet.nll_and_gradient."""
    return data.nll_and_gradient(weights, c2)


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

class SharedEncoding:
    """Training and development corpora encoded once for many runs.

    Both corpora are encoded under `config` with unscaled embedding
    components, the development corpus against the training index, as
    `tag` would.  Every id records its feature family.  `derive` gives
    the encodings of a config that switches some of those families off
    and scales the embeddings its own way, equal bit for bit to encoding
    the corpora afresh:

    - Ids follow first appearance, and dropping a family's names keeps
      the order of the rest, so a kept id's new number is its rank among
      the kept ids.  The entries, `token`, `offsets` and buckets follow.
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
        self.alphabet = alphabet_for(ignore_other)
        radius = config.window_radius
        index = FeatureIndex()
        families = array("b")
        self.train = _encode_windows(
            train_corpus.headlines,
            self.config,
            embeddings,
            _resolver(index.add, radius),
            families,
        )
        self.index = index.freeze()
        self.families = np.frombuffer(families, dtype=np.int8)
        self.gold = _gold(train_corpus, self.alphabet, ignore_other)
        self.dev = _encode_windows(
            dev_corpus.headlines,
            self.config,
            embeddings,
            _resolver(self.index.get, radius),
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
            kept_families = np.ones(_NO_FAMILY + 1, dtype=bool)
            kept_families[[FAMILIES.index(f) for f in dropped]] = False
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
        ids, vals, token = enc.ids, enc.vals, enc.token
        new_ids = ids
        if keep is not None:
            kept = keep[ids]
            ids, vals, token = ids[kept], vals[kept], token[kept]
            new_ids = (np.cumsum(keep) - 1)[ids]
        if scaling != 1.0:
            vals = vals.copy()
            vals[self.families[ids] == _EMBEDDING] *= scaling
        return Encoding(new_ids, vals, token, enc.offsets, enc.buckets)


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
