"""Shared generators, brute-force oracles and per-instance references
for the test suite.

The batch code in `borrowings` is checked against slower references
kept here, which only tests call: the dict view of windowed attributes
built one token and one name at a time (`windowed_attributes_oracle`),
the one-cell-per-token encoding of attribute dicts
(`encode_attributes`), and scoring, log Z and Viterbi of one attribute
sequence (`score_sequence`, `log_partition`, `viterbi`).  The writers
of model formats 1 and 2 (`save_model_v1`, `save_model_v2`), which
`save_model` no longer writes, make the format-1 files the loader still
reads, and the format-2 text that pinned digests hash and no reader
loads.  `repair_bio` rewrites a tag sequence tag by tag into the one
`bio_to_spans` decodes.  `reference_minimize` is the OWL-QN loop that
built Andrew and Gao's orthant vector and kept a spare curvature pair,
which `optim.minimize` must match bit for bit.

The synthetic corpus is deterministic given a seed and perfectly
separable: every borrowing-initial token ends in the sentinel suffix
`zzq`, every continuation token in `qzz`, and every OTHER-borrowing
token in `vvk`, while filler tokens never do.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import math
import random
import re
from array import array
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from borrowings import optim
from borrowings.corpus import (
    FULL_ALPHABET,
    Corpus,
    Headline,
    LabeledSpan,
    TagAlphabet,
    Token,
    bio_to_spans,
)
from borrowings.crf import (
    CrfModel,
    Encoding,
    TrainConfig,
    _config_echo,
    _flat_encoding,
    _format_float,
    _forward_backward,
    _path_counts,
    _path_score,
    _unpack,
    encode_training_set,
)
from borrowings.embeddings import EmbeddingTable
from borrowings.errors import ValidationError
from borrowings.features import (
    BOS,
    EOS,
    QUOTATION,
    FeatureConfig,
    FeatureIndex,
    embedding_names,
    offset_prefix,
    quotation_flags,
    window_table,
)

FILLERS = (
    "casa", "mercado", "gobierno", "serie", "nueva", "temporada",
    "empresa", "acuerdo", "festival", "premio", "lanza", "estreno",
    "banca", "papel", "siglo", "verano", "semana", "plataforma",
)
BORROW_STEMS = (
    "strea", "pod", "market", "influ", "rank", "cast", "blog", "trend",
)
OTHER_STEMS = ("premi", "tourn", "atel")
POS_TAGS = ("NOUN", "VERB", "ADJ", "DET", "ADP")
SECTIONS = ("technology", "tv", "music", "economy")


def synthetic_corpus(
    n_headlines: int = 200,
    seed: int = 7,
    with_other: bool = True,
    name: str = "synthetic",
) -> Corpus:
    """Separable sentinel-suffix corpus for learnability tests."""
    rng = random.Random(seed)
    headlines = []
    for i in range(n_headlines):
        words = [rng.choice(FILLERS) for _ in range(rng.randint(4, 9))]
        pos = [rng.choice(POS_TAGS) for _ in words]
        spans: list[tuple[int, int, str]] = []
        if rng.random() < 0.75:
            at = rng.randrange(len(words) + 1)
            stem = rng.choice(BORROW_STEMS)
            if rng.random() < 0.3:
                words[at:at] = [stem + "zzq", rng.choice(BORROW_STEMS) + "qzz"]
                pos[at:at] = ["X", "X"]
                spans.append((at, at + 2, "ENG"))
            else:
                words.insert(at, stem + "zzq")
                pos.insert(at, "X")
                spans.append((at, at + 1, "ENG"))
            if rng.random() < 0.3:
                start, end, _ = spans[-1]
                words.insert(end, "'")
                words.insert(start, "'")
                pos.insert(end, "PUNCT")
                pos.insert(start, "PUNCT")
                spans[-1] = (start + 1, end + 1, "ENG")
        if with_other and rng.random() < 0.15:
            free = [
                j
                for j in range(len(words) + 1)
                if all(j <= s or j >= e for s, e, _ in spans)
            ]
            at = rng.choice(free)
            words.insert(at, rng.choice(OTHER_STEMS) + "vvk")
            pos.insert(at, "X")
            spans = [
                (s + (1 if s >= at else 0), e + (1 if s >= at else 0), lab)
                for s, e, lab in spans
            ]
            spans.append((at, at + 1, "OTHER"))
        if rng.random() < 0.3:
            words[0] = words[0].capitalize()
        tokens = tuple(Token(w, p) for w, p in zip(words, pos))
        headlines.append(
            Headline(
                id=f"syn-{i:04d}",
                tokens=tokens,
                spans=tuple(LabeledSpan(s, e, lab) for s, e, lab in spans),
                section=SECTIONS[i % len(SECTIONS)],
            )
        )
    return Corpus(name, tuple(headlines))


def open_vocabulary_corpus(n_headlines: int, seed: int) -> Corpus:
    """`synthetic_corpus` with every filler replaced by a fresh random word."""
    rng = random.Random(seed)
    fillers = set(FILLERS)

    def fresh(token: Token) -> Token:
        if token.text.lower() not in fillers:
            return token
        letters = rng.choices("abcdefghilmnoprstu", k=rng.randint(4, 9))
        return Token("".join(letters), token.pos)

    return Corpus("open", tuple(
        dataclasses.replace(h, tokens=tuple(fresh(t) for t in h.tokens))
        for h in synthetic_corpus(n_headlines, seed=seed).headlines
    ))


def synthetic_vocabulary(corpus: Corpus) -> list[str]:
    seen: dict[str, None] = {}
    for headline in corpus:
        for token in headline.tokens:
            seen.setdefault(token.text, None)
    return list(seen)


def synthetic_embeddings(corpus: Corpus, dim: int = 4, seed: int = 11) -> EmbeddingTable:
    """Random table covering most of the corpus vocabulary."""
    rng = np.random.default_rng(seed)
    vectors: dict[str, np.ndarray] = {}
    for word in synthetic_vocabulary(corpus):
        if rng.random() < 0.85:
            vec = rng.uniform(-1.0, 1.0, size=dim)
            vec.flags.writeable = False
            vectors[word] = vec
    return EmbeddingTable(name="synthetic-vectors", dim=dim, vectors=vectors)


def write_embeddings_file(table: EmbeddingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(f"{len(table.vectors)} {table.dim}\n")
        for word, vec in table.vectors.items():
            stream.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


# --- per-character feature oracles ---------------------------------------

def word_shape_oracle(text: str) -> str:
    """`features._word_shapes`, one character at a time."""
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


def is_upper_oracle(text: str) -> bool:
    """`features._upper_flags`: a letter, and no lowercase one."""
    cased = [ch for ch in text if ch.isalpha()]
    return bool(cased) and all(not ch.islower() for ch in cased)


def is_title_oracle(text: str) -> bool:
    """`features._title_flags`: only the first character is uppercase."""
    if not text[0].isupper():
        return False
    return all(not ch.isupper() for ch in text[1:])


def base_attributes_oracle(
    text: str, pos: str | None, config: FeatureConfig
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names `features.type_attributes` gives one (text, POS) type,
    before and after `quot=1`, one name at a time."""
    before: list[str] = []
    if config.bias:
        before.append("bias")
    if config.token:
        before.append(f"w={text}")
    if config.uppercase and is_upper_oracle(text):
        before.append("upper=1")
    if config.titlecase and is_title_oracle(text):
        before.append("title=1")
    if config.char_trigram:
        padded = f"^{text}$"
        grams = (padded[i : i + 3] for i in range(len(padded) - 2))
        before.extend(dict.fromkeys(f"tri={gram}" for gram in grams))
    after: list[str] = []
    if config.suffix3:
        after.append(f"suf3={text[-3:]}")
    if config.pos and pos is not None:
        after.append(f"pos={pos}")
    if config.shape:
        after.append(f"shape={word_shape_oracle(text)}")
    return tuple(before), tuple(after)


def windowed_attributes_oracle(
    headline: Headline,
    config: FeatureConfig,
    embeddings: EmbeddingTable | None = None,
) -> list[dict[str, float]]:
    """`features.windowed_attributes`, one token and one name at a time.

    Each token's names are those of `base_attributes_oracle`, with
    `quot=1` between its halves where `quotation_flags` marks the
    token; the centre slot adds the embedding components times the
    scaling.  Offsets outside the headline give BOS or EOS.
    """
    n = len(headline)
    quoted = quotation_flags(headline) if config.quotation else [False] * n
    plain: list[dict[str, float]] = []
    centre: list[dict[str, float]] = []
    for token, q in zip(headline.tokens, quoted):
        before, after = base_attributes_oracle(token.text, token.pos, config)
        names = [*before, *([QUOTATION] if q else []), *after]
        plain.append(dict.fromkeys(names, 1.0))
        own = dict(plain[-1])
        if config.embedding:
            vector = embeddings.lookup(token.text)
            own.update(
                (name, float(v) * config.embedding_scaling)
                for name, v in zip(embedding_names(embeddings.dim), vector)
            )
        centre.append(own)
    out: list[dict[str, float]] = []
    radius = config.window_radius
    for t in range(n):
        vec: dict[str, float] = {}
        for offset in range(-radius, radius + 1):
            prefix = offset_prefix(offset)
            j = t + offset
            if j < 0:
                vec[prefix + BOS] = 1.0
            elif j >= n:
                vec[prefix + EOS] = 1.0
            else:
                source = centre[j] if offset == 0 else plain[j]
                vec.update((prefix + name, v) for name, v in source.items())
        out.append(vec)
    return out


# --- per-instance references of the batch encoding and inference -----------

def encode_attributes(sequences, lookup) -> Encoding:
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
    return _flat_encoding(
        np.frombuffer(ids, dtype=np.int64),
        np.frombuffer(vals, dtype=float),
        np.frombuffer(sizes, dtype=np.int64),
        np.arange(len(sizes)).reshape(-1, 1),
        np.frombuffer(seq_lengths, dtype=np.int64),
    )


def name_lookup(index: FeatureIndex):
    """The id of a windowed name in `index`, or None where it has none."""
    return dict(zip(index.names(), itertools.count())).get


def _encode_one(model: CrfModel, attrs) -> Encoding:
    if not attrs:
        raise ValidationError("attribute sequence must be non-empty")
    return encode_attributes([attrs], name_lookup(model.index))


def score_sequence(model: CrfModel, attrs, y) -> float:
    """Unnormalized score of tag sequence `y`; unknown attributes add 0."""
    if len(attrs) != len(y):
        raise ValidationError(
            f"{len(attrs)} attribute vectors but {len(y)} tags"
        )
    enc = _encode_one(model, attrs)
    gold = np.array([model.alphabet.index(tag) for tag in y], dtype=np.int64)
    counts = _path_counts(gold, enc.offsets, model.n_labels)
    e = cell_order_emissions(enc, model.state)
    return _path_score(e, gold, counts, model.transition, model.start, model.end)


def log_partition(model: CrfModel, attrs) -> float:
    """log of the summed exponentiated scores of all tag sequences.

    Raises DivergenceError where the scaled forward pass underflows.
    """
    enc = _encode_one(model, attrs)
    e = cell_order_emissions(enc, model.state)
    log_z, _, _ = _forward_backward(e, enc, model.transition, model.start, model.end)
    return log_z


def viterbi(model: CrfModel, attrs) -> list[str]:
    """Highest-scoring tag sequence, lower tag index winning ties.

    Computed without `crf`'s decoder: the `np.add.at` emissions of
    `cell_order_emissions` and the pure-Python Viterbi of
    `dp_best_path_min_index`.
    """
    e = cell_order_emissions(_encode_one(model, attrs), model.state)
    path = dp_best_path_min_index(e, model.transition, model.start, model.end)
    return [model.alphabet.tags[i] for i in path]


# --- brute-force inference oracles ----------------------------------------

def alphabet_of_size(n_labels: int) -> TagAlphabet:
    tags = ("O", "B-ENG", "I-ENG", "B-OTHER", "I-OTHER")[:n_labels]
    return TagAlphabet(tags)


def enumerate_scores(e, transition, start, end):
    """(sequence, score) for every possible tag sequence."""
    n, n_labels = e.shape
    for path in itertools.product(range(n_labels), repeat=n):
        score = start[path[0]] + end[path[-1]]
        for t, label in enumerate(path):
            score += e[t, label]
        for t in range(1, n):
            score += transition[path[t - 1], path[t]]
        yield path, float(score)


def brute_log_partition(e, transition, start, end) -> float:
    scores = np.array([s for _, s in enumerate_scores(e, transition, start, end)])
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_best_path(e, transition, start, end) -> tuple[tuple[int, ...], float]:
    best_path, best_score = None, -np.inf
    for path, score in enumerate_scores(e, transition, start, end):
        if score > best_score:
            best_path, best_score = path, score
    return best_path, best_score


def dp_best_path_min_index(e, transition, start, end) -> list[int]:
    """Independent Viterbi replica breaking ties toward the lower index."""
    n, n_labels = e.shape
    delta = [start[j] + e[0, j] for j in range(n_labels)]
    back: list[list[int]] = []
    for t in range(1, n):
        new = []
        pointers = []
        for j in range(n_labels):
            best_i, best_v = 0, delta[0] + transition[0, j]
            for i in range(1, n_labels):
                v = delta[i] + transition[i, j]
                if v > best_v:
                    best_i, best_v = i, v
            pointers.append(best_i)
            new.append(best_v + e[t, j])
        back.append(pointers)
        delta = new
    best_j, best_v = 0, delta[0] + end[0]
    for j in range(1, n_labels):
        v = delta[j] + end[j]
        if v > best_v:
            best_j, best_v = j, v
    path = [best_j]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    return path[::-1]


# --- encodings spelled out -------------------------------------------------

class FirstSeenIds(dict):
    """Attribute ids by first sight, as training numbers them: `add` is
    the lookup that gives a name seen first the next id."""

    def add(self, name: str) -> int:
        return self.setdefault(name, len(self))

    def names(self) -> tuple[str, ...]:
        return tuple(self)


def entry_values(enc):
    """The value of every entry of `enc`: its `vals`, or 1.0 throughout
    when it keeps none."""
    return np.ones(enc.ids.size) if enc.vals is None else enc.vals


def entry_cells(enc):
    """The cell of every entry of `enc`, in its cell-major order."""
    return np.repeat(np.arange(enc.n_cells), enc.sizes)


def expand_encoding(enc):
    """(ids, vals, token) of every token's entries, token by token.

    A token's entries are those of the cells it visits, in slot order,
    each cell's in entry order: the flat layout `encode_attributes`
    gives windowed attribute vectors.
    """
    starts = np.concatenate([[0], np.cumsum(enc.sizes)])
    values = entry_values(enc)
    ids, vals, token = [], [], []
    for t, row in enumerate(enc.visits.tolist()):
        for c in row:
            lo, hi = starts[c], starts[c + 1]
            ids.extend(enc.ids[lo:hi].tolist())
            vals.extend(values[lo:hi].tolist())
            token.extend([t] * (hi - lo))
    return (
        np.array(ids, dtype=np.int64),
        np.array(vals, dtype=float),
        np.array(token, dtype=np.int64),
    )


def cell_order_emissions(enc, state):
    """Emissions summed as `crf._rank_major_emissions` documents, by
    `np.add.at`.

    Each cell's entries are added up in entry order, then the cell rows
    of every token in ascending slot order.
    """
    per_cell = np.zeros((enc.n_cells, state.shape[1]))
    np.add.at(per_cell, entry_cells(enc), entry_values(enc)[:, None] * state[enc.ids])
    e = np.zeros((enc.n_tokens, state.shape[1]))
    for k in range(enc.visits.shape[1]):
        e += per_cell[enc.visits[:, k]]
    return e


def cell_order_state_gradient(enc, residual, n_features):
    """State gradient summed as `crf._scatter_state` documents.

    The residuals of each cell's visits are added up slot by slot,
    tokens ascending within a slot; then each cell's entries are added
    into their ids' rows in entry order.
    """
    per_cell = np.zeros((enc.n_cells, residual.shape[1]))
    for k in range(enc.visits.shape[1]):
        np.add.at(per_cell, enc.visits[:, k], residual)
    g_state = np.zeros((n_features, residual.shape[1]))
    np.add.at(g_state, enc.ids, entry_values(enc)[:, None] * per_cell[entry_cells(enc)])
    return g_state


# --- per-headline reference objective ---------------------------------------

def _reference_forward(e, transition, start, end):
    n, _ = e.shape
    alpha = np.empty_like(e)
    alpha[0] = start + e[0]
    for t in range(1, n):
        scores = alpha[t - 1][:, None] + transition
        m = scores.max(axis=0)
        alpha[t] = e[t] + m + np.log(np.exp(scores - m).sum(axis=0))
    last = alpha[n - 1] + end
    m = np.max(last)
    return alpha, float(m + np.log(np.sum(np.exp(last - m))))


def _reference_backward(e, transition, end):
    n, _ = e.shape
    beta = np.empty_like(e)
    beta[n - 1] = end
    for t in range(n - 2, -1, -1):
        scores = transition + (e[t + 1] + beta[t + 1])[None, :]
        m = scores.max(axis=1)
        beta[t] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    return beta


def _reference_pairs(e, transition, alpha, beta, log_z):
    """Pair marginals of one sequence, summed over its positions."""
    return np.exp(
        alpha[:-1, :, None]
        + transition[None, :, :]
        + (e[1:] + beta[1:])[:, None, :]
        - log_z
    ).sum(axis=0)


def reference_partition_and_pairs(e, transition, start, end):
    """log Z and summed pair marginals of one sequence, in log space."""
    alpha, log_z = _reference_forward(e, transition, start, end)
    beta = _reference_backward(e, transition, end)
    return log_z, _reference_pairs(e, transition, alpha, beta, log_z)


def _reference_accumulate(
    ids, vals, pos, gold, state, transition, start, end,
    g_state, g_transition, g_start, g_end,
):
    """One headline's NLL, adding its gradient into the g_* arrays."""
    n = len(gold)
    e = np.zeros((n, state.shape[1]))
    if ids.size:
        np.add.at(e, pos, vals[:, None] * state[ids])
    alpha, log_z = _reference_forward(e, transition, start, end)
    beta = _reference_backward(e, transition, end)
    # Unary marginals with the empirical one-hot already subtracted.
    residual = np.exp(alpha + beta - log_z)
    residual[np.arange(n), gold] -= 1.0
    if ids.size:
        np.add.at(g_state, ids, vals[:, None] * residual[pos])
    if n > 1:
        g_transition += _reference_pairs(e, transition, alpha, beta, log_z)
        np.subtract.at(g_transition, (gold[:-1], gold[1:]), 1.0)
    g_start += residual[0]
    g_end += residual[n - 1]
    gold_score = start[gold[0]] + end[gold[n - 1]]
    gold_score += e[np.arange(n), gold].sum()
    gold_score += transition[gold[:-1], gold[1:]].sum()
    return log_z - float(gold_score)


def reference_nll_and_gradient(dataset, weights, c2):
    """TrainingSet.nll_and_gradient computed one headline at a time."""
    k, l = dataset.n_features, dataset.n_labels
    state = weights[: k * l].reshape(k, l)
    transition = weights[k * l : k * l + l * l].reshape(l, l)
    start = weights[k * l + l * l : k * l + l * l + l]
    end = weights[k * l + l * l + l :]
    grad = np.zeros_like(weights)
    g_state = grad[: k * l].reshape(k, l)
    g_transition = grad[k * l : k * l + l * l].reshape(l, l)
    g_start = grad[k * l + l * l : k * l + l * l + l]
    g_end = grad[k * l + l * l + l :]
    enc = dataset.encoding
    ids, vals, token = expand_encoding(enc)
    value = 0.0
    for lo, hi in zip(enc.offsets[:-1], enc.offsets[1:]):
        a, b = np.searchsorted(token, [lo, hi])
        value += _reference_accumulate(
            ids[a:b], vals[a:b], token[a:b] - lo, dataset.gold[lo:hi],
            state, transition, start, end,
            g_state, g_transition, g_start, g_end,
        )
    if c2 > 0:
        value += 0.5 * c2 * float(np.dot(weights, weights))
        grad += c2 * weights
    return value, grad


# --- the OWL-QN loop with an orthant vector and a spare pair ---------------

def reference_minimize(
    fun, x0, *, l1=0.0, memory=6, max_iterations=1000, delta=1e-3, period=10
) -> optim.OptimResult:
    """`optim.minimize` as it was before trial points were projected
    onto sign(x): each iteration builds Andrew and Gao's orthant vector
    (sign(x), and sign(-pg) where x is 0), and the curvature history
    keeps a spare pair that each iteration writes its pair into."""
    x = np.array(x0, dtype=float)
    trial = np.empty_like(x)
    grad = np.empty_like(x)
    direction = np.empty_like(x)
    if l1 > 0:
        pg = np.empty_like(x)
        orthant = np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool)
    else:
        pg = grad
    f, returned = optim._evaluate(fun, x)
    np.copyto(grad, returned)
    obj = f + l1 * np.abs(x, out=trial).sum()
    trace = [obj]
    s_list, y_list, rho_list = deque(), deque(), deque()
    gamma = 1.0
    spare = None
    stop = optim.ITERATION_CAP
    for iteration in range(1, max_iterations + 1):
        if spare is None:
            spare = (np.empty_like(x), np.empty_like(x))
        s, y = spare
        tmp = y
        if l1 > 0:
            np.sign(x, out=orthant)
            np.equal(x, 0, out=mask)
            optim._pseudo_gradient(orthant, mask, grad, l1, out=pg, tmp=tmp)
        if not np.any(pg):
            stop = optim.CONVERGED
            break
        optim._two_loop(pg, s_list, y_list, rho_list, gamma, out=direction, tmp=tmp)
        if l1 > 0:
            np.sign(pg, out=tmp)
            tmp *= mask
            orthant -= tmp
            np.multiply(direction, pg, out=tmp)
            np.less(tmp, 0, out=mask)
            direction *= mask
        if not np.any(direction):
            stop = optim.STALLED
            break
        step = 1.0 if s_list else 1.0 / optim._norm(direction)
        accepted = False
        for _ in range(optim._MAX_BACKTRACKS):
            np.multiply(direction, step, out=trial)
            np.add(x, trial, out=trial)
            if l1 > 0:
                optim._project(trial, orthant, tmp=tmp, mask=mask)
            try:
                f_new, returned = optim._evaluate(fun, trial)
            except optim.DivergenceError:
                step *= 0.5
                continue
            obj_new = f_new + l1 * np.abs(trial, out=tmp).sum()
            np.subtract(trial, x, out=s)
            if l1 > 0:
                accepted = obj_new <= obj + optim._ARMIJO_C * optim.dot(pg, s)
            else:
                accepted = f_new <= f + optim._ARMIJO_C * step * optim.dot(
                    grad, direction
                )
            if accepted:
                break
            step *= 0.5
        if not accepted:
            stop = optim.LINE_SEARCH_FAILED
            break
        np.subtract(returned, grad, out=y)
        np.copyto(grad, returned)
        sy = optim.dot(s, y)
        yy = optim.dot(y, y)
        if sy > optim._CURVATURE_EPS * optim._norm(s) * math.sqrt(yy):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            gamma = sy / yy
            spare = None
            if len(s_list) > memory:
                spare = (s_list.popleft(), y_list.popleft())
                rho_list.popleft()
        x, trial = trial, x
        f, obj = f_new, obj_new
        trace.append(obj)
        if iteration >= period:
            if (trace[-period - 1] - obj) / max(abs(obj), 1e-12) < delta:
                stop = optim.CONVERGED
                break
    return optim.OptimResult(x=x, stop=stop, trace=tuple(trace))


def save_model_v1(model: CrfModel, stream) -> None:
    """The version-1 model file writer, kept as an oracle: the attribute
    names one per line in id order, and each state weight line keyed by
    its attribute's name.  Its digests pin the weights bit for bit across
    format changes."""
    names = model.index.names()
    tags = model.alphabet.tags
    rows, cols = np.nonzero(model.state)
    weights = model.state[rows, cols]
    lines = [
        "borrowings-crf 1",
        "labels\t" + "\t".join(tags),
        f"attributes\t{model.n_features}",
        "feature_config\t" + _config_echo(model.feature_config),
        "train_config\t" + _config_echo(model.train_config),
        "start\t" + "\t".join(_format_float(x) for x in model.start),
        "end\t" + "\t".join(_format_float(x) for x in model.end),
        "transitions",
        *("\t".join(_format_float(x) for x in row) for row in model.transition),
        "attribute_names",
        *names,
        f"state_weights\t{len(rows)}",
        *(
            f"{names[r]}\t{tags[c]}\t{_format_float(w)}"
            for r, c, w in zip(rows.tolist(), cols.tolist(), weights.tolist())
        ),
        "end_of_model",
    ]
    stream.write("\n".join(lines) + "\n")


def save_model_v2(model: CrfModel, stream) -> None:
    """The version-2 model file writer, kept as an oracle: each base
    name's row of ids as a line of tab-separated integers, and one
    `id<TAB>tag<TAB>weight` line per nonzero state weight.  Its digests
    pin the weights bit for bit across format changes; `load_model` no
    longer reads its files."""
    n_features = model.n_features
    width = model.index.ids.shape[1]
    radius = model.feature_config.window_radius
    if width != 2 * radius + 1:
        raise ValidationError(
            f"cannot save an index of window width {width} with a "
            f"model of window_radius {radius}"
        )
    index = model.index.in_first_id_order()
    # The id rows as one block, formatted in one call.
    row = "\t".join(["%d"] * width)
    id_rows = "\n".join([row] * len(index.rows)) % tuple(index.ids.ravel().tolist())
    tags = model.alphabet.tags
    rows, cols = np.nonzero(model.state)
    weights = model.state[rows, cols]
    lines = [
        "borrowings-crf 2",
        "labels\t" + "\t".join(tags),
        f"attributes\t{n_features}",
        "feature_config\t" + _config_echo(model.feature_config),
        "train_config\t" + _config_echo(model.train_config),
        "start\t" + "\t".join(_format_float(x) for x in model.start),
        "end\t" + "\t".join(_format_float(x) for x in model.end),
        "transitions",
        *("\t".join(_format_float(x) for x in row) for row in model.transition),
        f"base_names\t{len(index.rows)}",
        *index.rows,
        "attribute_ids",
        *([id_rows] if index.rows else []),
        f"state_weights\t{len(rows)}",
        *(
            f"{r}\t{tags[c]}\t{_format_float(w)}"
            for r, c, w in zip(rows.tolist(), cols.tolist(), weights.tolist())
        ),
        "end_of_model",
    ]
    stream.write("\n".join(lines) + "\n")


def repair_bio(tags) -> list[str]:
    """The tag-by-tag BIO repair, kept as an oracle for `bio_to_spans`:
    each I-X tag lacking an X predecessor is rewritten as B-X, so the
    result is `spans_to_bio` of the spans `bio_to_spans` decodes."""
    repaired: list[str] = []
    prev_label = None
    for tag in tags:
        if tag not in FULL_ALPHABET.tags:
            raise ValidationError(f"unknown tag {tag!r}")
        if tag.startswith("I-") and prev_label != tag[2:]:
            tag = "B-" + tag[2:]
        prev_label = None if tag == "O" else tag[2:]
        repaired.append(tag)
    return repaired


def full_model(model: CrfModel, corpus: Corpus) -> CrfModel:
    """The model `train` fitted to `corpus` without embeddings, with
    every attribute of the corpus kept: the index `encode_training_set`
    assigns, and the state rows of all of `diagnostics.x`."""
    _, index, alphabet = encode_training_set(corpus, model.feature_config)
    state = _unpack(model.diagnostics.x, len(index), len(alphabet))[0]
    return dataclasses.replace(model, index=index, state=state)


def without_inactive_v1(text: str) -> str:
    """A version-1 model text with the attribute names that no state
    weight line names removed, and the attribute count fixed to match:
    the file of the model with only its active attributes."""
    lines = text.split("\n")
    names_at = lines.index("attribute_names") + 1
    weights_at = next(
        i for i, line in enumerate(lines) if line.startswith("state_weights\t")
    )
    weighted = {
        line.split("\t")[0]
        for line in lines[weights_at + 1 : lines.index("end_of_model")]
    }
    kept = [name for name in lines[names_at:weights_at] if name in weighted]
    count_at = lines.index(f"attributes\t{weights_at - names_at}")
    lines[count_at] = f"attributes\t{len(kept)}"
    return "\n".join(lines[:names_at] + kept + lines[weights_at:])


_ORACLE_META_KEYS = ("id", "date", "section")


class _OracleBlock:
    """Mutable accumulator for the headline block being parsed."""

    def __init__(self) -> None:
        self.meta: dict[str, str] = {}
        self.tokens: list[Token] = []
        self.tags: list[str] = []
        self.first_line = 0

    def empty(self) -> bool:
        return not self.meta and not self.tokens


def _oracle_fail(lineno: int, message: str) -> None:
    raise ValidationError(f"line {lineno}: {message}")


def _oracle_finish_block(block: _OracleBlock, lineno: int) -> Headline:
    if "id" not in block.meta:
        _oracle_fail(block.first_line, "headline block is missing an id")
    if not block.tokens:
        _oracle_fail(block.first_line, "headline block has no token lines")
    date = None
    if "date" in block.meta:
        try:
            date = datetime.date.fromisoformat(block.meta["date"])
        except ValueError:
            _oracle_fail(block.first_line, f"bad date {block.meta['date']!r}")
    try:
        spans = bio_to_spans(block.tags)
        return Headline(
            id=block.meta["id"],
            tokens=tuple(block.tokens),
            spans=tuple(spans),
            date=date,
            section=block.meta.get("section"),
        )
    except ValidationError as exc:
        _oracle_fail(block.first_line, str(exc))


_ORACLE_META_RE = re.compile(r"#\s*([^=\s]+)\s*=\s*(.*\S)\s*$")


def read_corpus_oracle(stream, name: str = "corpus") -> Corpus:
    """The line-by-line corpus reader, kept as an oracle for
    `read_corpus`: each line is checked as it is read, each token by
    `Token` once an escaped `\\...\\#` text has lost its first `\\`,
    each headline by `bio_to_spans` and `Headline`, and a
    block's own faults (no id, no tokens, a bad date) are raised when
    the line after it is read."""
    headlines: list[Headline] = []
    block = _OracleBlock()
    lineno = 0
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            if not block.empty():
                headlines.append(_oracle_finish_block(block, lineno))
                block = _OracleBlock()
            continue
        if block.empty():
            block.first_line = lineno
        if line.startswith("#"):
            if block.tokens:
                _oracle_fail(lineno, "metadata comment after token lines")
            match = _ORACLE_META_RE.match(line)
            if not match:
                _oracle_fail(lineno, f"malformed metadata comment {line!r}")
            key, value = match.group(1), match.group(2)
            if key not in _ORACLE_META_KEYS:
                _oracle_fail(lineno, f"unknown metadata key {key!r}")
            if key in block.meta:
                _oracle_fail(lineno, f"duplicate metadata key {key!r}")
            block.meta[key] = value
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            _oracle_fail(lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        text, pos, tag = fields
        if tag not in FULL_ALPHABET:
            _oracle_fail(lineno, f"unknown tag {tag!r}")
        if text.startswith("\\") and text.lstrip("\\").startswith("#"):
            text = text[1:]
        try:
            block.tokens.append(Token(text, None if pos == "_" else pos))
        except ValidationError as exc:
            _oracle_fail(lineno, str(exc))
        block.tags.append(tag)
    if not block.empty():
        headlines.append(_oracle_finish_block(block, lineno + 1))
    return Corpus(name, tuple(headlines))


def tag_oracle(model: CrfModel, corpus: Corpus, embeddings=None) -> Corpus:
    """`crf.tag` one headline at a time: each headline's Viterbi path
    decoded by `bio_to_spans` and put in with `dataclasses.replace`."""
    return Corpus(corpus.name, tuple(
        dataclasses.replace(headline, spans=tuple(bio_to_spans(viterbi(
            model,
            windowed_attributes_oracle(headline, model.feature_config, embeddings),
        ))))
        for headline in corpus
    ))


@st.composite
def line_mutations(draw, fields, lines=(), kinds=("drop", "duplicate", "swap", "field", "cut")):
    """One edit of a text's lines: drop, duplicate or swap lines, replace
    a field with one of `fields`, cut the text at an offset, insert one of
    `lines`, or end a line with a carriage return (`cr`).  Line numbers
    are taken modulo the text's length; small ones hit its head."""
    line = st.integers(0, 40) | st.integers(0, 10**6)
    kind = draw(st.sampled_from(kinds))
    if kind == "field":
        return kind, draw(line), draw(st.integers(0, 10)), draw(st.sampled_from(fields))
    if kind == "insert":
        return kind, draw(line), draw(st.sampled_from(lines))
    if kind == "cut":
        return kind, draw(st.integers(0, 10**7))
    return kind, draw(line), draw(line)


def mutate(text: str, mutation, sep: str = "\t") -> str:
    """`text` with one `line_mutations` edit made; fields are split at `sep`."""
    kind, *args = mutation
    if kind == "cut":
        return text[: args[0] % (len(text) + 1)]
    lines = text.split("\n")
    i = args[0] % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(args[1] % (len(lines) + 1), lines[i])
    elif kind == "swap":
        j = args[1] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "insert":
        lines.insert(i, args[1])
    elif kind == "cr":
        lines[i] += "\r"
    else:
        fields = lines[i].split(sep)
        fields[args[1] % len(fields)] = args[2]
        lines[i] = sep.join(fields)
    return "\n".join(lines)


def model_from_matrices(e, transition, start, end) -> tuple[CrfModel, list[dict]]:
    """Model whose emissions for the returned attrs equal `e` exactly:
    token t has the one attribute `[0]p<t>`."""
    n, n_labels = e.shape
    config = FeatureConfig()
    names = [f"[0]p{t}" for t in range(n)]
    index = window_table(names, config.window_radius)
    model = CrfModel(
        alphabet=alphabet_of_size(n_labels),
        index=index,
        state=np.array(e, dtype=float),
        transition=np.array(transition, dtype=float),
        start=np.array(start, dtype=float),
        end=np.array(end, dtype=float),
        feature_config=config,
        train_config=TrainConfig(),
    )
    return model, [{name: 1.0} for name in names]


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return synthetic_corpus(n_headlines=40, seed=3, name="small")


@pytest.fixture(scope="session")
def small_dev_corpus() -> Corpus:
    return synthetic_corpus(n_headlines=20, seed=5, name="small-dev")
