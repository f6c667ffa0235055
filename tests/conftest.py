"""Shared generators and brute-force oracles for the test suite.

The synthetic corpus is deterministic given a seed and perfectly
separable: every borrowing-initial token ends in the sentinel suffix
`zzq`, every continuation token in `qzz`, and every OTHER-borrowing
token in `vvk`, while filler tokens never do.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from borrowings.corpus import Corpus, Headline, LabeledSpan, TagAlphabet, Token
from borrowings.crf import CrfModel, TrainConfig
from borrowings.embeddings import EmbeddingTable
from borrowings.features import FeatureConfig, FeatureIndex

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

def expand_encoding(enc):
    """(ids, vals, token) of every token's entries, token by token.

    A token's entries are those of the cells it visits, in slot order,
    each cell's in entry order: the flat layout `encode_attributes`
    gives windowed attribute vectors.
    """
    starts = np.searchsorted(enc.cell, np.arange(enc.n_cells + 1))
    ids, vals, token = [], [], []
    for t, row in enumerate(enc.visits.tolist()):
        for c in row:
            lo, hi = starts[c], starts[c + 1]
            ids.extend(enc.ids[lo:hi].tolist())
            vals.extend(enc.vals[lo:hi].tolist())
            token.extend([t] * (hi - lo))
    return (
        np.array(ids, dtype=np.int64),
        np.array(vals, dtype=float),
        np.array(token, dtype=np.int64),
    )


def cell_order_emissions(enc, state):
    """Emissions summed as `crf._emissions` documents, by `np.add.at`.

    Each cell's entries are added up in entry order, then the cell rows
    of every token in ascending slot order.
    """
    per_cell = np.zeros((enc.n_cells, state.shape[1]))
    np.add.at(per_cell, enc.cell, enc.vals[:, None] * state[enc.ids])
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
    np.add.at(g_state, enc.ids, enc.vals[:, None] * per_cell[enc.cell])
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


def model_from_matrices(e, transition, start, end) -> tuple[CrfModel, list[dict]]:
    """Model whose emissions for the returned attrs equal `e` exactly."""
    n, n_labels = e.shape
    index = FeatureIndex.from_names([f"p{t}" for t in range(n)])
    model = CrfModel(
        alphabet=alphabet_of_size(n_labels),
        index=index,
        state=np.array(e, dtype=float),
        transition=np.array(transition, dtype=float),
        start=np.array(start, dtype=float),
        end=np.array(end, dtype=float),
        feature_config=FeatureConfig(),
        train_config=TrainConfig(),
    )
    attrs = [{f"p{t}": 1.0} for t in range(n)]
    return model, attrs


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return synthetic_corpus(n_headlines=40, seed=3, name="small")


@pytest.fixture(scope="session")
def small_dev_corpus() -> Corpus:
    return synthetic_corpus(n_headlines=20, seed=5, name="small-dev")
