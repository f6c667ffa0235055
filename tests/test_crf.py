import base64
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borrowings import crf, features
from borrowings.corpus import (
    ENG_ALPHABET,
    FULL_ALPHABET,
    Corpus,
    Headline,
    LabeledSpan,
    TagAlphabet,
    Token,
    bio_to_spans,
    read_corpus,
    write_corpus,
)
from borrowings.crf import (
    CrfModel,
    DivergenceError,
    TrainingSet,
    ModelDimensionError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    TrainConfig,
    encode_training_set,
    load_model,
    n_parameters,
    save_model,
    tag,
    train,
)
from borrowings.errors import ConfigError, ValidationError
from borrowings.evaluation import evaluate
from borrowings.features import (
    FeatureConfig,
    FeatureIndex,
    offset_prefix,
    window_table,
)
from conftest import (
    alphabet_of_size,
    brute_best_path,
    brute_log_partition,
    cell_order_emissions,
    cell_order_state_gradient,
    dp_best_path_min_index,
    encode_attributes,
    enumerate_scores,
    expand_encoding,
    full_model,
    line_mutations,
    log_partition,
    model_from_matrices,
    mutate,
    name_lookup,
    open_vocabulary_corpus,
    reference_nll_and_gradient,
    reference_partition_and_pairs,
    save_model_v1,
    save_model_v2,
    score_sequence,
    synthetic_corpus,
    synthetic_embeddings,
    tag_oracle,
    viterbi,
    windowed_attributes_oracle,
    without_inactive_v1,
)


def random_matrices(rng, n, n_labels, scale=1.0):
    return (
        rng.normal(scale=scale, size=(n, n_labels)),
        rng.normal(scale=scale, size=(n_labels, n_labels)),
        rng.normal(scale=scale, size=n_labels),
        rng.normal(scale=scale, size=n_labels),
    )


def zero_model(n, n_labels):
    e = np.zeros((n, n_labels))
    t = np.zeros((n_labels, n_labels))
    s = np.zeros(n_labels)
    return model_from_matrices(e, t, s, s.copy())


class TestScoreSequence:
    def test_zero_weights_score_zero(self):
        model, attrs = zero_model(3, 3)
        for y in (["O", "O", "O"], ["B-ENG", "I-ENG", "O"]):
            assert score_sequence(model, attrs, y) == 0.0

    def test_single_token_start_plus_end(self):
        e = np.zeros((1, 3))
        t = np.zeros((3, 3))
        s = np.array([0.1, 0.7, -0.3])
        end = np.array([1.0, -2.0, 0.25])
        model, attrs = model_from_matrices(e, t, s, end)
        for j, tag_name in enumerate(model.alphabet.tags):
            assert score_sequence(model, attrs, [tag_name]) == pytest.approx(
                s[j] + end[j]
            )

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(2, 5))
            model, attrs = model_from_matrices(*random_matrices(rng, n, n_labels))
            y_ids = rng.integers(0, n_labels, size=n)
            y = [model.alphabet.tags[i] for i in y_ids]
            expected = model.start[y_ids[0]] + model.end[y_ids[-1]]
            for t, i in enumerate(y_ids):
                expected += model.state[t, i]
            for t in range(1, n):
                expected += model.transition[y_ids[t - 1], y_ids[t]]
            assert score_sequence(model, attrs, y) == pytest.approx(expected)

    def test_attribute_values_scale_contribution(self):
        model, _ = zero_model(1, 3)
        model.state[0] = np.array([0.5, 1.5, -1.0])
        assert score_sequence(model, [{"[0]p0": 2.0}], ["B-ENG"]) == pytest.approx(3.0)

    def test_unknown_attributes_contribute_zero(self):
        rng = np.random.default_rng(2)
        model, attrs = model_from_matrices(*random_matrices(rng, 2, 3))
        augmented = [dict(a, **{"never-seen": 9.0}) for a in attrs]
        y = ["O", "B-ENG"]
        assert score_sequence(model, augmented, y) == score_sequence(model, attrs, y)

    def test_length_mismatch_rejected(self):
        model, attrs = zero_model(2, 3)
        with pytest.raises(ValidationError, match="2 attribute vectors but 1"):
            score_sequence(model, attrs, ["O"])


class TestLogPartition:
    def test_zero_weights_two_by_three(self):
        model, attrs = zero_model(2, 3)
        assert log_partition(model, attrs) == pytest.approx(2 * math.log(3))

    def test_zero_weights_general(self):
        for n, n_labels in ((1, 2), (3, 5), (4, 4)):
            model, attrs = zero_model(n, n_labels)
            assert log_partition(model, attrs) == pytest.approx(n * math.log(n_labels))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(2, 5))
            mats = random_matrices(rng, n, n_labels, scale=2.0)
            model, attrs = model_from_matrices(*mats)
            assert log_partition(model, attrs) == pytest.approx(
                brute_log_partition(*mats), abs=1e-8
            )

    def test_distribution_normalizes(self):
        rng = np.random.default_rng(4)
        mats = random_matrices(rng, 4, 3, scale=1.5)
        model, attrs = model_from_matrices(*mats)
        log_z = log_partition(model, attrs)
        total = sum(
            math.exp(score - log_z) for _, score in enumerate_scores(*mats)
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestViterbi:
    def test_zero_weights_all_outside(self):
        model, attrs = zero_model(4, 5)
        assert viterbi(model, attrs) == ["O", "O", "O", "O"]

    def test_forbidden_self_transition_forces_alternation(self):
        n, n_labels = 4, 3
        e = np.zeros((n, n_labels))
        e[:, 1] = 5.0  # B-ENG dominates every position
        t = np.zeros((n_labels, n_labels))
        t[1, 1] = -1e6  # but B-ENG cannot repeat
        s = np.zeros(n_labels)
        mats = (e, t, s, s.copy())
        model, attrs = model_from_matrices(*mats)
        decoded = viterbi(model, attrs)
        # Both alternations score the same; the DP tie-break decides.
        expected = dp_best_path_min_index(*mats)
        assert decoded == [model.alphabet.tags[i] for i in expected]
        assert decoded.count("B-ENG") == 2
        _, best_score = brute_best_path(*mats)
        assert score_sequence(model, attrs, decoded) == pytest.approx(best_score)

    def test_matches_enumeration_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(2, 5))
            mats = random_matrices(rng, n, n_labels, scale=2.0)
            model, attrs = model_from_matrices(*mats)
            best_path, best_score = brute_best_path(*mats)
            decoded = viterbi(model, attrs)
            assert decoded == [model.alphabet.tags[i] for i in best_path]
            assert score_sequence(model, attrs, decoded) == pytest.approx(best_score)

    def test_tie_break_prefers_lower_index(self):
        # Integer weights force exact ties; compare against an
        # independent DP replica that resolves ties toward index 0.
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            n_labels = int(rng.integers(2, 4))
            e = rng.integers(0, 2, size=(n, n_labels)).astype(float)
            t = rng.integers(0, 2, size=(n_labels, n_labels)).astype(float)
            s = rng.integers(0, 2, size=n_labels).astype(float)
            end = rng.integers(0, 2, size=n_labels).astype(float)
            model, attrs = model_from_matrices(e, t, s, end)
            expected = dp_best_path_min_index(e, t, s, end)
            assert viterbi(model, attrs) == [
                model.alphabet.tags[i] for i in expected
            ]

    def test_viterbi_score_dominates_all_sequences(self):
        rng = np.random.default_rng(7)
        mats = random_matrices(rng, 4, 4)
        model, attrs = model_from_matrices(*mats)
        decoded_score = score_sequence(model, attrs, viterbi(model, attrs))
        for _, score in enumerate_scores(*mats):
            assert decoded_score >= score - 1e-9


def encode_small(ignore_other=False, n=12, seed=8):
    corpus = synthetic_corpus(n, seed=seed, with_other=not ignore_other)
    return encode_training_set(corpus, FeatureConfig(), ignore_other=ignore_other)


class TestObjective:
    def test_zero_weights_uniform_value(self):
        dataset, index, alphabet = encode_small()
        value, grad = dataset.nll_and_gradient(np.zeros(dataset.n_parameters), 0.0)
        expected = dataset.encoding.n_tokens * math.log(len(alphabet))
        assert value == pytest.approx(expected)
        assert grad.shape == (n_parameters(len(index), len(alphabet)),)

    def test_l2_penalty_is_additive(self):
        dataset, _, _ = encode_small()
        rng = np.random.default_rng(9)
        w = rng.normal(scale=0.1, size=dataset.n_parameters)
        base, base_grad = dataset.nll_and_gradient(w, 0.0)
        c2 = 0.7
        reg, reg_grad = dataset.nll_and_gradient(w, c2)
        assert reg - base == pytest.approx(0.5 * c2 * float(np.dot(w, w)), rel=1e-10)
        assert np.allclose(reg_grad - base_grad, c2 * w, atol=1e-12)

    def test_value_nonnegative_without_penalty(self):
        dataset, _, _ = encode_small()
        rng = np.random.default_rng(10)
        for _ in range(3):
            w = rng.normal(scale=0.2, size=dataset.n_parameters)
            value, _ = dataset.nll_and_gradient(w, 0.0)
            assert value >= 0.0

    @pytest.mark.parametrize("c2", [0.0, 0.5])
    def test_gradient_matches_finite_differences(self, c2):
        dataset, _, _ = encode_small(n=4, seed=11)
        rng = np.random.default_rng(12)
        w = rng.normal(scale=0.3, size=dataset.n_parameters)
        _, grad = dataset.nll_and_gradient(w, c2)
        h = 1e-4
        coords = rng.choice(dataset.n_parameters, size=60, replace=False)
        for i in coords:
            wp = w.copy()
            wp[i] += h
            wm = w.copy()
            wm[i] -= h
            fd = (
                dataset.nll_and_gradient(wp, c2)[0]
                - dataset.nll_and_gradient(wm, c2)[0]
            ) / (2 * h)
            denom = max(abs(grad[i]), abs(fd), 1e-2)
            assert abs(grad[i] - fd) / denom < 1e-5

    def test_wrong_shape_rejected(self):
        dataset, _, _ = encode_small()
        with pytest.raises(ValidationError, match="expected"):
            dataset.nll_and_gradient(np.zeros(dataset.n_parameters + 1), 0.0)

    def test_divergence_reported(self):
        dataset, _, _ = encode_small()
        w = np.full(dataset.n_parameters, 1e308)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            dataset.nll_and_gradient(w, 0.0)


def indexed_lookup(n_features):
    """Lookup for attributes `a<k>`: ids below n_features, others dropped."""
    return lambda name: int(name[1:]) if int(name[1:]) < n_features else None


@st.composite
def flat_training_sets(draw):
    """(TrainingSet, weights, c2) over mixed lengths and sparse attributes."""
    n_labels = draw(st.sampled_from([3, 5]))
    n_features = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    if draw(st.booleans()):
        lengths.append(1)
    attribute = st.tuples(
        st.integers(0, n_features + 1),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    sequences = [
        [dict((f"a{k}", v) for k, v in draw(st.lists(attribute, max_size=4)))
         for _ in range(n)]
        for n in lengths
    ]
    if draw(st.booleans()):
        # A headline none of whose attributes is indexed.
        sequences.insert(
            draw(st.integers(0, len(sequences))),
            [{f"a{n_features}": 1.0}, {}, {f"a{n_features + 1}": -0.5}],
        )
    enc = encode_attributes(sequences, indexed_lookup(n_features))
    gold = np.array(
        draw(st.lists(
            st.integers(0, n_labels - 1),
            min_size=enc.n_tokens, max_size=enc.n_tokens,
        )),
        dtype=np.int64,
    )
    dataset = TrainingSet(enc, gold, n_features, n_labels)
    scale = draw(st.sampled_from([0.01, 0.5, 2.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.normal(scale=scale, size=dataset.n_parameters)
    c2 = draw(st.sampled_from([0.0, 0.3]))
    return dataset, weights, c2


@st.composite
def rank_major_cases(draw):
    """(sequences, n_features, n_labels, weights) for the rank-major
    emissions: cells with no entries, unit or non-unit values, and
    weights that include both signed zeros."""
    n_labels = draw(st.sampled_from([1, 3, 5]))
    n_features = draw(st.integers(1, 6))
    if draw(st.booleans()):
        value = st.just(1.0)
    else:
        value = st.sampled_from([1.0, -0.0, 0.5, -2.0, 1e-300])
    names = st.lists(st.integers(0, n_features + 1), max_size=5, unique=True)
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    sequences = [
        [{f"a{k}": draw(value) for k in draw(names)} for _ in range(n)]
        for n in lengths
    ]
    weight = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 3e10, -7e-5])
    weights = tuple(draw(st.lists(weight, min_size=1, max_size=n_features * n_labels)))
    return sequences, n_features, n_labels, weights


def mixed_length_dataset(n_labels=5, n_features=4, seed=21):
    """Lengths 1 to 5, some tokens without attributes, random gold."""
    rng = np.random.default_rng(seed)
    lengths = [3, 1, 5, 3, 2, 1, 4]
    sequences = [
        [
            {f"a{k}": float(rng.normal()) for k in rng.choice(
                n_features + 1, size=int(rng.integers(0, 3)), replace=False
            )}
            for _ in range(n)
        ]
        for n in lengths
    ]
    enc = encode_attributes(sequences, indexed_lookup(n_features))
    gold = rng.integers(0, n_labels, size=enc.n_tokens)
    return TrainingSet(enc, gold, n_features, n_labels)


class TestFlatEncoding:
    def test_layout(self):
        enc = encode_attributes(
            [[{"a0": 1.0, "zz": 5.0}, {"a1": 2.0}], [{}], [{"a1": 3.0}, {"a0": 4.0}]],
            {"a0": 0, "a1": 1}.get,
        )
        assert enc.ids.tolist() == [0, 1, 1, 0]
        assert enc.vals.tolist() == [1.0, 2.0, 3.0, 4.0]
        # One cell per token, the empty ones included.
        assert enc.sizes.tolist() == [1, 1, 0, 1, 1]
        assert enc.visits.tolist() == [[0], [1], [2], [3], [4]]
        assert enc.n_cells == 5
        assert enc.offsets.tolist() == [0, 2, 3, 5]
        assert enc.n_tokens == 5
        # Rank-major: cells by descending entry count, ties in cell
        # order, so cells 0, 1, 3, 4, 2 become cells 0 to 4.
        assert enc.ranks.tolist() == [0, 4]
        assert enc.ranked_ids.tolist() == [0, 1, 1, 0]
        assert enc.ranked_vals.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert enc.ranked_visits.tolist() == [[0], [1], [4], [2], [3]]
        # Step-major, sequences by descending length; equal lengths keep
        # input order, so the ranks are sequences 0, 2, 1.
        assert enc.order.tolist() == [0, 3, 2, 1, 4]
        assert enc.steps.tolist() == [0, 3, 5]
        # Rows 3 and 4 (tokens 1 and 4) follow rows 0 and 1 (tokens 0
        # and 3); the sequences end at rows 3, 2 and 4.
        assert enc.prev.tolist() == [0, 1]
        assert enc.last.tolist() == [2, 3, 4]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=60))
    def test_packed_steps_spelled_out(self, lengths):
        enc = encode_attributes([[{}] * n for n in lengths], {}.get)
        starts = enc.offsets[:-1].tolist()
        # Python's sort is stable: equal lengths keep input order.
        ranked = sorted(range(len(lengths)), key=lambda i: -lengths[i])
        order, steps = [], [0]
        for t in range(max(lengths, default=0)):
            order += [starts[i] + t for i in ranked if lengths[i] > t]
            steps.append(len(order))
        assert enc.order.tolist() == order
        assert enc.steps.tolist() == steps
        assert enc.order.dtype == enc.steps.dtype == np.int64

    def test_window_cells_are_stored_once(self):
        tokens = tuple(Token(w) for w in ("a", "a", "b", "a"))
        corpus = Corpus("c", (Headline(id="h", tokens=tokens),))
        config = FeatureConfig(window_radius=1)
        dataset, _, _ = encode_training_set(corpus, config)
        enc = dataset.encoding
        # Cells by first visit: BOS at slot 0, a at 1, a at 2, a at 0,
        # b at 2, b at 1, b at 0, EOS at 2.
        assert enc.visits.tolist() == [[0, 1, 2], [3, 1, 4], [3, 5, 2], [6, 1, 7]]
        assert enc.n_cells == 8
        entries = enc.sizes
        assert np.all(entries > 0)
        visited = np.bincount(enc.visits.ravel(), minlength=8)
        ids, _, _ = expand_encoding(enc)
        assert enc.ids.size == entries.sum() < ids.size == (visited * entries).sum()

    @settings(max_examples=120, deadline=None)
    @given(rank_major_cases())
    @example(([[{"a0": 1.0}]], 1, 3, (-0.0, 0.0, 2.5)))
    @example(([[{}], [{"a9": 2.0}, {}]], 2, 2, (0.0,)))
    @example(([[{"a0": -0.0, "a1": 1.0}, {}, {"a1": 0.5, "a0": 3.0}]], 2, 3, (-0.0, 1.0)))
    def test_rank_major_emissions_sum_cells_then_slots_exactly(self, case):
        sequences, n_features, n_labels, weights = case
        enc = encode_attributes(sequences, indexed_lookup(n_features))
        state = np.resize(np.array(weights), (n_features, n_labels))
        got = crf._rank_major_emissions(enc, state)
        assert got.tobytes() == cell_order_emissions(enc, state).tobytes()

    @pytest.mark.parametrize("embedding", [False, True])
    def test_rank_major_emissions_of_window_cells(self, embedding):
        corpus = synthetic_corpus(30, seed=29)
        table = synthetic_embeddings(corpus) if embedding else None
        config = FeatureConfig(embedding=embedding)
        dataset, _, _ = encode_training_set(corpus, config, table)
        enc = dataset.encoding
        # Cells are shared across tokens and hold different numbers of
        # entries, so cells and entries are both reordered.
        assert enc.visits.shape[1] == 5
        assert enc.ranks.size > 2
        assert (enc.vals is None) is not embedding
        assert (enc.ranked_vals is None) is not embedding
        rng = np.random.default_rng(30)
        state = rng.normal(size=(dataset.n_features, dataset.n_labels))
        state[rng.random(state.shape) < 0.3] = -0.0
        state[rng.random(state.shape) < 0.3] = 0.0
        got = crf._rank_major_emissions(enc, state)
        assert got.tobytes() == cell_order_emissions(enc, state).tobytes()

    def test_state_scatter_sums_visits_then_entries_exactly(self):
        dataset, _, _ = encode_small()
        rng = np.random.default_rng(23)
        enc = dataset.encoding
        residual = rng.normal(size=(enc.n_tokens, dataset.n_labels))
        got = np.full((dataset.n_features, dataset.n_labels), -0.0)
        crf._scatter_state(enc, residual, got)
        expected = cell_order_state_gradient(enc, residual, dataset.n_features)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("c2", [0.0, 0.3])
    def test_unit_value_array_gives_the_bytes_of_none(self, c2):
        dataset, _, _ = encode_small()
        enc = dataset.encoding
        assert enc.vals is None
        ones = TrainingSet(
            features._flat_encoding(
                enc.ids,
                np.ones(enc.ids.size),
                enc.sizes,
                enc.visits,
                np.diff(enc.offsets),
            ),
            dataset.gold,
            dataset.n_features,
            dataset.n_labels,
        )
        assert ones.encoding.ranked_vals is not None
        rng = np.random.default_rng(24)
        weights = rng.normal(size=dataset.n_parameters)
        weights[rng.random(weights.size) < 0.3] = -0.0
        value, grad = dataset.nll_and_gradient(weights, c2)
        value_ones, grad_ones = ones.nll_and_gradient(weights, c2)
        assert np.float64(value).tobytes() == np.float64(value_ones).tobytes()
        assert grad.tobytes() == grad_ones.tobytes()

    def test_gold_length_must_match(self):
        enc = encode_attributes([[{}, {}]], {}.get)
        with pytest.raises(ValidationError, match="gold tags"):
            TrainingSet(enc, np.zeros(3, dtype=np.int64), 1, 3)


class TestBatchedObjective:
    @settings(max_examples=80, deadline=None)
    @given(flat_training_sets())
    def test_matches_per_headline_oracle(self, case):
        dataset, weights, c2 = case
        value, grad = dataset.nll_and_gradient(weights, c2)
        ref_value, ref_grad = reference_nll_and_gradient(dataset, weights, c2)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)

    def test_matches_oracle_on_a_corpus(self):
        dataset, _, _ = encode_small(n=40, seed=23)
        rng = np.random.default_rng(24)
        for scale in (0.0, 0.3, 3.0):
            w = rng.normal(scale=scale, size=dataset.n_parameters)
            value, grad = dataset.nll_and_gradient(w, 0.1)
            ref_value, ref_grad = reference_nll_and_gradient(dataset, w, 0.1)
            assert value == pytest.approx(ref_value, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)

    def test_interleaved_evaluations_and_sets_share_no_buffer(self):
        first, _, _ = encode_small(n=30, seed=31)
        second, _, _ = encode_small(n=30, seed=31)
        rng = np.random.default_rng(32)
        w1, w2 = rng.normal(scale=0.5, size=(2, first.n_parameters))
        out1, out2 = np.empty(first.n_parameters), np.empty(first.n_parameters)
        value1, grad1 = first.nll_and_gradient(w1, 0.1)
        kept1 = grad1.tobytes()
        _, grad2 = second.nll_and_gradient(w2, 0.1, out=out2)
        kept2 = grad2.tobytes()
        first.nll_and_gradient(w2, 0.1, out=out1)
        assert out1.tobytes() == kept2
        again_value, again_grad = first.nll_and_gradient(w1, 0.1)
        assert repr(again_value) == repr(value1)
        assert again_grad.tobytes() == grad1.tobytes() == kept1
        assert out2.tobytes() == kept2
        assert not np.may_share_memory(grad1, again_grad)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(obj):
                for field in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, field.name))

        held = [list(arrays(list(vars(s).values()))) for s in (first, second)]
        assert len(held[0]) == len(held[1]) > 10
        for a in held[0]:
            for b in held[1]:
                assert not np.may_share_memory(a, b)

    def test_repeated_evaluations_are_bit_identical(self):
        dataset, _, _ = encode_small()
        w = np.random.default_rng(25).normal(scale=0.5, size=dataset.n_parameters)
        first_value, first_grad = dataset.nll_and_gradient(w, 0.2)
        second_value, second_grad = dataset.nll_and_gradient(w, 0.2)
        assert first_value == second_value
        assert np.array_equal(first_grad, second_grad)

    @pytest.mark.parametrize("c2", [0.0, 0.2])
    def test_out_buffer_gets_the_same_bits(self, c2):
        dataset, _, _ = encode_small(n=30, seed=27)
        w = np.random.default_rng(28).normal(scale=0.5, size=dataset.n_parameters)
        w[::3] = 0.0
        w[1::5] = -0.0
        value, grad = dataset.nll_and_gradient(w, c2)
        out = np.full(dataset.n_parameters, np.nan)
        got_value, got_grad = dataset.nll_and_gradient(w, c2, out=out)
        assert got_grad is out
        assert got_value == value
        assert got_grad.tobytes() == grad.tobytes()

    def test_out_buffer_is_checked(self):
        dataset, _, _ = encode_small()
        w = np.zeros(dataset.n_parameters)
        for out in (
            np.empty(dataset.n_parameters + 1),
            np.empty(dataset.n_parameters, dtype=np.float32),
            w,
        ):
            with pytest.raises(ValidationError):
                dataset.nll_and_gradient(w, 0.1, out=out)

    def test_gradient_matches_finite_differences_on_mixed_lengths(self):
        dataset = mixed_length_dataset()
        rng = np.random.default_rng(26)
        w = rng.normal(scale=0.5, size=dataset.n_parameters)
        _, grad = dataset.nll_and_gradient(w, 0.0)
        h = 1e-5
        for i in range(dataset.n_parameters):
            wp = w.copy()
            wp[i] += h
            wm = w.copy()
            wm[i] -= h
            fd = (
                dataset.nll_and_gradient(wp, 0.0)[0]
                - dataset.nll_and_gradient(wm, 0.0)[0]
            ) / (2 * h)
            denom = max(abs(grad[i]), abs(fd), 1e-2)
            assert abs(grad[i] - fd) / denom < 1e-6


def headlines_of(*sentences, pos="NOUN"):
    """Corpus with one headline per list of words."""
    return Corpus("c", tuple(
        Headline(id=f"h{i}", tokens=tuple(Token(w, pos) for w in words))
        for i, words in enumerate(sentences)
    ))


def assert_objective_matches_oracle_and_differences(dataset, seed, n_checked=40):
    """Objective against the per-headline oracle, and the gradient of a
    sample of parameters against central finite differences."""
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.5, size=dataset.n_parameters)
    for c2 in (0.0, 0.2):
        value, grad = dataset.nll_and_gradient(w, c2)
        ref_value, ref_grad = reference_nll_and_gradient(dataset, w, c2)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)
    _, grad = dataset.nll_and_gradient(w, 0.0)
    checked = rng.choice(
        dataset.n_parameters, size=min(n_checked, dataset.n_parameters), replace=False
    )
    h = 1e-5
    for i in checked.tolist():
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        fd = (
            dataset.nll_and_gradient(wp, 0.0)[0]
            - dataset.nll_and_gradient(wm, 0.0)[0]
        ) / (2 * h)
        denom = max(abs(grad[i]), abs(fd), 1e-2)
        assert abs(grad[i] - fd) / denom < 1e-6


class TestCellSharing:
    """The objective over cell encodings at the extremes of sharing."""

    def test_one_repeated_type(self):
        corpus = headlines_of(["casa"], ["casa"] * 3, ["casa"] * 6, ["casa"] * 2)
        dataset, _, _ = encode_training_set(corpus, FeatureConfig())
        enc = dataset.encoding
        # Per slot: BOS or EOS, or the one type; nothing else.
        assert enc.n_cells == 2 * 2 + 5
        assert_objective_matches_oracle_and_differences(dataset, seed=51)

    def test_every_type_a_singleton(self):
        words = iter(f"w{k}x" for k in range(100))
        corpus = headlines_of(
            *[[next(words) for _ in range(n)] for n in (1, 4, 2, 5, 3)]
        )
        dataset, _, _ = encode_training_set(corpus, FeatureConfig())
        enc = dataset.encoding
        # Only the BOS and EOS cells are visited more than once.
        visited = np.bincount(enc.visits.ravel(), minlength=enc.n_cells)
        assert np.count_nonzero(visited > 1) == 2 * 2
        assert enc.n_cells == enc.visits.size - visited[visited > 1].sum() + 4
        assert_objective_matches_oracle_and_differences(dataset, seed=52)

    def test_window_radius_zero(self):
        corpus = synthetic_corpus(15, seed=53)
        dataset, _, _ = encode_training_set(corpus, FeatureConfig(window_radius=0))
        enc = dataset.encoding
        assert enc.visits.shape == (enc.n_tokens, 1)
        assert enc.n_cells < enc.n_tokens
        assert_objective_matches_oracle_and_differences(dataset, seed=54)

    def test_derived_encoding_with_families_masked_and_scaling(self):
        corpus = synthetic_corpus(15, seed=55)
        table = synthetic_embeddings(corpus, dim=3, seed=56)
        run = FeatureConfig(
            token=False, suffix3=False, embedding=True, embedding_scaling=2.0
        )
        dataset, index, _ = encode_training_set(corpus, run, table)
        assert not any(name.split("]", 1)[1].startswith(("w=", "suf3="))
                       for name in index.names())
        assert_objective_matches_oracle_and_differences(dataset, seed=57)


def one_attribute_per_token(lengths, n_labels, rng):
    """TrainingSet whose token t has the single attribute `a<t>` = 1, so
    the rows of the state weights are the emissions, and random gold."""
    bounds = np.cumsum([0, *lengths]).tolist()
    sequences = [
        [{f"a{t}": 1.0} for t in range(lo, hi)]
        for lo, hi in zip(bounds, bounds[1:])
    ]
    n_tokens = bounds[-1]
    enc = encode_attributes(sequences, indexed_lookup(n_tokens))
    gold = rng.integers(0, n_labels, size=n_tokens)
    return TrainingSet(enc, gold, n_tokens, n_labels)


class TestExtremeWeights:
    """The scaled forward-backward pass against the log-space oracle."""

    @pytest.mark.parametrize("gap", [700.0, 1000.0])
    def test_large_emission_gaps_match_oracle(self, gap):
        # Every token prefers one label by `gap` over the others, so all
        # other emission factors are below exp(-700) or underflow to 0.
        rng = np.random.default_rng(31)
        dataset = one_attribute_per_token([1, 3, 4, 4, 6], 5, rng)
        n = dataset.n_features
        state = rng.normal(size=(n, 5))
        state[np.arange(n), rng.integers(0, 5, size=n)] += gap
        rest = rng.normal(size=dataset.n_parameters - state.size)
        weights = np.concatenate([state.ravel(), rest])
        for c2 in (0.0, 0.3):
            value, grad = dataset.nll_and_gradient(weights, c2)
            ref_value, ref_grad = reference_nll_and_gradient(dataset, weights, c2)
            assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)

    @staticmethod
    def underflowing_matrices():
        # Label 0 at the first token and label 1 at the second each win
        # by 800, and changing label costs 800: every path through the
        # second position loses at least 800 against the shifted maxima.
        e = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0]])
        transition = np.full((3, 3), -800.0)
        np.fill_diagonal(transition, 0.0)
        return e, transition, np.zeros(3), np.zeros(3)

    def test_underflowing_scale_raises_divergence(self):
        e, transition, start, end = self.underflowing_matrices()
        dataset = one_attribute_per_token([2], 3, np.random.default_rng(32))
        weights = np.concatenate([e.ravel(), transition.ravel(), start, end])
        # The log-space oracle is finite here: the error is one of range.
        ref_value, _ = reference_nll_and_gradient(dataset, weights, 0.0)
        assert np.isfinite(ref_value)
        with pytest.raises(DivergenceError, match="underflow"):
            dataset.nll_and_gradient(weights, 0.0)

    def test_underflowing_log_partition_raises_divergence(self):
        e, transition, start, end = self.underflowing_matrices()
        model, attrs = model_from_matrices(e, transition, start, end)
        assert np.isfinite(brute_log_partition(e, transition, start, end))
        with pytest.raises(DivergenceError, match="underflow"):
            log_partition(model, attrs)

    @pytest.mark.parametrize("factor", [1.0, 0.9])
    def test_underflow_in_a_shorter_sequence_raises_divergence(self, factor):
        # The underflowing pair of tokens is the middle sequence, which
        # ends two steps before the others: a check that skipped the rows
        # of finished sequences, or read rows left over from an earlier
        # step, would miss it.  At 0.9 the pair loses 720 nats, so its
        # second scale is subnormal rather than 0 and its end sum stays
        # normal: only the scale check can see it.
        underflowing, transition, start, end = self.underflowing_matrices()
        underflowing, transition = underflowing * factor, transition * factor
        e = np.zeros((11, 3))
        e[5:7] = underflowing
        dataset = one_attribute_per_token([5, 2, 4], 3, np.random.default_rng(33))
        weights = np.concatenate([e.ravel(), transition.ravel(), start, end])
        ref_value, _ = reference_nll_and_gradient(dataset, weights, 0.0)
        assert np.isfinite(ref_value)
        with pytest.raises(DivergenceError, match="underflow"):
            dataset.nll_and_gradient(weights, 0.0)
        # Without the underflowing pair the same weights are in range.
        e[5:7] = 0.0
        weights = np.concatenate([e.ravel(), transition.ravel(), start, end])
        assert np.isfinite(dataset.nll_and_gradient(weights, 0.0)[0])

    def test_gaps_just_inside_range_stay_exact(self):
        # Each step loses 600 nats, well above the smallest normal scale.
        e, transition, start, end = self.underflowing_matrices()
        e, transition = e * 0.75, transition * 0.75
        model, attrs = model_from_matrices(e, transition, start, end)
        assert log_partition(model, attrs) == pytest.approx(
            brute_log_partition(e, transition, start, end), rel=1e-12
        )


def split_model(lengths, e, transition, start, end):
    """Model with one attribute per token, and its per-sequence attrs."""
    model, attrs = model_from_matrices(e, transition, start, end)
    bounds = np.cumsum([0, *lengths]).tolist()
    return model, [attrs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def packed_case(lengths, seed):
    """Random matrices for sequences of `lengths`, and their encoding."""
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 6))
    e, t, s, end = random_matrices(rng, sum(lengths), n_labels, scale=2.0)
    model, seqs = split_model(lengths, e, t, s, end)
    return model, seqs, e, encode_attributes(seqs, name_lookup(model.index))


class TestPackedSteps:
    """One loop over packed time steps treats every sequence on its own."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=9),
        st.integers(0, 2**32 - 1),
    )
    @example([1], 0)
    @example([7], 1)
    @example([1, 1, 1], 2)
    @example([4, 4, 4, 4], 3)
    @example([1, 2, 1, 30, 1, 2], 4)
    def test_batch_equals_each_sequence_alone(self, lengths, seed):
        model, seqs, e, enc = packed_case(lengths, seed)
        t, s, end = model.transition, model.start, model.end
        paths = crf._decode(model, enc)
        log_z, marginal, pair = crf._forward_backward(e, enc, t, s, end)
        ref_log_z, ref_pair = 0.0, np.zeros_like(t)
        for seq, lo, hi in zip(seqs, enc.offsets[:-1], enc.offsets[1:]):
            alone = encode_attributes([seq], name_lookup(model.index))
            assert paths[lo:hi].tolist() == crf._decode(model, alone).tolist()
            _, own, _ = crf._forward_backward(e[lo:hi], alone, t, s, end)
            assert marginal[lo:hi].tobytes() == own.tobytes()
            seq_log_z, seq_pair = reference_partition_and_pairs(e[lo:hi], t, s, end)
            ref_log_z += seq_log_z
            ref_pair += seq_pair
        assert log_z == pytest.approx(ref_log_z, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(pair, ref_pair, rtol=1e-10, atol=1e-10)

    def test_zero_sequences(self):
        model, _, _, _ = packed_case([3], 5)
        enc = encode_attributes([], name_lookup(model.index))
        assert enc.order.size == 0 and enc.steps.tolist() == [0]
        paths = crf._decode(model, enc)
        assert paths.shape == (0,) and paths.dtype == np.int64
        n_labels = model.n_labels
        log_z, marginal, pair = crf._forward_backward(
            np.empty((0, n_labels)),
            enc,
            model.transition,
            model.start,
            model.end,
        )
        assert log_z == 0.0
        assert marginal.shape == (0, n_labels)
        assert pair.tolist() == np.zeros((n_labels, n_labels)).tolist()


class TestBucketedViterbi:
    def test_matches_oracles_per_sequence(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            n_labels = int(rng.integers(2, 6))
            lengths = rng.integers(1, 6, size=int(rng.integers(1, 8))).tolist()
            e, t, s, end = random_matrices(rng, sum(lengths), n_labels, scale=2.0)
            model, seqs = split_model(lengths, e, t, s, end)
            enc = encode_attributes(seqs, name_lookup(model.index))
            paths = crf._decode(model, enc)
            for lo, hi in zip(enc.offsets[:-1], enc.offsets[1:]):
                best_path, _ = brute_best_path(e[lo:hi], t, s, end)
                assert paths[lo:hi].tolist() == list(best_path)

    def test_forced_ties_break_toward_lower_index(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n_labels = int(rng.integers(2, 4))
            lengths = rng.integers(1, 6, size=int(rng.integers(2, 8))).tolist()
            e = rng.integers(0, 2, size=(sum(lengths), n_labels)).astype(float)
            t = rng.integers(0, 2, size=(n_labels, n_labels)).astype(float)
            s = rng.integers(0, 2, size=n_labels).astype(float)
            end = rng.integers(0, 2, size=n_labels).astype(float)
            model, seqs = split_model(lengths, e, t, s, end)
            enc = encode_attributes(seqs, name_lookup(model.index))
            paths = crf._decode(model, enc)
            for lo, hi in zip(enc.offsets[:-1], enc.offsets[1:]):
                assert paths[lo:hi].tolist() == dp_best_path_min_index(
                    e[lo:hi], t, s, end
                )

    @pytest.mark.parametrize("chunk", [7, 512])
    def test_tag_matches_per_headline_viterbi(
        self, trained, small_corpus_module, chunk, monkeypatch
    ):
        monkeypatch.setattr(crf, "_TAG_CHUNK", chunk)
        predicted = tag(trained, small_corpus_module)
        assert len(predicted) == len(small_corpus_module)
        for headline, out in zip(small_corpus_module, predicted):
            attrs = windowed_attributes_oracle(headline, trained.feature_config)
            expected = tuple(bio_to_spans(viterbi(trained, attrs)))
            assert out.spans == expected


class TestEncodeTrainingSet:
    def test_full_alphabet_and_gold_ids(self):
        h = Headline(
            id="h",
            tokens=(Token("a"), Token("b"), Token("c")),
            spans=(LabeledSpan(0, 2, "ENG"), LabeledSpan(2, 3, "OTHER")),
        )
        dataset, index, alphabet = encode_training_set(
            Corpus("c", (h,)), FeatureConfig()
        )
        assert alphabet == FULL_ALPHABET
        assert len(index) == dataset.n_features
        gold = dataset.gold
        assert [alphabet.tags[i] for i in gold] == ["B-ENG", "I-ENG", "B-OTHER"]

    def test_ignore_other_drops_spans_and_tags(self):
        h = Headline(
            id="h",
            tokens=(Token("a"), Token("b")),
            spans=(LabeledSpan(0, 1, "OTHER"), LabeledSpan(1, 2, "ENG")),
        )
        dataset, _, alphabet = encode_training_set(
            Corpus("c", (h,)), FeatureConfig(), ignore_other=True
        )
        assert alphabet == ENG_ALPHABET
        gold = dataset.gold
        assert [alphabet.tags[i] for i in gold] == ["O", "B-ENG"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            encode_training_set(Corpus("c", ()), FeatureConfig())


@pytest.fixture(scope="module")
def trained(small_corpus_module):
    return train(
        small_corpus_module,
        FeatureConfig(),
        None,
        TrainConfig(c2=0.05, max_iterations=150),
    )


@pytest.fixture(scope="module")
def small_corpus_module():
    return synthetic_corpus(n_headlines=30, seed=13, name="unit-train")


class TestTrain:
    def test_learns_separable_corpus(self, trained, small_corpus_module):
        predicted = tag(trained, small_corpus_module)
        report = evaluate(small_corpus_module, predicted)
        assert report.score("ENG").f1 == pytest.approx(100.0)
        assert report.borrowing.f1 == pytest.approx(100.0)

    def test_objective_trace_non_increasing(self, trained):
        trace = trained.diagnostics.trace
        assert len(trace) == trained.diagnostics.iterations + 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-12

    def test_deterministic(self, trained, small_corpus_module):
        again = train(
            small_corpus_module,
            FeatureConfig(),
            None,
            TrainConfig(c2=0.05, max_iterations=150),
        )
        assert np.array_equal(again.state, trained.state)
        assert np.array_equal(again.transition, trained.transition)
        assert again.diagnostics.trace == trained.diagnostics.trace

    def test_the_widest_window_trains_and_tags(self, small_corpus_module):
        config = FeatureConfig(window_radius=16)
        model = train(
            small_corpus_module, config, None, TrainConfig(max_iterations=3)
        )
        assert model.index.radius == 16
        text = saved_text(save_model, model)
        assert "window_radius=16" in text
        loaded = load_model(io.StringIO(text))
        assert tagged_text(loaded, small_corpus_module) == tagged_text(
            model, small_corpus_module
        )

    def test_single_iteration_cap(self, small_corpus_module):
        model = train(
            small_corpus_module, FeatureConfig(), None, TrainConfig(max_iterations=1)
        )
        assert model.diagnostics.iterations <= 1
        assert math.isfinite(model.diagnostics.value)

    def test_weights_are_views_of_the_optimizer_result(self, trained):
        x = trained.diagnostics.x
        parts = (trained.state, trained.transition, trained.start, trained.end)
        assert all(part.base is x for part in parts)
        assert sum(part.size for part in parts) == x.size
        assert np.array_equal(
            np.concatenate([part.ravel() for part in parts]), x
        )

    def test_progress_callback(self, small_corpus_module):
        seen = []
        train(
            small_corpus_module,
            FeatureConfig(),
            None,
            TrainConfig(max_iterations=5, delta=1e-12),
            progress=lambda i, obj: seen.append(i),
        )
        assert seen == list(range(1, len(seen) + 1))
        assert seen  # at least one iteration reported

    def test_l2_shrinks_weights(self, small_corpus_module):
        light = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(c2=0.01, max_iterations=100),
        )
        heavy = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(c2=10.0, max_iterations=100),
        )
        assert np.linalg.norm(heavy.state) < np.linalg.norm(light.state)

    def test_l1_produces_exact_zeros(self, small_corpus_module):
        sparse = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(c1=0.5, max_iterations=100),
        )
        dense = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(max_iterations=100),
        )
        assert np.sum(sparse.state == 0.0) > np.sum(dense.state == 0.0)
        assert np.any(sparse.state == 0.0)

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(c1=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(delta=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            TrainConfig(period=0)
        for bad in (
            {"c1": math.nan}, {"c2": math.nan}, {"c2": math.inf},
            {"delta": math.inf},
        ):
            with pytest.raises(ConfigError, match="finite"):
                TrainConfig(**bad)


class TestTag:
    def test_zero_model_predicts_nothing(self, small_corpus_module):
        dataset, index, alphabet = encode_training_set(
            small_corpus_module, FeatureConfig()
        )
        model = CrfModel(
            alphabet=alphabet,
            index=index,
            state=np.zeros((len(index), len(alphabet))),
            transition=np.zeros((len(alphabet), len(alphabet))),
            start=np.zeros(len(alphabet)),
            end=np.zeros(len(alphabet)),
            feature_config=FeatureConfig(),
            train_config=TrainConfig(),
        )
        predicted = tag(model, small_corpus_module)
        assert all(h.spans == () for h in predicted)

    def test_gold_untouched_and_metadata_kept(self, trained, small_corpus_module):
        before = tuple(h.spans for h in small_corpus_module)
        predicted = tag(trained, small_corpus_module)
        assert tuple(h.spans for h in small_corpus_module) == before
        for orig, pred in zip(small_corpus_module, predicted):
            assert pred.id == orig.id
            assert pred.tokens == orig.tokens
            assert pred.section == orig.section

    def test_ignore_other_model_never_predicts_other(self, small_corpus_module):
        model = train(
            small_corpus_module,
            FeatureConfig(),
            None,
            TrainConfig(c2=0.05, max_iterations=80),
            ignore_other=True,
        )
        predicted = tag(model, small_corpus_module)
        assert all(
            span.label == "ENG" for h in predicted for span in h.spans
        )

    def test_embedding_model_requires_table(self, trained):
        import dataclasses

        needy = dataclasses.replace(
            trained, feature_config=FeatureConfig(embedding=True)
        )
        with pytest.raises(ConfigError, match="embedding table"):
            tag(needy, Corpus("c", (Headline(id="x", tokens=(Token("a"),)),)))

    def test_a_window_mismatch_is_a_validation_error(
        self, trained, small_corpus_module
    ):
        # The index is 5 slots wide, the config's window 3.
        narrow = dataclasses.replace(
            trained, feature_config=FeatureConfig(window_radius=1)
        )
        with pytest.raises(
            ValidationError, match="width 5 .* window_radius 1, which needs width 3"
        ):
            tag(narrow, small_corpus_module)


# sha256 of the version-1 model file (`save_model_v1`) of a 30-iteration
# fit to `synthetic_corpus(120, seed=21)`, per (c1, c2), with every
# attribute of the corpus kept (`full_model`).  Recorded before the
# optimizer reused its work vectors; any change to the iterates or the
# objective changes them.
PINNED_MODEL_DIGESTS = {
    (0.05, 0.01): "72effef0593ab89c2631e8fc5fd550b95cdc0cb0a25731990229bd3281476839",
    (0.0, 0.01): "862f347ec02f0f6662e45104f6d17adbb8dd439ba35a135ff608133683b8b7a4",
    (0.1, 0.0): "ea53ef9de6e317163c747b74329759bb01326dcec3dbe75cfbb1bfd6ad448a6c",
}
# sha256 of the version-2 text (`save_model_v2`) of the same fits.
PINNED_V2_MODEL_DIGESTS = {
    (0.05, 0.01): "62f292a35206d16794a44d235b8072633dfdb11626dd795cd684eb03bd39ecab",
    (0.0, 0.01): "353d2bbcb9dffc1ea037500d7cefcc41e72240d9f490e351354669ee313b9521",
    (0.1, 0.0): "84fd0f833735974255edde128c6a3f56ff54e4b47fcc4f123b45f0f4c214db36",
}
# sha256 of the version-2 text of the models `train` returns, which
# keep only their active attributes.  The c1 = 0 fit has no inactive
# one, so its file is the full model's.
PINNED_ACTIVE_MODEL_DIGESTS = {
    (0.05, 0.01): "60b4f3e2f1b7521845712e55368030a1aa94f6aa6a043f857337249b96bc7c42",
    (0.0, 0.01): "353d2bbcb9dffc1ea037500d7cefcc41e72240d9f490e351354669ee313b9521",
    (0.1, 0.0): "f10c8aa3d3e2bfa6fbc2d936f3132ebcae467573738715310ae5933639b4bc48",
}
# sha256 of the `save_model` (version-3) text of the full models and of
# the models `train` returns.
PINNED_V3_MODEL_DIGESTS = {
    (0.05, 0.01): "ee1ef73a189aebdbe76f8653d04a3242b278948648e28fa4a73bfe6daf28eedc",
    (0.0, 0.01): "0e9123c5602fbcff067a712baf6d924fdc44b52720abd1cc791649d3a8ad00e1",
    (0.1, 0.0): "0933f875cfdde60a9a95a89045eb03902577b56e3e90ed47384cfd0a2d03a378",
}
PINNED_V3_ACTIVE_MODEL_DIGESTS = {
    (0.05, 0.01): "768d0e9985dd442ca7139c8ba95dd02db6df0fbb2cd3a7713d92c66f89022743",
    (0.0, 0.01): "0e9123c5602fbcff067a712baf6d924fdc44b52720abd1cc791649d3a8ad00e1",
    (0.1, 0.0): "f7202b2f706bcd8852fde98cf8c115a14a304e7a2782d8517a147b88d128772c",
}


def saved_text(write, model):
    """The text `write` (`save_model`, `save_model_v1` or `save_model_v2`)
    gives for model."""
    buffer = io.StringIO()
    write(model, buffer)
    return buffer.getvalue()


def sha256_of_text(write, model):
    return hashlib.sha256(saved_text(write, model).encode()).hexdigest()


@pytest.mark.parametrize("c1, c2", list(PINNED_MODEL_DIGESTS))
def test_pinned_model_bytes(c1, c2):
    corpus = synthetic_corpus(120, seed=21)
    model = train(
        corpus, FeatureConfig(), None, TrainConfig(c1=c1, c2=c2, max_iterations=30)
    )
    assert model.diagnostics.iterations == 30
    full = full_model(model, corpus)
    assert sha256_of_text(save_model_v1, full) == PINNED_MODEL_DIGESTS[c1, c2]
    assert sha256_of_text(save_model_v2, full) == PINNED_V2_MODEL_DIGESTS[c1, c2]
    assert saved_text(save_model_v1, model) == without_inactive_v1(
        saved_text(save_model_v1, full)
    )
    assert sha256_of_text(save_model_v2, model) == PINNED_ACTIVE_MODEL_DIGESTS[c1, c2]
    assert sha256_of_text(save_model, full) == PINNED_V3_MODEL_DIGESTS[c1, c2]
    assert sha256_of_text(save_model, model) == PINNED_V3_ACTIVE_MODEL_DIGESTS[c1, c2]
    # The version-1 and version-3 files of a model load to the same
    # arrays, bit for bit.
    for kept in (full, model):
        v3 = load_model(io.StringIO(saved_text(save_model, kept)))
        v1 = load_model(io.StringIO(saved_text(save_model_v1, kept)))
        assert_same_model(v1, v3)


# sha256 of the version-2 text of a fit whose entry values are not all
# 1.0 (embedding values), recorded while the objective still summed its
# emissions cell by cell, and of its `save_model` (version-3) text.
PINNED_EMBEDDING_MODEL_DIGEST = (
    "bc11408c73fa84df5b5c9cadd82136177ffc695da522b544e19a43c91975db92"
)
PINNED_V3_EMBEDDING_MODEL_DIGEST = (
    "099a5759ac270fd6e7821911426e8ad2a4f530ad8a34be6a552b2b8ad9b6239b"
)


def test_pinned_embedding_model_bytes():
    corpus = synthetic_corpus(120, seed=21)
    table = synthetic_embeddings(corpus, dim=5, seed=12)
    config = FeatureConfig(embedding=True, embedding_scaling=0.5)
    model = train(
        corpus, config, table, TrainConfig(c1=0.05, c2=0.01, max_iterations=30)
    )
    assert model.diagnostics.iterations == 30
    assert sha256_of_text(save_model_v2, model) == PINNED_EMBEDDING_MODEL_DIGEST
    assert sha256_of_text(save_model, model) == PINNED_V3_EMBEDDING_MODEL_DIGEST


def written_text(corpus):
    buffer = io.StringIO()
    write_corpus(corpus, buffer)
    return buffer.getvalue()


def tagged_text(model, corpus):
    return written_text(tag(model, corpus))


# Large enough that every state weight of the fits below ends at zero.
ZEROING_C1 = 1e4


class TestActiveAttributes:
    """`train` keeps only the attributes with a nonzero state weight."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        c1=st.sampled_from([0.0, 0.05, 0.5, ZEROING_C1]),
    )
    def test_trained_model_is_the_full_model_without_its_inactive_rows(
        self, seed, c1
    ):
        corpus = open_vocabulary_corpus(12, seed=seed)
        model = train(
            corpus,
            FeatureConfig(),
            None,
            TrainConfig(c1=c1, c2=0.01, max_iterations=15),
        )
        full = full_model(model, corpus)
        active = np.any(full.state != 0, axis=1)
        assert model.n_features == np.count_nonzero(active)
        assert c1 != ZEROING_C1 or model.n_features == 0
        # Kept ids keep their relative order.
        assert model.index.names() == tuple(
            itertools.compress(full.index.names(), active.tolist())
        )
        assert np.array_equal(model.state, full.state[active])
        loaded = load_model(io.StringIO(saved_text(save_model, model)))
        assert list(model.index.rows.items()) == list(loaded.index.rows.items())
        assert np.array_equal(model.index.ids, loaded.index.ids)
        for weights in (model.transition, model.start, model.end):
            assert weights.base is model.diagnostics.x
        feed = open_vocabulary_corpus(20, seed=seed + 1)
        assert tagged_text(model, feed) == tagged_text(full, feed)

    def test_a_model_without_attributes_saves_loads_and_tags_o(self):
        corpus = open_vocabulary_corpus(12, seed=5)
        model = train(
            corpus, FeatureConfig(), None, TrainConfig(c1=ZEROING_C1, max_iterations=15)
        )
        assert model.n_features == 0
        text = saved_text(save_model, model)
        assert "\nattributes\t0\nfeature_config\t" in text
        # Both blocks are empty lines.
        assert text.endswith(
            "\nbase_names\t0\nattribute_ids\n\nstate_weights\n\nend_of_model\n"
        )
        assert "\nbase_names\t0\nattribute_ids\nstate_weights\t0\n" in saved_text(
            save_model_v2, model
        )
        loaded = load_model(io.StringIO(text))
        assert saved_text(save_model, loaded) == text
        feed = open_vocabulary_corpus(20, seed=6)
        tagged = tag(loaded, feed)
        assert tagged == tag(model, feed)
        assert all(not headline.spans for headline in tagged)

    def test_loading_keeps_inactive_attributes(self):
        corpus = open_vocabulary_corpus(30, seed=4)
        model = train(
            corpus,
            FeatureConfig(),
            None,
            TrainConfig(c1=0.05, c2=0.01, max_iterations=30),
        )
        full = full_model(model, corpus)
        assert model.n_features < full.n_features
        text = saved_text(save_model, full)
        loaded = load_model(io.StringIO(text))
        assert loaded.n_features == full.n_features
        assert saved_text(save_model, loaded) == text


class TestPersistence:
    """Round trips through `save_model` (version 3), and faults in the
    sections both versions share.  Faults in state weight lines are
    checked in version-1 files (`save_model_v1`), whose lines are keyed
    by attribute name, and faults in blocks in `TestVersion3Blocks`."""

    def roundtrip(self, model, write=save_model):
        text = saved_text(write, model)
        return text, load_model(io.StringIO(text))

    def test_exact_weight_round_trip(self, trained):
        text, loaded = self.roundtrip(trained)
        assert np.array_equal(loaded.state, trained.state)
        assert np.array_equal(loaded.transition, trained.transition)
        assert np.array_equal(loaded.start, trained.start)
        assert np.array_equal(loaded.end, trained.end)
        assert loaded.alphabet == trained.alphabet
        assert loaded.index.names() == trained.index.names()
        assert loaded.feature_config == trained.feature_config
        assert loaded.train_config == trained.train_config

    def test_resave_is_byte_identical(self, trained):
        text, loaded = self.roundtrip(trained)
        again = io.StringIO()
        save_model(loaded, again)
        assert again.getvalue() == text

    def test_tag_identical_after_round_trip(self, trained, small_corpus_module):
        _, loaded = self.roundtrip(trained)
        direct = tag(trained, small_corpus_module)
        reloaded = tag(loaded, small_corpus_module)
        assert direct == reloaded

    def test_unrecognized_header(self):
        with pytest.raises(ModelVersionError):
            load_model(io.StringIO("something else\n"))

    def test_unsupported_version(self, trained):
        text, _ = self.roundtrip(trained)
        for version in ("2", "4"):
            bumped = text.replace("borrowings-crf 3", f"borrowings-crf {version}", 1)
            assert bumped != text
            unsupported = f"unsupported model format version '{version}'"
            with pytest.raises(ModelVersionError, match=unsupported):
                load_model(io.StringIO(bumped))
        # Nor does the version-2 writer's own text load.
        with pytest.raises(ModelVersionError, match="version '2'"):
            load_model(io.StringIO(saved_text(save_model_v2, trained)))

    def test_truncated_file(self, trained):
        # Dropping whole trailing lines leaves every remaining line
        # intact, so the loader must report a clean early EOF.
        for write in (save_model, save_model_v1):
            text, _ = self.roundtrip(trained, write)
            lines = text.splitlines(keepends=True)
            for keep in (2, len(lines) // 4, len(lines) // 2, len(lines) - 1):
                with pytest.raises(ModelTruncatedError):
                    load_model(io.StringIO("".join(lines[:keep])))

    def test_midline_cut_is_a_format_error(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        half = lines[header_at + 1][: len(lines[header_at + 1]) // 2]
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("".join(lines[: header_at + 1]) + half))

    def test_end_inside_attribute_names_is_truncation(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        first = lines.index("attribute_names\n") + 1
        last = first + trained.n_features
        for keep in (first, first + 1, last - 1, last):
            cut = "".join(lines[:keep])
            with pytest.raises(ModelTruncatedError):
                load_model(io.StringIO(cut))
            # Without its final newline the last name still counts as a line.
            with pytest.raises(ModelTruncatedError):
                load_model(io.StringIO(cut.rstrip("\n")))

    def test_duplicate_attribute_names_rejected(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        first = lines.index("attribute_names\n") + 1
        lines[first + 2] = lines[first]
        with pytest.raises(ModelFormatError, match="duplicate attribute names"):
            load_model(io.StringIO("".join(lines)))

    @pytest.mark.parametrize(
        "name", ["bias", "[+3]bias", "[1]bias", "[+0]bias", "[2]", "]bias", "[0"]
    )
    def test_v1_names_outside_the_window_rejected(self, trained, name):
        text = saved_text(save_model_v1, trained)
        lines = text.split("\n")
        lines[lines.index("attribute_names") + 2] = name
        with pytest.raises(ModelFormatError, match=r"is not \[k\]base with \|k\| <= 2"):
            load_model(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize(
        "first, second",
        [("[+9]bias", "bias"), ("bias", "[+9]bias"), ("[-3]w=x", "[0")],
    )
    def test_v1_names_outside_the_window_are_named_in_id_order(
        self, trained, first, second
    ):
        text = saved_text(save_model_v1, trained)
        lines = text.split("\n")
        at = lines.index("attribute_names") + 1
        lines[at + 1], lines[at + 4] = first, second
        with pytest.raises(ModelFormatError, match=re.escape(repr(first))):
            load_model(io.StringIO("\n".join(lines)))
        # A repeated name is reported ahead of them, wherever it is.
        lines[at + 6] = lines[at + 5]
        with pytest.raises(ModelFormatError, match="duplicate attribute names"):
            load_model(io.StringIO("\n".join(lines)))

    def test_v1_file_loads_to_the_model_of_its_v3_resave(self, trained):
        v1_text, v1 = self.roundtrip(trained, save_model_v1)
        text, v3 = self.roundtrip(trained)
        assert_same_model(v1, v3)
        # A version-1 file saves as version 3.
        assert saved_text(save_model, v1) == text
        assert saved_text(save_model_v1, v3) == v1_text

    def test_a_model_without_attributes_round_trips(self, trained):
        empty = dataclasses.replace(
            trained, index=window_table([], 2), state=np.zeros((0, 5))
        )
        text, loaded = self.roundtrip(empty)
        assert "base_names\t0\nattribute_ids\n\nstate_weights\n\nend_of_model\n" in text
        assert loaded.n_features == 0
        assert self.roundtrip(loaded)[0] == text
        v1_text, loaded = self.roundtrip(empty, save_model_v1)
        assert "attribute_names\nstate_weights\t0\n" in v1_text
        assert saved_text(save_model, loaded) == text

    def test_a_window_mismatch_cannot_be_saved(self, trained):
        config = dataclasses.replace(trained.feature_config, window_radius=1)
        model = dataclasses.replace(trained, feature_config=config)
        with pytest.raises(ValidationError, match="window width 5 .* window_radius 1"):
            save_model(model, io.StringIO())

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section", ["start", "end", "transitions", "state"])
    def test_non_finite_weights_rejected(self, trained, section, weight):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        if section == "state":
            at = next(
                i for i, line in enumerate(lines)
                if line.startswith("state_weights\t")
            ) + 1
        elif section == "transitions":
            at = lines.index("transitions\n") + 1
        else:
            at = next(
                i for i, line in enumerate(lines) if line.startswith(section + "\t")
            )
        fields = lines[at].rstrip("\n").split("\t")
        fields[-1] = weight
        lines[at] = "\t".join(fields) + "\n"
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(io.StringIO("".join(lines)))

    def test_repeated_state_weight_line_rejected(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        first = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        ) + 1
        name, tag_name, _ = lines[first].split("\t")
        # The count still matches: the second line now repeats the first
        # line's (attribute, tag) pair with another weight.
        lines[first + 1] = f"{name}\t{tag_name}\t0.5\n"
        with pytest.raises(ModelFormatError, match="repeated state weight"):
            load_model(io.StringIO("".join(lines)))

    def test_missing_trailer_is_truncation(self, trained):
        for write in (save_model, save_model_v1):
            text, _ = self.roundtrip(trained, write)
            trimmed = text[: text.rindex("end_of_model")]
            with pytest.raises(ModelTruncatedError):
                load_model(io.StringIO(trimmed))

    def test_fewer_state_weights_than_declared(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        # With two lines missing the file also ends early; the missing
        # lines are still reported first, as end_of_model comes before EOF.
        for missing in (1, 2):
            cut = lines[: header_at + 1] + lines[header_at + 1 + missing :]
            with pytest.raises(ModelDimensionError, match="fewer state weight"):
                load_model(io.StringIO("".join(cut)))

    def test_extra_state_weights_rejected(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        # The surplus line repeats the next one: the surplus is reported.
        lines.insert(header_at + 1, lines[header_at + 1])
        with pytest.raises(ModelDimensionError, match="more state weight"):
            load_model(io.StringIO("".join(lines)))

    def test_transition_row_dimension_error(self, trained):
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        at = lines.index("transitions\n") + 1
        lines[at] = "0.0\t0.0\n"
        with pytest.raises(ModelDimensionError, match="transition row"):
            load_model(io.StringIO("".join(lines)))

    def test_unknown_attribute_in_weights(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        weight = lines[header_at + 1].split("\t")
        weight[0] = "no-such-attribute"
        lines[header_at + 1] = "\t".join(weight)
        with pytest.raises(ModelDimensionError, match="unknown attribute"):
            load_model(io.StringIO("".join(lines)))

    def test_unknown_tag_in_weights(self, trained):
        text = saved_text(save_model_v1, trained)
        lines = text.splitlines(keepends=True)
        first = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        ) + 1
        name, _, weight = lines[first].split("\t")
        lines[first] = f"{name}\tB-XYZ\t{weight}"
        with pytest.raises(ModelDimensionError, match="unknown tag 'B-XYZ'"):
            load_model(io.StringIO("".join(lines)))

    @pytest.mark.parametrize(
        "faults, error",
        [
            # (line offset, field, value) edits; the first faulty line wins.
            ([(1, 2, "abc"), (2, 0, "no-such-attribute")], "non-numeric state weight"),
            ([(1, 0, "no-such-attribute"), (2, 2, "abc")], "unknown attribute"),
            ([(1, 1, "B-XYZ"), (1, 2, "abc")], "unknown tag"),
            ([(1, 0, "no-such-attribute"), (1, 1, "B-XYZ")], "unknown attribute"),
            ([(1, 2, "nan"), (2, 2, "abc")], "non-numeric state weight"),
            ([(2, 2, "abc"), (3, None, "a\tb")], "non-numeric state weight"),
            ([(2, None, "a\tb"), (3, 2, "abc")], "needs name, tag, weight"),
            # A non-finite weight is reported only once every line parses.
            ([(1, 2, "nan"), (2, 1, "B-XYZ")], "unknown tag"),
        ],
    )
    def test_state_weight_faults_are_reported_in_file_order(
        self, trained, faults, error
    ):
        text = saved_text(save_model_v1, trained)
        lines = text.split("\n")
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        for offset, field, value in faults:
            fields = lines[header_at + offset].split("\t")
            if field is None:
                fields = [value]
            else:
                fields[field] = value
            lines[header_at + offset] = "\t".join(fields)
        with pytest.raises(ModelFormatError, match=error):
            load_model(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize(
        "field, corrupted",
        [
            ("window_radius", "window_radius=x"),
            ("c1", "c1=abc"),
            ("period", "period"),
        ],
    )
    def test_malformed_config_value_is_a_format_error(
        self, trained, field, corrupted
    ):
        text, _ = self.roundtrip(trained)
        bad = re.sub(rf"\b{field}=[^\t\n]*", corrupted, text, count=1)
        assert bad != text
        with pytest.raises(ModelFormatError, match=f"'{field}'"):
            load_model(io.StringIO(bad))

    def test_non_numeric_weight(self, trained):
        text, _ = self.roundtrip(trained)
        bad = text.replace("start\t", "start\tabc\t", 1)
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(bad))

    @pytest.mark.parametrize(
        "labels",
        [
            "labels\tB-ENG\tO\tI-ENG",
            "labels\tO\tO\tI-ENG",
            # A tag the tagger could not write into a corpus.
            "labels\tO\tB-ENG\tI-ENG\tB-FRA\tI-OTHER",
        ],
    )
    def test_bad_label_list_is_a_format_error(self, trained, labels):
        assert trained.alphabet.tags[3] == "B-OTHER"
        for write in (save_model, save_model_v1):
            # Version-1 weight lines name their tag, renamed alike.
            text = saved_text(write, trained).replace("\tB-OTHER\t", "\tB-FRA\t")
            lines = text.split("\n")
            assert lines[1].startswith("labels\t")
            lines[1] = labels
            with pytest.raises(ModelFormatError, match="bad label list"):
                load_model(io.StringIO("\n".join(lines)))

    def test_l1_model_files_stay_small(self, small_corpus_module):
        # Sparse models persist only their nonzero weights in version 1,
        # and only the rows of their active attributes in version 3.
        sparse = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(c1=1.0, max_iterations=60),
        )
        text = saved_text(save_model_v1, sparse)
        declared = next(
            line for line in text.splitlines() if line.startswith("state_weights\t")
        )
        assert int(declared.split("\t")[1]) == int(np.sum(sparse.state != 0.0))
        assert np.all(np.any(sparse.state != 0.0, axis=1))
        for text in (text, saved_text(save_model, sparse)):
            reloaded = load_model(io.StringIO(text))
            assert np.array_equal(reloaded.state, sparse.state)


def assert_same_model(a, b):
    """Equal labels, attribute names, configurations and weights."""
    assert a.alphabet == b.alphabet
    assert a.index.names() == b.index.names()
    assert a.feature_config == b.feature_config
    assert a.train_config == b.train_config
    for field in ("state", "transition", "start", "end"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


class TestVersion2Text:
    """The version-2 writer (`save_model_v2`), whose text pinned digests
    hash and no reader loads: each base name's row of ids as a line of
    integers."""

    def test_layout(self, trained):
        lines = saved_text(save_model_v2, trained).split("\n")
        assert lines[0] == "borrowings-crf 2"
        assert f"attributes\t{trained.n_features}" in lines
        at = next(i for i, line in enumerate(lines) if line.startswith("base_names\t"))
        n_bases = int(lines[at].split("\t")[1])
        assert lines[at + n_bases + 1] == "attribute_ids"
        rows = lines[at + n_bases + 2 : at + 2 * n_bases + 2]
        ids = np.array([row.split("\t") for row in rows], dtype=np.int64)
        assert ids.shape == (n_bases, 5)
        assert np.array_equal(np.sort(ids[ids >= 0]), np.arange(trained.n_features))
        # Bases in order of their first id.
        first = np.where(ids >= 0, ids, trained.n_features).min(axis=1)
        assert np.all(np.diff(first) > 0)
        names = trained.index.names()
        for base, row in zip(lines[at + 1 : at + n_bases + 1], ids.tolist()):
            for slot, i in enumerate(row):
                if i >= 0:
                    assert names[i] == offset_prefix(slot - 2) + base


class TestBaseNames:
    """Faults in the base-name section of a version-3 file raise their
    documented error."""

    @pytest.fixture
    def sections(self, trained):
        """The file's lines, and where its base names start."""
        lines = saved_text(save_model, trained).split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("base_names\t"))
        return lines, at + 1

    def test_end_inside_the_base_names_is_truncation(self, sections):
        lines, bases_at = sections
        for keep in (bases_at, bases_at + 1):
            with pytest.raises(ModelTruncatedError):
                load_model(io.StringIO("\n".join(lines[:keep])))

    @pytest.mark.parametrize("count", ["100000", str(10**20)])
    def test_more_attributes_than_table_cells(self, sections, count):
        lines, _ = sections
        lines[2] = f"attributes\t{count}"
        with pytest.raises(ModelDimensionError, match="do not fit"):
            load_model(io.StringIO("\n".join(lines)))

    def test_repeated_base_name(self, sections):
        lines, bases_at = sections
        lines[bases_at + 3] = lines[bases_at + 1]
        with pytest.raises(ModelFormatError, match="repeated base name"):
            load_model(io.StringIO("\n".join(lines)))


def v3_blocks(text):
    """The file's lines, and the line numbers of its attribute id block
    and its state weight block."""
    lines = text.split("\n")
    ids_at = lines.index("attribute_ids") + 1
    weights_at = lines.index("state_weights") + 1
    assert weights_at == ids_at + 2
    return lines, ids_at, weights_at


def decoded(block, dtype):
    """A block's values, as the README reads them."""
    return np.frombuffer(base64.b64decode(block), dtype=dtype)


def encoded(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


# Weights a version-3 block must carry bit for bit.
EDGE_WEIGHTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -0.5]
)


@st.composite
def random_models(draw):
    """A model with random attributes at random window slots, and state
    weights among them -0.0, subnormals, +-1e308 and rows of one
    nonzero weight."""
    radius = draw(st.integers(0, 2))
    alphabet = draw(st.sampled_from([FULL_ALPHABET, ENG_ALPHABET]))
    n_labels = len(alphabet)
    keys = draw(
        st.lists(
            st.tuples(st.integers(-radius, radius), st.integers(0, 6)),
            unique=True,
            max_size=12,
        )
    )
    names = [offset_prefix(k) + f"w={base}" for k, base in keys]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = []
    for _ in names:
        kind = draw(st.sampled_from(["any", "one", "zero"]))
        if kind == "any":
            weight = EDGE_WEIGHTS | finite
            row = draw(st.lists(weight, min_size=n_labels, max_size=n_labels))
        else:
            row = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n_labels)]
            if kind == "one":
                at = draw(st.integers(0, n_labels - 1))
                row[at] = draw(EDGE_WEIGHTS.filter(bool))
        rows.append(row)
    size = n_labels * (n_labels + 2)
    square = draw(st.lists(finite, min_size=size, max_size=size))
    weights = np.array(square).reshape(n_labels + 2, n_labels)
    return CrfModel(
        alphabet=alphabet,
        index=window_table(names, radius),
        state=np.array(rows, dtype=float).reshape(len(names), n_labels),
        transition=weights[:n_labels],
        start=weights[n_labels],
        end=weights[n_labels + 1],
        feature_config=FeatureConfig(window_radius=radius),
        train_config=TrainConfig(),
    )


# Quiet and signalling NaNs, and both infinities.
NON_FINITE_BITS = [
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000001,
    0x7FF0000000000000, 0xFFF0000000000000,
]
BLOCK_FAULTS = st.sampled_from(
    ["char", "cut", "byte+", "byte-", "pad", "nan", "repeat", "range"]
)


def corrupt_block(block, fault, dtype, data):
    """`block` with one `BLOCK_FAULTS` fault; every one makes the block
    invalid."""
    if fault == "char":
        at = data.draw(st.integers(0, len(block)))
        return block[:at] + data.draw(st.sampled_from("!-_ .é\t\r")) + block[at:]
    if fault == "cut":
        return block[: data.draw(st.integers(0, len(block) - 1))]
    if fault == "pad":
        return block + "="
    values = np.frombuffer(base64.b64decode(block), dtype=np.uint8)
    if fault == "byte+":
        values = np.append(values, np.uint8(data.draw(st.integers(0, 255))))
    elif fault == "byte-":
        values = values[:-1]
    else:
        values = values.view(dtype).copy()
        at = data.draw(st.integers(0, values.size - 1))
        if fault == "nan":
            # A NaN or infinity bit pattern; as an id it is out of range.
            values.view("<u8")[at] = data.draw(st.sampled_from(NON_FINITE_BITS))
        elif dtype == "<i8":
            if fault == "repeat":
                kept = np.flatnonzero(values >= 0)
                other = data.draw(st.sampled_from(kept[kept != at].tolist()))
                values[at] = values[other]
            else:
                out_of_range = [-2, values.max() + 1, 2**62, -(2**63)]
                values[at] = data.draw(st.sampled_from(out_of_range))
        else:
            # Weights have no range and may repeat: both become NaN.
            values[at] = math.nan
    return base64.b64encode(values.tobytes()).decode()


class TestVersion3Blocks:
    """Version-3 files: the id table and the state weights as one base64
    block each."""

    def test_layout(self, trained):
        text = saved_text(save_model, trained)
        lines, ids_at, weights_at = v3_blocks(text)
        assert lines[0] == "borrowings-crf 3"
        assert lines[weights_at + 1 :] == ["end_of_model", ""]
        # The README's reading of the weights block.
        state = decoded(lines[weights_at], "<f8").reshape(trained.n_features, -1)
        assert state.tobytes() == trained.state.tobytes()
        ids = decoded(lines[ids_at], "<i8").reshape(-1, 5)
        bases = lines[lines.index(f"base_names\t{len(ids)}") + 1 : ids_at - 1]
        index = trained.index
        assert np.array_equal(ids, index.ids[[index.rows[base] for base in bases]])

    @settings(max_examples=150, deadline=None)
    @given(model=random_models())
    def test_round_trip_is_bit_exact(self, model):
        text = saved_text(save_model, model)
        loaded = load_model(io.StringIO(text))
        # Every zero is written as +0.0; every other bit is kept.
        assert loaded.state.tobytes() == (model.state + 0.0).tobytes()
        for field in ("transition", "start", "end"):
            assert getattr(loaded, field).tobytes() == getattr(model, field).tobytes()
        assert loaded.index.names() == model.index.names()
        assert loaded.state.flags.writeable and loaded.index.ids.flags.writeable
        assert saved_text(save_model, loaded) == text
        # The version-1 file of the model loads to the same arrays.
        v1 = load_model(io.StringIO(saved_text(save_model_v1, model)))
        assert_same_model(v1, loaded)

    def test_negative_zero_is_written_as_positive_zero(self, trained):
        model = dataclasses.replace(trained, state=trained.state.copy())
        model.state[0, :] = -0.0
        lines, _, weights_at = v3_blocks(saved_text(save_model, model))
        row = decoded(lines[weights_at], "<f8")[: model.n_labels]
        assert row.tobytes() == np.zeros(model.n_labels).tobytes()

    def test_a_block_of_another_window_is_a_dimension_error(self, trained):
        # One attribute per base name, so that the count fits either window.
        names = ["[0]a", "[-1]b", "[2]c"]
        model = dataclasses.replace(
            trained,
            index=window_table(names, 2),
            state=np.ones((3, trained.n_labels)),
        )
        text = saved_text(save_model, model)
        narrow = text.replace("window_radius=2", "window_radius=1", 1)
        assert narrow != text
        with pytest.raises(
            ModelDimensionError, match="window width 5 .* window_radius 1, which needs"
        ):
            load_model(io.StringIO(narrow))

    @pytest.mark.parametrize(
        "block, value, error",
        [
            ("ids", "!", "attribute ids: not a base64 block"),
            ("ids", "é", "attribute ids: not a base64 block"),
            ("ids", "A=", "attribute ids: not a base64 block"),
            ("ids", "AAAAAAAAAA==", "attribute ids: 7 bytes are not"),
            ("weights", "?", "state weights: not a base64 block"),
            ("weights", "", "state weights: expected"),
            ("weights", encoded([math.nan] * 5, "<f8"), "state weights: expected"),
        ],
    )
    def test_a_replaced_block_raises_its_error(self, trained, block, value, error):
        lines, ids_at, weights_at = v3_blocks(saved_text(save_model, trained))
        lines[ids_at if block == "ids" else weights_at] = value
        with pytest.raises(ModelFormatError, match=error):
            load_model(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, trained, weight):
        lines, _, weights_at = v3_blocks(saved_text(save_model, trained))
        state = trained.state.copy()
        state[-1, -1] = weight
        lines[weights_at] = encoded(state, "<f8")
        with pytest.raises(ModelFormatError, match="non-finite state weight"):
            load_model(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize(
        "edit, error",
        [
            ("N_FEATURES", "not a permutation"),
            (-2, "not a permutation"),
            ("REPEAT", "not a permutation"),
            ("DROP", "not a permutation.*missing"),
        ],
    )
    def test_id_faults(self, trained, edit, error):
        lines, ids_at, _ = v3_blocks(saved_text(save_model, trained))
        ids = decoded(lines[ids_at], "<i8").copy()
        first = int(np.flatnonzero(ids >= 0)[0])
        last = int(np.flatnonzero(ids >= 0)[-1])
        ids[last] = {
            "N_FEATURES": trained.n_features, "REPEAT": ids[first], "DROP": -1
        }.get(edit, edit)
        lines[ids_at] = encoded(ids, "<i8")
        with pytest.raises(ModelFormatError, match=error):
            load_model(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @settings(max_examples=100, deadline=None)
    @given(
        id_fault=st.none() | BLOCK_FAULTS,
        weight_fault=st.none() | BLOCK_FAULTS,
        swapped=st.booleans(),
        data=st.data(),
    )
    @example(id_fault=None, weight_fault=None, swapped=True, data=None)
    def test_corrupted_blocks_raise_only_model_errors(
        self, saved_models, kind, id_fault, weight_fault, swapped, data
    ):
        lines, ids_at, weights_at = v3_blocks(saved_models[kind])
        for at, fault, dtype in (
            (ids_at, id_fault, "<i8"), (weights_at, weight_fault, "<f8")
        ):
            if fault is not None:
                lines[at] = corrupt_block(lines[at], fault, dtype, data)
        if swapped:
            lines[ids_at], lines[weights_at] = lines[weights_at], lines[ids_at]
        if id_fault is weight_fault is None and not swapped:
            assert_same_model(
                load_model(io.StringIO("\n".join(lines))),
                load_model(io.StringIO(saved_models[f"{kind}-v1"])),
            )
            return
        with pytest.raises(ModelFormatError) as raised:
            load_model(io.StringIO("\n".join(lines)))
        assert type(raised.value) in (
            ModelFormatError, ModelDimensionError, ModelTruncatedError
        )
        # A fault in the id block is reported before one in the weights.
        if id_fault is not None or swapped:
            assert "attribute id" in str(raised.value)
        else:
            assert "state weight" in str(raised.value)


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
CANARY = BENCHMARKS / "canary.crf"


def test_canary_v1_file_loads_to_the_model_of_its_v3_resave():
    text = CANARY.read_text(encoding="utf-8")
    assert text.startswith("borrowings-crf 1\n")
    v1 = load_model(io.StringIO(text))
    v3_text = saved_text(save_model, v1)
    assert v3_text.startswith("borrowings-crf 3\n")
    v3 = load_model(io.StringIO(v3_text))
    assert_same_model(v1, v3)
    # The version-1 oracle writes the canary back byte for byte.
    assert saved_text(save_model_v1, v3) == text
    feed = open_vocabulary_corpus(60, seed=17)
    assert tag(v1, feed) == tag(v3, feed)


@pytest.fixture(scope="module")
def saved_models():
    """`save_model` (version-3) text of a sparse (c1 = 0.05) and a dense
    (c1 = 0) fit to an open-vocabulary corpus, and their version-1
    renderings (`sparse-v1`, `dense-v1`)."""
    corpus = open_vocabulary_corpus(30, seed=4)
    texts = {}
    for kind, c1 in (("sparse", 0.05), ("dense", 0.0)):
        model = train(
            corpus,
            FeatureConfig(),
            None,
            TrainConfig(c1=c1, c2=0.01, max_iterations=30),
        )
        texts[kind] = saved_text(save_model, model)
        texts[f"{kind}-v1"] = saved_text(save_model_v1, model)
    return texts


KINDS = ["sparse", "dense", "sparse-v1", "dense-v1"]


# Field values a corrupted model file may hold.
JUNK_FIELDS = ("junk", "nan", "inf", "-inf", "")


@pytest.fixture(scope="module")
def benchmark_feeds(tmp_path_factory):
    """The first 10 feeds of the benchmark's seed-3 `tag-feeds` inputs,
    written by `benchmarks/generate.py`."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_generate", BENCHMARKS / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    out = tmp_path_factory.mktemp("tag-feeds")
    paths = module.generate("tag-feeds", 3, out)["paths"]["feeds"][:10]
    return [
        read_corpus(io.StringIO(Path(path).read_text(encoding="utf-8")))
        for path in paths
    ]


class TestCorruptedModelFiles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unmutated_files_round_trip_byte_for_byte(self, saved_models, kind):
        # A version-1 file saves as the version-3 file of its model.
        text = saved_models[kind]
        again = io.StringIO()
        save_model(load_model(io.StringIO(text)), again)
        assert again.getvalue() == saved_models[kind.split("-")[0]]

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_v1_renderings_load_and_tag_as_their_v3_files(self, saved_models, kind):
        v1 = load_model(io.StringIO(saved_models[f"{kind}-v1"]))
        v3 = load_model(io.StringIO(saved_models[kind]))
        assert_same_model(v1, v3)
        feed = open_vocabulary_corpus(40, seed=8)
        assert tagged_text(v1, feed) == tagged_text(v3, feed)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("radius", [17, 1000])
    def test_an_oversized_window_radius_is_a_format_error(
        self, saved_models, kind, radius
    ):
        # Refused at the feature_config line, before any id table is
        # built: a wide radius would size the table by itself.
        text = saved_models[kind]
        wide = text.replace("window_radius=2", f"window_radius={radius}", 1)
        assert wide != text
        with pytest.raises(ModelFormatError, match="bad feature_config: window_radius"):
            load_model(io.StringIO(wide))

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_save_orders_bases_by_first_id(self, saved_models, benchmark_feeds, kind):
        """A loaded index with two base rows swapped and a base without
        an id saves as the trained file, and tags alike."""
        text = saved_models[kind]
        trained = load_model(io.StringIO(text))
        bases = list(trained.index.rows)
        swapped = [1, 0, *range(2, len(bases))]
        ids = np.insert(trained.index.ids[swapped], 1, -1, axis=0)
        names = [bases[1], "w=no-attribute", bases[0], *bases[2:]]
        index = FeatureIndex(dict(zip(names, itertools.count())), ids)
        assert list(index.rows) != list(trained.index.rows)
        model = dataclasses.replace(trained, index=index)
        assert saved_text(save_model, model) == text
        assert model.index.names() == trained.index.names()
        for feed in benchmark_feeds:
            assert tagged_text(model, feed) == tagged_text(trained, feed)

    def test_the_dense_model_has_tens_of_thousands_of_weight_lines(self, saved_models):
        declared = re.search(r"^state_weights\t(\d+)$", saved_models["dense-v1"], re.M)
        assert int(declared[1]) >= 20_000

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(mutations=st.lists(line_mutations(JUNK_FIELDS), min_size=1, max_size=3))
    @example(mutations=[("field", 1, 1, "junk")])
    @example(mutations=[("swap", 1, 2)])
    def test_only_model_format_errors_are_raised(self, saved_models, kind, mutations):
        text = saved_models[kind]
        for mutation in mutations:
            text = mutate(text, mutation)
        try:
            model = load_model(io.StringIO(text))
        except ModelFormatError:
            return
        # A file that still loads holds a model that saves as it reads.
        again = io.StringIO()
        save_model(model, again)
        reloaded = load_model(io.StringIO(again.getvalue()))
        assert reloaded.index.names() == model.index.names()


class TestTagMatchesReplaceOracle:
    # The sparse model is fitted with c1 = 0.05, the dense one with c1 = 0.
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    @pytest.mark.parametrize("chunk", [7, 512])
    def test_tagged_headlines_equal_the_oracle(
        self, saved_models, kind, chunk, monkeypatch
    ):
        monkeypatch.setattr(crf, "_TAG_CHUNK", chunk)
        model = load_model(io.StringIO(saved_models[kind]))
        for seed in (8, 9):
            feed = open_vocabulary_corpus(40, seed=seed)
            expected = tag_oracle(model, feed)
            assert any(headline.spans for headline in expected)
            tagged = tag(model, feed)
            assert tagged == expected
            assert tagged_text(model, feed) == written_text(expected)

    def test_unknown_predicted_tag_is_rejected(self, saved_models):
        model = load_model(io.StringIO(saved_models["sparse"]))
        renamed = TagAlphabet(tuple(
            "B-FRA" if t == "B-ENG" else t for t in model.alphabet.tags
        ))
        feed = open_vocabulary_corpus(40, seed=8)
        assert any(
            span.label == "ENG" for h in tag(model, feed) for span in h.spans
        )
        with pytest.raises(ValidationError, match="unknown tag 'B-FRA'"):
            tag(dataclasses.replace(model, alphabet=renamed), feed)
