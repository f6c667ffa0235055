import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borrowings import crf
from borrowings.corpus import (
    ENG_ALPHABET,
    FULL_ALPHABET,
    Corpus,
    Headline,
    LabeledSpan,
    Token,
    bio_to_spans,
)
from borrowings.crf import (
    CrfModel,
    DivergenceError,
    SharedEncoding,
    TrainingSet,
    ModelDimensionError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    TrainConfig,
    encode_attributes,
    encode_training_set,
    load_model,
    log_partition,
    n_parameters,
    save_model,
    score_sequence,
    tag,
    train,
    viterbi,
)
from borrowings.errors import ConfigError, ValidationError
from borrowings.evaluation import evaluate
from borrowings.features import FeatureConfig, windowed_attributes
from conftest import (
    alphabet_of_size,
    brute_best_path,
    brute_log_partition,
    cell_order_emissions,
    cell_order_state_gradient,
    dp_best_path_min_index,
    enumerate_scores,
    expand_encoding,
    model_from_matrices,
    reference_nll_and_gradient,
    reference_partition_and_pairs,
    synthetic_corpus,
    synthetic_embeddings,
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
        assert score_sequence(model, [{"p0": 2.0}], ["B-ENG"]) == pytest.approx(3.0)

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
        assert enc.cell.tolist() == [0, 1, 3, 4]
        assert enc.visits.tolist() == [[0], [1], [2], [3], [4]]
        assert enc.n_cells == 5
        assert enc.offsets.tolist() == [0, 2, 3, 5]
        assert enc.n_tokens == 5
        # Step-major, sequences by descending length; equal lengths keep
        # input order, so the ranks are sequences 0, 2, 1.
        assert enc.order.tolist() == [0, 3, 2, 1, 4]
        assert enc.steps.tolist() == [0, 3, 5]

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
        assert np.all(np.diff(enc.cell) >= 0)
        assert np.array_equal(np.unique(enc.cell), np.arange(8))
        visited = np.bincount(enc.visits.ravel(), minlength=8)
        entries = np.bincount(enc.cell, minlength=8)
        ids, _, _ = expand_encoding(enc)
        assert enc.ids.size == entries.sum() < ids.size == (visited * entries).sum()

    def test_emissions_sum_cells_then_slots_exactly(self):
        dataset, _, _ = encode_small()
        rng = np.random.default_rng(22)
        state = rng.normal(size=(dataset.n_features, dataset.n_labels))
        enc = dataset.encoding
        assert enc.visits.shape[1] == 5
        got = crf._emissions(enc, state)
        assert got.tobytes() == cell_order_emissions(enc, state).tobytes()

    def test_state_scatter_sums_visits_then_entries_exactly(self):
        dataset, _, _ = encode_small()
        rng = np.random.default_rng(23)
        enc = dataset.encoding
        residual = rng.normal(size=(enc.n_tokens, dataset.n_labels))
        got = np.empty((dataset.n_features, dataset.n_labels))
        crf._scatter_state(enc, residual, got)
        expected = cell_order_state_gradient(enc, residual, dataset.n_features)
        assert got.tobytes() == expected.tobytes()

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

    def test_repeated_evaluations_are_bit_identical(self):
        dataset, _, _ = encode_small()
        w = np.random.default_rng(25).normal(scale=0.5, size=dataset.n_parameters)
        first_value, first_grad = dataset.nll_and_gradient(w, 0.2)
        second_value, second_grad = dataset.nll_and_gradient(w, 0.2)
        assert first_value == second_value
        assert np.array_equal(first_grad, second_grad)

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
        config = FeatureConfig(embedding=True)
        shared = SharedEncoding(corpus, corpus, config, table)
        run = dataclasses.replace(
            config, token=False, suffix3=False, embedding_scaling=2.0
        )
        dataset, index, _ = shared.derive(run)
        assert dataset.encoding.visits is shared.train.visits
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
    return model, seqs, e, encode_attributes(seqs, model.index.get)


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
            alone = encode_attributes([seq], model.index.get)
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
        enc = encode_attributes([], model.index.get)
        assert enc.order.size == 0 and enc.steps.tolist() == [0]
        paths = crf._decode(model, enc)
        assert paths.shape == (0,) and paths.dtype == np.int64
        n_labels = model.n_labels
        log_z, marginal, pair = crf._forward_backward(
            np.empty((0, n_labels)), enc, model.transition, model.start, model.end
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
            enc = encode_attributes(seqs, model.index.get)
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
            enc = encode_attributes(seqs, model.index.get)
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
            attrs = windowed_attributes(headline, trained.feature_config)
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
        assert index.frozen
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
        trace = trained.diagnostics.objective_trace
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
        assert again.diagnostics.objective_trace == (
            trained.diagnostics.objective_trace
        )

    def test_single_iteration_cap(self, small_corpus_module):
        model = train(
            small_corpus_module, FeatureConfig(), None, TrainConfig(max_iterations=1)
        )
        assert model.diagnostics.iterations <= 1
        assert math.isfinite(model.diagnostics.final_objective)

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


class TestPersistence:
    def roundtrip(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        return buffer.getvalue(), load_model(io.StringIO(buffer.getvalue()))

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
        bumped = text.replace("borrowings-crf 1", "borrowings-crf 2", 1)
        with pytest.raises(ModelVersionError, match="version"):
            load_model(io.StringIO(bumped))

    def test_truncated_file(self, trained):
        # Dropping whole trailing lines leaves every remaining line
        # intact, so the loader must report a clean early EOF.
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        for keep in (2, len(lines) // 4, len(lines) // 2, len(lines) - 1):
            with pytest.raises(ModelTruncatedError):
                load_model(io.StringIO("".join(lines[:keep])))

    def test_midline_cut_is_a_format_error(self, trained):
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        half = lines[header_at + 1][: len(lines[header_at + 1]) // 2]
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("".join(lines[: header_at + 1]) + half))

    def test_end_inside_attribute_names_is_truncation(self, trained):
        text, _ = self.roundtrip(trained)
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
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        first = lines.index("attribute_names\n") + 1
        lines[first + 2] = lines[first]
        with pytest.raises(ModelFormatError, match="duplicate attribute names"):
            load_model(io.StringIO("".join(lines)))

    def test_missing_trailer_is_truncation(self, trained):
        text, _ = self.roundtrip(trained)
        trimmed = text[: text.rindex("end_of_model")]
        with pytest.raises(ModelTruncatedError):
            load_model(io.StringIO(trimmed))

    def test_fewer_state_weights_than_declared(self, trained):
        text, _ = self.roundtrip(trained)
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
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
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
        text, _ = self.roundtrip(trained)
        lines = text.splitlines(keepends=True)
        header_at = next(
            i for i, line in enumerate(lines) if line.startswith("state_weights\t")
        )
        weight = lines[header_at + 1].split("\t")
        weight[0] = "no-such-attribute"
        lines[header_at + 1] = "\t".join(weight)
        with pytest.raises(ModelDimensionError, match="unknown attribute"):
            load_model(io.StringIO("".join(lines)))

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

    def test_l1_model_files_stay_small(self, small_corpus_module):
        # Sparse models persist only their nonzero weights.
        sparse = train(
            small_corpus_module, FeatureConfig(), None,
            TrainConfig(c1=1.0, max_iterations=60),
        )
        buffer = io.StringIO()
        save_model(sparse, buffer)
        declared = next(
            line for line in buffer.getvalue().splitlines()
            if line.startswith("state_weights\t")
        )
        assert int(declared.split("\t")[1]) == int(np.sum(sparse.state != 0.0))
        reloaded = load_model(io.StringIO(buffer.getvalue()))
        assert np.array_equal(reloaded.state, sparse.state)
