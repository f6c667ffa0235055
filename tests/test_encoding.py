"""The interned window encoder against the dict-based oracle.

`encode_attributes` over `windowed_attributes` spells out every
windowed attribute name; the interned encoder behind
`encode_training_set`, `build_index` and `tag` never builds them.  The
two must agree entry for entry, when training and when tagging.  The
encodings a `SharedEncoding` derives for a sweep's runs must in turn
agree with encoding each run's config afresh.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borrowings import crf
from borrowings.corpus import Corpus, Headline, Token, bio_to_spans
from borrowings.crf import (
    CrfModel,
    SharedEncoding,
    TrainConfig,
    encode_attributes,
    encode_training_set,
    fit,
    index_corpus,
    save_model,
    tag,
    train,
)
from borrowings.embeddings import EmbeddingTable
from borrowings.errors import ConfigError
from borrowings.features import (
    BOS,
    EOS,
    FAMILIES,
    FeatureConfig,
    FeatureIndex,
    attribute_family,
    base_attributes,
    build_index,
    offset_prefix,
    windowed_attributes,
)
from conftest import (
    cell_order_emissions,
    expand_encoding,
    synthetic_corpus,
    synthetic_embeddings,
)

# Texts and a POS tag that spell other attribute names, or the `]` and
# `=` that end an offset prefix and a name's key.
ADVERSARIAL = ("emb0", "w=x", "quot=1", "]", "bias", "BOS", "Eos")
# Repeated trigrams, cased and uncased forms, and every quote character.
WORDS = (
    "aaaa", "ababab", "DJ", "Netflix", "casa", "big", "data", "a",
    "e-commerce", "2020", "streaming", "ya",
    "«", "»", "'", '"', "“", "”", "‘", "’",
    *ADVERSARIAL,
)
UNSEEN = ("zzzz", "Quux", "ñandú", "bigdata", "XXXXXX")
POS = (None, "NOUN", "PROPN", "PUNCT", "emb")
TABLE = EmbeddingTable(
    name="t",
    dim=3,
    vectors={
        "casa": np.array([0.25, -1.5, 3.0]),
        "netflix": np.array([1e-3, 0.0, -2.0]),  # found through lowercasing
        "big": np.array([-0.0, 7.5, 0.125]),
        "'": np.array([0.5, 0.5, -0.5]),
    },
)


def corpora(words=WORDS, max_headlines=5):
    token = st.builds(Token, st.sampled_from(words), st.sampled_from(POS))
    headline = st.lists(token, min_size=1, max_size=7)
    return st.lists(headline, min_size=1, max_size=max_headlines).map(
        lambda headlines: Corpus("c", tuple(
            Headline(id=f"h{i}", tokens=tuple(tokens))
            for i, tokens in enumerate(headlines)
        ))
    )


@st.composite
def configs(draw):
    """A feature config, with the embedding table when it needs one."""
    off = draw(st.sets(st.sampled_from(FAMILIES[:-1]), max_size=3))
    embedding = draw(st.booleans())
    config = FeatureConfig(
        **{family: False for family in off},
        embedding=embedding,
        window_radius=draw(st.integers(0, 3)),
        embedding_scaling=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
    )
    return config, TABLE if embedding else None


def oracle(corpus, config, table, lookup):
    return encode_attributes(
        (windowed_attributes(h, config, table) for h in corpus), lookup
    )


def assert_same_encoding(got, expected):
    """Equal per-token entries, offsets and packed time steps.

    Each token's entries are those of the cells it visits, in slot
    order; cell numbering and sharing may differ.
    """
    for a, b, field in zip(
        expand_encoding(got), expand_encoding(expected), ("ids", "vals", "token")
    ):
        assert a.tobytes() == b.tobytes(), field
    for field in ("ids", "vals", "cell", "visits"):
        assert getattr(got, field).dtype == getattr(expected, field).dtype, field
    assert got.visits.shape[0] == got.n_tokens
    assert np.array_equal(got.offsets, expected.offsets)
    for field in ("order", "steps"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestBaseAttributes:
    def test_repeated_trigrams_are_named_once(self):
        before, after = base_attributes("aaaa", None, FeatureConfig())
        assert before == ("bias", "w=aaaa", "tri=^aa", "tri=aaa", "tri=aa$")
        assert after == ("suf3=aaa", "shape=xxxx")
        before, _ = base_attributes("ababab", None, FeatureConfig())
        assert before[2:] == ("tri=^ab", "tri=aba", "tri=bab", "tri=ab$")

    def test_families_split_around_the_quotation_attribute(self):
        before, after = base_attributes("DJ", "PROPN", FeatureConfig())
        assert before == ("bias", "w=DJ", "upper=1", "tri=^DJ", "tri=DJ$")
        assert after == ("suf3=DJ", "pos=PROPN", "shape=XX")

    def test_dict_view_orders_quotation_between_the_halves(self):
        h = Headline(id="h", tokens=(Token("'"), Token("big", "NOUN"), Token("'")))
        config = FeatureConfig(window_radius=0)
        before, after = base_attributes("big", "NOUN", config)
        names = [name[3:] for name in windowed_attributes(h, config)[1]]
        assert names == [*before, "quot=1", *after]


class TestAttributeFamily:
    def test_names_of_each_family_alone(self):
        """Every name a one-family config produces maps to that family."""
        radius = 3
        quoted = tuple(Token(text, "emb") for text in ADVERSARIAL)
        headline = Headline(id="h", tokens=(Token("'"), *quoted, Token("'")))
        table = EmbeddingTable(name="t", dim=2, vectors={"bias": np.ones(2)})
        markers = {
            offset_prefix(offset) + marker
            for offset in range(-radius, radius + 1)
            if offset
            for marker in (BOS, EOS)
        }
        for name in markers:
            assert attribute_family(name) is None, name
        for family in FAMILIES:
            config = FeatureConfig(
                **{f: f == family for f in FAMILIES}, window_radius=radius
            )
            names = {
                name
                for vec in windowed_attributes(headline, config, table)
                for name in vec
            }
            assert names - markers, family
            for name in names - markers:
                assert attribute_family(name) == family, name


class TestTrainingEncoding:
    @settings(max_examples=150, deadline=None)
    @given(corpora(), configs())
    def test_matches_oracle(self, corpus, config_and_table):
        config, table = config_and_table
        index = FeatureIndex()
        expected = oracle(corpus, config, table, index.add)
        dataset, got_index, _ = encode_training_set(corpus, config, table)
        assert got_index.names() == index.names()
        assert_same_encoding(dataset.encoding, expected)
        assert build_index(corpus, config, table).names() == index.names()

    @pytest.mark.parametrize("embedding", [False, True])
    def test_matches_oracle_on_a_corpus(self, embedding):
        corpus = synthetic_corpus(60, seed=41)
        table = synthetic_embeddings(corpus, dim=4, seed=42) if embedding else None
        config = FeatureConfig(embedding=embedding)
        index = FeatureIndex()
        expected = oracle(corpus, config, table, index.add)
        dataset, got_index, _ = encode_training_set(corpus, config, table)
        assert got_index.names() == index.names()
        assert_same_encoding(dataset.encoding, expected)


def random_model(corpus, config, table, seed, zero_share):
    """Model over the corpus's attributes with a share of all-zero rows.

    A third of the other weights are zero too, as L1 training leaves
    them, so some rows are zero for some labels only.
    """
    _, index, alphabet = encode_training_set(corpus, config, table)
    rng = np.random.default_rng(seed)
    n_labels = len(alphabet)
    state = rng.normal(size=(len(index), n_labels))
    state[rng.random(state.shape) < 1 / 3] = 0.0
    state[rng.random(len(index)) < zero_share] = 0.0
    return CrfModel(
        alphabet=alphabet,
        index=index,
        state=state,
        transition=rng.normal(size=(n_labels, n_labels)),
        start=rng.normal(size=n_labels),
        end=rng.normal(size=n_labels),
        feature_config=config,
        train_config=TrainConfig(),
    )


class TestTaggingEncoding:
    @settings(max_examples=150, deadline=None)
    @given(
        corpora(),
        corpora(words=WORDS + UNSEEN),
        configs(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    )
    def test_matches_oracle(self, corpus, feed, config_and_table, seed, zero_share):
        config, table = config_and_table
        model = random_model(corpus, config, table, seed, zero_share)
        expected = oracle(feed, config, table, model.index.get)
        resolve = crf._resolver(model.index.get, config.window_radius)
        got = crf._encode_windows(feed.headlines, config, table, resolve)
        assert_same_encoding(got, expected)
        e_got = crf._emissions(got, model.state)
        assert e_got.tobytes() == cell_order_emissions(got, model.state).tobytes()
        # The oracle sums each token's entries in one run; relative to
        # the summed magnitudes, the two orders agree to rounding.
        e_expected = crf._emissions(expected, model.state)
        magnitude = crf._emissions(
            dataclasses.replace(expected, vals=np.abs(expected.vals)),
            np.abs(model.state),
        )
        assert np.all(np.abs(e_got - e_expected) <= 1e-12 * magnitude)
        paths = crf._decode(model, expected)
        assert np.array_equal(crf._decode(model, got), paths)
        tags = [model.alphabet.tags[i] for i in paths.tolist()]
        bounds = expected.offsets.tolist()
        predicted = tag(model, feed, table)
        for headline, lo, hi in zip(predicted, bounds, bounds[1:]):
            assert headline.spans == tuple(bio_to_spans(tags[lo:hi]))


@st.composite
def variants(draw):
    """A shared config and runs derivable from it.

    The runs are the shared config itself, every one-family-off config,
    and one config with up to three families off, each with its own
    embedding scaling.
    """
    config, table = draw(configs())
    enabled = config.enabled_families()
    scaling = st.floats(0.5, 4.0)
    runs = [dataclasses.replace(config, embedding_scaling=draw(scaling))]
    runs += [
        dataclasses.replace(config.without(f), embedding_scaling=draw(scaling))
        for f in enabled
        if len(enabled) > 1
    ]
    off = draw(st.sets(st.sampled_from(enabled), max_size=min(3, len(enabled) - 1)))
    runs.append(
        dataclasses.replace(
            config, **dict.fromkeys(off, False), embedding_scaling=draw(scaling)
        )
    )
    return config, table, runs


class TestDerivedEncoding:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), corpora(words=WORDS + UNSEEN), variants())
    def test_matches_encoding_afresh(self, corpus, feed, shared_and_runs):
        config, table, runs = shared_and_runs
        shared = SharedEncoding(corpus, feed, config, table, ignore_other=True)
        for run in runs:
            run_table = table if run.embedding else None
            dataset, index, dev = shared.derive(run)
            expected, expected_index = index_corpus(corpus, run, run_table)
            assert index.names() == expected_index.names(), run
            assert_same_encoding(dataset.encoding, expected)
            # Cells are those of a fresh encoding, so the objective sums
            # in the same order.
            for field in ("ids", "vals", "cell", "visits"):
                a, b = getattr(dataset.encoding, field), getattr(expected, field)
                assert a.tobytes() == b.tobytes(), field
            fresh, _, _ = encode_training_set(corpus, run, run_table, ignore_other=True)
            assert np.array_equal(dataset.gold, fresh.gold)
            assert dataset.n_features == fresh.n_features
            resolve = crf._resolver(expected_index.get, run.window_radius)
            expected_dev = crf._encode_windows(feed.headlines, run, run_table, resolve)
            assert_same_encoding(dev, expected_dev)

    def test_dropping_quotation_trains_the_same_bytes(self):
        corpus = synthetic_corpus(60, seed=46)
        config = FeatureConfig()
        run = config.without("quotation")
        train_config = TrainConfig(c1=0.05, c2=0.01, max_iterations=40)
        shared = SharedEncoding(corpus, corpus, config, None)
        dataset, index, _ = shared.derive(run)
        derived = io.StringIO()
        save_model(fit(dataset, index, shared.alphabet, run, train_config), derived)
        fresh = io.StringIO()
        save_model(train(corpus, run, None, train_config), fresh)
        assert derived.getvalue() == fresh.getvalue()

    def test_runs_leave_the_shared_encoding_untouched(self):
        corpus = synthetic_corpus(20, seed=43)
        table = synthetic_embeddings(corpus, dim=4, seed=44)
        config = FeatureConfig(embedding=True)
        shared = SharedEncoding(corpus, corpus, config, table)
        before = shared.train.vals.tobytes(), shared.dev.vals.tobytes()
        shared.derive(dataclasses.replace(config, embedding_scaling=3.0))
        shared.derive(config.without("token"))
        assert (shared.train.vals.tobytes(), shared.dev.vals.tobytes()) == before
        dataset, index, dev = shared.derive(config)
        assert dataset.encoding is shared.train and dev is shared.dev
        assert index is shared.index

    def test_only_switched_off_families_and_scaling_may_differ(self):
        corpus = synthetic_corpus(5, seed=45)
        shared = SharedEncoding(corpus, corpus, FeatureConfig(suffix3=False), None)
        with pytest.raises(ConfigError, match="cannot be derived"):
            shared.derive(FeatureConfig())
        with pytest.raises(ConfigError, match="cannot be derived"):
            shared.derive(FeatureConfig(suffix3=False, window_radius=1))
        with pytest.raises(ConfigError, match="no embedding table"):
            shared.derive(FeatureConfig(suffix3=False, embedding=True))
