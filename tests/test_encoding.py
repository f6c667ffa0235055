"""The interned window encoder against the dict-based oracle.

`encode_attributes` over `windowed_attributes` spells out every
windowed attribute name; the interned encoder behind
`encode_training_set`, `build_index` and `tag` never builds them.  The
two must agree entry for entry, when training and when tagging.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borrowings import crf
from borrowings.corpus import Corpus, Headline, Token, bio_to_spans
from borrowings.crf import (
    CrfModel,
    TrainConfig,
    encode_attributes,
    encode_training_set,
    tag,
)
from borrowings.embeddings import EmbeddingTable
from borrowings.features import (
    FAMILIES,
    FeatureConfig,
    FeatureIndex,
    base_attributes,
    build_index,
    windowed_attributes,
)
from conftest import synthetic_corpus, synthetic_embeddings

# Repeated trigrams, cased and uncased forms, and every quote character.
WORDS = (
    "aaaa", "ababab", "DJ", "Netflix", "casa", "big", "data", "a",
    "e-commerce", "2020", "streaming", "ya",
    "«", "»", "'", '"', "“", "”", "‘", "’",
)
UNSEEN = ("zzzz", "Quux", "ñandú", "bigdata", "XXXXXX")
POS = (None, "NOUN", "PROPN", "PUNCT")
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
    for field in ("ids", "token", "offsets"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), field
    assert got.vals.tobytes() == expected.vals.tobytes()
    assert len(got.buckets) == len(expected.buckets)
    for a, b in zip(got.buckets, expected.buckets):
        assert np.array_equal(a, b)


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
        e_expected = crf._emissions(expected, model.state)
        assert e_got.tobytes() == e_expected.tobytes()
        paths = crf._decode(model, expected)
        assert np.array_equal(crf._decode(model, got), paths)
        tags = [model.alphabet.tags[i] for i in paths.tolist()]
        bounds = expected.offsets.tolist()
        predicted = tag(model, feed, table)
        for headline, lo, hi in zip(predicted, bounds, bounds[1:]):
            assert headline.spans == tuple(bio_to_spans(tags[lo:hi]))
