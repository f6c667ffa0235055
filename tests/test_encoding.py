"""The interned window encoder against the per-token dict oracle.

`encode_attributes` over `windowed_attributes_oracle` (both in
`conftest`) spells out every windowed attribute name, one token and
one name at a time; the interned encoder behind `encode_training_set`,
`build_index`, `tag` and the dict view `windowed_attributes` never
builds them.  The two must agree entry for entry, when training and
when tagging, and the dict view must equal the oracle's dicts.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borrowings import crf
from borrowings.corpus import Corpus, Headline, Token, bio_to_spans
from borrowings.crf import (
    CrfModel,
    TrainConfig,
    encode_training_set,
    tag,
)
from borrowings.embeddings import EmbeddingTable
from borrowings.errors import ConfigError
from borrowings.features import (
    FAMILIES,
    FeatureConfig,
    build_index,
    type_attributes,
    window_table,
    windowed_attributes,
)
from conftest import (
    FirstSeenIds,
    cell_order_emissions,
    encode_attributes,
    entry_cells,
    entry_values,
    expand_encoding,
    name_lookup,
    open_vocabulary_corpus,
    synthetic_corpus,
    synthetic_embeddings,
    windowed_attributes_oracle,
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
        (windowed_attributes_oracle(h, config, table) for h in corpus), lookup
    )


def assert_same_encoding(got, expected):
    """Equal per-token entries, offsets and packed time steps, and
    `got`'s rank-major entries and step links are those it spells out.

    Each token's entries are those of the cells it visits, in slot
    order; cell numbering and sharing may differ.
    """
    for a, b, field in zip(
        expand_encoding(got), expand_encoding(expected), ("ids", "vals", "token")
    ):
        assert a.tobytes() == b.tobytes(), field
    for field in ("ids", "sizes", "visits"):
        assert getattr(got, field).dtype == getattr(expected, field).dtype, field
    assert entry_values(got).dtype == expected.vals.dtype
    assert got.visits.shape[0] == got.n_tokens
    assert np.array_equal(got.offsets, expected.offsets)
    for field in ("order", "steps"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert_laid_out_once(got)


def assert_same_index(got, expected):
    """The same bases in the same rows, and the same ids, dtype too."""
    assert list(got.rows.items()) == list(expected.rows.items())
    assert got.ids.dtype == expected.ids.dtype
    assert np.array_equal(got.ids, expected.ids)


def assert_laid_out_once(enc):
    """The rank-major entries and the packed-step links of `enc` equal
    those read off its cell-major entries and its packed order.

    Entry r of every cell is read rank by rank, the cells ranked by
    descending entry count, ties in cell order; row k of the packed
    steps holds token `order[k]`.
    """
    sizes = enc.sizes.tolist()
    assert sum(sizes) == enc.ids.size
    starts = [0, *itertools.accumulate(sizes)]
    # Python's sort is stable: equal counts keep cell order.
    by_size = sorted(range(len(sizes)), key=lambda c: -sizes[c])
    at, ranks = [], [0]
    for r in range(max(sizes, default=0)):
        at += [starts[c] + r for c in by_size if sizes[c] > r]
        ranks.append(len(at))
    ids, values = enc.ids.tolist(), entry_values(enc).tolist()
    assert enc.ranks.tolist() == ranks
    assert enc.ranked_ids.tolist() == [ids[k] for k in at]
    if enc.vals is None:
        assert enc.ranked_vals is None
    else:
        ranked_vals = np.array([values[k] for k in at], dtype=float)
        assert enc.ranked_vals.tobytes() == ranked_vals.tobytes()
    renumber = {c: new for new, c in enumerate(by_size)}
    visits = [[renumber[c] for c in row] for row in enc.visits.tolist()]
    assert enc.ranked_visits.tolist() == visits
    order = enc.order.tolist()
    row = {t: k for k, t in enumerate(order)}
    offsets = enc.offsets.tolist()
    firsts = set(offsets[:-1])
    assert enc.prev.tolist() == [row[t - 1] for t in order if t not in firsts]
    assert enc.last.tolist() == sorted(
        row[hi - 1] for lo, hi in zip(offsets, offsets[1:]) if hi > lo
    )
    for field in ("ranked_ids", "ranks", "ranked_visits", "prev", "last"):
        assert getattr(enc, field).dtype == np.int64, field


def split_names(text, pos, config):
    """The names `type_attributes` gives one type, before and after
    `quot=1`."""
    attrs = type_attributes([(text, pos)], config)
    names = tuple(attrs.names[i] for i in attrs.ids.tolist())
    return names[: attrs.n_before[0]], names[attrs.n_before[0] :]


class TestBaseAttributes:
    def test_repeated_trigrams_are_named_once(self):
        before, after = split_names("aaaa", None, FeatureConfig())
        assert before == ("bias", "w=aaaa", "tri=^aa", "tri=aaa", "tri=aa$")
        assert after == ("suf3=aaa", "shape=xxxx")
        before, _ = split_names("ababab", None, FeatureConfig())
        assert before[2:] == ("tri=^ab", "tri=aba", "tri=bab", "tri=ab$")

    def test_families_split_around_the_quotation_attribute(self):
        before, after = split_names("DJ", "PROPN", FeatureConfig())
        assert before == ("bias", "w=DJ", "upper=1", "tri=^DJ", "tri=DJ$")
        assert after == ("suf3=DJ", "pos=PROPN", "shape=XX")

    def test_dict_view_orders_quotation_between_the_halves(self):
        h = Headline(id="h", tokens=(Token("'"), Token("big", "NOUN"), Token("'")))
        config = FeatureConfig(window_radius=0)
        before, after = split_names("big", "NOUN", config)
        names = [name[3:] for name in windowed_attributes(h, config)[1]]
        assert names == [*before, "quot=1", *after]


class TestWindowedView:
    """`windowed_attributes`, a view of the encoder, against the
    per-token oracle: the same names and value bits, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(
        # WORDS holds the ADVERSARIAL texts and every quote character.
        corpora(max_headlines=2),
        st.integers(0, 3),
        st.sampled_from((None, *FAMILIES)),
        st.booleans(),
        st.sampled_from([0.5, 1.0, 2.5]),
    )
    def test_matches_the_per_token_oracle(
        self, corpus, radius, off, embedding, scaling
    ):
        config = FeatureConfig(
            window_radius=radius, embedding=embedding, embedding_scaling=scaling
        )
        if off is not None:
            config = config.without(off)
        table = TABLE if config.embedding else None
        for h in corpus:
            got = windowed_attributes(h, config, table)
            expected = windowed_attributes_oracle(h, config, table)
            assert [list(vec) for vec in got] == [list(vec) for vec in expected]
            for vec, ref in zip(got, expected):
                values = np.array(list(vec.values()), dtype=float)
                ref_values = np.array(list(ref.values()), dtype=float)
                assert values.tobytes() == ref_values.tobytes()


class TestTrainingEncoding:
    @settings(max_examples=150, deadline=None)
    @given(corpora(), configs())
    def test_matches_oracle(self, corpus, config_and_table):
        config, table = config_and_table
        index = FirstSeenIds()
        expected = oracle(corpus, config, table, index.add)
        dataset, got_index, _ = encode_training_set(corpus, config, table)
        assert got_index.names() == index.names()
        assert_same_encoding(dataset.encoding, expected)
        assert build_index(corpus, config, table).names() == index.names()
        # The one ordering rule: the encoder's table is the table of its
        # names, and its bases are already in order of their first id.
        radius = config.window_radius
        assert_same_index(window_table(got_index.names(), radius), got_index)
        assert_same_index(got_index.in_first_id_order(), got_index)

    @pytest.mark.parametrize("embedding", [False, True])
    def test_matches_oracle_on_a_corpus(self, embedding):
        corpus = synthetic_corpus(60, seed=41)
        table = synthetic_embeddings(corpus, dim=4, seed=42) if embedding else None
        config = FeatureConfig(embedding=embedding)
        index = FirstSeenIds()
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
        st.booleans(),
    )
    def test_matches_oracle(
        self, corpus, feed, config_and_table, seed, zero_share, sparse
    ):
        config, table = config_and_table
        model = random_model(corpus, config, table, seed, zero_share)
        if sparse:
            # The index keeps only the weighted attributes, as an L1
            # fit's does, so that many cells keep no entry.
            index, state = crf._active(model.index, model.state)
            model = dataclasses.replace(model, index=index, state=state)
        expected = oracle(feed, config, table, name_lookup(model.index))
        got, _ = crf._encode_windows(feed.headlines, config, table, model.index)
        assert_same_encoding(got, expected)
        e_got = crf._rank_major_emissions(got, model.state)
        assert e_got.tobytes() == cell_order_emissions(got, model.state).tobytes()
        # The oracle sums each token's entries in one run; relative to
        # the summed magnitudes, the two orders agree to rounding.
        e_expected = cell_order_emissions(expected, model.state)
        magnitude = cell_order_emissions(
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


# The arrays the digests were recorded over: the cell-major entries, the
# visits and the packed order.  The rank-major entries and the step links
# are derived from these (`assert_laid_out_once`).
DIGEST_FIELDS = ("ids", "vals", "cell", "visits", "offsets", "order", "steps")


def encoding_digest(enc, names):
    """sha256 of an encoding's `DIGEST_FIELDS` (values, dtypes, shapes,
    memory order) and of the index names.  Values of None are hashed as
    the 1.0 they stand for, and each entry's cell as the number it has
    from the cell sizes, so an encoding keeps the digest it had when the
    encoder kept an array of each."""
    derived = {"vals": entry_values(enc), "cell": entry_cells(enc)}
    h = hashlib.sha256()
    for name in DIGEST_FIELDS:
        a = derived[name] if name in derived else getattr(enc, name)
        h.update(
            f"{name} {a.dtype.str} {a.shape} "
            f"{a.flags.c_contiguous} {a.flags.f_contiguous}\n".encode()
        )
        h.update(a.tobytes(order="A"))
    for name in names:
        h.update(name.encode() + b"\n")
    return h.hexdigest()


def tag_encoding(headlines, config, table, index):
    """The encoding `tag` builds for `headlines` against `index`."""
    enc, _ = crf._encode_windows(headlines, config, table, index)
    return enc


PINNED_CORPUS = synthetic_corpus(300, seed=4)
PINNED_CONFIGS = {
    "default": FeatureConfig(),
    "quotation-off": FeatureConfig(quotation=False),
    "radius-0": FeatureConfig(window_radius=0),
    "radius-3": FeatureConfig(window_radius=3),
    "embedding": FeatureConfig(embedding=True, embedding_scaling=0.5),
}
# `encoding_digest` of each encoding, as the per-entry encoder gave them.
PINNED_DIGESTS = {
    "default": "8a1f37a875bf0f1e46ead1ccb7ff3a68a9bbe7717224ec03e87f363b11a789c7",
    "quotation-off": "9a0be8847e23b516c1a7559a5af05c6b14eb2afcf2ecb6a370af6bc044317948",
    "radius-0": "6a5f8d79379cf13bfa2c3db58072257ff66b776238ef82b5082733b970ad1213",
    "radius-3": "b0071e05108c991089473a733c5929ad860f666351d0222d3ff2637462015e69",
    "embedding": "433d07a79b9f8843d439120827ab77e69bbbca37c43ea407a5ab3d298e660c83",
    "tag": "1b669632f54b0d078076bedfa68e13491d2903c028ab484493b661b3b7253277",
}


class TestPinnedBytes:
    """Encodings whose bytes are pinned: any change to them changes model
    files and `tag` outputs."""

    @pytest.mark.parametrize("name", list(PINNED_CONFIGS))
    def test_training_encoding(self, name):
        config = PINNED_CONFIGS[name]
        table = (
            synthetic_embeddings(PINNED_CORPUS, dim=5, seed=12)
            if config.embedding
            else None
        )
        enc, index = crf._encode_windows(PINNED_CORPUS.headlines, config, table)
        assert encoding_digest(enc, index.names()) == PINNED_DIGESTS[name]

    def test_tag_encoding_of_an_unseen_heavy_feed(self):
        config = FeatureConfig()
        _, index = crf._encode_windows(PINNED_CORPUS.headlines, config, None)
        feed = open_vocabulary_corpus(40, seed=13)
        enc = tag_encoding(feed.headlines, config, None, index)
        assert encoding_digest(enc, index.names()) == PINNED_DIGESTS["tag"]


class TestUnitValues:
    """The encoder keeps entry values only when the embedding family adds
    entries; otherwise every value is 1.0 and `vals` is None."""

    @pytest.mark.parametrize(
        "embedding, table, kept",
        [(False, None, False), (False, TABLE, False), (True, TABLE, True)],
        ids=["off", "off-with-table", "on"],
    )
    def test_vals_none_unless_embedding_entries(self, embedding, table, kept):
        config = FeatureConfig(embedding=embedding)
        corpus = synthetic_corpus(20, seed=8)
        enc, index = crf._encode_windows(corpus.headlines, config, table)
        assert (enc.vals is not None) is kept
        feed = open_vocabulary_corpus(10, seed=9)
        tagged = tag_encoding(feed.headlines, config, table, index)
        assert (tagged.vals is not None) is kept
        assert_same_encoding(enc, oracle(corpus, config, table, FirstSeenIds().add))
        assert_same_encoding(tagged, oracle(feed, config, table, name_lookup(index)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda corpus, config, table: crf._encode_windows(
                corpus.headlines, config, table
            ),
            build_index,
            encode_training_set,
            lambda corpus, config, table: crf.train(
                corpus, config, table, TrainConfig(max_iterations=1)
            ),
        ],
        ids=["encode_windows", "build_index", "encode_training_set", "train"],
    )
    def test_family_on_without_a_table_raises(self, build):
        config = FeatureConfig(embedding=True)
        corpus = synthetic_corpus(20, seed=8)
        with pytest.raises(ConfigError, match="embedding"):
            build(corpus, config, None)
        index = crf._encode_windows(corpus.headlines, config, TABLE)[1]
        feed = open_vocabulary_corpus(10, seed=9)
        with pytest.raises(ConfigError, match="embedding"):
            tag_encoding(feed.headlines, config, None, index)


class TestEdgeCases:
    """Small inputs against the dict oracle, when training and tagging."""

    @pytest.mark.parametrize("embedding", [False, True])
    def test_no_headlines(self, embedding):
        config = FeatureConfig(embedding=embedding)
        table = TABLE if embedding else None
        empty = Corpus("empty", ())
        index = FirstSeenIds()
        enc, got_index = crf._encode_windows(empty.headlines, config, table)
        assert_same_encoding(enc, oracle(empty, config, table, index.add))
        assert len(got_index) == 0
        model_corpus = synthetic_corpus(5, seed=1)
        model_index = crf._encode_windows(model_corpus.headlines, config, table)[1]
        got = tag_encoding((), config, table, model_index)
        assert_same_encoding(got, oracle(empty, config, table, name_lookup(model_index)))
        assert got.n_tokens == 0 and got.ids.size == 0

    @pytest.mark.parametrize("embedding", [False, True])
    def test_no_name_in_the_index(self, embedding):
        config = FeatureConfig(embedding=embedding)
        table = TABLE if embedding else None
        feed = synthetic_corpus(8, seed=2)
        # BOS is a base name of every batch, but never at offset 0.
        names = ["[0]w=absent", "[0]BOS"]
        index = window_table(names, config.window_radius)
        got = tag_encoding(feed.headlines, config, table, index)
        assert_same_encoding(got, oracle(feed, config, table, name_lookup(index)))
        assert got.ids.size == 0 and got.n_tokens == sum(map(len, feed))

    @pytest.mark.parametrize("embedding", [False, True])
    def test_one_token_headline_at_radius_3(self, embedding):
        config = FeatureConfig(embedding=embedding, window_radius=3)
        table = TABLE if embedding else None
        corpus = Corpus("one", (Headline(id="h", tokens=(Token("casa", "NOUN"),)),))
        index = FirstSeenIds()
        expected = oracle(corpus, config, table, index.add)
        enc, got_index = crf._encode_windows(corpus.headlines, config, table)
        assert got_index.names() == index.names()
        assert_same_encoding(enc, expected)
        assert enc.visits.shape == (1, 7)
        got = tag_encoding(corpus.headlines, config, table, got_index)
        assert_same_encoding(got, oracle(corpus, config, table, name_lookup(got_index)))
