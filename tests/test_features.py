import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borrowings.corpus import Headline, Token
from borrowings.crf import encode_training_set
from borrowings.embeddings import EmbeddingTable
from borrowings.errors import ConfigError
from borrowings.features import (
    FAMILIES,
    FeatureConfig,
    FeatureIndex,
    _shape_classes,
    _title_flags,
    _upper_flags,
    _word_shapes,
    build_index,
    char_tables,
    quotation_flags,
    type_attributes,
    windowed_attributes,
    window_table,
)
from conftest import (
    FirstSeenIds,
    base_attributes_oracle,
    is_title_oracle,
    is_upper_oracle,
    synthetic_corpus,
    synthetic_embeddings,
    windowed_attributes_oracle,
    word_shape_oracle,
)


def headline(*texts, pos=None):
    pos = pos or [None] * len(texts)
    return Headline(
        id="h", tokens=tuple(Token(t, p) for t, p in zip(texts, pos))
    )


def word_shapes(texts):
    return _word_shapes(_shape_classes(texts, char_tables(texts)))


def case_flags(texts):
    """The uppercase and the titlecase flag of each text, as bools."""
    tables = char_tables(texts)
    upper = _upper_flags(texts, tables)
    title = _title_flags(_shape_classes(texts, tables))
    return upper.astype(bool).tolist(), title.astype(bool).tolist()


def token_attributes(h, t, config, embeddings=None):
    """Token t's own attributes: its vector at radius 0, unprefixed."""
    vec = windowed_attributes(h, replace(config, window_radius=0), embeddings)[t]
    return {name.removeprefix("[0]"): value for name, value in vec.items()}


class TestWordShape:
    @pytest.mark.parametrize(
        "text,shape",
        [
            ("Netflix", "Xxxxx"),
            ("2020", "dddd"),
            ("e-commerce", "x-xxxx"),
            ("DJ", "XX"),
            ("a", "x"),
            ("iPhone", "xXxxxx"),
            ("12%", "dd%"),
            ("XXXXXX", "XXXX"),
        ],
    )
    def test_examples(self, text, shape):
        assert word_shapes([text]) == [shape]

    def test_run_cap_resets_between_classes(self):
        assert word_shapes(["aaaaaBBBBB"]) == ["xxxxXXXX"]


# Token texts: non-empty and without whitespace, as `Token` requires.
TEXTS = st.text(st.characters().filter(lambda ch: not ch.isspace()), min_size=1)
# Uncased letters, a titlecase digraph, a lowercase letter with no
# single uppercase form, an uppercase one whose lowercase form is two
# characters, a lowercase combining mark that is not a letter, a
# lowercase letter of category Lo, non-ASCII digits, and long runs.
NAMED_TEXTS = ("日本", "ǅa", "ß", "İ", "xͅ", "ªb", "٣٤", "AAAAAAbbbbbb")
# The families `type_attributes` builds.
BASE_FAMILIES = [f for f in FAMILIES if f not in ("quotation", "embedding")]


class TestCharacterClasses:
    @staticmethod
    def assert_match_the_oracles(texts):
        assert word_shapes(texts) == list(map(word_shape_oracle, texts))
        upper, title = case_flags(texts)
        assert upper == list(map(is_upper_oracle, texts))
        assert title == list(map(is_title_oracle, texts))

    @pytest.mark.parametrize("text", NAMED_TEXTS)
    def test_named_cases_match_the_oracles(self, text):
        self.assert_match_the_oracles([text])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(TEXTS | st.sampled_from(NAMED_TEXTS), min_size=1, max_size=6))
    @example(["Ⅷ"])
    @example(["ǅ"])
    @example(list(NAMED_TEXTS))
    def test_translated_classes_match_the_per_character_oracles(self, texts):
        self.assert_match_the_oracles(texts)

    def test_tables_agree_with_the_str_predicates_on_every_code_point(self):
        every = "".join(map(chr, range(0x110000)))
        tables = char_tables((every,))
        assert every.translate(tables.shape) == "".join(
            "X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit()
            else ch
            for ch in every
        )
        assert every.translate(tables.case) == "".join(
            ("l" if ch.islower() else "u") for ch in every if ch.isalpha()
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                TEXTS | st.sampled_from(NAMED_TEXTS),
                st.sampled_from((None, "NOUN", "X")),
            ),
            unique=True,
            max_size=12,
        ),
        st.sets(st.sampled_from(BASE_FAMILIES)),
    )
    # An empty batch, and no family that `type_attributes` builds.
    @example([], set())
    @example([("a", None), ("b", "X")], set(BASE_FAMILIES))
    @example([], set(BASE_FAMILIES))
    def test_a_batch_of_types_matches_the_oracle_type_by_type(self, types, off):
        config = FeatureConfig(**{family: False for family in off})
        attrs = type_attributes(types, config)
        assert len(set(attrs.names)) == len(attrs.names)
        assert attrs.rows.size == len(types) + 1
        assert attrs.n_before.size == len(types)
        assert attrs.rows[-1] == attrs.ids.size
        assert attrs.ids.dtype == attrs.rows.dtype == attrs.n_before.dtype == np.int64
        for t, (text, pos) in enumerate(types):
            row = attrs.ids[attrs.rows[t] : attrs.rows[t + 1]].tolist()
            before, after = base_attributes_oracle(text, pos, config)
            assert tuple(attrs.names[i] for i in row) == before + after
            assert attrs.n_before[t] == len(before)


class TestCharTrigrams:
    def test_examples(self):
        config = FeatureConfig(
            **{family: False for family in FAMILIES if family != "char_trigram"}
        )
        attrs = type_attributes([("big", None), ("a", None), ("data", None)], config)
        names = [attrs.names[i] for i in attrs.ids.tolist()]
        assert attrs.rows.tolist() == [0, 3, 4, 8]
        assert names == [
            "tri=^bi", "tri=big", "tri=ig$",
            "tri=^a$",
            "tri=^da", "tri=dat", "tri=ata", "tri=ta$",
        ]


class TestQuotation:
    def test_inside_straight_quotes(self):
        h = headline("'", "big", "data", "'")
        assert quotation_flags(h) == [False, True, True, False]

    def test_no_quotes(self):
        h = headline("sin", "comillas")
        assert quotation_flags(h) == [False, False]

    def test_unmatched_opener_extends_to_end(self):
        h = headline("«", "fake", "news")
        assert quotation_flags(h) == [False, True, True]

    def test_matched_guillemets(self):
        h = headline("di", "«", "fake", "»", "ya")
        assert quotation_flags(h) == [False, False, True, False, False]

    def test_quotation_flag_single_position(self):
        h = headline("'", "big", "'")
        assert quotation_flags(h)[1] is True
        assert quotation_flags(h)[0] is False


class TestExtract:
    def test_streaming_binary_families(self):
        config = FeatureConfig()
        attrs = token_attributes(headline("streaming"), 0, config)
        assert attrs["bias"] == 1.0
        assert attrs["w=streaming"] == 1.0
        assert "upper=1" not in attrs
        assert "title=1" not in attrs
        assert attrs["suf3=ing"] == 1.0
        assert attrs["shape=xxxx"] == 1.0
        assert attrs["tri=^st"] == 1.0
        assert attrs["tri=ng$"] == 1.0
        assert "pos=" not in "".join(attrs)  # no POS on the token

    def test_dj_upper_not_title(self):
        attrs = token_attributes(headline("DJ"), 0, FeatureConfig())
        assert "upper=1" in attrs
        assert "title=1" not in attrs

    def test_title_not_upper(self):
        attrs = token_attributes(headline("Netflix"), 0, FeatureConfig())
        assert "title=1" in attrs
        assert "upper=1" not in attrs

    def test_short_token_suffix_is_whole_token(self):
        attrs = token_attributes(headline("ya"), 0, FeatureConfig())
        assert "suf3=ya" in attrs

    def test_pos_attribute_only_when_present(self):
        h = headline("casa", pos=["NOUN"])
        attrs = token_attributes(h, 0, FeatureConfig())
        assert attrs["pos=NOUN"] == 1.0

    def test_embedding_scaling(self):
        table = EmbeddingTable(
            name="t", dim=2, vectors={"Boom": np.array([0.2, -0.4])}
        )
        config = FeatureConfig(embedding=True, embedding_scaling=0.5)
        attrs = token_attributes(headline("Boom"), 0, config, table)
        assert attrs["emb0"] == pytest.approx(0.1)
        assert attrs["emb1"] == pytest.approx(-0.2)

    def test_embedding_without_table_is_config_error(self):
        config = FeatureConfig(embedding=True)
        with pytest.raises(ConfigError, match="embedding"):
            token_attributes(headline("Boom"), 0, config)

    def test_quotation_attribute(self):
        h = headline("'", "single", "'")
        attrs = token_attributes(h, 1, FeatureConfig())
        assert attrs["quot=1"] == 1.0
        attrs0 = token_attributes(h, 0, FeatureConfig())
        assert "quot=1" not in attrs0

    def test_deterministic_ordering(self):
        h = headline("Crash", pos=["NOUN"])
        a = token_attributes(h, 0, FeatureConfig())
        b = token_attributes(h, 0, FeatureConfig())
        assert list(a.items()) == list(b.items())


class TestWindow:
    def test_single_token_boundaries(self):
        vecs = windowed_attributes(headline("solo"), FeatureConfig())
        assert len(vecs) == 1
        keys = vecs[0].keys()
        assert {"[-2]BOS", "[-1]BOS", "[+1]EOS", "[+2]EOS"} <= set(keys)
        assert any(k.startswith("[0]w=") for k in keys)

    def test_radius_zero_is_prefixed_extraction(self):
        """A radius-0 vector is the centre slot of a wider window, in
        order, embedding components included."""
        h = headline("'", "uno", "dos")
        table = EmbeddingTable(name="t", dim=2, vectors={"uno": np.array([0.5, 3.0])})
        for config in (FeatureConfig(), FeatureConfig(embedding=True)):
            narrow = windowed_attributes(h, replace(config, window_radius=0), table)
            wide = windowed_attributes(h, config, table)
            for t in range(3):
                centre = [(k, v) for k, v in wide[t].items() if k.startswith("[0]")]
                assert list(narrow[t].items()) == centre

    def test_neighbor_attributes_present(self):
        h = headline("uno", "dos", "tres")
        vecs = windowed_attributes(h, FeatureConfig())
        assert vecs[1]["[-1]w=uno"] == 1.0
        assert vecs[1]["[+1]w=tres"] == 1.0
        assert vecs[1]["[0]w=dos"] == 1.0

    def test_embedding_only_at_offset_zero(self):
        table = EmbeddingTable(
            name="t", dim=2, vectors={"uno": np.array([1.0, 2.0])}
        )
        h = headline("uno", "dos")
        config = FeatureConfig(embedding=True)
        vecs = windowed_attributes(h, config, table)
        assert vecs[0]["[0]emb0"] == 1.0
        assert "[-1]emb0" not in vecs[1]
        assert all("emb" not in k or k.startswith("[0]emb") for k in vecs[1])

    def test_window_coverage_radius_two(self):
        corpus = synthetic_corpus(10, seed=1)
        for h in corpus:
            n = len(h)
            for t, vec in enumerate(windowed_attributes(h, FeatureConfig())):
                offsets = {k[: k.index("]") + 1] for k in vec}
                assert len(offsets) <= 5
                if 2 <= t <= n - 3:
                    assert len(offsets) == 5

    def test_values_always_finite(self):
        corpus = synthetic_corpus(10, seed=2)
        table = synthetic_embeddings(corpus, dim=3, seed=3)
        config = FeatureConfig(embedding=True, embedding_scaling=4.0)
        for h in corpus:
            for vec in windowed_attributes(h, config, table):
                for value in vec.values():
                    assert math.isfinite(value)


def family_of(name: str) -> str:
    """Classify a windowed attribute name back to its feature family."""
    bare = name[name.index("]") + 1 :]
    if bare in ("BOS", "EOS"):
        return "boundary"
    prefixes = {
        "w=": "token",
        "tri=": "char_trigram",
        "suf3=": "suffix3",
        "pos=": "pos",
        "shape=": "shape",
    }
    for prefix, family in prefixes.items():
        if bare.startswith(prefix):
            return family
    if bare == "bias":
        return "bias"
    if bare == "upper=1":
        return "uppercase"
    if bare == "title=1":
        return "titlecase"
    if bare == "quot=1":
        return "quotation"
    if bare.startswith("emb"):
        return "embedding"
    raise AssertionError(f"unclassifiable attribute {name!r}")


class TestFamilyAblation:
    def test_disabling_family_removes_exactly_its_names(self):
        corpus = synthetic_corpus(6, seed=4)
        table = synthetic_embeddings(corpus, dim=3, seed=5)
        full_config = FeatureConfig(embedding=True)
        for family in FAMILIES:
            reduced = full_config.without(family)
            for h in corpus:
                full = windowed_attributes(h, full_config, table)
                less = windowed_attributes(
                    h, reduced, table if reduced.embedding else None
                )
                for vec_full, vec_less in zip(full, less):
                    kept = {
                        k for k in vec_full if family_of(k) not in (family, "boundary")
                    }
                    kept_less = {
                        k for k in vec_less if family_of(k) != "boundary"
                    }
                    assert kept == kept_less
                    for k in kept:
                        assert vec_full[k] == vec_less[k]


class TestFeatureConfig:
    def test_validation(self):
        for radius in (-1, 17, 10**6):
            with pytest.raises(ConfigError, match="window_radius"):
                FeatureConfig(window_radius=radius)
        assert FeatureConfig(window_radius=16).window_radius == 16
        with pytest.raises(ConfigError):
            FeatureConfig(embedding_scaling=0.0)
        for scaling in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                FeatureConfig(embedding_scaling=scaling)
        with pytest.raises(ConfigError):
            FeatureConfig(
                bias=False, token=False, uppercase=False, titlecase=False,
                char_trigram=False, quotation=False, suffix3=False, pos=False,
                shape=False, embedding=False,
            )
        with pytest.raises(ConfigError):
            FeatureConfig().without("syllables")

    def test_enabled_families(self):
        assert FeatureConfig().enabled_families() == FAMILIES[:-1]
        assert FeatureConfig(embedding=True).enabled_families() == FAMILIES
        assert "pos" not in FeatureConfig().without("pos").enabled_families()


class TestFeatureIndex:
    def test_dense_first_seen_ids(self):
        names = ("[0]a", "[-1]a", "[+1]b")
        index = window_table(names, 1)
        assert len(index) == 3
        assert index.names() == names
        assert index.radius == 1
        assert index.rows == {"a": 0, "b": 1}
        assert index.ids.tolist() == [[1, 0, -1], [-1, -1, 2]]

    def test_in_first_id_order(self):
        """Bases are ordered by their lowest id, and one without an id
        is dropped; the ids and names are unchanged."""
        ids = np.array([[-1, -1, -1], [2, -1, -1], [-1, 0, 1], [3, -1, -1]])
        index = FeatureIndex({"x": 0, "a": 1, "b": 2, "c": 3}, ids)
        ordered = index.in_first_id_order()
        assert ordered.rows == {"b": 0, "a": 1, "c": 2}
        assert ordered.ids.tolist() == [[-1, 0, 1], [2, -1, -1], [3, -1, -1]]
        assert ordered.radius == 1
        assert len(ordered) == len(index) == 4
        assert ordered.names() == index.names() == ("[0]b", "[+1]b", "[-1]a", "[-1]c")
        again = ordered.in_first_id_order()
        assert again.rows == ordered.rows
        assert np.array_equal(again.ids, ordered.ids)
        empty = FeatureIndex({"x": 0}, np.full((1, 3), -1)).in_first_id_order()
        assert empty.rows == {} and empty.ids.shape == (0, 3)

    def test_freeze_contract(self):
        """An index is made whole and never grows: a name it lacks has no
        id, and there is no way to give it one."""
        index = window_table(["[0]a", "[0]b"], 0)
        assert index.names() == ("[0]a", "[0]b")
        assert len(index) == 2
        for method in ("add", "freeze", "frozen", "get", "from_names"):
            assert not hasattr(index, method)

    def test_build_index_matches_training_and_oracle(self):
        corpus = synthetic_corpus(12, seed=7)
        config = FeatureConfig()
        _, trained_index, _ = encode_training_set(corpus, config)
        oracle = FirstSeenIds()
        for h in corpus:
            for vec in windowed_attributes_oracle(h, config):
                for name in vec:
                    oracle.add(name)
        names = build_index(corpus, config).names()
        assert names == trained_index.names() == oracle.names()

    def test_build_index_deterministic(self):
        corpus = synthetic_corpus(8, seed=6)
        config = FeatureConfig()
        first = build_index(corpus, config)
        second = build_index(corpus, config)
        assert first.names() == second.names()
        assert len(first) > 0
