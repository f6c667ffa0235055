import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borrowings.corpus import Headline, Token
from borrowings.embeddings import MAX_DIM, EmbeddingTable, load_embeddings
from borrowings.errors import ValidationError
from borrowings.features import FeatureConfig, windowed_attributes
from conftest import line_mutations, mutate


def load(text):
    return load_embeddings(io.StringIO(text))


class TestLoad:
    def test_with_count_header(self):
        table = load("2 3\ncasa 0.1 0.2 0.3\nperro 1 2 3\n")
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.vectors["perro"], [1.0, 2.0, 3.0])

    def test_dim_inferred_without_header(self):
        table = load("casa 0.1 0.2\n")
        assert table.dim == 2

    def test_first_line_word_with_two_components_is_data(self):
        # Looks like "word v1" but both fields are non-integers.
        table = load("casa 0.5\nperro 1.5\n")
        assert table.dim == 1
        assert len(table) == 2

    def test_ragged_line_names_line(self):
        with pytest.raises(ValidationError, match="line 3"):
            load("casa 0.1 0.2 0.3\nperro 1 2 3\ngato 1 2\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(ValidationError, match="line 2.*non-numeric"):
            load("casa 0.1 0.2\nperro x y\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            load("casa inf 0.2\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load("casa 0.1 nan\n")

    @pytest.mark.parametrize(
        "text",
        ["casa inf 0.2\nperro 1\n", "casa 0.1 nan\nperro x y\n", "casa 1 -inf\ngato\n"],
    )
    def test_a_non_finite_component_is_reported_before_later_faults(self, text):
        with pytest.raises(ValidationError, match="line 1: non-finite"):
            load(text)

    def test_vectors_are_read_only(self):
        table = load("casa 0.1 0.2\nperro 0.3 0.4\n")
        assert not any(vec.flags.writeable for vec in table.vectors.values())

    def test_the_dimension_is_bounded(self):
        def line(word, dim):
            return word + " 0.5" * dim + "\n"

        table = load(line("casa", MAX_DIM) + line("perro", MAX_DIM))
        assert table.dim == MAX_DIM and len(table) == 2
        # Refused at the first vector line, whichever line that is.
        for text, lineno in (
            (line("casa", MAX_DIM + 1), 1),
            (f"\n2 {MAX_DIM + 1}\n" + line("casa", MAX_DIM + 1) + line("perro", 1), 3),
        ):
            with pytest.raises(
                ValidationError,
                match=f"line {lineno}: {MAX_DIM + 1} components, more than {MAX_DIM}",
            ):
                load(text)

    def test_duplicates_keep_first(self):
        table = load("casa 1 1\ncasa 2 2\n")
        assert table.duplicates == 1
        assert np.allclose(table.vectors["casa"], [1.0, 1.0])

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError, match="no vectors"):
            load("")
        with pytest.raises(ValidationError, match="no vectors"):
            load("5 300\n")

    def test_blank_lines_skipped(self):
        table = load("\ncasa 0.1 0.2\n\nperro 0.3 0.4\n")
        assert len(table) == 2

    def test_word_only_line_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            load("casa 0.1\nperro\n")


class TestLookup:
    @pytest.fixture()
    def table(self):
        return load("streaming 1 2\nCasa 3 4\n")

    def test_exact_match(self, table):
        assert np.allclose(table.lookup("streaming"), [1.0, 2.0])
        assert np.allclose(table.lookup("Casa"), [3.0, 4.0])

    def test_lowercase_fallback(self, table):
        assert np.allclose(table.lookup("Streaming"), [1.0, 2.0])
        assert np.allclose(table.lookup("STREAMING"), [1.0, 2.0])

    def test_oov_zero_vector(self, table):
        vec = table.lookup("inexistente")
        assert vec.shape == (2,)
        assert np.all(vec == 0.0)

    def test_always_dim_length(self, table):
        for word in ("streaming", "Streaming", "???", ""):
            assert table.lookup(word).shape == (2,)


def test_scaling_linearity():
    table = EmbeddingTable(
        name="t",
        dim=3,
        vectors={"casa": np.array([0.3, -1.2, 2.5])},
    )
    h = Headline(id="h", tokens=(Token("casa"),))
    (base,) = windowed_attributes(
        h, FeatureConfig(embedding=True, embedding_scaling=1.0), table
    )
    for s in (0.5, 2.0, 4.0):
        (scaled,) = windowed_attributes(
            h, FeatureConfig(embedding=True, embedding_scaling=s), table
        )
        for i in range(3):
            assert scaled[f"[0]emb{i}"] == pytest.approx(s * base[f"[0]emb{i}"])


# A small table to corrupt, and the fields and lines a corrupted one may hold.
TABLE_TEXT = "3 3\ncasa 0.1 0.2 0.3\nperro 1 2 3\ngato -1e-3 4 5.5\ncasa 7 8 9\n"
JUNK_COMPONENTS = (
    "", "x", "nan", "inf", "-inf", "1e999", "\x00", "0x1", "\u0661", "1_0",
    "\u2028", "\x85", "\ufeff", "3 3", "casa",
)
JUNK_LINES = ("", " ", "2 3", "0 3", "3", "casa", "perro 1 2", "gato 1 2 3 4", "\x1c")


class TestCorruptedTables:
    @settings(max_examples=200, deadline=None)
    @given(
        mutations=st.lists(
            line_mutations(
                JUNK_COMPONENTS,
                JUNK_LINES,
                ("drop", "duplicate", "swap", "field", "cut", "insert", "cr"),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_only_validation_errors_are_raised(self, mutations):
        text = TABLE_TEXT
        for mutation in mutations:
            text = mutate(text, mutation, sep=" ")
        try:
            table = load(text)
        except ValidationError:
            return
        assert table.dim >= 1 and len(table) >= 1
        for vector in table.vectors.values():
            assert vector.shape == (table.dim,)
            assert np.isfinite(vector).all()
