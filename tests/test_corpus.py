import datetime
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from borrowings.corpus import (
    ENG_ALPHABET,
    FULL_ALPHABET,
    Corpus,
    Headline,
    LabeledSpan,
    TagAlphabet,
    Token,
    alphabet_for,
    bio_to_spans,
    corpus_stats,
    read_corpus,
    render_stats,
    spans_to_bio,
    tokenize,
    validate_spans,
    with_tags,
    write_corpus,
)
from borrowings.errors import ValidationError
from conftest import (
    line_mutations,
    mutate,
    open_vocabulary_corpus,
    read_corpus_oracle,
    repair_bio,
)

DATA = Path(__file__).parent / "data"


def texts(tokens):
    return [t.text for t in tokens]


class TestTokenize:
    def test_splits_quote_punctuation(self):
        assert texts(tokenize("El 'big data' llega")) == [
            "El", "'", "big", "data", "'", "llega",
        ]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_inverted_question_marks(self):
        assert texts(tokenize("¿Fake news?")) == ["¿", "Fake", "news", "?"]

    def test_hyphen_and_parens(self):
        assert texts(tokenize("¿El 'software' de e-commerce llega (por fin)?")) == [
            "¿", "El", "'", "software", "'", "de", "e-commerce",
            "llega", "(", "por", "fin", ")", "?",
        ]

    def test_internal_apostrophe_kept(self):
        assert texts(tokenize("rock'n'roll")) == ["rock'n'roll"]

    def test_guillemets_and_ellipsis(self):
        assert texts(tokenize("«Crash»… ya")) == ["«", "Crash", "»", "…", "ya"]

    def test_deterministic(self):
        text = "El 'mercado' teme... ¡otro crash!"
        assert tokenize(text) == tokenize(text)


class TestBioCodec:
    def test_encode_internal_span(self):
        assert spans_to_bio([LabeledSpan(1, 3, "ENG")], 4) == [
            "O", "B-ENG", "I-ENG", "O",
        ]

    def test_encode_empty(self):
        assert spans_to_bio([], 3) == ["O", "O", "O"]

    def test_encode_adjacent_spans(self):
        spans = [LabeledSpan(0, 1, "ENG"), LabeledSpan(1, 3, "OTHER")]
        assert spans_to_bio(spans, 3) == ["B-ENG", "B-OTHER", "I-OTHER"]

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match=r"\(1, 5, ENG\)"):
            spans_to_bio([LabeledSpan(1, 5, "ENG")], 4)

    def test_encode_rejects_overlap(self):
        spans = [LabeledSpan(0, 2, "ENG"), LabeledSpan(1, 3, "OTHER")]
        with pytest.raises(ValidationError, match="overlaps"):
            spans_to_bio(spans, 4)

    def test_decode_internal_span(self):
        assert bio_to_spans(["O", "B-ENG", "I-ENG", "O"]) == [LabeledSpan(1, 3, "ENG")]

    def test_decode_repairs_bare_inside(self):
        assert bio_to_spans(["I-ENG", "O"]) == [LabeledSpan(0, 1, "ENG")]

    def test_decode_repairs_label_switch(self):
        assert bio_to_spans(["B-ENG", "I-OTHER"]) == [
            LabeledSpan(0, 1, "ENG"),
            LabeledSpan(1, 2, "OTHER"),
        ]

    def test_decode_span_reaching_end(self):
        assert bio_to_spans(["O", "B-ENG", "I-ENG"]) == [LabeledSpan(1, 3, "ENG")]

    def test_decode_rejects_unknown_tag(self):
        with pytest.raises(ValidationError, match="B-FRA"):
            bio_to_spans(["O", "B-FRA"])

    def test_repair_rejects_unknown_tag(self):
        with pytest.raises(ValidationError, match="unknown tag 'X'"):
            bio_to_spans(["X"])


def span_sets(max_length=12, max_spans=5):
    """Random valid (spans, length) pairs: sorted, non-overlapping."""

    @st.composite
    def build(draw):
        length = draw(st.integers(1, max_length))
        n_spans = draw(st.integers(0, max_spans))
        bounds = draw(
            st.lists(
                st.integers(0, length), min_size=2 * n_spans, max_size=2 * n_spans
            )
        )
        bounds.sort()
        spans = []
        for i in range(n_spans):
            start, end = bounds[2 * i], bounds[2 * i + 1]
            if start < end and (not spans or start >= spans[-1].end):
                spans.append(
                    LabeledSpan(start, end, draw(st.sampled_from(("ENG", "OTHER"))))
                )
        return spans, length

    return build()


@given(span_sets())
def test_bio_round_trip_identity(case):
    spans, length = case
    assert bio_to_spans(spans_to_bio(spans, length)) == spans


@given(st.lists(st.sampled_from(FULL_ALPHABET.tags), min_size=1, max_size=12))
def test_repair_idempotent_and_decodable(tags):
    repaired = repair_bio(tags)
    assert repair_bio(repaired) == repaired
    spans = bio_to_spans(tags)
    # The repaired sequence is well-formed: it encodes its own spans.
    assert spans_to_bio(spans, len(tags)) == repaired


class TestValueTypes:
    def test_token_rejects_empty_and_whitespace(self):
        with pytest.raises(ValidationError):
            Token("")
        with pytest.raises(ValidationError):
            Token("big data")
        with pytest.raises(ValidationError):
            Token("ok", pos="two words")

    # Characters at the edges of what counts as whitespace: the
    # information separators \x1c-\x1f, NEL, the no-break spaces and the
    # line and paragraph separators are whitespace to Python; the
    # zero-width space, the Mongolian vowel separator and the BOM are not.
    EDGES = (
        "\x1c\x1d\x1e\x1f\x85\xa0\u2007\u202f\u2028\u2029\u3000 \t\n"
        "\u200b\u180e\ufeff"
    )

    @given(
        st.text(
            st.one_of(st.characters(), st.sampled_from(EDGES)), min_size=1
        )
    )
    def test_split_test_agrees_with_isspace(self, text):
        has_space = any(ch.isspace() for ch in text)
        assert (text.split() != [text]) == has_space
        if has_space:
            with pytest.raises(ValidationError, match="contains whitespace"):
                Token(text)
        else:
            assert Token(text).text == text

    def test_span_rejects_bad_bounds_and_label(self):
        with pytest.raises(ValidationError):
            LabeledSpan(-1, 2, "ENG")
        with pytest.raises(ValidationError):
            LabeledSpan(2, 2, "ENG")
        with pytest.raises(ValidationError):
            LabeledSpan(0, 1, "FRA")

    def test_headline_requires_tokens_and_sorts_spans(self):
        with pytest.raises(ValidationError):
            Headline(id="x", tokens=())
        h = Headline(
            id="x",
            tokens=(Token("a"), Token("b"), Token("c")),
            spans=(LabeledSpan(2, 3, "OTHER"), LabeledSpan(0, 1, "ENG")),
        )
        assert [s.start for s in h.spans] == [0, 2]

    def test_corpus_rejects_duplicate_ids(self):
        h = Headline(id="x", tokens=(Token("a"),))
        with pytest.raises(ValidationError, match="duplicate headline id"):
            Corpus("c", (h, h))

    def test_validate_spans_orders(self):
        spans = (LabeledSpan(3, 4, "ENG"), LabeledSpan(0, 2, "ENG"))
        assert [s.start for s in validate_spans(spans, 4)] == [0, 3]

    def test_alphabet_contract(self):
        assert FULL_ALPHABET.tags[0] == "O"
        assert len(FULL_ALPHABET) == 5
        assert len(ENG_ALPHABET) == 3
        assert FULL_ALPHABET.labels() == ("ENG", "OTHER")
        assert ENG_ALPHABET.labels() == ("ENG",)
        assert alphabet_for(True) is ENG_ALPHABET
        assert alphabet_for(False) is FULL_ALPHABET
        assert FULL_ALPHABET.index("B-OTHER") == 3
        with pytest.raises(ValidationError):
            FULL_ALPHABET.index("B-FRA")
        with pytest.raises(ValidationError):
            TagAlphabet(("B-ENG", "O"))
        with pytest.raises(ValidationError):
            TagAlphabet(("O", "B-ENG", "B-ENG"))


SAMPLE_TEXT = """\
# id = h1
# date = 2020-02-03
# section = technology
El\tDET\tO
streaming\tNOUN\tB-ENG
llega\tVERB\tO

# id = h2
Un\t_\tO
titular\t_\tO
"""


class TestReadWrite:
    def test_reads_two_headlines_one_span(self):
        corpus = read_corpus(io.StringIO(SAMPLE_TEXT), name="demo")
        assert len(corpus) == 2
        h1, h2 = corpus.headlines
        assert h1.id == "h1"
        assert h1.date == datetime.date(2020, 2, 3)
        assert h1.section == "technology"
        assert h1.spans == (LabeledSpan(1, 2, "ENG"),)
        assert h1.tokens[0].pos == "DET"
        assert h2.date is None and h2.section is None
        assert h2.tokens[0].pos is None
        assert h2.spans == ()

    def test_round_trip_structural_equality(self):
        corpus = read_corpus(io.StringIO(SAMPLE_TEXT), name="demo")
        out = io.StringIO()
        write_corpus(corpus, out)
        again = read_corpus(io.StringIO(out.getvalue()), name="other-name")
        assert again == corpus

    def test_write_read_write_is_byte_stable(self):
        corpus = read_corpus(io.StringIO(SAMPLE_TEXT), name="demo")
        first = io.StringIO()
        write_corpus(corpus, first)
        second = io.StringIO()
        write_corpus(read_corpus(io.StringIO(first.getvalue())), second)
        assert first.getvalue() == second.getvalue()

    def test_texts_that_start_with_a_hash_round_trip_escaped(self):
        texts = ("#", "#MeToo", "\\#x", "\\\\#", "\\x", "x#", "\\", "a\\#")
        written_as = ("\\#", "\\#MeToo", "\\\\#x", "\\\\\\#", "\\x", "x#", "\\", "a\\#")
        corpus = Corpus("c", (Headline(id="h", tokens=tuple(map(Token, texts))),))
        out = io.StringIO()
        write_corpus(corpus, out)
        lines = out.getvalue().split("\n")[1:-2]
        assert tuple(line.split("\t")[0] for line in lines) == written_as
        assert read_corpus(io.StringIO(out.getvalue()), name="c") == corpus

    def test_stray_inside_tag_becomes_span_start(self):
        text = "# id = h\na\t_\tO\nb\t_\tI-ENG\nc\t_\tI-ENG\n"
        corpus = read_corpus(io.StringIO(text))
        assert corpus.headlines[0].spans == (LabeledSpan(1, 3, "ENG"),)

    def test_no_trailing_blank_line_needed(self):
        corpus = read_corpus(io.StringIO("# id = h\nsolo\t_\tO"))
        assert len(corpus) == 1

    def test_empty_stream_gives_empty_corpus(self):
        assert len(read_corpus(io.StringIO(""))) == 0

    def test_missing_id_names_block_line(self):
        with pytest.raises(ValidationError, match="line 1.*missing an id"):
            read_corpus(io.StringIO("solo\t_\tO\n"))

    def test_unknown_meta_key_names_line(self):
        text = "# id = h\n# author = x\nsolo\t_\tO\n"
        with pytest.raises(ValidationError, match="line 2.*unknown metadata key"):
            read_corpus(io.StringIO(text))

    def test_malformed_comment_names_line(self):
        with pytest.raises(ValidationError, match="line 1.*malformed metadata"):
            read_corpus(io.StringIO("# id\nsolo\t_\tO\n"))

    def test_duplicate_meta_key(self):
        text = "# id = a\n# id = b\nsolo\t_\tO\n"
        with pytest.raises(ValidationError, match="line 2.*duplicate metadata"):
            read_corpus(io.StringIO(text))

    def test_metadata_after_tokens(self):
        text = "# id = h\nsolo\t_\tO\n# section = tv\n"
        with pytest.raises(ValidationError, match="line 3.*after token lines"):
            read_corpus(io.StringIO(text))

    def test_bad_field_count_names_line(self):
        text = "# id = h\nsolo\tO\n"
        with pytest.raises(ValidationError, match="line 2.*expected 3"):
            read_corpus(io.StringIO(text))

    def test_unknown_tag_names_line(self):
        text = "# id = h\nsolo\t_\tB-FRA\n"
        with pytest.raises(ValidationError, match="line 2.*unknown tag"):
            read_corpus(io.StringIO(text))

    def test_bad_date(self):
        text = "# id = h\n# date = 2020-13-45\nsolo\t_\tO\n"
        with pytest.raises(ValidationError, match="bad date"):
            read_corpus(io.StringIO(text))

    def test_duplicate_headline_id(self):
        text = "# id = h\na\t_\tO\n\n# id = h\nb\t_\tO\n"
        with pytest.raises(ValidationError, match="duplicate headline id"):
            read_corpus(io.StringIO(text))

    def test_whitespace_token_text_names_line(self):
        text = "# id = h\n \t_\tO\n"
        with pytest.raises(ValidationError, match="line 2"):
            read_corpus(io.StringIO(text))


def written(corpus):
    out = io.StringIO()
    write_corpus(corpus, out)
    return out.getvalue()


# Valid corpus texts that the mutations start from.
BASE_TEXTS = (
    SAMPLE_TEXT,
    (DATA / "sample.tsv").read_text(encoding="utf-8"),
    written(open_vocabulary_corpus(6, seed=5)),
    # Stray inside tags, CRLF line ends and whitespace-only separators.
    "# id = a\r\n# date = 2021-01-31\r\nx\t_\tI-ENG\r\ny\tNOUN\tI-OTHER\r\n"
    " \t \r\n# id = b\r\n# section = tv\r\nz\t_\tB-OTHER\r\nw\t_\tI-ENG\r\n",
)
# Fields and whole lines a mutated corpus text may hold: empty and
# whitespace-only fields, characters `str.split` treats as whitespace
# (\x1c, \x85, \u2028) or not (NUL, BOM), tags and metadata.
JUNK_FIELDS = (
    "", " ", "_", "\x00", "\ufeff", "\x1c", "\x85", "\u2028", "\r", "a b",
    "#", "#x", "\\#x", "\\\\#", "O", "I-ENG", "B-OTHER", "B-FRA", "x\ty",
)
JUNK_LINES = (
    "", " ", "\t", " \r", "\x1c", "\u2028", "#", "# id = dup", "# id = h1",
    "# date = 2020-02-30", "# date = 2021-03-04", "# section = tv",
    "# author = x", "x\t_\tI-ENG", "x\tNOUN\tO", "x\tNOUN", "x\t_\tO\t",
    "#x\t_\tO", "\\#x\t_\tO", "\\\\#\tNOUN\tB-ENG",
)
CORPUS_MUTATIONS = line_mutations(
    JUNK_FIELDS, JUNK_LINES, ("drop", "duplicate", "swap", "field", "cut", "insert", "cr")
)


@st.composite
def mutated_texts(draw):
    text = draw(st.sampled_from(BASE_TEXTS))
    for mutation in draw(st.lists(CORPUS_MUTATIONS, max_size=4)):
        text = mutate(text, mutation)
    return text


def outcome(reader, text):
    """What `reader` makes of `text`: its corpus, or its error message."""
    try:
        return reader(io.StringIO(text))
    except ValidationError as exc:
        return str(exc)


class TestReaderMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(text=mutated_texts())
    @example(text="")
    @example(text="# id = h\nsolo\t_\tO")
    @example(text="# id = h\nsolo\t_\tO\n# section = tv\nmore\t_\tB-FRA\n")
    @example(text="# id = a\nx\t_\tO\n \t\x1c\n# id = b\ny\t_\tI-ENG\n")
    @example(text="# id = a\nx\tO\n\n# id\ny\t_\tO\n")
    @example(text="x\t_\tO\n\n# id = b\n\n# id = c\ny\t_\tO\n")
    @example(text="# id = a\n# date = 2020-13-45\nx\t_\tO\n\n# id = b\n#x\t_\tO\n")
    @example(text="# id = a\nx\t_\tO\n\n# id = a\ny\t_\tZ\n")
    @example(text="# id = a\nx\t_\tO\n#y\t_\tO\n")
    @example(text="# id = a\n\\#x\t_\tO\n\\\\#\t_\tO\n\n# id = b\nx\t_\tZ\n")
    def test_same_corpus_or_same_error(self, text):
        expected = outcome(read_corpus_oracle, text)
        assert outcome(read_corpus, text) == expected
        if isinstance(expected, Corpus):
            # Equal headlines: the same ids, tokens, spans, dates and
            # sections; and the same bytes written back.
            assert written(read_corpus(io.StringIO(text))) == written(expected)

    @pytest.mark.parametrize("base", range(len(BASE_TEXTS)))
    def test_written_text_reads_back_to_itself(self, base):
        text = written(read_corpus(io.StringIO(BASE_TEXTS[base])))
        assert written(read_corpus(io.StringIO(text))) == text

    def test_reads_a_file_with_crlf_line_ends(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(SAMPLE_TEXT.replace("\n", "\r\n").encode("utf-8"))
        with open(path, encoding="utf-8") as stream:
            assert read_corpus(stream) == read_corpus(io.StringIO(SAMPLE_TEXT))


def kept_bytes(reader: str, text: str) -> int:
    """Bytes still allocated after `reader` read `text`, in a fresh
    interpreter whose corpus classes have made no instance yet."""
    code = (
        "import io, sys, tracemalloc\n"
        "from borrowings.corpus import read_corpus\n"
        "from conftest import read_corpus_oracle\n"
        "text = sys.stdin.read()\n"
        "tracemalloc.start()\n"
        f"corpus = {reader}(io.StringIO(text))\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=text,
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return int(done.stdout)


def test_read_headlines_take_no_more_memory_than_constructed_ones():
    # Objects made field by field must share their class's attribute
    # layout, as constructed ones do, not carry a dict each.
    text = written(open_vocabulary_corpus(200, seed=6))
    assert kept_bytes("read_corpus", text) <= 1.05 * kept_bytes("read_corpus_oracle", text)


class TestDecodedSpans:
    @settings(max_examples=300, deadline=None)
    @given(tags=st.lists(st.sampled_from(FULL_ALPHABET.tags), min_size=1, max_size=12))
    def test_with_tags_decodes_as_bio_to_spans(self, tags):
        tokens = tuple(Token(f"w{i}") for i in range(len(tags)))
        headline = Headline("h", tokens, date=datetime.date(2020, 1, 2), section="tv")
        (out,) = with_tags([headline], list(tags), [0, len(tags)])
        assert out == Headline(
            "h", tokens, tuple(bio_to_spans(tags)), datetime.date(2020, 1, 2), "tv"
        )
        assert all(type(span) is LabeledSpan for span in out.spans)

    def test_with_tags_slices_each_headline(self):
        h1 = Headline("a", (Token("x"), Token("y")), (LabeledSpan(0, 1, "ENG"),))
        h2 = Headline("b", (Token("z"),))
        out = with_tags([h1, h2], ["O", "I-OTHER", "B-ENG"], [0, 2, 3])
        assert [h.spans for h in out] == [
            (LabeledSpan(1, 2, "OTHER"),), (LabeledSpan(0, 1, "ENG"),)
        ]
        assert [h.id for h in out] == ["a", "b"]
        assert out[0].tokens is h1.tokens

    def test_with_tags_rejects_the_first_unknown_tag(self):
        h = Headline("a", (Token("x"), Token("y"), Token("z")))
        with pytest.raises(ValidationError, match="unknown tag 'B-FRA'"):
            with_tags([h], ["O", "B-FRA", "X"], [0, 3])


def make_headline(hid, n_tokens, spans=(), section=None):
    return Headline(
        id=hid,
        tokens=tuple(Token(f"w{i}") for i in range(n_tokens)),
        spans=spans,
        section=section,
    )


class TestStats:
    def test_hand_counted(self):
        corpus = Corpus(
            "c",
            (
                make_headline("a", 3, (LabeledSpan(0, 2, "ENG"),), section="tv"),
                make_headline("b", 4, section="tv"),
                make_headline(
                    "c",
                    5,
                    (LabeledSpan(0, 1, "ENG"), LabeledSpan(2, 3, "OTHER")),
                    section="music",
                ),
                make_headline("d", 2, (LabeledSpan(1, 2, "OTHER"),)),
            ),
        )
        stats = corpus_stats(corpus)
        assert stats.headlines == 4
        assert stats.tokens == 14
        assert stats.with_anglicisms == 2
        assert stats.eng_spans == 2
        assert stats.other_spans == 2
        assert stats.tokens == sum(len(h) for h in corpus)
        by_name = {s.section: s for s in stats.sections}
        assert set(by_name) == {"tv", "music"}
        assert by_name["tv"].headlines == 2
        assert by_name["tv"].with_anglicisms == 1
        assert by_name["music"].with_anglicisms == 1

    def test_empty_corpus(self):
        stats = corpus_stats(Corpus("c", ()))
        assert (stats.headlines, stats.tokens, stats.with_anglicisms) == (0, 0, 0)
        assert (stats.eng_spans, stats.other_spans) == (0, 0)
        assert stats.sections == ()

    def test_tv_section_fifty_percent(self):
        corpus = Corpus(
            "c",
            (
                make_headline("a", 3, (LabeledSpan(0, 1, "ENG"),), section="TV"),
                make_headline("b", 3, section="TV"),
            ),
        )
        stats = corpus_stats(corpus)
        assert len(stats.sections) == 1
        assert stats.sections[0].percent == pytest.approx(50.0)
        assert "50.00" in render_stats(stats, "c")

    def test_sections_sorted_by_percent_then_name(self):
        corpus = Corpus(
            "c",
            (
                make_headline("a", 1, (LabeledSpan(0, 1, "ENG"),), section="zeta"),
                make_headline("b", 1, section="beta"),
                make_headline("c", 1, section="alpha"),
            ),
        )
        stats = corpus_stats(corpus)
        assert [s.section for s in stats.sections] == ["alpha", "beta", "zeta"]

    def test_other_only_headline_not_counted_as_anglicism(self):
        corpus = Corpus(
            "c", (make_headline("a", 2, (LabeledSpan(0, 1, "OTHER"),), section="tv"),)
        )
        stats = corpus_stats(corpus)
        assert stats.with_anglicisms == 0
        assert stats.sections[0].percent == 0.0

    def test_sample_corpus_matches_frozen_rendering(self):
        with open(DATA / "sample.tsv", encoding="utf-8") as stream:
            corpus = read_corpus(stream, name="sample")
        stats = corpus_stats(corpus)
        assert stats.headlines == 10
        assert stats.tokens == 63
        assert stats.with_anglicisms == 7
        assert stats.eng_spans == 7
        assert stats.other_spans == 1
        expected = (DATA / "sample_stats.txt").read_text(encoding="utf-8")
        assert render_stats(stats, "sample") == expected
