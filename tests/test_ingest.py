import datetime
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import borrowings
from borrowings.cli import run
from borrowings.corpus import read_corpus, write_corpus
from borrowings.errors import ValidationError
from borrowings.ingest import FeedItem, items_to_corpus, parse_rss
from conftest import line_mutations, mutate


def feed(items_xml):
    return io.StringIO(
        "<?xml version='1.0'?>\n<rss version='2.0'><channel>"
        f"<title>Diario</title>{items_xml}</channel></rss>"
    )


def item_xml(title=None, pub_date=None, link=None):
    parts = ["<item>"]
    if title is not None:
        parts.append(f"<title>{title}</title>")
    if pub_date is not None:
        parts.append(f"<pubDate>{pub_date}</pubDate>")
    if link is not None:
        parts.append(f"<link>{link}</link>")
    parts.append("</item>")
    return "".join(parts)


class TestParseRss:
    def test_titleless_items_skipped_with_count(self):
        items, skipped = parse_rss(
            feed(
                item_xml("Primera noticia")
                + item_xml(None, pub_date="Mon, 03 Feb 2020 08:00:00 +0100")
                + item_xml("Segunda noticia")
            )
        )
        assert [i.title for i in items] == ["Primera noticia", "Segunda noticia"]
        assert skipped == 1

    def test_blank_title_counts_as_missing(self):
        items, skipped = parse_rss(feed(item_xml("   ") + item_xml("Real")))
        assert [i.title for i in items] == ["Real"]
        assert skipped == 1

    def test_entities_decoded(self):
        items, _ = parse_rss(feed(item_xml("Cu&amp;ndo")))
        assert items[0].title == "Cu&ndo"

    def test_cdata_title(self):
        items, _ = parse_rss(feed("<item><title><![CDATA[El streaming]]></title></item>"))
        assert items[0].title == "El streaming"

    def test_title_whitespace_normalized(self):
        items, _ = parse_rss(feed(item_xml("Dos   palabras\n\t tres ")))
        assert items[0].title == "Dos palabras tres"

    def test_rfc822_pub_date(self):
        items, _ = parse_rss(
            feed(item_xml("Noticia", pub_date="Mon, 03 Feb 2020 08:00:00 +0100"))
        )
        assert items[0].pub_date == datetime.date(2020, 2, 3)

    def test_missing_or_bad_pub_date_is_none(self):
        items, _ = parse_rss(
            feed(item_xml("Sin fecha") + item_xml("Mala", pub_date="ayer"))
        )
        assert items[0].pub_date is None
        assert items[1].pub_date is None

    def test_section_from_link_path(self):
        items, _ = parse_rss(
            feed(
                item_xml("A", link="https://diario.example/tecnologia/nota.html")
                + item_xml("B", link="https://diario.example/")
                + item_xml("C")
            )
        )
        assert items[0].section == "tecnologia"
        assert items[0].link == "https://diario.example/tecnologia/nota.html"
        assert items[1].section is None
        assert items[2].section is None

    def test_bytes_stream_with_accents(self):
        raw = (
            "<?xml version='1.0' encoding='utf-8'?>"
            "<rss version='2.0'><channel>"
            "<item><title>Canción del verano</title></item>"
            "</channel></rss>"
        ).encode("utf-8")
        items, _ = parse_rss(io.BytesIO(raw))
        assert items[0].title == "Canción del verano"

    def test_malformed_xml(self):
        with pytest.raises(ValidationError, match="malformed XML"):
            parse_rss(io.StringIO("<rss><channel><item>"))

    def test_missing_channel(self):
        with pytest.raises(ValidationError, match="no rss/channel element"):
            parse_rss(io.StringIO("<feed><entry/></feed>"))


def plain_items(*titles, date=datetime.date(2020, 2, 3)):
    return [FeedItem(title=t, pub_date=date) for t in titles]


class TestItemsToCorpus:
    def test_tokenized_headline_without_spans(self):
        corpus, summary = items_to_corpus(
            [
                FeedItem(
                    title='El "big data" llega',
                    pub_date=datetime.date(2020, 2, 3),
                    link="https://diario.example/tecnologia/nota",
                )
            ]
        )
        (headline,) = tuple(corpus)
        assert [t.text for t in headline.tokens] == [
            "El", '"', "big", "data", '"', "llega",
        ]
        assert headline.spans == ()
        assert headline.section == "tecnologia"
        assert headline.date == datetime.date(2020, 2, 3)
        assert summary.added == 1

    def test_ids_sequence_per_date(self):
        items = plain_items("Uno", "Dos") + plain_items(
            "Tres", date=datetime.date(2020, 2, 4)
        )
        corpus, _ = items_to_corpus(items)
        assert [h.id for h in corpus] == [
            "2020-02-03-0001",
            "2020-02-03-0002",
            "2020-02-04-0001",
        ]

    def test_nodate_fallback(self):
        corpus, _ = items_to_corpus([FeedItem(title="Sin fecha")])
        assert [h.id for h in corpus] == ["nodate-0001"]

    def test_duplicates_dropped(self):
        corpus, summary = items_to_corpus(plain_items("Misma", "Misma", "Otra"))
        assert len(corpus) == 2
        assert summary == type(summary)(added=2, duplicates=1, collisions=0)

    def test_same_title_different_date_kept(self):
        items = plain_items("Misma") + plain_items(
            "Misma", date=datetime.date(2020, 2, 4)
        )
        corpus, summary = items_to_corpus(items)
        assert len(corpus) == 2
        assert summary.duplicates == 0

    def test_collision_with_existing_ids(self):
        corpus, summary = items_to_corpus(
            plain_items("Nueva", "Siguiente"),
            existing_ids={"2020-02-03-0001"},
        )
        assert [h.id for h in corpus] == ["2020-02-03-0002"]
        assert summary.collisions == 1
        assert summary.added == 1

    def test_reingest_is_idempotent(self):
        items = plain_items("Uno", "Dos", "Tres")
        first, _ = items_to_corpus(items)
        second, summary = items_to_corpus(
            items, existing_ids={h.id for h in first}
        )
        assert len(second) == 0
        assert summary.added == 0
        assert summary.collisions == 3

    def test_output_round_trips_through_tsv(self):
        items = [
            FeedItem(
                title="El streaming gana",
                pub_date=datetime.date(2020, 2, 5),
                link="https://diario.example/tv/nota",
            ),
            FeedItem(title="Sin fecha ni enlace"),
        ]
        corpus, _ = items_to_corpus(items, name="ingested")
        buffer = io.StringIO()
        write_corpus(corpus, buffer)
        reread = read_corpus(io.StringIO(buffer.getvalue()), name="ingested")
        assert tuple(reread) == tuple(corpus)

    def test_empty_input(self):
        corpus, summary = items_to_corpus([])
        assert len(corpus) == 0
        assert (summary.added, summary.duplicates, summary.collisions) == (0, 0, 0)


class TestHashtagTokens:
    """A token that starts with `#` is written escaped, so its line does
    not read as a metadata comment, and reads back as it was."""

    ITEMS = (
        item_xml("#MeToo llega a la moda", "Mon, 03 Feb 2020 08:00:00 +0100")
        + item_xml("La moda y el #MeToo", "Mon, 03 Feb 2020 09:00:00 +0100")
    )

    def test_feed_to_corpus_text_and_back(self):
        items, _ = parse_rss(feed(self.ITEMS))
        corpus, _ = items_to_corpus(items, name="ingested")
        first, mid = corpus.headlines
        assert first.tokens[0].text == mid.tokens[-1].text == "#MeToo"
        buffer = io.StringIO()
        write_corpus(corpus, buffer)
        text = buffer.getvalue()
        assert text.count("\n\\#MeToo\t_\tO\n") == 2
        reread = read_corpus(io.StringIO(text), name="ingested")
        assert tuple(reread) == tuple(corpus)

    def test_second_ingest_into_the_same_file(self, tmp_path):
        rss, out = tmp_path / "feed.xml", tmp_path / "corpus.tsv"
        rss.write_text(feed(self.ITEMS).getvalue(), encoding="utf-8")
        assert run(["ingest", str(rss), "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert run(["ingest", str(rss), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text
        more = item_xml("#Brexit: otra semana", "Tue, 04 Feb 2020 08:00:00 +0100")
        rss.write_text(feed(self.ITEMS + more).getvalue(), encoding="utf-8")
        assert run(["ingest", str(rss), "-o", str(out)]) == 0
        with open(out, encoding="utf-8") as stream:
            corpus = read_corpus(stream)
        assert [h.tokens[0].text for h in corpus] == ["#MeToo", "La", "#Brexit"]
        assert out.read_text(encoding="utf-8").startswith(text)


# A feed to corrupt, one element per line, and the fields (split at `>`)
# and lines a corrupted feed may hold.
FEED_TEXT = """<?xml version='1.0'?>
<rss version='2.0'>
<channel>
<title>Diario</title>
<item>
<title>El 'streaming' llega</title>
<pubDate>Mon, 03 Feb 2020 08:00:00 +0100</pubDate>
<link>https://example.com/tecnologia/1</link>
</item>
<item>
<title>Otra noticia</title>
</item>
</channel>
</rss>
"""
JUNK_FIELDS = (
    "", "<", "&", "&amp;", "&#0;", "]]>", "<item", "</item", "<title", "</title",
    "\x00", " ", "<![CDATA[x]]", "<?xml version='1.0' encoding='utf-16'?",
    "Mon, 99 Feb 2020 08:00:00 +0100</pubDate", "32 Feb 99999 08:00:00 +9999</pubDate",
)
JUNK_LINES = (
    "<item><title>   </title></item>",
    "<item><title>El 'streaming' llega</title>"
    "<pubDate>Mon, 03 Feb 2020 08:00:00 +0100</pubDate></item>",
    "<item><title>#hashtag</title><pubDate>Tue, 04 Feb 2020</pubDate></item>",
    "<pubDate>Mon, 03 Feb 2020 25:61:00 +0100</pubDate>",
    "<pubDate>Mon, 03 Feb 10000 08:00:00 -2400</pubDate>",
    "<link>https://example.com/</link>",
    "<channel>",
    "</rss>",
)


class TestCorruptedFeeds:
    @settings(max_examples=200, deadline=None)
    @given(
        mutations=st.lists(
            line_mutations(
                JUNK_FIELDS,
                JUNK_LINES,
                ("drop", "duplicate", "swap", "field", "cut", "insert", "cr"),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_only_validation_errors_are_raised(self, mutations):
        text = FEED_TEXT
        for mutation in mutations:
            text = mutate(text, mutation, sep=">")
        try:
            items, _ = parse_rss(io.StringIO(text))
        except ValidationError:
            return
        corpus, summary = items_to_corpus(items, existing_ids={"nodate-0001"})
        assert summary.added == len(corpus)
        assert all(len(headline) > 0 for headline in corpus)


def test_importing_the_cli_loads_no_feed_parser():
    # Only `ingest` reads feeds, so the other commands need not load the
    # XML and e-mail date parsers.
    src = str(Path(borrowings.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, borrowings.cli; "
        "print([m for m in ('xml.etree.ElementTree', 'email.utils') "
        "if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    assert result.stdout == "[]\n"
