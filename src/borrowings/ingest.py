"""RSS 2.0 feed files to unannotated corpus TSV.

Feeds are read offline from files or streams; titles become tokenized
headlines with every tag O, ready for manual annotation or tagging.
The section is guessed from the first path segment of the item link.
The XML and date parsers are imported by the functions that use them,
so that only reading a feed loads them, not importing the package.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import IO, Iterable, Sequence
from urllib.parse import urlparse

from .corpus import Corpus, Headline, tokenize
from .errors import ValidationError


@dataclass(frozen=True)
class FeedItem:
    """One RSS item reduced to the fields the corpus needs."""

    title: str
    pub_date: datetime.date | None = None
    link: str | None = None

    @property
    def section(self) -> str | None:
        """First path segment of the link, if any."""
        if not self.link:
            return None
        path = urlparse(self.link).path
        segments = [s for s in path.split("/") if s]
        return segments[0] if segments else None


def _normalize_title(title: str) -> str:
    return " ".join(title.split())


def _parse_pub_date(text: str | None) -> datetime.date | None:
    import email.utils

    if text is None or not text.strip():
        return None
    try:
        return email.utils.parsedate_to_datetime(text.strip()).date()
    except (TypeError, ValueError):
        return None


def parse_rss(stream: IO[str] | IO[bytes]) -> tuple[list[FeedItem], int]:
    """Extract feed items from RSS 2.0 XML.

    Returns the items plus a count of items skipped for having no
    title.  Malformed XML and a missing channel element are errors.
    """
    import xml.etree.ElementTree as ET

    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise ValidationError(f"malformed XML: {exc}") from None
    channel = root.find("channel")
    if channel is None:
        raise ValidationError("feed has no rss/channel element")
    items: list[FeedItem] = []
    skipped = 0
    for element in channel.iter("item"):
        title = _normalize_title(element.findtext("title") or "")
        if not title:
            skipped += 1
            continue
        link = (element.findtext("link") or "").strip() or None
        items.append(
            FeedItem(
                title=title,
                pub_date=_parse_pub_date(element.findtext("pubDate")),
                link=link,
            )
        )
    return items, skipped


@dataclass(frozen=True)
class IngestSummary:
    """What happened to the incoming items."""

    added: int
    duplicates: int
    collisions: int


def items_to_corpus(
    items: Iterable[FeedItem],
    existing_ids: Sequence[str] | set[str] = (),
    name: str = "ingested",
) -> tuple[Corpus, IngestSummary]:
    """Deduplicate items and build an unannotated corpus.

    Items repeating an earlier (title, date) pair are dropped.  Ids are
    `<date>-<seq>` with a per-date counter (`nodate` when the item has
    no date); an id already present in `existing_ids` drops the item,
    which makes re-ingesting the same feed a no-op.
    """
    taken = set(existing_ids)
    seen_pairs: set[tuple[str, datetime.date | None]] = set()
    counters: dict[str, int] = {}
    headlines: list[Headline] = []
    duplicates = 0
    collisions = 0
    for item in items:
        pair = (item.title, item.pub_date)
        if pair in seen_pairs:
            duplicates += 1
            continue
        seen_pairs.add(pair)
        date_key = item.pub_date.isoformat() if item.pub_date else "nodate"
        counters[date_key] = counters.get(date_key, 0) + 1
        headline_id = f"{date_key}-{counters[date_key]:04d}"
        if headline_id in taken:
            collisions += 1
            continue
        taken.add(headline_id)
        tokens = tokenize(item.title)
        headlines.append(
            Headline(
                id=headline_id,
                tokens=tuple(tokens),
                spans=(),
                date=item.pub_date,
                section=item.section,
            )
        )
    summary = IngestSummary(
        added=len(headlines), duplicates=duplicates, collisions=collisions
    )
    return Corpus(name, tuple(headlines)), summary
