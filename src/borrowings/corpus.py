"""Headline corpus model: tokens, labeled spans, the BIO codec, TSV
serialization, and corpus statistics.

A corpus is a list of tokenized headlines.  Each headline may carry
labeled spans marking unassimilated lexical borrowings, either English
(ENG) or from another donor language (OTHER).  Spans are stored as
half-open token intervals and converted to per-token BIO tags only at
serialization and training time.

Fields are checked once, where they enter: the public constructors
(`Token`, `Headline`, ...) check their arguments, and `read_corpus`
checks all token lines of a file in whole-text passes.  Objects built from fields
already checked (by the reader, or from a model's predicted tags in
`with_tags`) are made without running those checks again.
"""

from __future__ import annotations

import datetime
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, Iterable, Iterator, NoReturn, Sequence, TypeVar

from .errors import ValidationError
from .rounding import fmt2

LABELS = ("ENG", "OTHER")


@dataclass(frozen=True)
class TagAlphabet:
    """Ordered BIO tag set; tag ids are positions in `tags`."""

    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tags or self.tags[0] != "O":
            raise ValidationError("tag alphabet must start with O")
        if len(set(self.tags)) != len(self.tags):
            raise ValidationError("tag alphabet contains duplicates")

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    def index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ValidationError(f"unknown tag {tag!r}") from None

    def labels(self) -> tuple[str, ...]:
        """Span labels covered by this alphabet, in first-seen order."""
        seen = []
        for tag in self.tags:
            if tag != "O" and tag[2:] not in seen:
                seen.append(tag[2:])
        return tuple(seen)


FULL_ALPHABET = TagAlphabet(("O", "B-ENG", "I-ENG", "B-OTHER", "I-OTHER"))
ENG_ALPHABET = TagAlphabet(("O", "B-ENG", "I-ENG"))
# The corpus tags, for the tag checks of the reader and of `_check_tags`:
# set lookups, not `TagAlphabet.__contains__` calls.
_CORPUS_TAGS = frozenset(FULL_ALPHABET.tags)


def alphabet_for(ignore_other: bool) -> TagAlphabet:
    """Tag alphabet for a training run; dropping OTHER halves the B/I tags."""
    return ENG_ALPHABET if ignore_other else FULL_ALPHABET


def _check_token_field(value: str, what: str) -> None:
    if not value:
        raise ValidationError(f"{what} must be non-empty")
    # `str.split` splits at exactly the characters `str.isspace` accepts.
    if value.split() != [value]:
        raise ValidationError(f"{what} {value!r} contains whitespace")


@dataclass(frozen=True)
class Token:
    """Single token: surface text plus an optional part-of-speech tag."""

    text: str
    pos: str | None = None

    def __post_init__(self) -> None:
        _check_token_field(self.text, "token text")
        if self.pos is not None:
            _check_token_field(self.pos, "pos tag")


@dataclass(frozen=True, order=True)
class LabeledSpan:
    """Half-open token interval [start, end) with a borrowing label."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValidationError(
                f"span ({self.start}, {self.end}) is empty or negative"
            )
        if self.label not in LABELS:
            raise ValidationError(f"unknown span label {self.label!r}")


def validate_spans(spans: Iterable[LabeledSpan], length: int) -> tuple[LabeledSpan, ...]:
    """Sort spans by start and reject out-of-range or overlapping ones."""
    ordered = tuple(sorted(spans))
    prev = None
    for span in ordered:
        if span.end > length:
            raise ValidationError(
                f"span ({span.start}, {span.end}, {span.label}) exceeds "
                f"headline length {length}"
            )
        if prev is not None and span.start < prev.end:
            raise ValidationError(
                f"span ({span.start}, {span.end}, {span.label}) overlaps "
                f"({prev.start}, {prev.end}, {prev.label})"
            )
        prev = span
    return ordered


@dataclass(frozen=True)
class Headline:
    """One tokenized headline with its labeled spans and metadata.

    `spans` holds gold annotations in an annotated corpus and model
    predictions in a tagger output corpus; the two never share one
    Headline object.
    """

    id: str
    tokens: tuple[Token, ...]
    spans: tuple[LabeledSpan, ...] = ()
    date: datetime.date | None = None
    section: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("headline id must be non-empty")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValidationError(f"headline {self.id!r} has no tokens")
        ordered = validate_spans(self.spans, len(self.tokens))
        object.__setattr__(self, "spans", ordered)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """Named collection of headlines with unique ids."""

    name: str = field(compare=False)
    headlines: tuple[Headline, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "headlines", tuple(self.headlines))
        seen = set()
        for headline in self.headlines:
            if headline.id in seen:
                raise ValidationError(f"duplicate headline id {headline.id!r}")
            seen.add(headline.id)

    def __len__(self) -> int:
        return len(self.headlines)

    def __iter__(self) -> Iterator[Headline]:
        return iter(self.headlines)

    def ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.headlines)


# Punctuation characters split into their own tokens.  The straight
# apostrophe stays attached only between two alphanumerics; hyphens are
# never split.
_PUNCT = set(".,;:¡!¿?«»“”\"'()[]—…")


def _split_chunk(chunk: str) -> list[str]:
    pieces: list[str] = []
    current: list[str] = []
    for i, ch in enumerate(chunk):
        internal = (
            ch == "'"
            and 0 < i < len(chunk) - 1
            and chunk[i - 1].isalnum()
            and chunk[i + 1].isalnum()
        )
        if ch in _PUNCT and not internal:
            if current:
                pieces.append("".join(current))
                current = []
            pieces.append(ch)
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))
    return pieces


def tokenize(text: str) -> list[Token]:
    """Split headline text on whitespace, then peel punctuation off chunks."""
    tokens: list[Token] = []
    for chunk in text.split():
        tokens.extend(Token(piece) for piece in _split_chunk(chunk))
    return tokens


def spans_to_bio(spans: Iterable[LabeledSpan], length: int) -> list[str]:
    """Encode labeled spans as one BIO tag per token position."""
    ordered = validate_spans(spans, length)
    tags = ["O"] * length
    for span in ordered:
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.label}"
    return tags


def _check_tags(tags: Sequence[str]) -> None:
    """Raise ValidationError naming the first tag that is not a corpus tag."""
    if not _CORPUS_TAGS.issuperset(tags):
        unknown = next(tag for tag in tags if tag not in _CORPUS_TAGS)
        raise ValidationError(f"unknown tag {unknown!r}")


def bio_to_spans(tags: Iterable[str]) -> list[LabeledSpan]:
    """Decode BIO tags into labeled spans; an I-X tag that continues no
    X span starts one."""
    tags = list(tags)
    _check_tags(tags)
    return list(_decode_spans(tags))


# Objects whose fields the reader or the tagger has already checked are
# made with the idiom `Headline.__post_init__` uses, so that no
# `__post_init__` checks them again.
_new = object.__new__
_set = object.__setattr__
_T = TypeVar("_T")


def _build(cls: type[_T], **columns: Sequence[object]) -> list[_T]:
    """Instances of the frozen dataclass `cls`, one per row of `columns`
    (one sequence of checked values per field), made column by column.

    The first instance gets all its fields before the others are made.
    CPython (3.11 to 3.13) sizes a new instance's attribute storage by
    the fields its class's instances have had so far; instances made before any had
    all of them would each carry a dict of their own, about 3.5 times
    the size, and so would every later instance of the class.
    """
    n = len(next(iter(columns.values())))
    if not n:
        return []
    first = _new(cls)
    for name, values in columns.items():
        _set(first, name, values[0])
    made = [first, *map(_new, repeat(cls, n - 1))]
    for name, values in columns.items():
        deque(map(_set, made, repeat(name), values), maxlen=0)
    return made


def _span(start: int, end: int, label: str) -> LabeledSpan:
    span = _new(LabeledSpan)
    _set(span, "start", start)
    _set(span, "end", end)
    _set(span, "label", label)
    return span


def _decode_spans(tags: Sequence[str]) -> tuple[LabeledSpan, ...]:
    """The spans of `tags`, known to be corpus tags, in one pass.

    An I-X tag continues a span only while an X span is open; otherwise
    it starts one, as a B-X tag would.
    """
    if tags.count("O") == len(tags):
        return ()
    spans = []
    start = 0
    label = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if label is not None:
                spans.append(_span(start, i, label))
                label = None
        elif tag[0] == "B" or tag[2:] != label:
            if label is not None:
                spans.append(_span(start, i, label))
            start, label = i, tag[2:]
    if label is not None:
        spans.append(_span(start, len(tags), label))
    return tuple(spans)


def _headlines(
    ids: Sequence[str],
    tokens: Sequence[tuple[Token, ...]],
    tags: list[str],
    bounds: list[int],
    dates: Sequence[datetime.date | None],
    sections: Sequence[str | None],
) -> list[Headline]:
    """Headlines from checked columns; headline i gets the spans decoded
    from its corpus tags `tags[bounds[i]:bounds[i + 1]]`."""
    spans = [_decode_spans(tags[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return _build(
        Headline, id=ids, tokens=tokens, spans=spans, date=dates, section=sections
    )


def with_tags(
    headlines: Sequence[Headline], tags: list[str], bounds: list[int]
) -> list[Headline]:
    """`headlines` with their spans replaced by `bio_to_spans` of their
    slices `tags[bounds[i]:bounds[i + 1]]`; nothing else is checked again."""
    _check_tags(tags)
    return _headlines(
        [h.id for h in headlines],
        [h.tokens for h in headlines],
        tags,
        bounds,
        [h.date for h in headlines],
        [h.section for h in headlines],
    )


_META_KEYS = ("id", "date", "section")
_META_RE = re.compile(r"#\s*([^=\s]+)\s*=\s*(.*\S)\s*$")


def _fail(lineno: int, message: str) -> NoReturn:
    raise ValidationError(f"line {lineno}: {message}")


def _read_meta(lines: list[str], first: int, stop: int) -> dict[str, str]:
    """The metadata of the comment lines `lines[first:stop]`."""
    meta: dict[str, str] = {}
    for lineno, line in enumerate(lines[first:stop], first + 1):
        match = _META_RE.match(line)
        if not match:
            _fail(lineno, f"malformed metadata comment {line!r}")
        key, value = match.groups()
        if key not in _META_KEYS:
            _fail(lineno, f"unknown metadata key {key!r}")
        if key in meta:
            _fail(lineno, f"duplicate metadata key {key!r}")
        meta[key] = value
    return meta


# A token text that is zero or more `\` and then `#` is written with one
# more `\` before it, so that its line does not read as a comment; the
# reader drops one `\` from a text that is one or more `\` and then `#`.
# The writer matches at the start of each token line of a block.
_NEEDS_ESCAPE = re.compile(r"^(?=\\*#)", re.MULTILINE)
_ESCAPED = re.compile(r"\\+#")

# A valid token line: a text that does not start with `#`, a POS field
# and a corpus tag, separated by tabs.  `\S` matches exactly the
# characters `str.isspace` rejects, so both fields pass
# `_check_token_field`.  Within a block's token lines, a line starting
# with `#` is a metadata comment after token lines.
_TOKEN_LINE = r"[^\s#]\S*\t\S+\t(?:%s)" % "|".join(FULL_ALPHABET.tags)
_TOKEN_LINES = re.compile(rf"{_TOKEN_LINE}(?:\n{_TOKEN_LINE})*")


def _columns(rows: list[str]) -> list[str] | None:
    """The fields of the token lines `rows`, three per line, or None when
    one of them is not a valid token line.

    All lines are checked by one pass of `_TOKEN_LINES` over their text
    and split into fields by one more.
    """
    if not rows:
        return []
    if _TOKEN_LINES.fullmatch("\n".join(rows)) is None:
        return None
    return "\t".join(rows).split("\t")


def _scan_rows(lines: list[str], first: int, stop: int) -> None:
    """Raise the error of the first faulty token line in `lines[first:stop]`."""
    for lineno, line in enumerate(lines[first:stop], first + 1):
        if line.startswith("#"):
            _fail(lineno, "metadata comment after token lines")
        fields = line.split("\t")
        if len(fields) != 3:
            _fail(lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        text, pos, tag = fields
        if tag not in _CORPUS_TAGS:
            _fail(lineno, f"unknown tag {tag!r}")
        try:
            _check_token_field(text, "token text")
            if pos != "_":
                _check_token_field(pos, "pos tag")
        except ValidationError as exc:
            _fail(lineno, str(exc))


def read_corpus(stream: IO[str], name: str = "corpus") -> Corpus:
    """Parse the tab-separated corpus format into a Corpus.

    Blocks of TOKEN<TAB>POS<TAB>TAG lines are separated by blank lines
    and preceded by `# key = value` metadata comments; `_` marks an
    absent POS tag.  Every format violation raises ValidationError with
    the line number of the first one in file order.

    The token lines of all blocks are checked together and split into
    columns in whole-text passes (`_columns`); only when that check
    fails is each block checked on its own, and a failing block scanned
    line by line for its first faulty line.  Lines are checked as
    written; a token text that is one or more `\\` and then `#` then
    loses its first `\\` (see `write_corpus`).
    """
    text = stream.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    edges = [-1]
    edges += [i for i, line in enumerate(lines) if not line.strip()]
    edges.append(len(lines))
    # (first line, first token line, end) of each block.
    blocks = []
    rows: list[str] = []
    for blank, end in zip(edges, edges[1:]):
        first = row = blank + 1
        if first < end:
            while row < end and lines[row].startswith("#"):
                row += 1
            blocks.append((first, row, end))
            rows += lines[row:end]
    fields = _columns(rows)
    ids, dates, sections, bounds = [], [], [], [0]
    for first, row, end in blocks:
        meta = _read_meta(lines, first, row)
        if fields is None and _columns(lines[row:end]) is None:
            _scan_rows(lines, row, end)
        if "id" not in meta:
            _fail(first + 1, "headline block is missing an id")
        if row == end:
            _fail(first + 1, "headline block has no token lines")
        date = meta.get("date")
        if date is not None:
            try:
                date = datetime.date.fromisoformat(date)
            except ValueError:
                _fail(first + 1, f"bad date {date!r}")
        ids.append(meta["id"])
        dates.append(date)
        sections.append(meta.get("section"))
        bounds.append(bounds[-1] + end - row)
    # A faulty token line was raised above, in file order.
    assert fields is not None
    texts = fields[0::3]
    if "\\#" in text:
        texts = [t[1:] if _ESCAPED.match(t) else t for t in texts]
    tokens = _build(
        Token,
        text=texts,
        pos=[None if pos == "_" else pos for pos in fields[1::3]],
    )
    tokens_of = [tuple(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return Corpus(
        name, _headlines(ids, tokens_of, fields[2::3], bounds, dates, sections)
    )


def write_corpus(corpus: Corpus, stream: IO[str]) -> None:
    """Serialize a corpus in the format accepted by read_corpus.

    Each headline's block goes to `stream` in one write.  A token text
    that is zero or more `\\` and then `#` gets one more `\\` before it.
    """
    for headline in corpus:
        head = f"# id = {headline.id}\n"
        if headline.date is not None:
            head += f"# date = {headline.date.isoformat()}\n"
        if headline.section is not None:
            head += f"# section = {headline.section}\n"
        tags = spans_to_bio(headline.spans, len(headline))
        rows = "".join([
            f"{token.text}\t{'_' if token.pos is None else token.pos}\t{tag}\n"
            for token, tag in zip(headline.tokens, tags)
        ])
        if "#" in rows:
            rows = _NEEDS_ESCAPE.sub(r"\\", rows)
        stream.write(f"{head}{rows}\n")


@dataclass(frozen=True)
class SectionStats:
    """Per-section headline counts and anglicism share."""

    section: str
    headlines: int
    with_anglicisms: int

    @property
    def percent(self) -> float:
        return 100.0 * self.with_anglicisms / self.headlines


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level counts mirroring the per-section summary table."""

    headlines: int
    tokens: int
    with_anglicisms: int
    eng_spans: int
    other_spans: int
    sections: tuple[SectionStats, ...]


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Count headlines, tokens, spans, and per-section anglicism shares.

    A headline counts as containing anglicisms when it has at least one
    ENG span.  Section rows are sorted by (percentage, name) ascending.
    """
    tokens = 0
    with_eng = 0
    label_counts: Counter[str] = Counter()
    section_total: Counter[str] = Counter()
    section_eng: Counter[str] = Counter()
    for headline in corpus:
        tokens += len(headline)
        has_eng = any(span.label == "ENG" for span in headline.spans)
        with_eng += has_eng
        for span in headline.spans:
            label_counts[span.label] += 1
        if headline.section is not None:
            section_total[headline.section] += 1
            section_eng[headline.section] += has_eng
    sections = tuple(
        sorted(
            (
                SectionStats(name, section_total[name], section_eng[name])
                for name in section_total
            ),
            key=lambda s: (s.percent, s.section),
        )
    )
    return CorpusStats(
        headlines=len(corpus),
        tokens=tokens,
        with_anglicisms=with_eng,
        eng_spans=label_counts["ENG"],
        other_spans=label_counts["OTHER"],
        sections=sections,
    )


def render_stats(stats: CorpusStats, name: str) -> str:
    """Aligned plain-text rendering of corpus statistics."""
    lines = [
        f"Corpus: {name}",
        f"  headlines             {stats.headlines}",
        f"  tokens                {stats.tokens}",
        f"  with anglicisms       {stats.with_anglicisms}",
        f"  ENG spans             {stats.eng_spans}",
        f"  OTHER spans           {stats.other_spans}",
    ]
    if stats.sections:
        width = max(len(s.section) for s in stats.sections)
        width = max(width, len("section"))
        lines.append("")
        lines.append(
            f"  {'section':<{width}}  headlines  with-anglicisms  percent"
        )
        for s in stats.sections:
            lines.append(
                f"  {s.section:<{width}}  {s.headlines:>9}  "
                f"{s.with_anglicisms:>15}  {fmt2(s.percent):>7}"
            )
    return "\n".join(lines) + "\n"
