"""Seeded generator of the benchmark's inputs.

Everything the benchmarked program reads is made here from a seed: a
Zipfian, open-vocabulary corpus of Spanish-like headlines in the
corpus TSV format (token, POS and BIO tag columns), and a word2vec-text
embedding table.  The same seed gives byte-identical files.

The language has three word classes with distinct spelling: native
Spanish-like words, English-like borrowings (ENG) and a few other
foreign words (OTHER).  Word frequencies follow a Zipf law over a large
type inventory, so a small training corpus leaves most types unseen.
Labels are ambiguous on purpose: a share of the English-like types is
assimilated (always tagged O) and a share of the borrowings is tagged
inconsistently, so a trained model stays below 100 F1 and its score
depends on the regularization.

Run as a script to write one workload's inputs:

    python3 benchmarks/generate.py --workload train --seed 3 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

FUNCTION_WORDS = (
    ("de", "ADP"), ("la", "DET"), ("el", "DET"), ("en", "ADP"),
    ("y", "CCONJ"), ("los", "DET"), ("que", "SCONJ"), ("a", "ADP"),
    ("las", "DET"), ("por", "ADP"), ("un", "DET"), ("con", "ADP"),
    ("del", "ADP"), ("para", "ADP"), ("una", "DET"), ("se", "PRON"),
    ("su", "DET"), ("al", "ADP"), ("no", "ADV"), ("más", "ADV"),
)
NATIVE_POS = ("NOUN", "NOUN", "NOUN", "VERB", "VERB", "ADJ", "ADJ", "PROPN", "ADV")
SECTIONS = ("technology", "tv", "music", "economy", "sports", "culture")

_NATIVE = (
    ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
     "ll", "ch", "br", "tr", "pl", "gr", "ñ", ""),
    ("a", "e", "i", "o", "u", "ia", "ue", "io", "ie"),
    ("", "", "", "", "n", "s", "r", "l"),
    ("", "", "", "ción", "mente", "dad", "ado", "ido", "ista", "eza", "ero", "ar"),
)
_ENGLISH = (
    ("sh", "th", "w", "k", "st", "bl", "sm", "fl", "cl", "wh", "j", "h", "sk",
     "sp", "b", "d", "f", "l", "m", "p", "r", "s", "t"),
    ("ee", "oo", "ea", "ou", "a", "i", "o", "u", "ay", "igh", "ow"),
    ("ck", "ng", "sh", "st", "t", "d", "k", "ll", "nk", "rd", "wn", "x"),
    ("", "", "ing", "er", "ness", "ship", "ware", "y", "s", "ed", "ful"),
)
_OTHER = (
    ("b", "p", "m", "t", "ch", "gn", "fr", "v", "z"),
    ("ai", "eau", "ou", "i", "e", "a", "oi"),
    ("", "", "tt", "ss", "r"),
    ("", "ette", "oire", "ssimo", "etto", "ier", "eux", "zione"),
)


def _make_word(rng: random.Random, parts: tuple, syllables: int) -> str:
    onsets, nuclei, codas, endings = parts
    word = "".join(
        rng.choice(onsets) + rng.choice(nuclei) + rng.choice(codas)
        for _ in range(syllables)
    )
    return word + rng.choice(endings)


def _zipf_cum_weights(n: int, exponent: float, offset: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + offset) ** exponent for rank in range(n)))


@dataclass
class WordType:
    text: str
    cls: str  # "native", "eng" or "other"
    pos: str
    assimilated: bool = False  # English-looking but annotated O


class Language:
    """A seeded vocabulary with Zipfian frequencies for each word class."""

    def __init__(self, seed: int, n_native: int, n_eng: int, n_other: int) -> None:
        rng = random.Random(f"language:{seed}")
        seen: set[str] = set()

        def fresh(parts: tuple, low: int, high: int) -> str:
            while True:
                word = _make_word(rng, parts, rng.randint(low, high))
                if word not in seen:
                    seen.add(word)
                    return word

        self.native = [WordType(w, "native", p) for w, p in FUNCTION_WORDS]
        seen.update(w for w, _ in FUNCTION_WORDS)
        self.native += [
            WordType(fresh(_NATIVE, 1, 3), "native", rng.choice(NATIVE_POS))
            for _ in range(n_native)
        ]
        self.eng = [
            WordType(
                fresh(_ENGLISH, 1, 2),
                "eng",
                rng.choice(("NOUN", "NOUN", "NOUN", "PROPN", "ADJ")),
                assimilated=rng.random() < 0.15,
            )
            for _ in range(n_eng)
        ]
        self.other = [
            WordType(fresh(_OTHER, 1, 2), "other", "NOUN") for _ in range(n_other)
        ]
        self._cum = {
            "native": _zipf_cum_weights(len(self.native), 1.05, 2.0),
            "eng": _zipf_cum_weights(len(self.eng), 1.1, 1.0),
            "other": _zipf_cum_weights(len(self.other), 1.0, 3.0),
        }

    def draw(self, rng: random.Random, cls: str) -> WordType:
        cum = self._cum[cls]
        types = getattr(self, cls)
        return types[bisect.bisect_left(cum, rng.random() * cum[-1])]

    def all_types(self) -> list[WordType]:
        return self.native + self.eng + self.other


Row = tuple[str, str, str]  # token, POS, BIO tag
HEADLINE_LENGTHS = (8, 11, 6, 9, 12, 7, 10)


def _headline(lang: Language, rng: random.Random, length: int) -> list[Row]:
    """One headline of exactly `length` tokens (at least 6)."""
    span: list[Row] = []
    if rng.random() < 0.7:
        words = [lang.draw(rng, "eng") for _ in range(2 if rng.random() < 0.25 else 1)]
        # Assimilated words and a share of inconsistent annotation keep
        # the task from being separable.
        labeled = not any(w.assimilated for w in words) and rng.random() >= 0.05
        span = [
            (w.text.capitalize() if w.pos == "PROPN" else w.text, w.pos,
             ("B-ENG" if i == 0 else "I-ENG") if labeled else "O")
            for i, w in enumerate(words)
        ]
        if labeled and rng.random() < 0.3:
            span = [("'", "PUNCT", "O")] + span + [("'", "PUNCT", "O")]
    other: list[Row] = []
    if rng.random() < 0.12:
        word = lang.draw(rng, "other")
        other = [(word.text, word.pos, "B-OTHER")]
    rows: list[Row] = [
        (w.text, w.pos, "O")
        for w in (lang.draw(rng, "native") for _ in range(length - len(span) - len(other)))
    ]
    for insert in (span, other):
        at = rng.randrange(len(rows) + 1)
        # Never split a borrowing span.
        while at < len(rows) and rows[at][2].startswith("I-"):
            at += 1
        rows[at:at] = insert
    text, pos, tag = rows[0]
    rows[0] = (text[:1].upper() + text[1:], pos, tag)
    return rows


def write_corpus_tsv(path: Path, lang: Language, seed: str, n_headlines: int, prefix: str) -> dict:
    """Write `n_headlines` headlines and return their exact counts.

    Headline lengths follow a fixed cycle, so the token count depends
    only on `n_headlines`, not on the seed.
    """
    rng = random.Random(seed)
    tokens = 0
    types: set[str] = set()
    lines: list[str] = []
    for i in range(n_headlines):
        rows = _headline(lang, rng, HEADLINE_LENGTHS[i % len(HEADLINE_LENGTHS)])
        lines.append(f"# id = {prefix}-{i:05d}")
        lines.append(f"# section = {SECTIONS[i % len(SECTIONS)]}")
        lines.extend("\t".join(row) for row in rows)
        lines.append("")
        tokens += len(rows)
        types.update(row[0] for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"headlines": n_headlines, "tokens": tokens, "types": types}


def write_embeddings(path: Path, lang: Language, seed: int, dim: int) -> int:
    """Write a word2vec-text table covering most of the vocabulary.

    Vectors cluster by word class (assimilated borrowings sit with the
    native words), so the embedding family carries real signal.  Returns
    the number of vectors written.
    """
    rng = random.Random(f"embeddings:{seed}")
    centroids = {
        cls: [rng.gauss(0.0, 1.0) for _ in range(dim)]
        for cls in ("native", "eng", "other")
    }
    lines = []
    for word in lang.all_types():
        if rng.random() >= 0.8:
            continue
        cls = "native" if word.assimilated else word.cls
        vec = (0.6 * c + rng.gauss(0.0, 0.8) for c in centroids[cls])
        lines.append(word.text + " " + " ".join(f"{v:.4f}" for v in vec))
    path.write_text(f"{len(lines)} {dim}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


# Input sizes per workload.  The tag-feeds model trains on a small
# corpus, so setup stays short and most feed types are unseen.
SIZES = {
    "train": {"train": 200, "dev": 400},
    "tag-feeds": {"train": 120, "feeds": 60, "feed_headlines": 30},
    "tune-grid": {"train": 50, "dev": 100, "embedding_dim": 20},
}
VOCABULARY = {"n_native": 2500, "n_eng": 400, "n_other": 100}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write `workload`'s inputs for `seed` into `out`; return the file
    paths and the exact shape of the generated data."""
    sizes = SIZES[workload]
    lang = Language(seed, **VOCABULARY)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    shape: dict = {}
    train = write_corpus_tsv(out / "train.tsv", lang, f"train:{seed}", sizes["train"], "train")
    paths["train"] = str(out / "train.tsv")
    shape.update(train_headlines=train["headlines"], train_tokens=train["tokens"],
                 train_types=len(train["types"]))
    if "dev" in sizes:
        dev = write_corpus_tsv(out / "dev.tsv", lang, f"dev:{seed}", sizes["dev"], "dev")
        paths["dev"] = str(out / "dev.tsv")
        shape.update(dev_headlines=dev["headlines"], dev_tokens=dev["tokens"],
                     dev_types=len(dev["types"]))
    if "feeds" in sizes:
        feed_dir = out / "feeds"
        feed_dir.mkdir(exist_ok=True)
        paths["feeds"] = []
        tokens = 0
        types: set[str] = set()
        for k in range(sizes["feeds"]):
            path = feed_dir / f"feed-{k:03d}.tsv"
            feed = write_corpus_tsv(path, lang, f"feed:{seed}:{k}", sizes["feed_headlines"], f"feed{k:03d}")
            paths["feeds"].append(str(path))
            tokens += feed["tokens"]
            types |= feed["types"]
        unseen = types - train["types"]
        shape.update(feeds=sizes["feeds"], feed_headlines=sizes["feeds"] * sizes["feed_headlines"],
                     feed_tokens=tokens, feed_types=len(types), feed_types_unseen=len(unseen),
                     feed_unseen_type_share=round(len(unseen) / len(types), 4))
    if "embedding_dim" in sizes:
        paths["table"] = str(out / "table.vec")
        shape.update(embedding_vectors=write_embeddings(out / "table.vec", lang, seed, sizes["embedding_dim"]),
                     embedding_dim=sizes["embedding_dim"])
    return {"paths": paths, "shape": shape}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(generate(args.workload, args.seed, args.out)["shape"])


if __name__ == "__main__":
    main()
