"""Toolkit for extracting unassimilated lexical borrowings from
Spanish newspaper headlines with a linear-chain CRF."""

from .corpus import (
    Corpus,
    CorpusStats,
    Headline,
    LabeledSpan,
    TagAlphabet,
    Token,
    bio_to_spans,
    corpus_stats,
    read_corpus,
    spans_to_bio,
    tokenize,
    write_corpus,
)
from .crf import CrfModel, TrainConfig, load_model, save_model, tag, train
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, ValidationError
from .evaluation import EvalReport, evaluate, f1
from .features import (
    FeatureConfig,
    FeatureIndex,
    build_index,
    windowed_attributes,
)
from .ingest import FeedItem, items_to_corpus, parse_rss
from .tune import GridSpec, TuneResult, ablate, grid_search

__all__ = [
    "ConfigError",
    "Corpus",
    "CorpusStats",
    "CrfModel",
    "EmbeddingTable",
    "EvalReport",
    "FeatureConfig",
    "FeatureIndex",
    "FeedItem",
    "GridSpec",
    "Headline",
    "LabeledSpan",
    "TagAlphabet",
    "Token",
    "TrainConfig",
    "TuneResult",
    "ValidationError",
    "ablate",
    "bio_to_spans",
    "build_index",
    "corpus_stats",
    "evaluate",
    "f1",
    "grid_search",
    "items_to_corpus",
    "load_embeddings",
    "load_model",
    "parse_rss",
    "read_corpus",
    "save_model",
    "spans_to_bio",
    "tag",
    "tokenize",
    "train",
    "windowed_attributes",
    "write_corpus",
]

__version__ = "0.1.0"
