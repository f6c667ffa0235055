"""Command-line entry point.

One executable with subcommands for the full workflow: ingest RSS
feeds, inspect corpus statistics, train, tag, evaluate, tune, and run
feature ablations.  Settings come from an optional flat `key = value`
configuration file; command-line flags override file values with a
warning.  Exit codes: 0 success, 1 validation or configuration error,
2 usage error.  All commands are deterministic: identical inputs and
flags produce identical bytes on stdout and in output files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

from .corpus import Corpus, corpus_stats, read_corpus, render_stats, write_corpus
from .crf import (
    TYPE_PARSERS,
    TrainConfig,
    field_parsers,
    load_model,
    save_model,
    tag,
    train,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, ValidationError
from .evaluation import evaluate, render_report_text, render_report_tsv
from .features import FeatureConfig
from .ingest import FeedItem, items_to_corpus, parse_rss
from .tune import (
    GridSpec,
    ablate,
    grid_search,
    render_ablation_text,
    render_ablation_tsv,
    render_tune_text,
    render_tune_tsv,
)


@dataclass(frozen=True)
class RunConfig:
    """Every setting a subcommand can take, file- or flag-sourced.

    The feature and training keys are the fields of `features` and
    `training`.
    """

    train_corpus: str | None = None
    dev_corpus: str | None = None
    test_corpus: str | None = None
    embeddings: str | None = None
    model: str | None = None
    output_dir: str | None = None
    ignore_other: bool = False
    # grid search
    c1_values: tuple[float, ...] = GridSpec.c1_values
    c2_values: tuple[float, ...] = GridSpec.c2_values
    scaling_values: tuple[float, ...] = GridSpec.scaling_values
    embedding_tables: tuple[str, ...] = ("none",)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


_parse_int = TYPE_PARSERS["int"]
_parse_float = TYPE_PARSERS["float"]


def _parse_path(raw: str) -> str | None:
    return None if raw == "none" else raw


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValidationError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


def _parse_str_list(raw: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValidationError("expected a comma-separated list")
    return tuple(parts)


_PATH_KEYS = (
    "train_corpus",
    "dev_corpus",
    "test_corpus",
    "embeddings",
    "model",
    "output_dir",
)

_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    **{key: _parse_path for key in _PATH_KEYS},
    "ignore_other": TYPE_PARSERS["bool"],
    **field_parsers(FeatureConfig),
    **field_parsers(TrainConfig),
    "c1_values": _parse_float_list,
    "c2_values": _parse_float_list,
    "scaling_values": _parse_float_list,
    "embedding_tables": _parse_str_list,
}


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat `key = value` configuration file.

    Blank lines and lines starting with # are skipped.  Unknown keys,
    duplicate keys, and unparseable values are errors naming the line.
    """
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(
                    f"{path}:{lineno}: expected `key = value`, got {line!r}"
                )
            key = key.strip()
            value = value.strip()
            if key not in _KEY_PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _KEY_PARSERS[key](value)
            except ValidationError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: bad value for {key!r}: {exc}"
                ) from None
    return values


def build_run_config(
    config_path: str | None, flag_values: dict[str, object]
) -> RunConfig:
    """Merge defaults, config file, and flags; flags win with a warning."""
    merged: dict[str, object] = {}
    file_values: dict[str, object] = {}
    if config_path is not None:
        _require_file(config_path, "config file")
        file_values = read_config_file(config_path)
        merged.update(file_values)
    for key, value in flag_values.items():
        if value is None:
            continue
        if key in file_values and file_values[key] != value:
            print(
                f"warning: flag value for {key} overrides the config file",
                file=sys.stderr,
            )
        merged[key] = value
    features = _settings(FeatureConfig, merged)
    training = _settings(TrainConfig, merged)
    return RunConfig(features=features, training=training, **merged)


def _settings(cls: type, values: dict[str, object]) -> object:
    """`cls` built from the `values` that name its fields, taken out of `values`."""
    names = [f.name for f in fields(cls) if f.name in values]
    return cls(**{name: values.pop(name) for name in names})


def _require_file(path: str | None, what: str) -> str:
    if path is None:
        raise ConfigError(f"{what} is required")
    if not Path(path).is_file():
        raise ValidationError(f"{what} not found: {path}")
    return path


def _read_corpus_file(path: str, what: str) -> Corpus:
    _require_file(path, what)
    with open(path, encoding="utf-8") as stream:
        return read_corpus(stream, name=Path(path).stem)


def _load_table(path: str, what: str) -> EmbeddingTable:
    _require_file(path, what)
    with open(path, encoding="utf-8") as stream:
        return load_embeddings(stream, name=Path(path).stem)


def _embedding_table(config: RunConfig, used: bool) -> EmbeddingTable | None:
    return _load_table(config.embeddings, "embeddings file") if used else None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(text)


def _output_path(
    explicit: str | None, config: RunConfig, default_name: str, what: str
) -> str:
    if explicit is not None:
        return explicit
    if config.output_dir is not None:
        return str(Path(config.output_dir) / default_name)
    raise ConfigError(f"{what} is required (pass -o or set output_dir)")


def _flag_values(args: argparse.Namespace) -> dict[str, object]:
    return {
        key: value
        for key, value in vars(args).items()
        if key in _KEY_PARSERS and value is not None
    }


# --- subcommand handlers -------------------------------------------------

def _cmd_ingest(args: argparse.Namespace) -> int:
    items: list[FeedItem] = []
    skipped = 0
    for rss_path in args.rss:
        _require_file(rss_path, "rss file")
        with open(rss_path, "rb") as stream:
            file_items, file_skipped = parse_rss(stream)
        items.extend(file_items)
        skipped += file_skipped
    existing: list[str] = []
    previous: Corpus | None = None
    out = Path(args.output)
    if out.is_file():
        previous = _read_corpus_file(args.output, "existing output corpus")
        existing = list(previous.ids())
    corpus, summary = items_to_corpus(items, existing, name=out.stem)
    headlines = (previous.headlines if previous else ()) + corpus.headlines
    with open(args.output, "w", encoding="utf-8", newline="\n") as stream:
        write_corpus(Corpus(out.stem, headlines), stream)
    print(
        f"ingested {summary.added} headlines "
        f"({summary.duplicates} duplicates, {summary.collisions} id collisions, "
        f"{skipped} titleless items skipped)",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = _read_corpus_file(args.corpus, "corpus")
    sys.stdout.write(render_stats(corpus_stats(corpus), corpus.name))
    return 0


def _progress_logger(iteration: int, objective: float) -> None:
    print(f"iteration {iteration:>4}  objective {objective:.6f}", file=sys.stderr)


def _train_model(config: RunConfig):
    corpus = _read_corpus_file(config.train_corpus, "training corpus")
    return train(
        corpus,
        config.features,
        _embedding_table(config, config.features.embedding),
        config.training,
        ignore_other=config.ignore_other,
        progress=_progress_logger,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    config = build_run_config(args.config, _flag_values(args))
    out = _output_path(
        args.output or config.model, config, "model.crf", "model output path"
    )
    model = _train_model(config)
    diag = model.diagnostics
    if diag.line_search_failed:
        print(
            "warning: line search failed; kept the best iterate found",
            file=sys.stderr,
        )
    with open(out, "w", encoding="utf-8", newline="\n") as stream:
        save_model(model, stream)
    if diag.converged:
        status = "converged"
    elif diag.stalled:
        status = "stalled"
    elif diag.line_search_failed:
        status = "line search failed"
    else:
        status = "stopped at the iteration cap"
    print(
        f"trained {diag.iterations} iterations ({status}), "
        f"final objective {diag.final_objective:.6f}, "
        f"{model.n_features} attributes",
        file=sys.stderr,
    )
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    config = build_run_config(args.config, _flag_values(args))
    _require_file(args.model, "model file")
    with open(args.model, encoding="utf-8") as stream:
        model = load_model(stream)
    corpus = _read_corpus_file(args.corpus, "corpus")
    table = _embedding_table(config, model.feature_config.embedding)
    predicted = tag(model, corpus, table)
    with open(args.output, "w", encoding="utf-8", newline="\n") as stream:
        write_corpus(predicted, stream)
    print(f"tagged {len(predicted)} headlines", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = build_run_config(args.config, _flag_values(args))
    gold = _read_corpus_file(args.gold, "gold corpus")
    pred = _read_corpus_file(args.pred, "prediction corpus")
    report = evaluate(gold, pred, ignore_other=config.ignore_other)
    set_name = args.set_name or Path(args.gold).stem
    if args.format == "tsv":
        sys.stdout.write(render_report_tsv(report, set_name))
    else:
        sys.stdout.write(render_report_text(report, set_name))
    return 0


def _grid_spec(config: RunConfig) -> GridSpec:
    tables: list[EmbeddingTable | None] = []
    for entry in config.embedding_tables:
        if entry == "none":
            tables.append(None)
        else:
            tables.append(_load_table(entry, "embedding table"))
    return GridSpec(
        c1_values=config.c1_values,
        c2_values=config.c2_values,
        scaling_values=config.scaling_values,
        embedding_tables=tuple(tables),
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    config = build_run_config(args.config, _flag_values(args))
    out = _output_path(args.output, config, "tune.tsv", "results output path")
    train_corpus = _read_corpus_file(config.train_corpus, "training corpus")
    dev_corpus = _read_corpus_file(config.dev_corpus, "development corpus")
    result = grid_search(
        train_corpus,
        dev_corpus,
        config.features,
        _grid_spec(config),
        config.training,
        jobs=args.jobs,
    )
    _write_text(out, render_tune_tsv(result))
    sys.stdout.write(render_tune_text(result))
    failed = [r for r in result.results if r.failed]
    for r in failed:
        point = r.point
        print(
            f"failed: c1={point.c1} c2={point.c2} scaling={point.scaling} "
            f"embedding={point.embedding_name}: {r.error}",
            file=sys.stderr,
        )
    best = result.best.point
    print(
        f"swept {len(result.results)} grid points ({len(failed)} failed); "
        f"best c1={best.c1} c2={best.c2} scaling={best.scaling} "
        f"embedding={best.embedding_name}",
        file=sys.stderr,
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = build_run_config(args.config, _flag_values(args))
    out = _output_path(args.output, config, "ablation.tsv", "results output path")
    train_corpus = _read_corpus_file(config.train_corpus, "training corpus")
    dev_corpus = _read_corpus_file(config.dev_corpus, "development corpus")
    result = ablate(
        train_corpus,
        dev_corpus,
        config.features,
        config.training,
        embeddings=_embedding_table(config, config.features.embedding),
        jobs=args.jobs,
    )
    _write_text(out, render_ablation_tsv(result))
    sys.stdout.write(render_ablation_text(result))
    failed = [r for r in result.rows if r.failed]
    for r in failed:
        print(f"failed: {r.name}: {r.error}", file=sys.stderr)
    print(
        f"ablated {len(result.rows) - 1} families ({len(failed)} failed runs)",
        file=sys.stderr,
    )
    return 0


# --- parser construction -------------------------------------------------

def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", help="path to a key = value config file")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train", dest="train_corpus", help="training corpus TSV")
    parser.add_argument("--embeddings", help="word embedding table (word2vec text)")
    parser.add_argument(
        "--c1", type=_parse_float, help="L1 regularization coefficient"
    )
    parser.add_argument(
        "--c2", type=_parse_float, help="L2 regularization coefficient"
    )
    parser.add_argument(
        "--delta", type=_parse_float, help="relative-improvement stopping threshold"
    )
    parser.add_argument(
        "--period", type=_parse_int, help="iterations per improvement measurement"
    )
    parser.add_argument(
        "--max-iterations", type=_parse_int, help="optimizer iteration cap"
    )
    parser.add_argument(
        "--lbfgs-memory", type=_parse_int, help="quasi-Newton history size"
    )
    parser.add_argument(
        "--window-radius", type=_parse_int, help="attribute window radius"
    )
    parser.add_argument(
        "--embedding-scaling", type=_parse_float, help="embedding value multiplier"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borrowings",
        description=(
            "Train, tune, evaluate, and apply a linear-chain CRF that "
            "extracts unassimilated lexical borrowings from Spanish "
            "newspaper headlines."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="convert RSS 2.0 XML files to corpus TSV")
    p.add_argument("rss", nargs="+", help="RSS feed XML files")
    p.add_argument("-o", "--output", required=True, help="corpus TSV to write")
    p.set_defaults(handler=_cmd_ingest)

    p = commands.add_parser("stats", help="print corpus statistics")
    p.add_argument("corpus", help="corpus TSV file")
    p.set_defaults(handler=_cmd_stats)

    p = commands.add_parser("train", help="train a CRF model")
    _add_config_flag(p)
    p.add_argument("-o", "--output", help="model file to write")
    p.add_argument(
        "--ignore-other",
        dest="ignore_other",
        action="store_true",
        default=None,
        help="drop OTHER spans and train ENG-only",
    )
    _add_train_flags(p)
    p.set_defaults(handler=_cmd_train)

    p = commands.add_parser("tag", help="tag a corpus with a trained model")
    _add_config_flag(p)
    p.add_argument("-m", "--model", required=True, help="trained model file")
    p.add_argument("corpus", help="corpus TSV to tag")
    p.add_argument("-o", "--output", required=True, help="prediction TSV to write")
    p.add_argument("--embeddings", help="word embedding table (word2vec text)")
    p.set_defaults(handler=_cmd_tag)

    p = commands.add_parser("eval", help="score predictions against gold spans")
    _add_config_flag(p)
    p.add_argument("--gold", required=True, help="gold corpus TSV")
    p.add_argument("--pred", required=True, help="prediction corpus TSV")
    p.add_argument(
        "--ignore-other",
        dest="ignore_other",
        action="store_true",
        default=None,
        help="drop OTHER spans from both sides before scoring",
    )
    p.add_argument(
        "--format", choices=("text", "tsv"), default="text", help="report format"
    )
    p.add_argument("--set-name", help="set label in the report (default: gold stem)")
    p.set_defaults(handler=_cmd_eval)

    p = commands.add_parser("tune", help="grid-search hyperparameters on a dev set")
    _add_config_flag(p)
    p.add_argument("-o", "--output", help="ranked results TSV to write")
    p.add_argument("--dev", dest="dev_corpus", help="development corpus TSV")
    p.add_argument(
        "--jobs", type=_parse_int, default=1,
        help="worker processes for the distinct runs, forked with the POSIX "
        "fork start method; output is identical at any value (default 1)",
    )
    p.add_argument(
        "--c1-values", dest="c1_values", type=_parse_float_list,
        help="comma-separated c1 grid values",
    )
    p.add_argument(
        "--c2-values", dest="c2_values", type=_parse_float_list,
        help="comma-separated c2 grid values",
    )
    p.add_argument(
        "--scaling-values", dest="scaling_values", type=_parse_float_list,
        help="comma-separated embedding scaling grid values",
    )
    p.add_argument(
        "--embedding-tables", dest="embedding_tables", type=_parse_str_list,
        help="comma-separated embedding table paths, `none` for no embeddings",
    )
    _add_train_flags(p)
    p.set_defaults(handler=_cmd_tune)

    p = commands.add_parser(
        "ablate", help="re-train with one feature family off at a time"
    )
    _add_config_flag(p)
    p.add_argument("-o", "--output", help="ablation table TSV to write")
    p.add_argument("--dev", dest="dev_corpus", help="development corpus TSV")
    p.add_argument(
        "--jobs", type=_parse_int, default=1,
        help="worker processes for the runs, forked with the POSIX fork start "
        "method; output is identical at any value (default 1)",
    )
    _add_train_flags(p)
    p.set_defaults(handler=_cmd_ablate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValidationError, ConfigError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
