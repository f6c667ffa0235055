"""Grid-search hyperparameter tuning and one-at-a-time feature ablation.

Both harnesses train on the training corpus, score ENG span F1 on the
development corpus, and ignore OTHER spans throughout.  Grid points run
independently (optionally in parallel) and results are merged in
grid-enumeration order, so output is deterministic for any job count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Sequence

from .crf import TrainConfig, tag, train
from .corpus import Corpus
from .embeddings import EmbeddingTable
from .errors import ConfigError
from .evaluation import EvalReport, evaluate
from .features import FeatureConfig
from .rounding import fmt2, round2


@dataclass(frozen=True)
class GridSpec:
    """Sweep values for the four tuned hyperparameters.

    `embedding_tables` entries are loaded tables or None for "no
    embedding feature"; list order is the tie-break order.
    """

    c1_values: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0)
    c2_values: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0)
    scaling_values: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    embedding_tables: tuple[EmbeddingTable | None, ...] = (None,)

    def __post_init__(self) -> None:
        if not (self.c1_values and self.c2_values and self.scaling_values):
            raise ConfigError("grid value lists must be non-empty")
        if not self.embedding_tables:
            raise ConfigError("embedding table list must be non-empty")
        if any(v < 0 for v in self.c1_values + self.c2_values):
            raise ConfigError("c1 and c2 grid values must be >= 0")
        if any(not v > 0 for v in self.scaling_values):
            raise ConfigError("scaling grid values must be positive")

    def size(self) -> int:
        return (
            len(self.c1_values)
            * len(self.c2_values)
            * len(self.scaling_values)
            * len(self.embedding_tables)
        )


@dataclass(frozen=True)
class GridPoint:
    """One hyperparameter combination, with its embedding list position."""

    c1: float
    c2: float
    scaling: float
    embedding_index: int
    embedding_name: str


@dataclass(frozen=True)
class GridResult:
    """Outcome of one grid point: a report or a failure note."""

    point: GridPoint
    report: EvalReport | None
    iterations: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None

    @property
    def eng_f1(self) -> float:
        return self.report.score("ENG").f1 if self.report else 0.0


def _rank_key(result: GridResult) -> tuple:
    point = result.point
    return (
        result.failed,
        -result.eng_f1,
        point.c1,
        point.c2,
        point.scaling,
        point.embedding_index,
    )


@dataclass(frozen=True)
class TuneResult:
    """All grid outcomes in enumeration order plus the ranking."""

    results: tuple[GridResult, ...]
    ranked: tuple[GridResult, ...]

    @property
    def best(self) -> GridResult:
        return self.ranked[0]


def _run_points(
    runner: Callable,
    points: Sequence,
    jobs: int,
) -> list:
    if jobs <= 1:
        return [runner(point) for point in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(runner, points))


def grid_search(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    config: FeatureConfig,
    grid: GridSpec,
    train_config: TrainConfig,
    jobs: int = 1,
) -> TuneResult:
    """Train and score every grid point, ranking by dev ENG F1.

    Ties rank by smaller c1, then c2, then scaling, then embedding list
    order.  A point whose training, tagging or scoring raises a
    ValueError or ArithmeticError (bad data or config, divergence) is
    marked failed, with the error, and ranked last; the sweep goes on.
    The grid's embedding dimension decides whether the embedding family
    is on, overriding `config`.
    """
    points = [
        (c1, c2, scaling, idx, table)
        for c1 in grid.c1_values
        for c2 in grid.c2_values
        for scaling in grid.scaling_values
        for idx, table in enumerate(grid.embedding_tables)
    ]

    def run(args) -> GridResult:
        c1, c2, scaling, idx, table = args
        point = GridPoint(
            c1=c1,
            c2=c2,
            scaling=scaling,
            embedding_index=idx,
            embedding_name=table.name if table is not None else "none",
        )
        cfg = dataclasses.replace(
            config, embedding=table is not None, embedding_scaling=scaling
        )
        tc = dataclasses.replace(train_config, c1=c1, c2=c2)
        try:
            model = train(train_corpus, cfg, table, tc, ignore_other=True)
            predicted = tag(model, dev_corpus, table)
            report = evaluate(dev_corpus, predicted, ignore_other=True)
            iterations = model.diagnostics.iterations
        except (ValueError, ArithmeticError) as exc:
            # ValidationError, ConfigError and DivergenceError fail only
            # this point; anything else is a bug and aborts the sweep.
            return GridResult(point=point, report=None, iterations=0, error=str(exc))
        return GridResult(point=point, report=report, iterations=iterations)

    results = tuple(_run_points(run, points, jobs))
    ranked = tuple(sorted(results, key=_rank_key))
    return TuneResult(results=results, ranked=ranked)


@dataclass(frozen=True)
class AblationRow:
    """Scores for one feature configuration in the ablation table."""

    name: str
    report: EvalReport | None
    iterations: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None


@dataclass(frozen=True)
class AblationTable:
    """The all-features row followed by one row per disabled family."""

    rows: tuple[AblationRow, ...]

    @property
    def baseline(self) -> AblationRow:
        return self.rows[0]

    def delta_f1(self, row: AblationRow) -> Decimal | None:
        """Rounded-F1 difference against the all-features row."""
        if row.failed or self.baseline.failed:
            return None
        return round2(row.report.score("ENG").f1) - round2(
            self.baseline.report.score("ENG").f1
        )


def ablate(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    config: FeatureConfig,
    train_config: TrainConfig,
    embeddings: EmbeddingTable | None = None,
    jobs: int = 1,
) -> AblationTable:
    """Score the full config and every one-family-off variant.

    Rows appear as `all` first, then `-<family>` in the declaration
    order of the enabled families.
    """
    variants: list[tuple[str, FeatureConfig]] = [("all", config)]
    for family in config.enabled_families():
        variants.append((f"-{family}", config.without(family)))

    def run(args) -> AblationRow:
        name, cfg = args
        try:
            model = train(
                train_corpus,
                cfg,
                embeddings if cfg.embedding else None,
                train_config,
                ignore_other=True,
            )
            predicted = tag(
                model, dev_corpus, embeddings if cfg.embedding else None
            )
            report = evaluate(dev_corpus, predicted, ignore_other=True)
            iterations = model.diagnostics.iterations
        except (ValueError, ArithmeticError) as exc:  # as in grid_search
            return AblationRow(name=name, report=None, iterations=0, error=str(exc))
        return AblationRow(name=name, report=report, iterations=iterations)

    return AblationTable(rows=tuple(_run_points(run, variants, jobs)))


def _format_value(value: float) -> str:
    return repr(float(value))


def _point_cells(result: GridResult) -> list[str]:
    point = result.point
    if result.failed:
        scores = ["failed", "failed", "failed"]
    else:
        eng = result.report.score("ENG")
        scores = [fmt2(eng.precision), fmt2(eng.recall), fmt2(eng.f1)]
    return [
        _format_value(point.c1),
        _format_value(point.c2),
        _format_value(point.scaling),
        point.embedding_name,
        *scores,
        str(result.iterations),
    ]


_TUNE_HEADER = [
    "c1",
    "c2",
    "scaling",
    "embedding",
    "precision",
    "recall",
    "f1",
    "iterations",
]


def render_tune_tsv(result: TuneResult) -> str:
    """Ranked grid results as TSV, best configuration first."""
    lines = ["\t".join(_TUNE_HEADER)]
    for row in result.ranked:
        lines.append("\t".join(_point_cells(row)))
    return "\n".join(lines) + "\n"


def render_tune_text(result: TuneResult) -> str:
    """Ranked grid results as an aligned table."""
    rows = [_TUNE_HEADER] + [_point_cells(row) for row in result.ranked]
    widths = [max(len(r[i]) for r in rows) for i in range(len(_TUNE_HEADER))]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


def _ablation_cells(table: AblationTable, row: AblationRow) -> list[str]:
    if row.failed:
        return [row.name, "failed", "failed", "failed", ""]
    eng = row.report.score("ENG")
    delta = table.delta_f1(row)
    delta_cell = "" if row is table.baseline else f"{delta:+.2f}"
    return [
        row.name,
        fmt2(eng.precision),
        fmt2(eng.recall),
        fmt2(eng.f1),
        delta_cell,
    ]


_ABLATION_HEADER = ["features", "precision", "recall", "f1", "f1_change"]


def render_ablation_tsv(table: AblationTable) -> str:
    lines = ["\t".join(_ABLATION_HEADER)]
    for row in table.rows:
        lines.append("\t".join(_ablation_cells(table, row)))
    return "\n".join(lines) + "\n"


def render_ablation_text(table: AblationTable) -> str:
    rows = [_ABLATION_HEADER] + [_ablation_cells(table, row) for row in table.rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(_ABLATION_HEADER))]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"
