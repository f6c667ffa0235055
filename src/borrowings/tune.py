"""Grid-search hyperparameter tuning and one-at-a-time feature ablation.

Both harnesses train on the training corpus, score ENG span F1 on the
development corpus, and ignore OTHER spans throughout.  Each distinct
configuration is trained once, even when several grid points name it:
without an embedding table the scaling value changes nothing, so the
points that differ only in scaling share one run.

A sweep encodes its corpora once per embedding table
(`crf.SharedEncoding`), and every run derives its own encoding from
that one: c1 and c2 points share it unchanged, scaling points rescale
the embedding entries, and points without a table, like ablation rows,
mask families out.  With `jobs` above 1 the runs are shared round-robin
among worker processes forked from the calling process (the POSIX
`fork` start method), which inherit the encodings and send back only
their scores; the calling process is one of the workers.  Results are
merged in enumeration order, so output is identical for any job count.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Sequence

from .crf import SharedEncoding, TrainConfig, fit, tag_encoded
from .corpus import Corpus
from .embeddings import EmbeddingTable
from .errors import ConfigError
from .evaluation import EvalReport, evaluate
from .features import FAMILIES, FeatureConfig
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
        if not all(0 <= v < math.inf for v in self.c1_values + self.c2_values):
            raise ConfigError("c1 and c2 grid values must be finite and >= 0")
        if not all(0 < v < math.inf for v in self.scaling_values):
            raise ConfigError("scaling grid values must be finite and positive")

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


# One training run: feature config, embedding table, optimizer settings.
_Job = tuple[FeatureConfig, EmbeddingTable | None, TrainConfig]
_Outcome = tuple[EvalReport | None, int, str | None]


def _run_jobs(
    train_corpus: Corpus, dev_corpus: Corpus, jobs: Sequence[_Job], workers: int
) -> list[_Outcome]:
    """(dev report, iterations, error) of every job, in job order.

    Each distinct job is trained, tagged and scored once, by one of at
    most `workers` processes.  A run that raises a ValueError or
    ArithmeticError fails alone, with no report; any other exception
    is a bug and aborts every run.
    """
    if workers < 1:
        raise ConfigError(f"jobs must be >= 1, got {workers}")
    distinct = list(dict.fromkeys(jobs))
    sources = _shared_encodings(train_corpus, dev_corpus, distinct)

    def run(i: int) -> _Outcome:
        config, _, train_config = distinct[i]
        source = sources[i]
        if isinstance(source, Exception):
            return None, 0, str(source)
        try:
            dataset, index, dev = source.derive(config)
            model = fit(dataset, index, source.alphabet, config, train_config)
            predicted = tag_encoded(model, dev_corpus, dev)
            report = evaluate(dev_corpus, predicted, ignore_other=True)
        except (ValueError, ArithmeticError) as exc:
            return None, 0, str(exc)
        return report, model.diagnostics.iterations, None

    outcomes = _fork_map(run, len(distinct), min(workers, len(distinct)))
    by_job = dict(zip(distinct, outcomes))
    return [by_job[job] for job in jobs]


def _shared_encodings(
    train_corpus: Corpus, dev_corpus: Corpus, jobs: Sequence[_Job]
) -> list[SharedEncoding | Exception]:
    """Each job's shared encoding, or the error that building it raised.

    There is one per embedding table.  Jobs without a table use the
    first table's, with the embedding family masked out, and get one of
    their own only when no job has a table.  Each enables every family
    its jobs enable.
    """
    first = next((table for _, table, _ in jobs if table is not None), None)
    # A job that enables the embedding family without a table fails in
    # `derive`, so it needs a shared encoding without one.
    keys = [
        first if table is None and not config.embedding else table
        for config, table, _ in jobs
    ]
    groups: dict[EmbeddingTable | None, list[FeatureConfig]] = {}
    for key, (config, _, _) in zip(keys, jobs):
        groups.setdefault(key, []).append(config)
    shared: dict[EmbeddingTable | None, SharedEncoding | Exception] = {}
    for table, configs in groups.items():
        enabled = {f for config in configs for f in config.enabled_families()}
        families = {f: f in enabled for f in FAMILIES}
        families["embedding"] = table is not None
        try:
            base = dataclasses.replace(configs[0], **families)
            shared[table] = SharedEncoding(
                train_corpus, dev_corpus, base, table, ignore_other=True
            )
        except (ValueError, ArithmeticError) as exc:
            shared[table] = exc
    return [shared[key] for key in keys]


def _fork_map(run: Callable[[int], _Outcome], n: int, workers: int) -> list[_Outcome]:
    """[run(i) for i in range(n)], shared among `workers` processes.

    Worker w runs i = w, w + workers, ...; worker 0 is the calling
    process and the others are forked from it, so they inherit
    everything built before the call instead of receiving it pickled.
    (A fork copies only the forking thread; the package starts no
    other.)  An exception that escapes `run` in any worker is raised
    here, as is the exit of a worker that sent nothing back.
    """
    if workers == 1:
        return [run(i) for i in range(n)]
    # Imported here, so commands that never fork do not pay for it
    # (about 10 ms and 0.6 MB).
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for w in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_serve, args=(run, range(w, n, workers), sender)
            )
            child.start()
            sender.close()
            children.append((child, receiver))
        outcomes: list = [None] * n
        outcomes[0::workers] = [run(i) for i in range(0, n, workers)]
        for w, (child, receiver) in enumerate(children, start=1):
            try:
                received = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"worker process {w} exited with code {child.exitcode}"
                ) from None
            if isinstance(received, Exception):
                raise received
            outcomes[w::workers] = received
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return outcomes


def _serve(run: Callable[[int], _Outcome], indices: range, sender) -> None:
    """A forked worker's body: send back its outcomes, or what aborted them."""
    try:
        result = [run(i) for i in indices]
    except Exception as exc:  # re-raised by the calling process
        result = exc
    sender.send(result)
    sender.close()


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
    is on, overriding `config`.  `jobs` (at least 1) caps the worker
    processes.
    """
    points: list[GridPoint] = []
    runs: list[_Job] = []
    tables = enumerate(grid.embedding_tables)
    for c1, c2, scaling, (idx, table) in itertools.product(
        grid.c1_values, grid.c2_values, grid.scaling_values, tables
    ):
        name = "none" if table is None else table.name
        points.append(GridPoint(c1, c2, scaling, idx, name))
        # Scaling changes nothing without a table, so there it keeps the
        # config's value and points that differ only in scaling share a run.
        if table is not None:
            cfg = dataclasses.replace(config, embedding=True, embedding_scaling=scaling)
        else:
            cfg = dataclasses.replace(config, embedding=False)
        runs.append((cfg, table, dataclasses.replace(train_config, c1=c1, c2=c2)))
    outcomes = _run_jobs(train_corpus, dev_corpus, runs, jobs)
    results = tuple(GridResult(p, *outcome) for p, outcome in zip(points, outcomes))
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
    order of the enabled families.  `jobs` (at least 1) caps the worker
    processes.
    """
    variants: list[tuple[str, FeatureConfig]] = [("all", config)]
    for family in config.enabled_families():
        variants.append((f"-{family}", config.without(family)))
    runs = [
        (cfg, embeddings if cfg.embedding else None, train_config)
        for _, cfg in variants
    ]
    outcomes = _run_jobs(train_corpus, dev_corpus, runs, jobs)
    return AblationTable(
        rows=tuple(AblationRow(name, *o) for (name, _), o in zip(variants, outcomes))
    )


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


def _tsv(header: list[str], rows: list[list[str]]) -> str:
    return "".join("\t".join(row) + "\n" for row in [header, *rows])


def _aligned(header: list[str], rows: list[list[str]]) -> str:
    """Rows as columns padded to their widest cell, two spaces apart."""
    rows = [header, *rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        + "\n"
        for row in rows
    )


def render_tune_tsv(result: TuneResult) -> str:
    """Ranked grid results as TSV, best configuration first."""
    return _tsv(_TUNE_HEADER, [_point_cells(row) for row in result.ranked])


def render_tune_text(result: TuneResult) -> str:
    """Ranked grid results as an aligned table."""
    return _aligned(_TUNE_HEADER, [_point_cells(row) for row in result.ranked])


def _ablation_cells(table: AblationTable, row: AblationRow) -> list[str]:
    if row.failed:
        return [row.name, "failed", "failed", "failed", ""]
    eng = row.report.score("ENG")
    # No change is shown for the baseline itself, or when it failed.
    delta = None if row is table.baseline else table.delta_f1(row)
    delta_cell = "" if delta is None else f"{delta:+.2f}"
    return [
        row.name,
        fmt2(eng.precision),
        fmt2(eng.recall),
        fmt2(eng.f1),
        delta_cell,
    ]


_ABLATION_HEADER = ["features", "precision", "recall", "f1", "f1_change"]


def render_ablation_tsv(table: AblationTable) -> str:
    return _tsv(_ABLATION_HEADER, [_ablation_cells(table, row) for row in table.rows])


def render_ablation_text(table: AblationTable) -> str:
    return _aligned(
        _ABLATION_HEADER, [_ablation_cells(table, row) for row in table.rows]
    )
