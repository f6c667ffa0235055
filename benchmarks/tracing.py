"""Span recorder for the traced benchmark run.

Wraps the package's public callables from outside: each wrapper records
a span (name, start, end, parent, thread) around the call and bumps
counters at the same boundary.  A function imported with `from … import`
is bound in several module namespaces, so every binding of the original
function object is replaced, and restored on uninstall.  The parent span
is tracked per thread; a span opened on a worker thread with no open
span of its own gets the innermost open span of the thread that made
the recorder as parent, which is the call that started the workers.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, str, float, int | None]:
        stack = self._stack()
        origin = stack or self._main
        parent = origin[-1] if origin else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, name, time.perf_counter(), parent

    def close(self, token: tuple[int, str, float, int | None]) -> None:
        end = time.perf_counter()
        span_id, name, start, parent = token
        self._stack().pop()
        self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def value(self, name: str, v: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(v)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap when they ran on different threads; the union
    counts covered time once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def _modules():
    return [m for name, m in sys.modules.items() if name == "borrowings" or name.startswith("borrowings.")]


class Tracer:
    """Installs and removes the wrappers that feed one Recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, original, span_name: str, after=None):
        rec = self.recorder

        def wrapper(*args, **kwargs):
            token = rec.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(token)
            if after is not None:
                after(rec, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def function(self, module: str, attr: str, span_name: str, after=None) -> None:
        """Wrap every binding of `module.attr` across the package."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, span_name, after)
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def method(self, cls: type, attr: str, span_name: str, after=None) -> None:
        """Wrap a method on its class."""
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, span_name, after))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


# --- counter hooks ----------------------------------------------------------

def _after_read(rec, args, corpus):
    rec.count("corpus.tokens", sum(len(h) for h in corpus))


def _after_lookup(rec, args, vec):
    table, word = args[0], args[1]
    if word in table.vectors or word.lower() in table.vectors:
        rec.count("embeddings.hits")


def _after_windowed(rec, args, vectors):
    rec.count("features.tokens", len(vectors))
    rec.count("features.attrs", sum(len(v) for v in vectors))


def _after_encode(rec, args, result):
    dataset = result[0]
    rec.value("crf.n_attributes", dataset.n_features)
    rec.value("crf.n_parameters", dataset.n_parameters)


def _after_minimize(rec, args, result):
    rec.count("optim.iterations", result.iterations)


def _after_grid(rec, args, result):
    rec.count("tune.points", len(result.results))
    rec.count("tune.points_failed", sum(1 for r in result.results if r.failed))


def install(recorder: Recorder) -> Tracer:
    """Wrap every layer boundary the per-layer metrics need."""
    from borrowings import crf, embeddings

    tracer = Tracer(recorder)
    tracer.function("borrowings.corpus", "read_corpus", "corpus.read", _after_read)
    tracer.function("borrowings.corpus", "write_corpus", "corpus.write")
    tracer.function("borrowings.embeddings", "load_embeddings", "embeddings.load")
    tracer.method(embeddings.EmbeddingTable, "lookup", "embeddings.lookup", _after_lookup)
    tracer.function("borrowings.features", "windowed_attributes", "features.windowed", _after_windowed)
    tracer.function("borrowings.crf", "encode_training_set", "crf.encode", _after_encode)
    tracer.method(crf.TrainingSet, "nll_and_gradient", "crf.objective")
    tracer.function("borrowings.optim", "minimize", "optim.minimize", _after_minimize)
    tracer.function("borrowings.crf", "train", "crf.train")
    tracer.function("borrowings.crf", "tag", "crf.tag")
    tracer.function("borrowings.crf", "load_model", "crf.load_model")
    tracer.function("borrowings.crf", "save_model", "crf.save_model")
    tracer.function("borrowings.evaluation", "evaluate", "evaluation.evaluate")
    tracer.function("borrowings.tune", "grid_search", "tune.grid_search", _after_grid)
    return tracer


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by linear interpolation (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s") or "_s_" in metric:
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_share", "_ratio", "concurrency", "_per_token", "_per_iteration")):
        return "ratio"
    return "count"


def _under(span: Span, by_id: dict[int, Span], name: str) -> bool:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def _tune_points(spans: list[Span], by_id: dict[int, Span]) -> list[float]:
    """Per-point wall times of a grid search.

    A point runs train, tag and evaluate in turn on one thread; it lasts
    from the start of its `crf.train` span to the end of the next
    `evaluation.evaluate` span on that thread.
    """
    per_thread: dict[int, list[Span]] = {}
    for span in spans:
        if span.name in ("crf.train", "evaluation.evaluate") and _under(span, by_id, "tune.grid_search"):
            per_thread.setdefault(span.thread, []).append(span)
    points = []
    for thread_spans in per_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        start = None
        for span in thread_spans:
            if span.name == "crf.train" and start is None:
                start = span.start
            elif span.name == "evaluation.evaluate" and start is not None:
                points.append(span.end - start)
                start = None
    return points


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work lasting `wall_s`."""
    spans = rec.spans
    selfs = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for span in spans:
        total[span.name] += span.duration
        self_total[span.name] += selfs[span.id]
        durations.setdefault(span.name, []).append(span.duration)
    calls = {name: len(d) for name, d in durations.items()}
    c = rec.counts
    objective_ms = [1000 * d for d in durations.get("crf.objective", [])]
    by_id = {s.id: s for s in spans}
    points = _tune_points(spans, by_id)
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "corpus.read_s": total["corpus.read"],
        "corpus.write_s": total["corpus.write"],
        "corpus.tokens": c["corpus.tokens"],
        "embeddings.load_s": total["embeddings.load"],
        "embeddings.lookups": calls.get("embeddings.lookup", 0),
        "embeddings.hit_ratio": ratio(c["embeddings.hits"], calls.get("embeddings.lookup", 0)),
        "features.windowed_s": total["features.windowed"],
        "features.windowed_calls": calls.get("features.windowed", 0),
        "features.attrs_per_token": ratio(c["features.attrs"], c["features.tokens"]),
        "features.windowed_share": ratio(total["features.windowed"], wall_s),
        "crf.encode_s": total["crf.encode"],
        "crf.encode_self_s": self_total["crf.encode"],
        "crf.encode_calls": calls.get("crf.encode", 0),
        "crf.n_attributes": max(rec.values.get("crf.n_attributes", [0])),
        "crf.n_parameters": max(rec.values.get("crf.n_parameters", [0])),
        "crf.objective_calls": calls.get("crf.objective", 0),
        "crf.objective_s": total["crf.objective"],
        "crf.objective_share": ratio(total["crf.objective"], wall_s),
        "crf.objective_ms_p50": quantile(objective_ms, 50),
        "crf.objective_ms_p90": quantile(objective_ms, 90),
        "optim.iterations": c["optim.iterations"],
        "optim.evals_per_iteration": ratio(calls.get("crf.objective", 0), c["optim.iterations"]),
        "optim.self_s": self_total["optim.minimize"],
        "crf.tag_s": total["crf.tag"],
        "crf.tag_self_s": self_total["crf.tag"],
        "crf.load_model_s": total["crf.load_model"],
        "crf.save_model_s": total["crf.save_model"],
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "tune.points": c["tune.points"],
        "tune.points_failed": c["tune.points_failed"],
        "tune.train_calls": sum(
            1 for s in spans if s.name == "crf.train" and _under(s, by_id, "tune.grid_search")
        ),
        "tune.point_s_p50": quantile(points, 50),
        "tune.concurrency": ratio(sum(points), wall_s),
    }

