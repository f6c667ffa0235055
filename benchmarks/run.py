"""End-to-end benchmark of the borrowings toolkit.

Run from the repository root:

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Each workload drives the `borrowings` command in-process through
`borrowings.cli.run`, one call after another (a closed loop with one
client), on inputs generated from the seed.  `--trace 0` times the
calls and prints the end-to-end metrics; `--trace 1` alternates
untraced and traced units of work and prints the per-layer metrics
plus the tracing overhead.  `--workload all` runs every workload, each
in a fresh process.  The last line of standard output is one JSON
object; the exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import os

# Set before numpy is imported, so `tune --jobs <nproc>` is the only
# source of threads.
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARIABLES:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("train", "tag-feeds", "tune-grid")
# Set-up repeats at least this often and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
# Reference works timed before and after each set-up repetition, and the
# nominal time of one reference work that set-up times are rescaled to
# (it took 1.1-2.4 ms on the 2-vCPU machine the benchmark was written on).
SETUP_REFERENCE_REPEATS = 50
REFERENCE_WORK_S = 0.002
MIN_UNITS = 2
# Training settings shared by every workload.  The iteration cap fixes
# the optimizer's work per training, so the timed work does not depend
# on how fast a particular seed's corpus converges.
C1, C2 = "0.05", "0.01"
MAX_ITERATIONS = {"train": "30", "tag-feeds": "40", "tune-grid": "20"}
CANARY_SEED = 20260101
CANARY_FEEDS = 10


class Program:
    """The package under test, imported from `src/` of the checkout."""

    def __init__(self, root: Path) -> None:
        src = root / "src"
        if not (src / "borrowings" / "__init__.py").is_file():
            raise SystemExit(
                f"error: {src}/borrowings not found; run from the repository root"
            )
        self.root = root
        sys.path.insert(0, str(src))
        import borrowings
        import borrowings.cli
        self.package = borrowings
        self._devnull = open(os.devnull, "w")

    def import_seconds(self) -> float:
        """Wall time of `import borrowings.cli` in a fresh interpreter."""
        code = (
            "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
            "import borrowings.cli; print(time.perf_counter() - start)"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, capture_output=True, text=True, check=True
        )
        return float(child.stdout)

    def run(self, *argv: str) -> int:
        """One `borrowings` command, its console output discarded."""
        with contextlib.redirect_stdout(self._devnull), contextlib.redirect_stderr(self._devnull):
            return self.package.cli.run(list(argv))


# --- reading outputs, independently of the program ------------------------

def read_tags(path: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """(id, [(token, tag)]) per headline of a corpus TSV."""
    headlines = []
    for block in Path(path).read_text(encoding="utf-8").split("\n\n"):
        lines = [line for line in block.splitlines() if line]
        if not lines:
            continue
        hid = lines[0].split("=", 1)[1].strip()
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        headlines.append((hid, [(r[0], r[2]) for r in rows]))
    return headlines


def eng_spans(tags: list[str]) -> set[tuple[int, int]]:
    """Strict ENG spans of a BIO sequence; an I- without its B- starts none."""
    spans = set()
    start = None
    for i, tag in enumerate(tags + ["O"]):
        if start is not None and tag != "I-ENG":
            spans.add((start, i))
            start = None
        if tag == "B-ENG":
            start = i
    return spans


def eng_f1(gold_paths: list[str], pred_paths: list[str]) -> float:
    """Pooled exact-match ENG span F1 (percent); checks tokens agree."""
    tp = n_gold = n_pred = 0
    for gold_path, pred_path in zip(gold_paths, pred_paths):
        gold, pred = read_tags(gold_path), read_tags(pred_path)
        if [(h, [t for t, _ in rows]) for h, rows in gold] != [
            (h, [t for t, _ in rows]) for h, rows in pred
        ]:
            raise ValueError(f"{pred_path}: headlines or tokens differ from the input")
        for (_, g), (_, p) in zip(gold, pred):
            gs, ps = eng_spans([t for _, t in g]), eng_spans([t for _, t in p])
            tp += len(gs & ps)
            n_gold += len(gs)
            n_pred += len(ps)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return 200 * precision * recall / (precision + recall) if tp else 0.0


def predictions_digest(pred_paths: list[str]) -> str:
    """SHA-256 of every headline's id and predicted tags, in order."""
    text = "\n".join(
        hid + "\t" + " ".join(tag for _, tag in rows)
        for path in pred_paths for hid, rows in read_tags(path)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_attributes(model_path: str) -> int:
    with open(model_path, encoding="utf-8") as stream:
        for line in stream:
            if line.startswith("attributes\t"):
                return int(line.split("\t")[1])
    raise ValueError(f"{model_path}: no attribute count")


def round_trip_problems(program: Program, model_path: str) -> list[str]:
    """A saved model must load and save back to the same bytes."""
    text = Path(model_path).read_text(encoding="utf-8")
    model = program.package.load_model(io.StringIO(text))
    again = io.StringIO()
    program.package.save_model(model, again)
    return [] if again.getvalue() == text else [f"{model_path}: save(load(model)) differs"]


def same_model(a, b) -> bool:
    """Equal labels, attribute names, configs and weights, bit for bit."""
    import numpy

    return (
        a.alphabet.tags == b.alphabet.tags
        and a.index.names() == b.index.names()
        and a.feature_config == b.feature_config
        and a.train_config == b.train_config
        and all(numpy.array_equal(getattr(a, w), getattr(b, w)) for w in ("state", "transition", "start", "end"))
    )


# --- workloads -------------------------------------------------------------

def reference_work() -> None:
    """A fixed mix of interpreter and small-array work, about 2 ms."""
    import numpy

    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"w={i % 97}"
        counts[key] = counts.get(key, 0) + 1
    table = numpy.linspace(-1.0, 1.0, 50).reshape(10, 5)
    for _ in range(60):
        numpy.logaddexp.reduce(table[:, :, None] + table[:, None, :], axis=1)


def reference_seconds(threads: int, repeats: int) -> float:
    """Wall time of `repeats` reference works on each of `threads` threads."""
    start = time.perf_counter()
    if threads == 1:
        for _ in range(repeats):
            reference_work()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda _: [reference_work() for _ in range(repeats)], range(threads)))
    return time.perf_counter() - start


class Call(NamedTuple):
    """One timed `borrowings` call.

    `reference` is the mean time of the reference work run right before
    and right after the call, on as many threads as the call uses: it
    measures the machine's speed during the call.
    """

    seconds: float
    code: int
    reference: float
    tokens: int = 0
    traced: bool = False


class Workload:
    """Setup, one timed unit of work (a list of Calls), and the checks."""

    threads = 1
    reference_repeats = 40

    def __init__(self, program: Program, seed: int, work: Path, expected: dict) -> None:
        self.program = program
        self.seed = seed
        self.work = work
        self.expected = expected
        self.problems: list[str] = []

    def timed(self, *argv: str, tokens: int = 0) -> Call:
        before = reference_seconds(self.threads, self.reference_repeats)
        start = time.perf_counter()
        code = self.program.run(*argv)
        seconds = time.perf_counter() - start
        after = reference_seconds(self.threads, self.reference_repeats)
        return Call(seconds, code, (before + after) / 2, tokens)

    def check_f1(self, f1: float) -> float:
        floor = self.expected["f1_floor"][self.name]
        if not f1 >= floor:
            self.problems.append(f"ENG F1 {f1:.2f} is below the floor {floor}")
        return f1

    def score(self, gold: list[str], pred: list[str]) -> float:
        """Checked ENG F1 of prediction files; 0 if they are unreadable."""
        try:
            return self.check_f1(eng_f1(gold, pred))
        except (OSError, ValueError, IndexError) as exc:
            self.problems.append(f"bad predictions: {exc}")
            return 0.0


class Train(Workload):
    name = "train"
    unit_name = "train call"
    f1_name = "dev_eng_f1"

    def setup(self) -> dict:
        self.inputs = generate.generate(self.name, self.seed, self.work)
        return self.inputs["shape"]

    def unit(self):
        p = self.inputs["paths"]
        return [self.timed(
            "train", "--train", p["train"], "-o", str(self.work / "model.crf"),
            "--c1", C1, "--c2", C2, "--max-iterations", MAX_ITERATIONS[self.name],
        )]

    @staticmethod
    def wall_metrics(calls: list[Call]) -> dict:
        return {"train_s": (statistics.median(c.seconds for c in calls), "s")}

    def check(self) -> tuple[float, dict]:
        model, dev = str(self.work / "model.crf"), self.inputs["paths"]["dev"]
        self.problems += round_trip_problems(self.program, model)
        pred = str(self.work / "dev.pred.tsv")
        if self.program.run("tag", "-m", model, dev, "-o", pred) != 0:
            self.problems.append("tagging the dev set failed")
        return self.score([dev], [pred]), {"crf.n_attributes": model_attributes(model)}


class TagFeeds(Workload):
    name = "tag-feeds"
    unit_name = "tag call"
    f1_name = "feeds_eng_f1"
    reference_repeats = 1

    def setup(self) -> dict:
        package = self.program.package
        self.inputs = generate.generate(self.name, self.seed, self.work)
        with open(self.inputs["paths"]["train"], encoding="utf-8") as stream:
            corpus = package.read_corpus(stream, name="train")
        self.trained = package.train(
            corpus, package.FeatureConfig(), None,
            package.TrainConfig(c1=float(C1), c2=float(C2), max_iterations=int(MAX_ITERATIONS[self.name])),
        )
        self.model = str(self.work / "model.crf")
        with open(self.model, "w", encoding="utf-8", newline="\n") as stream:
            package.save_model(self.trained, stream)
        self.feed_tokens = [
            sum(len(rows) for _, rows in read_tags(path)) for path in self.inputs["paths"]["feeds"]
        ]
        return self.inputs["shape"]

    def pred_path(self, k: int) -> str:
        return str(self.work / f"pred-{k:03d}.tsv")

    def unit(self):
        return [
            self.timed("tag", "-m", self.model, feed, "-o", self.pred_path(k), tokens=tokens)
            for k, (feed, tokens) in enumerate(zip(self.inputs["paths"]["feeds"], self.feed_tokens))
        ]

    @staticmethod
    def wall_metrics(calls: list[Call]) -> dict:
        durations = [c.seconds for c in calls]
        return {
            "tag_tokens_per_s": (sum(c.tokens for c in calls) / sum(durations), "tok/s"),
            "tag_call_ms_p50": (1000 * tracing.quantile(durations, 50), "ms"),
            "tag_call_ms_p90": (1000 * tracing.quantile(durations, 90), "ms"),
        }

    def check(self) -> tuple[float, dict]:
        feeds = self.inputs["paths"]["feeds"]
        self.problems += round_trip_problems(self.program, self.model)
        with open(self.model, encoding="utf-8") as stream:
            loaded = self.program.package.load_model(stream)
        if not same_model(loaded, self.trained):
            self.problems.append("load_model(save_model(model)) differs from the trained model")
        f1 = self.score(feeds, [self.pred_path(k) for k in range(len(feeds))])
        # The canary: a committed model tags fixed generated feeds; its
        # predictions must match the recorded digest exactly.
        canary = generate.generate(self.name, CANARY_SEED, self.work / "canary")
        preds = []
        for k, feed in enumerate(canary["paths"]["feeds"][:CANARY_FEEDS]):
            preds.append(str(self.work / "canary" / f"pred-{k:03d}.tsv"))
            if self.program.run("tag", "-m", str(BENCH_DIR / "canary.crf"), feed, "-o", preds[-1]) != 0:
                self.problems.append(f"tagging canary feed {feed} failed")
                break
        else:
            digest = predictions_digest(preds)
            if digest != self.expected["canary_digest"]:
                self.problems.append(f"canary predictions digest {digest} does not match the recorded one")
        return f1, {"crf.n_attributes": model_attributes(self.model)}


class TuneGrid(Workload):
    name = "tune-grid"
    unit_name = "tune call"
    f1_name = "tune_best_f1"

    @property
    def threads(self) -> int:
        return nproc()

    def setup(self) -> dict:
        self.inputs = generate.generate(self.name, self.seed, self.work)
        return self.inputs["shape"]

    def argv(self) -> list[str]:
        p = self.inputs["paths"]
        return [
            "tune", "--train", p["train"], "--dev", p["dev"], "-o", str(self.work / "tune.tsv"),
            "--jobs", str(nproc()), "--c1-values", C1, "--c2-values", C2,
            "--scaling-values", "0.5,2", "--embedding-tables", f"none,{p['table']}",
            "--max-iterations", MAX_ITERATIONS[self.name],
        ]

    def unit(self):
        return [self.timed(*self.argv())]

    @staticmethod
    def wall_metrics(calls: list[Call]) -> dict:
        return {"tune_s": (statistics.median(c.seconds for c in calls), "s")}

    def check(self) -> tuple[float, dict]:
        lines = (self.work / "tune.tsv").read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(lines[0].split("\t"), line.split("\t"))) for line in lines[1:]]
        failed = sum(1 for row in rows if row["f1"] == "failed")
        if len(rows) != GRID_POINTS or failed:
            self.problems.append(f"{len(rows)} grid points with {failed} failed, expected {GRID_POINTS} and 0")
        f1s = [float(row["f1"]) for row in rows if row["f1"] != "failed"]
        if len(set(f1s)) < 2:
            self.problems.append("every grid point has the same dev F1")
        best = self.check_f1(max(f1s, default=0.0))
        package = self.program.package
        with open(self.inputs["paths"]["train"], encoding="utf-8") as stream:
            features = package.build_index(package.read_corpus(stream), package.FeatureConfig())
        return best, {"crf.n_attributes": len(features)}


GRID_POINTS = 4
CLASSES = {w.name: w for w in (Train, TagFeeds, TuneGrid)}


# --- measurement -----------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "seed": seed,
    }


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list[Call], list, list, list[dict]]:
    """Run units until `seconds` pass (at least MIN_UNITS of them).

    Returns every call, the cost of each untraced and traced unit (its
    summed call times over its summed reference times), and the
    per-layer metrics of each traced unit.  With tracing on, units
    alternate untraced and traced, so both see the same machine state.
    """
    calls, untraced_costs, traced_costs, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_UNITS * (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and n % 2 == 1
        if traced:
            recorder = tracing.Recorder()
            tracer = tracing.install(recorder)
        try:
            unit = workload.unit()
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(call.seconds for call in unit)  # the calls, not the reference work
        cost = wall / sum(call.reference for call in unit)
        if traced:
            traced_costs.append(cost)
            layers.append(tracing.layer_metrics(recorder, wall))
        else:
            untraced_costs.append(cost)
        calls.extend(call._replace(traced=traced) for call in unit)
        n += 1
    return calls, untraced_costs, traced_costs, layers


def measure_setup(program: Program, workload: Workload) -> tuple[float, list[float], dict]:
    """Repeat the set-up; returns (setup_s, the wall times, shape).

    Like a call, each repetition is timed against the reference work
    run right before and right after it.  `setup_s` is the median
    repetition's wall time over the reference time, in seconds of a
    machine on which one reference work takes REFERENCE_WORK_S.
    """
    walls, ratios = [], []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(walls) < SETUP_REPEATS or time.perf_counter() < deadline:
        before = reference_seconds(1, SETUP_REFERENCE_REPEATS)
        import_s = program.import_seconds()
        start = time.perf_counter()
        shape = workload.setup()
        walls.append(import_s + time.perf_counter() - start)
        after = reference_seconds(1, SETUP_REFERENCE_REPEATS)
        ratios.append(walls[-1] / ((before + after) / 2))
    setup_s = statistics.median(ratios) * SETUP_REFERENCE_REPEATS * REFERENCE_WORK_S
    return setup_s, walls, shape


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    program = Program(Path.cwd())
    work = Path.cwd() / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        workload = CLASSES[name](program, seed, work, expected)
        setup_s, setup_walls, shape = measure_setup(program, workload)
        calls, untraced, traced, layers = measure(workload, seconds, trace)
        f1, extra_shape = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shape.update(extra_shape)
    failed = sum(1 for c in calls if c.code != 0)
    if failed:
        workload.problems.append(f"{failed} of {len(calls)} calls failed")
    timed = [c for c in calls if not c.traced]
    # Other tenants of a shared machine change its speed by up to a
    # factor of two within a run, which wall times carry in full.  The
    # bounded times are therefore taken against the reference work's
    # time measured around them.
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "call_vs_ref_p50": (tracing.quantile([c.seconds / c.reference for c in timed], 50), "ratio"),
    }
    # Reported only: wall times, throughput and quality.
    wall = {
        **workload.wall_metrics(timed),
        workload.f1_name: (f1, "%"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "reference_ms_p50": (1000 * tracing.quantile([c.reference for c in timed], 50), "ms"),
    }
    result = {
        "workload": name,
        "env": environment(seed),
        "shape": shape,
        "samples": {"calls": len(timed), "setups": len(setup_walls), "unit": workload.unit_name},
        "problems": workload.problems,
        "correct": not workload.problems,
        "attempted": len(calls),
        "failed": failed,
        "end_to_end": end_to_end,
        "wall": wall,
    }
    if trace:
        per_layer = {
            key: statistics.median(layer[key] for layer in layers) for key in layers[0]
        }
        base = statistics.median(untraced)
        per_layer["trace.overhead_pct"] = 100 * (statistics.median(traced) - base) / base
        per_layer["trace.units"] = len(traced)
        result["per_layer"] = per_layer
    return result


def report(result: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    samples = result["samples"]
    print(f"== workload {result['workload']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("shape " + json.dumps(result["shape"], sort_keys=True))
    for key, (value, unit) in {**result["end_to_end"], **result["wall"]}.items():
        if key.startswith("setup"):
            count = f"n={samples['setups']} setups"
        elif key == "peak_rss_mb":
            count = "process maximum"
        elif key.endswith("_f1"):
            count = "n=1, the last outputs"
        else:
            count = f"n={samples['calls']} {samples['unit']}s"
        print(f"metric {key} = {value:.6g} {unit} ({count})")
    if trace:
        for key, value in result["per_layer"].items():
            print(f"layer {key} = {value:.6g} {tracing.unit_of(key)}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")


def final_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {
            key: {"value": value, "unit": tracing.unit_of(key)}
            for key, value in result["per_layer"].items()
        }
    else:
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in result["end_to_end"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; nonzero if any check fails."""
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = 1
        if lines:
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    report(result, bool(args.trace))
    print(final_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
