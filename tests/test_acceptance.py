"""End-to-end acceptance checks.

Each test exercises one numbered criterion and prints a single
`ACCEPTANCE NN <name>: PASS/FAIL` line (visible with `pytest -s` and in
failure reports).  Criterion 11 needs the original annotated corpus
and is skipped unless BORROWINGS_ORIGINAL_CORPUS points at a directory
with its split TSV files.
"""

import io
import os
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from borrowings.corpus import (
    LABELS,
    bio_to_spans,
    corpus_stats,
    read_corpus,
    spans_to_bio,
    write_corpus,
)
from borrowings.crf import (
    TrainConfig,
    encode_training_set,
    load_model,
    save_model,
    tag,
    train,
)
from borrowings.evaluation import BORROWING, evaluate, f1
from borrowings.features import FeatureConfig
from borrowings.rounding import round2
from borrowings.tune import ablate, render_ablation_tsv
from conftest import (
    brute_best_path,
    brute_log_partition,
    dp_best_path_min_index,
    log_partition,
    model_from_matrices,
    repair_bio,
    synthetic_corpus,
    viterbi,
)
from test_evaluation import headline, oracle_counts, random_span_layout


@contextmanager
def criterion(number, name):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {number:02d} {name}: SKIP", flush=True)
        raise
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def accept_corpus():
    return synthetic_corpus()  # 200 headlines with a sentinel suffix


@pytest.fixture(scope="module")
def model_c2_small(accept_corpus):
    return train(
        accept_corpus,
        FeatureConfig(),
        None,
        TrainConfig(c2=0.01, max_iterations=200),
    )


def test_criterion_01_inference_oracle():
    with criterion(1, "inference oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(2, 5))
            mats = (
                rng.normal(scale=2.0, size=(n, n_labels)),
                rng.normal(scale=2.0, size=(n_labels, n_labels)),
                rng.normal(scale=2.0, size=n_labels),
                rng.normal(scale=2.0, size=n_labels),
            )
            model, attrs = model_from_matrices(*mats)
            assert abs(log_partition(model, attrs) - brute_log_partition(*mats)) < 1e-8
            decoded = viterbi(model, attrs)
            best_path, _ = brute_best_path(*mats)
            tie_aware = dp_best_path_min_index(*mats)
            assert decoded == [model.alphabet.tags[i] for i in tie_aware]
            # continuous weights: the enumeration argmax is unique
            assert tie_aware == list(best_path)
        assert time.perf_counter() - started < 10.0


def test_criterion_02_gradient_check():
    with criterion(2, "gradient check"):
        started = time.perf_counter()
        lean = FeatureConfig(
            uppercase=False,
            titlecase=False,
            char_trigram=False,
            quotation=False,
            pos=False,
            shape=False,
            window_radius=1,
        )
        h = 1e-4
        for k in range(10):
            dataset, _, _ = encode_training_set(
                synthetic_corpus(2, seed=100 + k), lean
            )
            rng = np.random.default_rng(k)
            w = rng.normal(scale=0.3, size=dataset.n_parameters)
            for c2 in (0.0, 0.7):
                _, grad = dataset.nll_and_gradient(w, c2)
                for i in range(dataset.n_parameters):
                    wp = w.copy()
                    wp[i] += h
                    wm = w.copy()
                    wm[i] -= h
                    fd = (
                        dataset.nll_and_gradient(wp, c2)[0]
                        - dataset.nll_and_gradient(wm, c2)[0]
                    ) / (2 * h)
                    # floor the denominator so dead coordinates (both
                    # sides ~0) cannot divide noise by noise
                    rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-2)
                    assert rel < 1e-5, (k, c2, i, rel)
        assert time.perf_counter() - started < 30.0


def test_criterion_03_learnability(accept_corpus, model_c2_small):
    with criterion(3, "learnability"):
        diag = model_c2_small.diagnostics
        assert diag.iterations <= 200
        predicted = tag(model_c2_small, accept_corpus)
        report = evaluate(accept_corpus, predicted)
        for label in (*LABELS, BORROWING):
            assert report.score(label).f1 == 100.0, label
        trace = diag.trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_criterion_04_regularization_behavior(accept_corpus, model_c2_small):
    with criterion(4, "regularization behavior"):
        def all_weights(model):
            return np.concatenate(
                [
                    model.state.ravel(),
                    model.transition.ravel(),
                    model.start,
                    model.end,
                ]
            )

        heavy = train(
            accept_corpus,
            FeatureConfig(),
            None,
            TrainConfig(c2=1.0, max_iterations=200),
        )
        assert np.linalg.norm(all_weights(heavy)) < np.linalg.norm(
            all_weights(model_c2_small)
        )

        sparse = train(
            accept_corpus,
            FeatureConfig(),
            None,
            TrainConfig(c1=1.0, c2=0.01, max_iterations=200),
        )
        zeros_l1 = int(np.sum(all_weights(sparse) == 0.0))
        zeros_dense = int(np.sum(all_weights(model_c2_small) == 0.0))
        assert zeros_l1 >= zeros_dense


def test_criterion_05_evaluation_arithmetic():
    with criterion(5, "evaluation arithmetic"):
        published = [
            (97.84, 82.65, "89.60"),
            (95.05, 81.60, "87.82"),
            (100.0, 28.57, "44.44"),
        ]
        for p, r, cell in published:
            gap = abs(round2(f1(p, r)) - Decimal(cell))
            assert gap <= Decimal("0.01"), (p, r, cell)


def test_criterion_06_evaluator_oracle():
    with criterion(6, "evaluator oracle"):
        from borrowings.corpus import Corpus

        rng = random.Random(61)
        for _ in range(100):
            n_headlines = rng.randint(1, 20)
            gold_rows, pred_rows = [], []
            for i in range(n_headlines):
                n = rng.randint(2, 16)
                gold_rows.append(headline(f"h{i}", n, random_span_layout(rng, n)))
                pred_rows.append(headline(f"h{i}", n, random_span_layout(rng, n)))
            gold = Corpus("gold", tuple(gold_rows))
            pred = Corpus("pred", tuple(pred_rows))
            report = evaluate(gold, pred)
            expected = oracle_counts(gold, pred, LABELS)
            for label in (*LABELS, BORROWING):
                row = report.score(label)
                assert [row.tp, row.fp, row.fn] == expected[label], label


def random_valid_spans(rng, n, max_spans=5):
    spans = []
    pos = 0
    while pos < n and len(spans) < max_spans:
        start = pos + rng.randint(0, 2)
        width = rng.randint(1, 3)
        if start + width > n:
            break
        if rng.random() < 0.7:
            spans.append((start, start + width, rng.choice(LABELS)))
        pos = start + width
    return spans


def test_criterion_07_bio_codec():
    with criterion(7, "bio codec"):
        from borrowings.corpus import FULL_ALPHABET, LabeledSpan

        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 12)
            spans = [LabeledSpan(*s) for s in random_valid_spans(rng, n)]
            assert bio_to_spans(spans_to_bio(spans, n)) == spans

        for _ in range(300):
            n = rng.randint(1, 12)
            tags = [rng.choice(FULL_ALPHABET.tags) for _ in range(n)]
            repaired = repair_bio(tags)
            assert repair_bio(repaired) == repaired
            # well-formed: decodes cleanly and re-encodes to itself
            assert spans_to_bio(bio_to_spans(repaired), n) == repaired
            # and repair equals the decode-then-encode normal form
            assert spans_to_bio(bio_to_spans(tags), n) == repaired


def test_criterion_08_model_persistence(accept_corpus, model_c2_small):
    with criterion(8, "model persistence"):
        direct = tag(model_c2_small, accept_corpus)
        buffer = io.StringIO()
        save_model(model_c2_small, buffer)
        reloaded = load_model(io.StringIO(buffer.getvalue()))
        roundtrip = tag(reloaded, accept_corpus)

        def as_bytes(corpus):
            out = io.StringIO()
            write_corpus(corpus, out)
            return out.getvalue().encode("utf-8")

        assert as_bytes(roundtrip) == as_bytes(direct)


def test_criterion_09_ablation_arithmetic(accept_corpus):
    with criterion(9, "ablation arithmetic"):
        from conftest import synthetic_embeddings

        # all ten families on, so the table gets 1 + 10 rows
        table = synthetic_embeddings(accept_corpus)
        result = ablate(
            accept_corpus,
            synthetic_corpus(80, seed=9, name="accept-dev"),
            FeatureConfig(embedding=True),
            TrainConfig(c2=0.05, max_iterations=40),
            embeddings=table,
            jobs=4,
        )
        assert len(result.rows) == 11
        assert not any(row.failed for row in result.rows)

        lines = render_ablation_tsv(result).splitlines()
        assert len(lines) == 12  # header + 11 rows
        base_f1 = Decimal(lines[1].split("\t")[3])
        assert lines[1].split("\t")[4] == ""
        for line in lines[2:]:
            cells = line.split("\t")
            assert cells[4] == f"{Decimal(cells[3]) - base_f1:+.2f}"


def test_criterion_10_grid_determinism(tmp_path, capsys):
    with criterion(10, "grid determinism"):
        from borrowings.cli import run

        train_set = synthetic_corpus(18, seed=31, name="train")
        dev_set = synthetic_corpus(10, seed=31, name="dev")
        train_path = tmp_path / "train.tsv"
        dev_path = tmp_path / "dev.tsv"
        for corpus, path in ((train_set, train_path), (dev_set, dev_path)):
            with open(path, "w", encoding="utf-8", newline="\n") as stream:
                write_corpus(corpus, stream)

        def sweep(out_name, jobs):
            out = tmp_path / out_name
            code = run(
                [
                    "tune",
                    "--train", str(train_path),
                    "--dev", str(dev_path),
                    "-o", str(out),
                    "--c1-values", "0.0,0.1",
                    "--c2-values", "0.01,0.1",
                    "--scaling-values", "0.5,2.0",
                    "--embedding-tables", "none",
                    "--max-iterations", "25",
                    "--jobs", str(jobs),
                ]
            )
            assert code == 0
            return out.read_bytes()

        first = sweep("run1.tsv", 1)
        second = sweep("run2.tsv", 1)
        parallel = sweep("run4.tsv", 4)
        capsys.readouterr()
        assert second == first
        assert parallel == first

        rows = first.decode("utf-8").splitlines()[1:]
        assert len(rows) == 8  # 2 x 2 x 2 x 1 grid
        keys = []
        for row in rows:
            cells = row.split("\t")
            failed = cells[6] == "failed"
            f1_cell = Decimal(0) if failed else Decimal(cells[6])
            keys.append(
                (failed, -f1_cell, *(Decimal(c) for c in cells[:3]))
            )
        assert keys == sorted(keys)


SPLIT_COUNTS = {
    "train": (10513, 154632, 709, 747, 40),
    "dev": (3020, 44758, 200, 219, 14),
    "test": (3020, 44724, 202, 212, 13),
    "suppl": (5017, 81551, 122, 126, 35),
}

SECTION_PERCENTS = {
    "opinion": "2.54",
    "economy": "3.70",
    "lifestyle": "6.48",
    "tv": "8.83",
    "music": "9.25",
    "technology": "15.37",
}


def test_criterion_11_original_corpus_stats():
    with criterion(11, "original corpus stats"):
        root = os.environ.get("BORROWINGS_ORIGINAL_CORPUS")
        if not root:
            pytest.skip("BORROWINGS_ORIGINAL_CORPUS not set; original corpus absent")
        root = Path(root)

        def load(split):
            path = root / f"{split}.tsv"
            if not path.is_file():
                return None
            with open(path, encoding="utf-8") as stream:
                return read_corpus(stream, name=split)

        main_splits = []
        for split, expected in SPLIT_COUNTS.items():
            corpus = load(split)
            if corpus is None:
                continue
            if split in ("train", "dev", "test"):
                main_splits.append(corpus)
            stats = corpus_stats(corpus)
            actual = (
                stats.headlines,
                stats.tokens,
                stats.with_anglicisms,
                stats.eng_spans,
                stats.other_spans,
            )
            assert actual == expected, split
        if not main_splits:
            pytest.skip("no split files found under BORROWINGS_ORIGINAL_CORPUS")

        from borrowings.corpus import Corpus

        combined = Corpus(
            "main", tuple(h for corpus in main_splits for h in corpus)
        )
        by_section = {
            s.section.lower(): s for s in corpus_stats(combined).sections
        }
        for section, expected in SECTION_PERCENTS.items():
            stats = by_section.get(section)
            assert stats is not None, section
            gap = abs(round2(stats.percent) - Decimal(expected))
            assert gap <= Decimal("0.01"), section
