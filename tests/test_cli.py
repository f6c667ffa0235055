import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import borrowings
from borrowings import cli
from borrowings.cli import RunConfig, run
from borrowings.corpus import Corpus, Token, read_corpus, write_corpus
from borrowings.crf import TrainConfig
from borrowings.features import FeatureConfig
from conftest import (
    FILLERS,
    synthetic_corpus,
    synthetic_embeddings,
    write_embeddings_file,
)

DATA = Path(__file__).parent / "data"


def write_corpus_file(corpus, path):
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        write_corpus(corpus, stream)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    train = synthetic_corpus(n_headlines=18, seed=31, name="train")
    # Same seed, fewer headlines: a prefix of the training stream that
    # a converged model tags perfectly.
    apply_set = synthetic_corpus(n_headlines=8, seed=31, name="apply")
    write_corpus_file(train, root / "train.tsv")
    write_corpus_file(apply_set, root / "apply.tsv")
    return root


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["train", "--frobnicate"]) == 2

    def test_top_level_help(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("ingest", "stats", "train", "tag", "eval", "tune", "ablate"):
            assert command in out

    @pytest.mark.parametrize(
        "command, expected_flag",
        [
            ("train", "--c1"),
            ("tag", "--model"),
            ("eval", "--ignore-other"),
            ("tune", "--c1-values"),
            ("ablate", "--jobs"),
            ("ingest", "--output"),
        ],
    )
    def test_subcommand_help_names_flags(self, capsys, command, expected_flag):
        assert run([command, "--help"]) == 0
        assert expected_flag in capsys.readouterr().out


class TestStats:
    def test_matches_frozen_rendering(self, capsys):
        assert run(["stats", str(DATA / "sample.tsv")]) == 0
        expected = (DATA / "sample_stats.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_missing_file(self, capsys):
        assert run(["stats", "no-such-corpus.tsv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-corpus.tsv" in err

    def test_malformed_corpus(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("# id = x\nword\tN\tQ-ENG\n\n", encoding="utf-8")
        assert run(["stats", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_perfect_predictions_text(self, capsys):
        sample = str(DATA / "sample.tsv")
        assert run(["eval", "--gold", sample, "--pred", sample]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Set: sample  (+OTHER)")
        assert "100.00" in out
        assert "BORROWING" in out

    def test_set_name_override_and_tsv(self, capsys):
        sample = str(DATA / "sample.tsv")
        assert run(
            ["eval", "--gold", sample, "--pred", sample,
             "--format", "tsv", "--set-name", "smoke"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[0] == "set"
        assert lines[1].split("\t")[:3] == ["smoke", "+OTHER", "ENG"]

    def test_ignore_other_mode(self, capsys):
        sample = str(DATA / "sample.tsv")
        assert run(
            ["eval", "--gold", sample, "--pred", sample, "--ignore-other"]
        ) == 0
        out = capsys.readouterr().out
        assert "(-OTHER)" in out
        assert "BORROWING" not in out

    def test_mismatched_ids(self, capsys, tmp_path):
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("# id = a\nhola\t_\tO\n\n", encoding="utf-8")
        pred.write_text("# id = b\nhola\t_\tO\n\n", encoding="utf-8")
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
        assert "unknown headline id" in capsys.readouterr().err


class TestTrainTagEval:
    def test_full_pipeline(self, corpora, tmp_path, capsys):
        model = tmp_path / "model.crf"
        pred = tmp_path / "pred.tsv"
        train_argv = [
            "train", "--train", str(corpora / "train.tsv"),
            "-o", str(model), "--c2", "0.05", "--max-iterations", "60",
        ]
        assert run(train_argv) == 0
        err = capsys.readouterr().err
        assert "iteration" in err and "objective" in err
        assert "trained" in err
        header = model.read_text(encoding="utf-8").splitlines()[0]
        assert header == "borrowings-crf 1"

        assert run(
            ["tag", "-m", str(model), str(corpora / "apply.tsv"), "-o", str(pred)]
        ) == 0
        assert "tagged 8 headlines" in capsys.readouterr().err

        assert run(
            ["eval", "--gold", str(corpora / "apply.tsv"), "--pred", str(pred)]
        ) == 0
        out = capsys.readouterr().out
        eng_row = next(line for line in out.splitlines() if "ENG" in line)
        assert eng_row.count("100.00") == 3

    def test_tagging_an_empty_corpus_writes_an_empty_file(
        self, corpora, tmp_path, capsys
    ):
        model = tmp_path / "model.crf"
        assert run(
            ["train", "--train", str(corpora / "train.tsv"), "-o", str(model),
             "--max-iterations", "3"]
        ) == 0
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        assert run(["tag", "-m", str(model), str(empty), "-o", str(pred)]) == 0
        assert "tagged 0 headlines" in capsys.readouterr().err
        assert pred.read_bytes() == b""

    def test_training_and_tagging_are_byte_deterministic(
        self, corpora, tmp_path, capsys
    ):
        args = ["--train", str(corpora / "train.tsv"),
                "--c2", "0.05", "--max-iterations", "40"]
        m1, m2 = tmp_path / "m1.crf", tmp_path / "m2.crf"
        assert run(["train", *args, "-o", str(m1)]) == 0
        assert run(["train", *args, "-o", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

        p1, p2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
        for out in (p1, p2):
            assert run(
                ["tag", "-m", str(m1), str(corpora / "apply.tsv"), "-o", str(out)]
            ) == 0
        assert p1.read_bytes() == p2.read_bytes()
        capsys.readouterr()

    def test_stalled_run_is_not_reported_as_converged(
        self, corpora, tmp_path, capsys, monkeypatch
    ):
        # An uphill search direction is zeroed entirely by the orthant
        # mask, so the optimizer stalls on its first iteration.
        from borrowings import optim

        monkeypatch.setattr(optim, "_two_loop", lambda grad, *pairs: grad.copy())
        model = tmp_path / "model.crf"
        assert run([
            "train", "--train", str(corpora / "train.tsv"),
            "-o", str(model), "--c1", "0.1",
        ]) == 0
        err = capsys.readouterr().err
        assert "trained 0 iterations (stalled)" in err
        assert "converged" not in err

    def test_failed_line_search_is_not_reported_as_the_cap(
        self, corpora, tmp_path, capsys, monkeypatch
    ):
        from borrowings import optim

        def failing(fun, x0, **kwargs):
            value = fun(x0)[0]
            return optim.OptimResult(
                x=np.array(x0, dtype=float), value=value, iterations=0,
                converged=False, stalled=False, line_search_failed=True,
                trace=(value,),
            )

        monkeypatch.setattr(optim, "minimize", failing)
        model = tmp_path / "model.crf"
        assert run([
            "train", "--train", str(corpora / "train.tsv"), "-o", str(model),
        ]) == 0
        err = capsys.readouterr().err
        assert "warning: line search failed" in err
        assert "trained 0 iterations (line search failed)" in err
        assert "iteration cap" not in err

    def test_train_requires_a_training_corpus(self, capsys):
        assert run(["train", "-o", "ignored.crf"]) == 1
        assert "training corpus is required" in capsys.readouterr().err

    def test_train_requires_an_output_location(self, corpora, capsys):
        assert run(["train", "--train", str(corpora / "train.tsv")]) == 1
        assert "model output path is required" in capsys.readouterr().err


class TestConfigFile:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_train_from_config(self, corpora, tmp_path, capsys):
        model = tmp_path / "model.crf"
        cfg = self.write_config(
            tmp_path,
            f"# pipeline settings\n"
            f"train_corpus = {corpora / 'train.tsv'}\n"
            f"c2 = 0.05\n"
            f"max_iterations = 30\n"
            f"model = {model}\n",
        )
        assert run(["train", "-c", cfg]) == 0
        assert model.is_file()
        capsys.readouterr()

    def test_output_dir_default_name(self, corpora, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            f"train_corpus = {corpora / 'train.tsv'}\n"
            f"max_iterations = 15\n"
            f"output_dir = {tmp_path}\n",
        )
        assert run(["train", "-c", cfg]) == 0
        assert (tmp_path / "model.crf").is_file()
        capsys.readouterr()

    def test_flag_overrides_config_with_warning(self, corpora, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            f"train_corpus = {corpora / 'train.tsv'}\nc2 = 0.05\n",
        )
        out = tmp_path / "m.crf"
        argv = ["train", "-c", cfg, "-o", str(out), "--max-iterations", "10"]
        assert run([*argv, "--c2", "0.1"]) == 0
        assert (
            "warning: flag value for c2 overrides the config file"
            in capsys.readouterr().err
        )
        # An equal flag value is not an override.
        assert run([*argv, "--c2", "0.05"]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mystery = 1", "unknown key 'mystery'"),
            ("c2 = 0.1\nc2 = 0.2", "duplicate key 'c2'"),
            ("c2 = abc", "bad value for 'c2'"),
            ("just words", "expected `key = value`"),
            ("pos = yes", "bad value for 'pos'"),
        ],
    )
    def test_config_errors_name_the_line(self, tmp_path, capsys, line, message):
        cfg = self.write_config(tmp_path, "# comment\n\n" + line + "\n")
        assert run(["train", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert message in err
        lineno = 3 + line.count("\n")  # last written line
        assert f"{cfg}:{lineno}:" in err

    def test_missing_config_file(self, capsys):
        assert run(["train", "-c", "absent.conf"]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_keys_are_the_declared_fields(self):
        own = {f.name for f in fields(RunConfig)} - {"features", "training"}
        feature_keys = {f.name for f in fields(FeatureConfig)}
        train_keys = {f.name for f in fields(TrainConfig)}
        assert not own & (feature_keys | train_keys)
        assert set(cli._KEY_PARSERS) == own | feature_keys | train_keys


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--c1", "nan"),
            ("--c2", "nan"),
            ("--delta", "inf"),
            ("--embedding-scaling", "inf"),
        ],
    )
    def test_train_rejects(self, corpora, tmp_path, capsys, flag, value):
        out = tmp_path / "m.crf"
        argv = ["train", "--train", str(corpora / "train.tsv"), "-o", str(out)]
        assert run([*argv, flag, value]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--c1-values", "0.1,nan"), ("--scaling-values", "inf")]
    )
    def test_tune_rejects(self, corpora, tmp_path, capsys, flag, value):
        out = tmp_path / "tune.tsv"
        assert run(
            ["tune", "--train", str(corpora / "train.tsv"),
             "--dev", str(corpora / "apply.tsv"), "-o", str(out), flag, value]
        ) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def table_file(corpora, tmp_path_factory):
    with open(corpora / "train.tsv", encoding="utf-8") as stream:
        train = read_corpus(stream, name="train")
    table = synthetic_embeddings(train)
    path = tmp_path_factory.mktemp("emb") / "vectors.txt"
    write_embeddings_file(table, path)
    return path


class TestEmbeddingsFlow:
    def test_embedding_model_requires_table_at_tag_time(
        self, corpora, tmp_path, capsys, table_file
    ):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"train_corpus = {corpora / 'train.tsv'}\n"
            f"embedding = true\n"
            f"embeddings = {table_file}\n"
            f"max_iterations = 15\n",
            encoding="utf-8",
        )
        model = tmp_path / "emb.crf"
        assert run(["train", "-c", str(cfg), "-o", str(model)]) == 0
        capsys.readouterr()

        pred = tmp_path / "pred.tsv"
        argv = ["tag", "-m", str(model), str(corpora / "apply.tsv"), "-o", str(pred)]
        assert run(argv) == 1
        assert "embeddings file is required" in capsys.readouterr().err

        assert run([*argv, "--embeddings", str(table_file)]) == 0
        assert pred.is_file()
        capsys.readouterr()


FEED = """<?xml version='1.0' encoding='utf-8'?>
<rss version='2.0'><channel><title>Diario</title>
<item><title>El streaming pierde fuelle</title>
<pubDate>Mon, 03 Feb 2020 08:00:00 +0100</pubDate>
<link>https://diario.example/tv/nota-1</link></item>
<item><title>El streaming pierde fuelle</title>
<pubDate>Mon, 03 Feb 2020 09:30:00 +0100</pubDate>
<link>https://diario.example/tv/nota-1-bis</link></item>
<item><title>Sube la bolsa</title>
<pubDate>Mon, 03 Feb 2020 10:00:00 +0100</pubDate>
<link>https://diario.example/economia/nota-3</link></item>
<item><pubDate>Mon, 03 Feb 2020 11:00:00 +0100</pubDate></item>
<item><title>Arranca la temporada</title>
<pubDate>Tue, 04 Feb 2020 07:00:00 +0100</pubDate>
<link>https://diario.example/deportes/nota-2</link></item>
</channel></rss>
"""


class TestIngest:
    def test_feed_to_corpus(self, tmp_path, capsys):
        feed = tmp_path / "feed.xml"
        feed.write_text(FEED, encoding="utf-8")
        out = tmp_path / "supplemental.tsv"
        assert run(["ingest", str(feed), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        # The second item repeats (title, date) and is a duplicate even
        # though its time and link differ.
        assert "ingested 3 headlines" in err
        assert "1 duplicates" in err
        assert "1 titleless items skipped" in err
        with open(out, encoding="utf-8") as stream:
            corpus = read_corpus(stream, name="supplemental")
        assert [h.id for h in corpus] == [
            "2020-02-03-0001", "2020-02-03-0002", "2020-02-04-0001",
        ]
        assert all(h.spans == () for h in corpus)
        sections = [h.section for h in corpus]
        assert sections == ["tv", "economia", "deportes"]

    def test_reingest_adds_nothing(self, tmp_path, capsys):
        feed = tmp_path / "feed.xml"
        feed.write_text(FEED, encoding="utf-8")
        out = tmp_path / "supplemental.tsv"
        assert run(["ingest", str(feed), "-o", str(out)]) == 0
        first = out.read_bytes()
        assert run(["ingest", str(feed), "-o", str(out)]) == 0
        assert "ingested 0 headlines" in capsys.readouterr().err
        assert out.read_bytes() == first

    def test_append_keeps_existing_headlines(self, tmp_path, capsys):
        feed = tmp_path / "feed.xml"
        feed.write_text(FEED, encoding="utf-8")
        out = tmp_path / "supplemental.tsv"
        assert run(["ingest", str(feed), "-o", str(out)]) == 0

        extra = tmp_path / "extra.xml"
        extra.write_text(
            "<?xml version='1.0'?><rss version='2.0'><channel>"
            "<item><title>Nueva exclusiva</title>"
            "<pubDate>Wed, 05 Feb 2020 08:00:00 +0100</pubDate></item>"
            "</channel></rss>",
            encoding="utf-8",
        )
        assert run(["ingest", str(extra), "-o", str(out)]) == 0
        with open(out, encoding="utf-8") as stream:
            corpus = read_corpus(stream, name="supplemental")
        assert len(corpus) == 4
        assert [h.id for h in corpus][-1] == "2020-02-05-0001"
        capsys.readouterr()

    def test_multiple_feed_files_in_one_run(self, tmp_path, capsys):
        first = tmp_path / "a.xml"
        first.write_text(FEED, encoding="utf-8")
        second = tmp_path / "b.xml"
        second.write_text(
            "<?xml version='1.0'?><rss version='2.0'><channel>"
            "<item><title>Otra nota</title>"
            "<pubDate>Tue, 04 Feb 2020 09:00:00 +0100</pubDate></item>"
            "</channel></rss>",
            encoding="utf-8",
        )
        out = tmp_path / "all.tsv"
        assert run(["ingest", str(first), str(second), "-o", str(out)]) == 0
        assert "ingested 4 headlines" in capsys.readouterr().err
        with open(out, encoding="utf-8") as stream:
            corpus = read_corpus(stream, name="all")
        assert [h.id for h in corpus] == [
            "2020-02-03-0001", "2020-02-03-0002",
            "2020-02-04-0001", "2020-02-04-0002",
        ]

    def test_bad_feed(self, tmp_path, capsys):
        feed = tmp_path / "feed.xml"
        feed.write_text("<rss><channel><item>", encoding="utf-8")
        assert run(["ingest", str(feed), "-o", str(tmp_path / "x.tsv")]) == 1
        assert "malformed XML" in capsys.readouterr().err


class TestTuneCommand:
    def test_small_sweep(self, corpora, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"train_corpus = {corpora / 'train.tsv'}\n"
            f"dev_corpus = {corpora / 'apply.tsv'}\n"
            f"max_iterations = 20\n",
            encoding="utf-8",
        )
        out = tmp_path / "tune.tsv"
        assert run(
            ["tune", "-c", str(cfg), "-o", str(out),
             "--c1-values", "0.0,0.1", "--c2-values", "0.05",
             "--scaling-values", "1.0", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        table = out.read_text(encoding="utf-8").splitlines()
        assert len(table) == 3  # header + two grid points
        assert table[0].startswith("c1\t")
        assert captured.out.startswith("c1")
        assert "swept 2 grid points (0 failed)" in captured.err
        assert "best c1=" in captured.err

    def test_failed_point_error_is_reported(
        self, corpora, tmp_path, capsys, monkeypatch
    ):
        from borrowings import tune

        real_fit = tune.fit

        def flaky(dataset, index, alphabet, cfg, tc, progress=None):
            if tc.c1 == 0.1:
                raise ValueError("synthetic failure")
            return real_fit(dataset, index, alphabet, cfg, tc, progress)

        monkeypatch.setattr(tune, "fit", flaky)
        out = tmp_path / "tune.tsv"
        assert run(
            ["tune", "--train", str(corpora / "train.tsv"),
             "--dev", str(corpora / "apply.tsv"), "-o", str(out),
             "--c1-values", "0.0,0.1", "--c2-values", "0.05",
             "--scaling-values", "1.0", "--max-iterations", "10"]
        ) == 0
        captured = capsys.readouterr()
        assert (
            "failed: c1=0.1 c2=0.05 scaling=1.0 embedding=none: synthetic failure"
            in captured.err
        )
        assert "swept 2 grid points (1 failed)" in captured.err
        table = out.read_text(encoding="utf-8").splitlines()
        assert table[2].split("\t")[4:7] == ["failed", "failed", "failed"]
        assert "synthetic failure" not in captured.out + "\n".join(table)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_dev_corpus_scores_zero(self, corpora, tmp_path, capsys, jobs):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "tune.tsv"
        assert run(
            ["tune", "--train", str(corpora / "train.tsv"), "--dev", str(empty),
             "-o", str(out), "--c1-values", "0.0,0.1", "--c2-values", "0.05",
             "--scaling-values", "1.0", "--max-iterations", "3", "--jobs", jobs]
        ) == 0
        assert "swept 2 grid points (0 failed)" in capsys.readouterr().err
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [row[4:7] for row in rows[1:]] == [["0.00", "0.00", "0.00"]] * 2

    def test_missing_dev_corpus(self, corpora, capsys, tmp_path):
        assert run(
            ["tune", "--train", str(corpora / "train.tsv"),
             "-o", str(tmp_path / "t.tsv")]
        ) == 1
        assert "development corpus is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, jobs", [("tune", "0"), ("tune", "-2"), ("ablate", "0"), ("ablate", "-2")]
    )
    def test_jobs_below_one_rejected(self, corpora, tmp_path, capsys, command, jobs):
        assert run(
            [command, "--train", str(corpora / "train.tsv"),
             "--dev", str(corpora / "apply.tsv"), "-o", str(tmp_path / "out.tsv"),
             "--c1-values" if command == "tune" else "--c1", "0.0",
             "--max-iterations", "3", "--jobs", jobs]
        ) == 1
        assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()


class TestAblateCommand:
    def test_small_ablation(self, corpora, tmp_path, capsys):
        out = tmp_path / "ablation.tsv"
        assert run(
            ["ablate", "--train", str(corpora / "train.tsv"),
             "--dev", str(corpora / "apply.tsv"),
             "-o", str(out), "--max-iterations", "10", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "features\tprecision\trecall\tf1\tf1_change"
        assert len(lines) == 11  # header + all + nine families
        assert lines[1].startswith("all\t")
        assert "ablated 9 families" in captured.err

    def test_empty_dev_corpus_scores_zero(self, corpora, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "ablation.tsv"
        assert run(
            ["ablate", "--train", str(corpora / "train.tsv"), "--dev", str(empty),
             "-o", str(out), "--max-iterations", "3", "--jobs", "2"]
        ) == 0
        assert "ablated 9 families (0 failed runs)" in capsys.readouterr().err
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 11
        assert rows[1] == ["all", "0.00", "0.00", "0.00", ""]
        assert all(row[1:] == ["0.00", "0.00", "0.00", "+0.00"] for row in rows[2:])

    def test_failed_variant_error_is_reported(
        self, corpora, tmp_path, capsys, monkeypatch
    ):
        from borrowings import tune

        real_fit = tune.fit

        def flaky(dataset, index, alphabet, cfg, tc, progress=None):
            if not cfg.shape:
                raise ArithmeticError("synthetic divergence")
            return real_fit(dataset, index, alphabet, cfg, tc, progress)

        monkeypatch.setattr(tune, "fit", flaky)
        out = tmp_path / "ablation.tsv"
        assert run(
            ["ablate", "--train", str(corpora / "train.tsv"),
             "--dev", str(corpora / "apply.tsv"),
             "-o", str(out), "--max-iterations", "5"]
        ) == 0
        err = capsys.readouterr().err
        assert "failed: -shape: synthetic divergence" in err
        assert "ablated 9 families (1 failed runs)" in err


def test_console_script_round_trip(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c",
         "from borrowings.cli import main; main()",
         ],
        input="",
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
        cwd=str(tmp_path),
    )
    # no args: argparse usage error via exit code 2
    assert result.returncode == 2


def test_installed_entry_point_reports_stats():
    result = subprocess.run(
        ["borrowings", "stats", str(DATA / "sample.tsv")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    expected = (DATA / "sample_stats.txt").read_text(encoding="utf-8")
    assert result.stdout == expected


def open_vocabulary_corpus(n_headlines, seed):
    """`synthetic_corpus` with every filler replaced by a fresh random word."""
    rng = random.Random(seed)
    fillers = set(FILLERS)

    def fresh(token):
        if token.text.lower() not in fillers:
            return token
        letters = rng.choices("abcdefghilmnoprstu", k=rng.randint(4, 9))
        return Token("".join(letters), token.pos)

    return Corpus("open", tuple(
        replace(h, tokens=tuple(fresh(t) for t in h.tokens))
        for h in synthetic_corpus(n_headlines, seed=seed).headlines
    ))


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    # About 70k weights: BLAS splits sums over vectors this long across
    # its threads, so any parameter-length reduction it performed would
    # round differently at 1 and 2 threads.  On a 1-CPU machine both
    # runs use one thread.
    corpus = tmp_path / "train.tsv"
    write_corpus_file(open_vocabulary_corpus(80, seed=3), corpus)
    src = str(Path(borrowings.__file__).resolve().parents[1])
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"model-{threads}.crf"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        subprocess.run(
            [sys.executable, "-c", "from borrowings.cli import main; main()",
             "train", "--train", str(corpus), "-o", str(model),
             "--c1", "0.05", "--c2", "0.01", "--max-iterations", "8"],
            env=env, check=True, capture_output=True,
        )
        models.append(model.read_bytes())
    assert models[0] == models[1]
