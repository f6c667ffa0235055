import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import borrowings
from borrowings import cli
from borrowings.cli import RunConfig, run
from borrowings.corpus import read_corpus, write_corpus
from borrowings.crf import TrainConfig
from borrowings.embeddings import MAX_DIM
from borrowings.errors import ConfigError, ValidationError
from borrowings.features import FeatureConfig
from conftest import (
    line_mutations,
    mutate,
    open_vocabulary_corpus,
    synthetic_corpus,
    synthetic_embeddings,
    write_embeddings_file,
)

DATA = Path(__file__).parent / "data"
CANARY = Path(__file__).resolve().parent.parent / "benchmarks" / "canary.crf"


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


COMMANDS = ("ingest", "stats", "train", "tag", "eval", "tune", "ablate")


def subcommand_parsers(parser):
    """Each subcommand's parser, by name."""
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


def argument_table(parser):
    """What each action of `parser` accepts and sets.  The help layout
    is left out: Python 3.13 formats it differently from 3.10-3.12."""
    return [
        {
            "action": type(action).__name__,
            "option_strings": action.option_strings,
            "dest": action.dest,
            "type": getattr(action.type, "__name__", None),
            "default": action.default,
            "required": action.required,
            "nargs": action.nargs,
            "choices": None if action.choices is None else list(action.choices),
            "help": action.help,
        }
        for action in parser._actions
    ]


def cli_surface():
    """The argument table of `build_parser()` and of each subcommand."""
    parser = cli.build_parser()
    return {
        "borrowings": argument_table(parser),
        **{
            name: argument_table(sub)
            for name, sub in subcommand_parsers(parser).items()
        },
    }


def parse_outcome(parse, argv):
    """What `parse` makes of argv: its namespace, or its exit code, and
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# Values and stray words an argv may hold besides the flags: numbers,
# lists, paths, choices, prefixes of flags and a separator.
ARGV_VALUES = (
    "1", "2", "0.5", "-1", "two", "0.1,0.2", "none,t.vec", "a.tsv", "m.crf", "tsv",
)
ARGV_WORDS = (
    "--", "-", "--out", "--mod", "--c", "--he", "-h", "--c1=", "-mm.crf", "tag",
)


@st.composite
def subcommand_argvs(draw):
    """A subcommand and words for it: most often its required arguments,
    then its flags with values, positionals and stray words in any order."""
    command = draw(st.sampled_from(COMMANDS))
    parser = subcommand_parsers(cli.build_parser())[command]
    actions = [a for a in parser._actions if a.dest != "help"]
    values = st.sampled_from(ARGV_VALUES)

    def words(action):
        if not action.option_strings:
            return [draw(values)]
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            return [flag]
        if action.choices:
            value = draw(st.sampled_from(action.choices) | values)
        else:
            value = draw(values)
        if flag.startswith("--") and draw(st.booleans()):
            return [f"{flag}={value}"]
        return [flag, value]

    units = []
    if draw(st.integers(0, 3)):
        units += [words(a) for a in actions if a.required]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)):
            units.append(words(draw(st.sampled_from(actions))))
        else:
            units.append([draw(st.sampled_from(ARGV_WORDS))])
    units = draw(st.permutations(units))
    return [command, *(word for unit in units for word in unit)]


class TestLazyParser:
    """`run` parses an argv that names a subcommand with a parser of that
    subcommand alone; what a user sees must equal what the full parser
    gives."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["frobnicate"],
            ["tag", "corpus.tsv", "-o", "out.tsv"],
            ["train", "--c1", "x"],
            ["-x", "stats"],
            *([command, "--help"] for command in COMMANDS),
            ["tag", "--he"],
            ["tag", "-m", "m.crf", "c.tsv", "-o", "o.tsv", "--bogus"],
            ["tune", "--jobs", "two"],
            ["stats", "a.tsv", "b.tsv"],
        ],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_output_and_exit_code_match_the_full_parser(
        self, argv, capsys, monkeypatch
    ):
        code = run(argv)
        lean = capsys.readouterr()
        monkeypatch.setattr(cli, "_parse", full_parse)
        assert run(argv) == code
        full = capsys.readouterr()
        assert (lean.out, lean.err) == (full.out, full.err)
        assert lean.out or lean.err

    @settings(max_examples=300, deadline=None)
    @given(subcommand_argvs())
    def test_drawn_argv_parses_as_the_full_parser_does(self, argv):
        # The same namespace when both accept; the same exit code and
        # output when either rejects.
        assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "a.tsv"],
            ["train", "--train", "t.tsv", "--c1", "0.5", "-o", "m.crf"],
            ["tag", "-m", "m.crf", "c.tsv", "-o", "o.tsv"],
            ["tag", "c.tsv", "--mod", "m.crf", "--output=o.tsv", "-c", "x.cfg"],
            ["eval", "--gold", "g.tsv", "--pred", "p.tsv", "--format", "tsv"],
            ["tune", "--jobs", "2", "--c1-values", "0.1,0.2"],
            ["ablate", "--dev", "d.tsv", "--jobs", "1", "--c2", "0.1"],
        ],
        ids=" ".join,
    )
    def test_one_subcommand_parser_gives_the_full_namespace(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


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
        assert header == "borrowings-crf 3"

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

        monkeypatch.setattr(
            optim, "_two_loop",
            lambda grad, *history, out, tmp: np.copyto(out, grad),
        )
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
                x=np.array(x0, dtype=float), stop=optim.LINE_SEARCH_FAILED,
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

    @pytest.mark.parametrize(
        "flags, patch, line",
        [
            (
                ["--period", "1", "--delta", "1e9"], None,
                "trained 1 iterations (converged), final objective 67.579192, "
                "1136 attributes",
            ),
            (
                ["--max-iterations", "1"], None,
                "trained 1 iterations (stopped at the iteration cap), "
                "final objective 67.579192, 1136 attributes",
            ),
            (
                ["--c1", "0.1"],
                ("_two_loop", lambda grad, *history, out, tmp: np.copyto(out, grad)),
                "trained 0 iterations (stalled), final objective 225.321308, "
                "0 attributes",
            ),
            (
                [], ("_MAX_BACKTRACKS", 0),
                "trained 0 iterations (line search failed), "
                "final objective 225.321308, 0 attributes",
            ),
        ],
        ids=["converged", "iteration-cap", "stalled", "line-search-failed"],
    )
    def test_train_reports_how_the_run_ended(
        self, corpora, tmp_path, capsys, monkeypatch, flags, patch, line
    ):
        from borrowings import optim

        if patch is not None:
            monkeypatch.setattr(optim, *patch)
        assert run([
            "train", "--train", str(corpora / "train.tsv"),
            "-o", str(tmp_path / "model.crf"), *flags,
        ]) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == line
        warned = "warning: line search failed; kept the best iterate found\n"
        assert (warned in err) == ("line search failed" in line)

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
            ("test_corpus = x", "unknown key 'test_corpus'"),
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


# A configuration file to corrupt, and the fields (split at `=`) and
# lines a corrupted one may hold.
CONFIG_TEXT = """# pipeline settings

train_corpus = train.tsv
c1 = 0.05
c2 = 0.01
max_iterations = 40
window_radius = 2
embedding = false
embedding_scaling = 1.5
ignore_other = true
c1_values = 0.05, 0.1
embedding_tables = none, table.vec
"""
JUNK_CONFIG_FIELDS = (
    "", " ", "-1", "0", "nan", "inf", "1e999", "true", "yes", ",", "none",
    "c1", "mystery", "\x00", "\u2028", "0x10", "1" * 5000,
)
JUNK_CONFIG_LINES = ("", "  ", "#", "=", "c2 = 0.2", "period = 0", "lbfgs_memory = -3")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.conf"


class TestCorruptedConfigFiles:
    @settings(max_examples=150, deadline=None)
    @given(
        mutations=st.lists(
            line_mutations(
                JUNK_CONFIG_FIELDS,
                JUNK_CONFIG_LINES,
                ("drop", "duplicate", "swap", "field", "cut", "insert", "cr"),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_only_validation_or_config_errors_are_raised(self, config_path, mutations):
        text = CONFIG_TEXT
        for mutation in mutations:
            text = mutate(text, mutation, sep="=")
        with open(config_path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        try:
            cli.read_config_file(str(config_path))
            cli.build_run_config(str(config_path), {})
        except (ValidationError, ConfigError):
            pass


class TestCliSurface:
    def test_arguments_match_the_recorded_table(self):
        recorded = json.loads((DATA / "cli_surface.json").read_text(encoding="utf-8"))
        assert cli_surface() == recorded


# The declared type of each configuration key, and raw texts of that
# type: a flag value or the right-hand side of a config file line.
KEY_TYPES = {
    f.name: f.type
    for cls in (RunConfig, FeatureConfig, TrainConfig)
    for f in fields(cls)
    if f.name not in ("features", "training")
}
RAW_FLOATS = st.floats(
    min_value=-1.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(repr)
RAW_VALUES = {
    "int": st.integers(-3, 2000).map(str),
    "float": RAW_FLOATS,
    "tuple[float, ...]": st.lists(RAW_FLOATS, min_size=1, max_size=4).map(",".join),
    "tuple[str, ...]": st.lists(
        st.sampled_from(("none", "a.vec", "tables/b.vec")), min_size=1, max_size=3
    ).map(",".join),
    "str | None": st.sampled_from(("none", "a.tsv", "runs/b.crf")),
}
# What a subcommand needs besides the flag under test: `tag` requires a
# corpus and an output path.
REQUIRED_ARGV = {"tag": ["apply.tsv", "-o", "pred.tsv"]}
TYPED_KEY_FLAGS = [
    (command, action)
    for command, parser in subcommand_parsers(cli.build_parser()).items()
    for action in parser._actions
    if action.dest in KEY_TYPES and action.type is not None
]


def config_or_error(build):
    """The repr of the config `build` returns, which tells 5 from 5.0,
    or the error it raises."""
    try:
        return repr(build())
    except (ValidationError, ConfigError) as exc:
        return type(exc), str(exc)


class TestFlagsAndConfigFileAgree:
    @pytest.mark.parametrize(
        "command, action",
        TYPED_KEY_FLAGS,
        ids=[f"{c} {a.option_strings[0]}" for c, a in TYPED_KEY_FLAGS],
    )
    def test_flag_parses_as_the_config_file_does(self, command, action):
        assert action.type is cli._KEY_PARSERS[action.dest]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flag_and_file_give_the_same_config(self, config_path, data):
        command, action = data.draw(st.sampled_from(TYPED_KEY_FLAGS))
        raw = data.draw(RAW_VALUES[KEY_TYPES[action.dest]])
        args = cli.build_parser().parse_args(
            [command, *REQUIRED_ARGV.get(command, ()),
             f"{action.option_strings[0]}={raw}"]
        )
        from_flag = config_or_error(
            lambda: cli.build_run_config(None, cli._flag_values(args))
        )
        config_path.write_text(f"{action.dest} = {raw}\n", encoding="utf-8")
        from_file = config_or_error(
            lambda: cli.build_run_config(str(config_path), {})
        )
        assert from_flag == from_file

    def test_every_typed_key_flag_is_covered(self):
        flags = {a.option_strings[0] for _, a in TYPED_KEY_FLAGS}
        assert len(flags) == 16
        assert {KEY_TYPES[a.dest] for _, a in TYPED_KEY_FLAGS} == set(RAW_VALUES)

    @pytest.mark.parametrize(
        "command, flag, key, message",
        [
            ("train", "--train", "train_corpus", "training corpus is required"),
            ("tune", "--dev", "dev_corpus", "development corpus is required"),
        ],
    )
    def test_none_is_no_path_in_a_flag_and_in_a_file(
        self, corpora, config_path, tmp_path, capsys, command, flag, key, message
    ):
        argv = [command, "-o", str(tmp_path / "out")]
        if key != "train_corpus":
            argv += ["--train", str(corpora / "train.tsv")]
        config_path.write_text(f"{key} = none\n", encoding="utf-8")
        for extra in ([flag, "none"], ["-c", str(config_path)]):
            assert run([*argv, *extra]) == 1
            assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tag_model_none_is_no_model_file(self, corpora, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        argv = ["tag", "-m", "none", str(corpora / "apply.tsv"), "-o", str(pred)]
        assert run(argv) == 1
        assert "error: model file is required" in capsys.readouterr().err


class TestTagModelKey:
    """`tag` takes its model from `-m` or from the config file's `model`
    key, as `train` takes the path it writes."""

    @pytest.fixture(scope="class")
    def model(self, corpora, tmp_path_factory):
        path = tmp_path_factory.mktemp("tag-model") / "model.crf"
        argv = ["train", "--train", str(corpora / "train.tsv"), "-o", str(path),
                "--max-iterations", "20"]
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) == 0
        return path

    def tag(self, corpora, out, *flags):
        return run(["tag", *flags, str(corpora / "apply.tsv"), "-o", str(out)])

    def test_the_model_key_tags_as_m_does(self, corpora, model, tmp_path, capsys):
        config = tmp_path / "tag.cfg"
        config.write_text(f"model = {model}\n", encoding="utf-8")
        by_flag, by_file = tmp_path / "flag.tsv", tmp_path / "file.tsv"
        assert self.tag(corpora, by_flag, "-m", str(model)) == 0
        assert self.tag(corpora, by_file, "-c", str(config)) == 0
        assert "warning" not in capsys.readouterr().err
        assert by_file.read_bytes() == by_flag.read_bytes()

    def test_m_overrides_the_model_key(self, corpora, model, tmp_path, capsys):
        config = tmp_path / "tag.cfg"
        config.write_text(f"model = {tmp_path / 'absent.crf'}\n", encoding="utf-8")
        by_flag, both = tmp_path / "flag.tsv", tmp_path / "both.tsv"
        assert self.tag(corpora, by_flag, "-m", str(model)) == 0
        capsys.readouterr()
        assert self.tag(corpora, both, "-c", str(config), "-m", str(model)) == 0
        err = capsys.readouterr().err
        assert "warning: flag value for model overrides the config file" in err
        assert both.read_bytes() == by_flag.read_bytes()

    def test_no_model_is_a_configuration_error(self, corpora, tmp_path, capsys):
        config = tmp_path / "tag.cfg"
        config.write_text("window_radius = 1\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        for flags in ((), ("-c", str(config))):
            assert self.tag(corpora, pred, *flags) == 1
            assert "error: model file is required" in capsys.readouterr().err
        assert not pred.exists()


class TestWindowRadiusBound:
    """A radius above 16 is refused wherever it is set, before any table
    as wide as the window is built."""

    @pytest.mark.parametrize("in_config_file", [False, True])
    def test_train(self, corpora, tmp_path, capsys, in_config_file):
        out = tmp_path / "m.crf"
        argv = ["train", "--train", str(corpora / "train.tsv"), "-o", str(out)]
        if in_config_file:
            config = tmp_path / "wide.cfg"
            config.write_text("window_radius = 17\n", encoding="utf-8")
            argv += ["-c", str(config)]
        else:
            argv += ["--window-radius", "17"]
        assert run(argv) == 1
        assert "window_radius must be between 0 and 16" in capsys.readouterr().err
        assert not out.exists()

    def test_model_file(self, corpora, tmp_path, capsys):
        text = CANARY.read_text(encoding="utf-8")
        model = tmp_path / "wide.crf"
        model.write_text(
            text.replace("window_radius=2", "window_radius=17", 1),
            encoding="utf-8",
        )
        pred = tmp_path / "pred.tsv"
        argv = ["tag", "-m", str(model), str(corpora / "apply.tsv"), "-o", str(pred)]
        assert run(argv) == 1
        assert "bad feature_config: window_radius" in capsys.readouterr().err
        assert not pred.exists()


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

    def test_a_table_wider_than_the_bound_is_refused(
        self, corpora, tmp_path, capsys, table_file
    ):
        wide = tmp_path / "wide.vec"
        wide.write_text("casa" + " 0.5" * (MAX_DIM + 1) + "\n", encoding="utf-8")
        refused = f"line 1: {MAX_DIM + 1} components, more than {MAX_DIM}"
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            f"train_corpus = {corpora / 'train.tsv'}\n"
            f"embedding = true\n"
            f"max_iterations = 15\n",
            encoding="utf-8",
        )
        model = tmp_path / "emb.crf"
        train = ["train", "-c", str(cfg), "-o", str(model), "--embeddings"]
        assert run([*train, str(wide)]) == 1
        assert refused in capsys.readouterr().err
        assert not model.exists()
        assert run([*train, str(table_file)]) == 0
        pred = tmp_path / "pred.tsv"
        argv = ["tag", "-m", str(model), str(corpora / "apply.tsv"), "-o", str(pred)]
        assert run([*argv, "--embeddings", str(wide)]) == 1
        assert refused in capsys.readouterr().err
        assert not pred.exists()


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

        real_train = tune.train

        def flaky(corpus, cfg, table, tc, ignore_other=False, progress=None):
            if tc.c1 == 0.1:
                raise ValueError("synthetic failure")
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", flaky)
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

        real_train = tune.train

        def flaky(corpus, cfg, table, tc, ignore_other=False, progress=None):
            if not cfg.shape:
                raise ArithmeticError("synthetic divergence")
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", flaky)
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
