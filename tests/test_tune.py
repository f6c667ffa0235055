import dataclasses
import os
from decimal import Decimal

import pytest

from borrowings import tune
from borrowings.crf import TrainConfig, tag, train
from borrowings.errors import ConfigError
from borrowings.evaluation import EvalReport, LabelScore, evaluate
from borrowings.features import FeatureConfig
from borrowings.rounding import round2
from borrowings.tune import (
    AblationRow,
    GridPoint,
    GridResult,
    GridSpec,
    ablate,
    grid_search,
    render_ablation_text,
    render_ablation_tsv,
    render_tune_text,
    render_tune_tsv,
)
from conftest import synthetic_corpus, synthetic_embeddings


@pytest.fixture(scope="module")
def train_corpus():
    return synthetic_corpus(n_headlines=18, seed=31, name="tune-train")


@pytest.fixture(scope="module")
def dev_corpus():
    return synthetic_corpus(n_headlines=10, seed=32, name="tune-dev")


@pytest.fixture(scope="module")
def easy_dev(train_corpus):
    # Same seed, fewer headlines: a prefix of the training stream, so
    # every grid point that fits training scores 100 and ties.
    return synthetic_corpus(n_headlines=10, seed=31, name="tune-easy-dev")


@pytest.fixture(scope="module")
def small_sweep(train_corpus, easy_dev):
    grid = GridSpec(
        c1_values=(0.0, 0.1),
        c2_values=(0.01, 0.1),
        scaling_values=(1.0,),
    )
    return grid_search(
        train_corpus, easy_dev, FeatureConfig(), grid, quick(), jobs=1
    )


def quick(max_iterations=40):
    return TrainConfig(max_iterations=max_iterations)


class TestGridSpec:
    def test_default_sweep(self):
        spec = GridSpec()
        assert spec.c1_values == (0.01, 0.05, 0.1, 0.5, 1.0)
        assert spec.c2_values == (0.01, 0.05, 0.1, 0.5, 1.0)
        assert spec.scaling_values == (0.5, 1.0, 2.0, 4.0)
        assert spec.embedding_tables == (None,)
        assert spec.size() == 100

    def test_size_counts_tables(self):
        spec = GridSpec(
            c1_values=(0.0, 0.1),
            c2_values=(0.01,),
            scaling_values=(1.0, 2.0),
            embedding_tables=(None, None),
        )
        assert spec.size() == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(c1_values=())
        with pytest.raises(ConfigError):
            GridSpec(c2_values=(-0.1,))
        with pytest.raises(ConfigError):
            GridSpec(scaling_values=(0.0,))
        with pytest.raises(ConfigError):
            GridSpec(embedding_tables=())
        for bad in (float("nan"), float("inf")):
            for key in ("c1_values", "c2_values", "scaling_values"):
                with pytest.raises(ConfigError, match="finite"):
                    GridSpec(**{key: (1.0, bad)})


def fake_report(tp, fp, fn):
    row = LabelScore("ENG", tp, fp, fn)
    return EvalReport(ignore_other=True, scores=(row,), borrowing=row)


def fake_result(f1_level, c1=0.1, c2=0.1, scaling=1.0, idx=0, failed=False):
    point = GridPoint(
        c1=c1, c2=c2, scaling=scaling, embedding_index=idx, embedding_name="none"
    )
    if failed:
        return GridResult(point=point, report=None, iterations=0, error="boom")
    counts = {100.0: (1, 0, 0), 50.0: (1, 1, 1), 0.0: (0, 1, 1)}[f1_level]
    return GridResult(point=point, report=fake_report(*counts), iterations=3)


class TestRankKey:
    def test_higher_f1_first(self):
        low = fake_result(50.0, c1=0.0)
        high = fake_result(100.0, c1=1.0)
        assert sorted([low, high], key=tune._rank_key) == [high, low]

    def test_failure_ranks_last_regardless(self):
        failed = fake_result(0.0, c1=0.0, failed=True)
        zero = fake_result(0.0, c1=1.0)
        assert sorted([failed, zero], key=tune._rank_key) == [zero, failed]

    def test_tie_broken_by_c1_then_c2_then_scaling_then_table(self):
        results = [
            fake_result(50.0, c1=0.1, c2=0.1, scaling=2.0, idx=1),
            fake_result(50.0, c1=0.1, c2=0.1, scaling=2.0, idx=0),
            fake_result(50.0, c1=0.1, c2=0.1, scaling=1.0, idx=1),
            fake_result(50.0, c1=0.1, c2=0.05, scaling=4.0, idx=1),
            fake_result(50.0, c1=0.05, c2=1.0, scaling=4.0, idx=1),
        ]
        ranked = sorted(results, key=tune._rank_key)
        assert ranked == results[::-1]


class TestGridSearch:
    def test_enumeration_order(self, small_sweep):
        combos = [(r.point.c1, r.point.c2) for r in small_sweep.results]
        assert combos == [(0.0, 0.01), (0.0, 0.1), (0.1, 0.01), (0.1, 0.1)]
        assert all(r.point.embedding_name == "none" for r in small_sweep.results)

    def test_separable_grid_ties_rank_by_hyperparameters(self, small_sweep):
        assert all(r.eng_f1 == 100.0 for r in small_sweep.results)
        ranked = [(r.point.c1, r.point.c2) for r in small_sweep.ranked]
        assert ranked == sorted(ranked)
        assert small_sweep.best is small_sweep.ranked[0]
        assert small_sweep.best.point.c1 == 0.0

    def test_iterations_recorded(self, small_sweep):
        assert all(r.iterations > 0 for r in small_sweep.results)

    def test_rerun_and_thread_pool_are_byte_identical(
        self, small_sweep, train_corpus, easy_dev
    ):
        grid = GridSpec(
            c1_values=(0.0, 0.1),
            c2_values=(0.01, 0.1),
            scaling_values=(1.0,),
        )
        again = grid_search(
            train_corpus, easy_dev, FeatureConfig(), grid, quick(), jobs=1
        )
        threaded = grid_search(
            train_corpus, easy_dev, FeatureConfig(), grid, quick(), jobs=3
        )
        reference = render_tune_tsv(small_sweep)
        assert render_tune_tsv(again) == reference
        assert render_tune_tsv(threaded) == reference
        assert threaded.results == small_sweep.results

    def test_scaling_inert_without_embeddings(
        self, train_corpus, dev_corpus, monkeypatch, tmp_path
    ):
        # With no embedding table the scaling knob changes nothing, so
        # all three points tie and must rank in ascending scaling order,
        # and one training serves them all.
        calls = count_train_calls(monkeypatch, tmp_path)
        grid = GridSpec(
            c1_values=(0.0,),
            c2_values=(0.01,),
            scaling_values=(2.0, 0.5, 1.0),
        )
        result = grid_search(
            train_corpus, dev_corpus, FeatureConfig(), grid,
            quick(max_iterations=25),
        )
        f1s = {r.eng_f1 for r in result.results}
        assert len(f1s) == 1
        assert [r.point.scaling for r in result.ranked] == [0.5, 1.0, 2.0]
        assert calls() == 1

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_matches_every_point_trained_on_its_own(
        self, train_corpus, dev_corpus, mixed_grid, monkeypatch, tmp_path, jobs
    ):
        grid, expected = mixed_grid
        calls = count_train_calls(monkeypatch, tmp_path)
        result = grid_search(
            train_corpus, dev_corpus, FeatureConfig(), grid,
            quick(max_iterations=25), jobs=jobs,
        )
        # 2 c2 values without a table, 2 c2 x 2 scaling values with one.
        assert calls() == 6
        assert result.results == expected.results
        assert render_tune_tsv(result) == render_tune_tsv(expected)
        assert render_tune_text(result) == render_tune_text(expected)

    def test_embedding_tables_enumerated(self, train_corpus, dev_corpus):
        table = synthetic_embeddings(train_corpus)
        grid = GridSpec(
            c1_values=(0.0,),
            c2_values=(0.01,),
            scaling_values=(1.0,),
            embedding_tables=(None, table),
        )
        result = grid_search(
            train_corpus, dev_corpus, FeatureConfig(), grid,
            quick(max_iterations=25),
        )
        names = [r.point.embedding_name for r in result.results]
        assert names == ["none", "synthetic-vectors"]
        assert [r.point.embedding_index for r in result.results] == [0, 1]
        assert not any(r.failed for r in result.results)

    def test_one_bad_point_does_not_kill_the_sweep(
        self, train_corpus, dev_corpus, monkeypatch
    ):
        real_train = tune.train

        def flaky(corpus, cfg, table, tc, ignore_other=False, progress=None):
            if tc.c1 == 0.5:
                raise ValueError("synthetic failure")
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", flaky)
        grid = GridSpec(
            c1_values=(0.0, 0.5),
            c2_values=(0.01,),
            scaling_values=(1.0,),
        )
        # The failing point is the second distinct run, which a forked
        # worker runs at jobs=2.
        for jobs in (1, 2):
            result = grid_search(
                train_corpus, dev_corpus, FeatureConfig(), grid,
                quick(max_iterations=10), jobs=jobs,
            )
            ok, bad = result.results
            assert not ok.failed
            assert bad.failed
            assert bad.error == "synthetic failure"
            assert bad.eng_f1 == 0.0
            assert result.ranked[-1] is bad

    def test_unexpected_errors_abort_the_sweep(
        self, train_corpus, dev_corpus, monkeypatch
    ):
        real_train = tune.train

        def broken(corpus, cfg, table, tc, ignore_other=False, progress=None):
            # The second distinct run of the grid and of the ablation.
            if tc.c1 == 0.5 or not cfg.bias:
                raise RuntimeError("a bug, not a bad grid point")
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", broken)
        grid = GridSpec(
            c1_values=(0.0, 0.5), c2_values=(0.01,), scaling_values=(1.0,)
        )
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match="a bug"):
                grid_search(
                    train_corpus, dev_corpus, FeatureConfig(), grid,
                    quick(max_iterations=10), jobs=jobs,
                )
            with pytest.raises(RuntimeError, match="a bug"):
                ablate(
                    train_corpus, dev_corpus, FeatureConfig(),
                    quick(max_iterations=10), jobs=jobs,
                )

    def test_a_worker_that_dies_aborts_the_sweep(
        self, train_corpus, dev_corpus, monkeypatch
    ):
        real_train = tune.train

        def dying(corpus, cfg, table, tc, ignore_other=False, progress=None):
            if tc.c1 == 0.5:
                os._exit(3)  # as a worker killed for memory would end
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", dying)
        grid = GridSpec(
            c1_values=(0.0, 0.5), c2_values=(0.01,), scaling_values=(1.0,)
        )
        with pytest.raises(RuntimeError, match="worker process 1 exited with code 3"):
            grid_search(
                train_corpus, dev_corpus, FeatureConfig(), grid,
                quick(max_iterations=5), jobs=2,
            )

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, train_corpus, dev_corpus, jobs):
        grid = GridSpec(c1_values=(0.0,), c2_values=(0.01,), scaling_values=(1.0,))
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            grid_search(
                train_corpus, dev_corpus, FeatureConfig(), grid, quick(), jobs=jobs
            )
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            ablate(train_corpus, dev_corpus, FeatureConfig(), quick(), jobs=jobs)

    def test_workers_capped_at_distinct_runs(
        self, train_corpus, dev_corpus, monkeypatch
    ):
        # Recorded, then run in this process: no worker is forked.
        workers = []

        def serial(run, n, count):
            workers.append(count)
            return [run(i) for i in range(n)]

        monkeypatch.setattr(tune, "_fork_map", serial)
        grid = GridSpec(
            c1_values=(0.0, 0.5), c2_values=(0.01,), scaling_values=(1.0, 2.0)
        )
        grid_search(
            train_corpus, dev_corpus, FeatureConfig(), grid,
            quick(max_iterations=5), jobs=10**6,
        )
        ablate(
            train_corpus, dev_corpus, FeatureConfig(), quick(max_iterations=5),
            jobs=10**6,
        )
        # 4 points differing only in scaling share 2 runs; 10 ablation rows.
        assert workers == [2, 10]


def count_train_calls(monkeypatch, tmp_path):
    """Count `tune.train` calls, forked workers' included.

    Each call appends a line to a file opened with O_APPEND, which
    every process shares; the returned function reads the count.
    """
    path = tmp_path / "train-calls"
    path.write_bytes(b"")
    real_train = tune.train

    def counting(corpus, cfg, table, tc, ignore_other=False, progress=None):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b"train\n")
        finally:
            os.close(fd)
        return real_train(corpus, cfg, table, tc, ignore_other, progress)

    monkeypatch.setattr(tune, "train", counting)
    return lambda: path.read_bytes().count(b"\n")


@pytest.fixture(scope="module")
def mixed_grid(train_corpus, dev_corpus):
    """A grid with and without a table, and its sweep with every point
    trained, tagged and scored on its own."""
    table = synthetic_embeddings(train_corpus)
    grid = GridSpec(
        c1_values=(0.0,),
        c2_values=(0.01, 0.1),
        scaling_values=(0.5, 2.0),
        embedding_tables=(None, table),
    )
    results = []
    for c1 in grid.c1_values:
        for c2 in grid.c2_values:
            for scaling in grid.scaling_values:
                for idx, table in enumerate(grid.embedding_tables):
                    cfg = FeatureConfig(
                        embedding=table is not None, embedding_scaling=scaling
                    )
                    tc = dataclasses.replace(quick(max_iterations=25), c1=c1, c2=c2)
                    model = train(train_corpus, cfg, table, tc, ignore_other=True)
                    report = evaluate(
                        dev_corpus, tag(model, dev_corpus, table), ignore_other=True
                    )
                    name = table.name if table is not None else "none"
                    results.append(
                        GridResult(
                            point=GridPoint(c1, c2, scaling, idx, name),
                            report=report,
                            iterations=model.diagnostics.iterations,
                        )
                    )
    ranked = tuple(sorted(results, key=tune._rank_key))
    return grid, tune.TuneResult(results=tuple(results), ranked=ranked)


class TestTuneRendering:
    def test_tsv_layout(self, small_sweep):
        lines = render_tune_tsv(small_sweep).splitlines()
        assert lines[0].split("\t") == [
            "c1", "c2", "scaling", "embedding",
            "precision", "recall", "f1", "iterations",
        ]
        cells = lines[1].split("\t")
        assert cells[:4] == ["0.0", "0.01", "1.0", "none"]
        assert cells[6] == "100.00"
        assert cells[7].isdigit()

    def test_failed_cells(self):
        result = tune.TuneResult(
            results=(fake_result(0.0, failed=True),),
            ranked=(fake_result(0.0, failed=True),),
        )
        row = render_tune_tsv(result).splitlines()[1].split("\t")
        assert row[4:7] == ["failed", "failed", "failed"]
        assert row[7] == "0"

    def test_text_table_aligns_columns(self):
        result = tune.TuneResult(
            results=(fake_result(50.0), fake_result(100.0, c1=1.0)),
            ranked=(fake_result(100.0, c1=1.0), fake_result(50.0)),
        )
        text = render_tune_text(result)
        lines = text.splitlines()
        assert lines[0].startswith("c1")
        assert len(lines) == 3
        assert "100.00" in lines[1] and "50.00" in lines[2]


@pytest.fixture(scope="module")
def ablation_table(train_corpus, dev_corpus):
    return ablate(
        train_corpus,
        dev_corpus,
        FeatureConfig(),
        TrainConfig(c2=0.05, max_iterations=30),
        jobs=2,
    )


class TestAblation:
    def test_row_structure(self, ablation_table):
        names = [row.name for row in ablation_table.rows]
        expected = ["all"] + [
            f"-{family}" for family in FeatureConfig().enabled_families()
        ]
        assert names == expected
        assert len(names) == 10  # all + nine default families
        assert ablation_table.baseline is ablation_table.rows[0]

    def test_delta_is_rounded_difference(self, ablation_table):
        base = round2(ablation_table.baseline.report.score("ENG").f1)
        for row in ablation_table.rows[1:]:
            delta = ablation_table.delta_f1(row)
            assert isinstance(delta, Decimal)
            assert delta == round2(row.report.score("ENG").f1) - base

    def test_rendered_deltas_match_rendered_f1_columns(self, ablation_table):
        lines = render_ablation_tsv(ablation_table).splitlines()
        assert lines[0].split("\t") == [
            "features", "precision", "recall", "f1", "f1_change",
        ]
        base_f1 = Decimal(lines[1].split("\t")[3])
        assert lines[1].split("\t")[4] == ""  # baseline has no delta cell
        for line in lines[2:]:
            cells = line.split("\t")
            expected = Decimal(cells[3]) - base_f1
            assert cells[4] == f"{expected:+.2f}"

    def test_embedding_family_included_when_enabled(
        self, train_corpus, dev_corpus
    ):
        table = synthetic_embeddings(train_corpus)
        result = ablate(
            train_corpus,
            dev_corpus,
            FeatureConfig(embedding=True),
            TrainConfig(max_iterations=15),
            embeddings=table,
            jobs=2,
        )
        names = [row.name for row in result.rows]
        assert len(names) == 11
        assert "-embedding" in names

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_row_matches_its_variant_trained_on_its_own(
        self, train_corpus, dev_corpus, jobs
    ):
        table = synthetic_embeddings(train_corpus)
        config = FeatureConfig(
            embedding=True, window_radius=3, embedding_scaling=2.5
        )
        train_config = TrainConfig(c2=0.05, max_iterations=20)
        variants = [("all", config)] + [
            (f"-{family}", config.without(family))
            for family in config.enabled_families()
        ]
        expected = []
        for name, cfg in variants:
            cfg_table = table if cfg.embedding else None
            model = train(train_corpus, cfg, cfg_table, train_config, ignore_other=True)
            predicted = tag(model, dev_corpus, cfg_table)
            expected.append(
                AblationRow(
                    name=name,
                    report=evaluate(dev_corpus, predicted, ignore_other=True),
                    iterations=model.diagnostics.iterations,
                )
            )
        expected = tune.AblationTable(rows=tuple(expected))
        result = ablate(
            train_corpus, dev_corpus, config, train_config,
            embeddings=table, jobs=jobs,
        )
        names = [row.name for row in result.rows]
        assert "-quotation" in names and "-embedding" in names
        assert result.rows == expected.rows
        assert render_ablation_tsv(result) == render_ablation_tsv(expected)
        assert render_ablation_text(result) == render_ablation_text(expected)

    def test_failed_variant_renders_failed_cells(
        self, train_corpus, dev_corpus, monkeypatch
    ):
        real_train = tune.train

        def flaky(corpus, cfg, table, tc, ignore_other=False, progress=None):
            if not cfg.token:
                raise ValueError("synthetic failure")
            return real_train(corpus, cfg, table, tc, ignore_other, progress)

        monkeypatch.setattr(tune, "train", flaky)
        result = ablate(
            train_corpus,
            dev_corpus,
            FeatureConfig(),
            TrainConfig(max_iterations=10),
        )
        by_name = {row.name: row for row in result.rows}
        assert by_name["-token"].failed
        assert by_name["-token"].error == "synthetic failure"
        assert result.delta_f1(by_name["-token"]) is None
        line = next(
            line
            for line in render_ablation_tsv(result).splitlines()
            if line.startswith("-token\t")
        )
        assert line.split("\t")[1:] == ["failed", "failed", "failed", ""]
        text = render_ablation_text(result)
        assert "-token" in text

    def test_baseline_failure_blanks_every_delta(self):
        rows = (
            AblationRow(name="all", report=None, iterations=0, error="x"),
            AblationRow(name="-bias", report=fake_report(1, 0, 0), iterations=1),
        )
        table = tune.AblationTable(rows=rows)
        assert table.delta_f1(rows[1]) is None
        lines = render_ablation_tsv(table).splitlines()
        assert lines[2].split("\t") == ["-bias", "100.00", "100.00", "100.00", ""]
        assert "-bias" in render_ablation_text(table)
