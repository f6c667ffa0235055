"""Tests of the benchmark itself: generator determinism, self-time
arithmetic, and the checks that fail the command.

Run from the repository root:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", sorted(generate.SIZES))
def test_same_seed_gives_identical_files(tmp_path, workload):
    first = generate.generate(workload, 5, tmp_path / "a")
    second = generate.generate(workload, 5, tmp_path / "b")
    assert first["shape"] == second["shape"]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    generate.generate(workload, 6, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _span(i, name, start, end, parent=None, thread=1):
    return tracing.Span(i, name, start, end, parent, thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1, thread=2),
        _span(3, "b", 3.0, 6.0, parent=1, thread=3),  # overlaps a
        _span(4, "c", 8.0, 12.0, parent=1, thread=2),  # ends after root
        _span(5, "leaf", 2.0, 3.0, parent=2, thread=2),
    ]
    selfs = tracing.self_times(spans)
    # Children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds.
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_layer_metrics_on_a_hand_built_tree():
    rec = tracing.Recorder()
    rec.spans = [
        _span(1, "crf.train", 0.0, 10.0),
        _span(2, "crf.encode", 0.0, 1.0, parent=1),
        _span(3, "features.windowed", 0.2, 0.6, parent=2),
        _span(4, "optim.minimize", 1.0, 10.0, parent=1),
        _span(5, "crf.objective", 1.0, 4.0, parent=4),
        _span(6, "crf.objective", 5.0, 9.0, parent=4),
    ]
    rec.counts["optim.iterations"] = 1
    layers = tracing.layer_metrics(rec, 10.0)
    assert layers["crf.encode_self_s"] == pytest.approx(0.6)
    assert layers["optim.self_s"] == pytest.approx(2.0)
    assert layers["crf.objective_s"] == pytest.approx(7.0)
    assert layers["crf.objective_calls"] == 2
    assert layers["optim.evals_per_iteration"] == 2
    assert layers["crf.objective_ms_p50"] == pytest.approx(3500.0)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _copy_benchmark(root: Path) -> None:
    shutil.copytree(BENCH_DIR, root / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_canary_digest_fails_the_command(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    _copy_benchmark(tmp_path)
    expected_path = tmp_path / "benchmarks" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["canary_digest"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = _run(tmp_path, "--workload", "tag-feeds", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert "canary predictions digest" in proc.stdout


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
