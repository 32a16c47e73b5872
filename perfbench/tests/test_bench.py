"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from abmink import runner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(min_sends=0, setup_reps=1, import_reps=1, min_pairs=2)


def _run(capsys, workload: str, trace: int, **overrides) -> tuple[dict, str]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv, **{**TINY, **overrides}) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result, out = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert f"\n{metric['name']} = " in out
    assert "\nfailed_ratio = 0 1 " in out


def test_injected_nan_is_counted_as_failed(capsys, monkeypatch):
    real_run = runner.run

    def nan_run(request):
        report = real_run(request)
        report.rows[0][1] = float("nan")
        return report

    monkeypatch.setattr(runner, "run", nan_run)
    result, out = _run(capsys, "mirror-sweep", 0, setup_reps=0)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]
    assert "\nfailed_ratio = 1 1 " in out


def test_tampered_csv_cell_is_counted_as_failed(capsys, monkeypatch):
    real_emit = runner.emit

    def tampered_emit(report, fmt="table"):
        payload = real_emit(report, fmt)
        if fmt != "csv":
            return payload
        header, first, rest = payload.split(b"\n", 2)
        cells = first.split(b",")
        cell = cells[0]  # first decimal of the first (nonzero) column
        cells[0] = cell[:2] + (b"1" if cell[2:3] != b"1" else b"2") + cell[3:]
        return b"\n".join([header, b",".join(cells), rest])

    monkeypatch.setattr(runner, "emit", tampered_emit)
    result, _ = _run(capsys, "mirror-sweep", 0, setup_reps=0)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]


def test_same_seed_gives_same_requests():
    for make_pool, _ in workloads.WORKLOADS.values():
        texts = [[r.config_text() for r in make_pool(np.random.default_rng(s))]
                 for s in (3, 3, 4)]
        assert texts[0] == texts[1]
        assert texts[0] != texts[2] or len(texts[0]) == 1  # check takes no input


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
