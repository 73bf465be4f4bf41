"""Smoke test of the benchmark: every workload at minimal size.

    python3 -m pytest perfbench/test_smoke.py

It checks that each workload prints every metric with its unit, untraced and
traced; that a perturbed score or loss is counted as a failed operation; and
that the benchmark refuses to run where the program's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_program(), "trifuse must be importable from the checkout's src/"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_op_share": "failed/attempted"}
# The end-to-end figures each workload prints under its own names.
WORKLOAD_METRICS = {
    "train": {**COMMON, "train_samples_per_s": "items/s"},
    "eval": {**COMMON, "index_ms_per_item": "ms", "eval_s": "s", "eval_sumr": "SumR"},
    "query": {**COMMON, "query_ms_p50": "ms", "query_ms_p99": "ms"},
}


def bench(capsys, workload: str, trace: int = 0) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    report, result = bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {line.split()[0]: line.split()[2] for line in report if len(line.split()) == 3}
    for name, unit in WORKLOAD_METRICS[workload].items():
        assert printed.get(name) == unit, name

    report, result = bench(capsys, workload, trace=1)
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert any("traced / untraced - 1" in line for line in report)


@pytest.mark.parametrize("workload", ["eval", "query"])
def test_perturbed_score_is_a_failed_operation(capsys, monkeypatch, workload):
    from trifuse import similarity

    score_many = similarity.QueryScorer.score_many
    monkeypatch.setattr(similarity.QueryScorer, "score_many", lambda self, q: score_many(self, q) + 1e-3)
    _, result = bench(capsys, workload)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize(
    "factor, fails",
    [(1.0 + 1e-3, True), (float("nan"), True), (1.0 + 1e-7, False)],
    ids=["changed-formula", "non-finite", "rounding"],
)
def test_perturbed_loss_is_a_failed_operation(capsys, monkeypatch, factor, fails):
    """The reference trajectory rejects a changed loss and accepts float32 rounding."""
    from trifuse import trainer

    contrastive_loss = trainer.contrastive_loss
    monkeypatch.setattr(trainer, "contrastive_loss", lambda *a, **k: contrastive_loss(*a, **k) * factor)
    _, result = bench(capsys, "train")
    assert result["correct"] is not fails
    assert (result["failed"] > 0) is fails


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
