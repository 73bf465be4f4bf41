"""tools/bench_pairs.py's verdicts and bound checks, from hand-made run records: no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # median 104.5, IQR 4.5


def records(base: list[float], change: list[float], faults=(1000, 1000)) -> list[dict]:
    """The run records of alternating pairs, as `run_once` returns them, with
    one end-to-end metric `m` and the minor page faults `faults` gives per
    side, the pair number added."""
    runs = []
    for pair, values in enumerate(zip(base, change), 1):
        order = bench_pairs.SIDES if pair % 2 else bench_pairs.SIDES[::-1]
        for side in order:
            k = bench_pairs.SIDES.index(side)
            runs.append({"pair": pair, "side": side, "first": order[0], "failed": 0,
                         "minor_faults": faults[k] + pair, "end_to_end": {"m": [values[k], "ms"]}})
    return runs


CASES = {
    # every pair lower, medians 10 apart against an IQR of 4.5
    "all_pairs_lower": ([b - 10 for b in BASE], 0.25, "lower"),
    "all_pairs_higher": ([b + 10 for b in BASE], 0.25, "higher"),
    # nine of ten pairs suffice; the tenth reads higher
    "nine_pairs_lower": ([b - 10 for b in BASE[:9]] + [120.0], 0.25, "lower"),
    # eight of ten do not
    "eight_pairs_lower": ([b - 10 for b in BASE[:8]] + [120.0, 121.0], 0.25, "unchanged"),
    # a tie counts for neither side, so nine lower and one tie is still nine
    "nine_lower_one_tie": ([b - 10 for b in BASE[:9]] + [BASE[9]], 0.25, "lower"),
    # every pair lower, but the medians only 2 apart against an IQR of 4.5
    "lower_within_base_iqr": ([b - 2 for b in BASE], 0.25, "unchanged"),
    # the same, with a bound under the base's relative IQR (4.5 / 104.5 = 4.3%)
    "lower_within_noisy_base": ([b - 2 for b in BASE], 0.04, "unresolved"),
    "no_move_noisy_base": (BASE, 0.04, "unresolved"),
    "no_move_quiet_base": (BASE, 0.05, "unchanged"),
    "no_move_without_bound": (BASE, None, "unchanged"),
    # a clear move is reported even over a noisy base
    "lower_over_noisy_base": ([b - 10 for b in BASE], 0.04, "lower"),
}


def specs(bound: float | None, better: str = "lower") -> dict:
    """The BENCHMARK.json `end_to_end` entry of metric `m`, keyed by its name."""
    return {"m": {"name": "m", "unit": "ms", "better": better, **({} if bound is None else {"bound": bound})}}


@pytest.mark.parametrize("case", CASES)
def test_verdict(case):
    change, bound, want = CASES[case]
    row = bench_pairs.summarise("train", 1, records(BASE, change), specs(bound))
    metric = row["metrics"]["m"]
    assert row["pairs"] == 10 and row["all_correct"] == {"base": True, "change": True}
    assert metric["base"]["median"] == 104.5 and metric["base_iqr"] == 4.5
    assert metric["change_lower_pairs"] == sum(c < b for b, c in zip(BASE, change))
    assert metric["change_higher_pairs"] == sum(c > b for b, c in zip(BASE, change))
    assert metric["verdict"] == want


BOUND_CASES = {
    # factor on every base run -> (better, bound, inside_bound)
    "lower_better_10pct_worse": (1.10, "lower", 0.25, True),
    "lower_better_30pct_worse": (1.30, "lower", 0.25, False),
    "lower_better_30pct_better": (0.70, "lower", 0.25, True),
    "lower_better_5pct_worse_tight_bound": (1.05, "lower", 0.04, False),
    "higher_better_10pct_lower": (0.90, "higher", 0.25, True),
    "higher_better_30pct_lower": (0.70, "higher", 0.25, False),
    "higher_better_30pct_higher": (1.30, "higher", 0.25, True),
    "without_bound": (1.30, "lower", None, None),
}


@pytest.mark.parametrize("case", BOUND_CASES)
def test_change_vs_base_and_inside_bound(case):
    """The regression half of the rule: the change median against the base
    median, judged by the bound in the metric's `better` direction."""
    factor, better, bound, want = BOUND_CASES[case]
    change = [b * factor for b in BASE]
    metric = bench_pairs.summarise("train", 1, records(BASE, change), specs(bound, better))["metrics"]["m"]
    assert metric["change_vs_base"] == pytest.approx(factor - 1, abs=1e-12)
    assert metric["inside_bound"] is want
    # the verdict is direction only: every pair moved, by more than the base IQR
    assert metric["verdict"] == ("lower" if factor < 1 else "higher")


def test_zero_base_median_has_no_relative_change():
    """A metric that reads 0 at the base, such as perfbench's unbounded
    `failed_op_share`, gets null for both fields, not a division error."""
    metric = bench_pairs.summarise("train", 1, records([0.0] * 10, [0.0] * 10), specs(0.25))["metrics"]["m"]
    assert metric["change_vs_base"] is None and metric["inside_bound"] is None
    assert metric["verdict"] == "unchanged"


def test_a_failing_run_keeps_the_finished_rows(tmp_path, monkeypatch):
    """A benchmark process that fails in the second row leaves the first
    row's summary on disk."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.25}]}))
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append(workload)
        if workload == "eval":
            raise subprocess.CalledProcessError(1, ["perfbench/run.py"])
        return {"machine": {"cpus": 2}, "failed": 0, "minor_faults": 1000,
                "end_to_end": {"m": [100.0 + len(calls), "ms"]}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main(["--base", str(tmp_path), "--change", str(tmp_path), "--out", str(out),
                          "train:1:2", "eval:1:2"])
    doc = json.loads(out.read_text())
    assert calls == ["train"] * 4 + ["eval"]
    assert [(row["workload"], row["seed"], row["pairs"]) for row in doc["rows"]] == [("train", 1, 2)]
    assert doc["machine"] == {"cpus": 2}


def test_a_finished_row_prints_each_verdict(tmp_path, monkeypatch, capsys):
    """When a row finishes, each end-to-end metric of BENCHMARK.json gets one
    line with its verdict and change_vs_base; a figure without an entry
    there (`x`) stays in the JSON only."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
        {"name": "m", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "z", "unit": "ms", "better": "lower", "bound": 0.25}]}))
    values = {"base": iter(BASE), "change": iter(b - 10 for b in BASE)}

    def run_once(root, workload, seed, seconds):
        return {"machine": {}, "failed": 0, "minor_faults": 1000,
                "end_to_end": {"m": [next(values[root.name]), "ms"], "z": [0.0, "ms"], "x": [1.0, "items/s"]}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
                      "--out", str(tmp_path / "bench.json"), "train:3:10"])
    lines = [line for line in capsys.readouterr().out.splitlines() if " pair " not in line]
    # change medians 94.5 against 104.5: -9.57%
    assert lines == ["train seed 3 m: lower, change_vs_base -9.57%, inside bound yes",
                     "train seed 3 z: unchanged, change_vs_base n/a, inside bound n/a"]


def test_minor_faults_median_per_side_without_verdict():
    """Each row gives each side's median of its runs' minor page faults, and
    each run keeps its own count; the faults get no verdict."""
    row = bench_pairs.summarise("train", 1, records(BASE, BASE, faults=(2000, 50)), specs(0.25))
    # pairs 1-10 add 1-10 faults: medians 2005.5 and 55.5
    assert row["minor_faults"] == {"base": 2005.5, "change": 55.5}
    assert sorted(run["minor_faults"] for run in row["runs"] if run["side"] == "change") == list(range(51, 61))
    assert list(row["metrics"]) == ["m"] and row["metrics"]["m"]["verdict"] == "unchanged"


def test_run_once_counts_the_child_minor_faults(tmp_path):
    """A real child process in a stand-in checkout: its record comes back
    with the page faults it took, which a Python process never starts
    without."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, pathlib, sys\n"
        "out = pathlib.Path(__file__).parent / 'out'\n"
        "out.mkdir(exist_ok=True)\n"
        "workload, seed = sys.argv[sys.argv.index('--workload') + 1], sys.argv[sys.argv.index('--seed') + 1]\n"
        "(out / f'{workload}-seed{seed}-trace0.json').write_text(json.dumps({'failed': 0}))\n")
    record = bench_pairs.run_once(tmp_path, "train", 3, 1)
    assert record["failed"] == 0
    assert type(record["minor_faults"]) is int and record["minor_faults"] > 0
