"""Alternating parent/change pairs of the perf benchmark, summarised as BENCH_perf.json.

    python3 tools/bench_pairs.py --base DIR [--change DIR] --out BENCH_perf.json \
        eval:1:10 eval:5:5 train:1:10 query:1:10

Each WORKLOAD:SEED:PAIRS argument runs `perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0` PAIRS times in each checkout, one process
at a time; odd pairs run the base first, even pairs the change. S is the
`run_seconds` of the change checkout's BENCHMARK.json, the same on both
sides. `--base` and `--change` are the roots of two full checkouts (the
change defaults to this one). Make the base with `git archive`, never by
checking out over this tree. The output is rewritten after every row, so a
run that fails keeps the rows finished before it. When a row finishes, one
line per end-to-end metric of BENCHMARK.json gives its verdict and
`change_vs_base`.

The output holds, per row (workload and seed), each side's median count of
minor page faults per benchmark process (`minor_faults`: the growth of
`ru_minflt` of `getrusage(RUSAGE_CHILDREN)` over the run, which shows heap
effects run by run; it gets no verdict), each end-to-end metric's
median and quartiles on each side, the parent's interquartile range, how many
pairs the change read lower and higher (ties count for neither side), the
change median over the base median minus 1 (`change_vs_base`; null for a
base median of 0), whether that is not worse, in the metric's `better`
direction, than its BENCHMARK.json bound (`inside_bound`; null for a metric
without a bound or without a `change_vs_base`), the metric's verdict, every
run's figures, and perfbench's machine block. The verdict is, by the first
rule that holds:
  lower / higher  at least nine tenths of the pairs read that way on the
                  change, and its median is further that way from the base
                  median than the base interquartile range;
  unresolved      the base interquartile range exceeds the metric's
                  `end_to_end` bound in BENCHMARK.json times the base median
                  (a metric without a bound is never unresolved);
  unchanged       otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the parent's checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the change's checkout")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("rows", nargs="+", metavar="WORKLOAD:SEED:PAIRS")
    return parser.parse_args(argv)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in `root`: the record perfbench wrote for it,
    with the minor page faults the process took (`minor_faults`)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {**record, "minor_faults": faults}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, pairs: int, bound: float | None) -> str:
    """The docstring's rule, applied to one metric's summary `row`."""
    shift = row["change"]["median"] - row["base"]["median"]
    if 10 * row["change_lower_pairs"] >= 9 * pairs and -shift > row["base_iqr"]:
        return "lower"
    if 10 * row["change_higher_pairs"] >= 9 * pairs and shift > row["base_iqr"]:
        return "higher"
    if bound is not None and row["base_iqr"] > bound * row["base"]["median"]:
        return "unresolved"
    return "unchanged"


def inside_bound(change_vs_base: float | None, spec: dict) -> bool | None:
    """Whether a relative change is not worse than the bound of `spec`, the
    metric's BENCHMARK.json entry, in its `better` direction."""
    if change_vs_base is None or spec.get("bound") is None:
        return None
    worse = change_vs_base if spec["better"] == "lower" else -change_vs_base
    return worse <= spec["bound"]


def summarise(workload: str, seed: int, runs: list[dict], specs: dict[str, dict]) -> dict:
    """Medians, quartiles, pairs won, the change against the bound and the
    verdict per end-to-end metric of one row; `specs` maps a metric to its
    BENCHMARK.json `end_to_end` entry."""
    pairs = sorted({run["pair"] for run in runs})
    by = {(run["pair"], run["side"]): run for run in runs}
    metrics = {}
    for name, (_, unit) in runs[0]["end_to_end"].items():
        values = {side: [by[p, side]["end_to_end"][name][0] for p in pairs] for side in SIDES}
        row = {"unit": unit, **{side: spread(values[side]) for side in SIDES}}
        row["base_iqr"] = row["base"]["q3"] - row["base"]["q1"]
        row["change_lower_pairs"] = sum(c < b for b, c in zip(values["base"], values["change"]))
        row["change_higher_pairs"] = sum(c > b for b, c in zip(values["base"], values["change"]))
        spec, base_median = specs.get(name, {}), row["base"]["median"]
        row["change_vs_base"] = row["change"]["median"] / base_median - 1 if base_median else None
        row["inside_bound"] = inside_bound(row["change_vs_base"], spec)
        row["verdict"] = verdict(row, len(pairs), spec.get("bound"))
        metrics[name] = row
    return {
        "workload": workload, "seed": seed, "pairs": len(pairs),
        "all_correct": {side: all(by[p, side]["failed"] == 0 for p in pairs) for side in SIDES},
        "metrics": metrics,
        "minor_faults": {side: statistics.median(by[p, side]["minor_faults"] for p in pairs) for side in SIDES},
        "runs": [{"pair": run["pair"], "side": run["side"], "first": run["first"], "minor_faults": run["minor_faults"],
                  "end_to_end": {k: v[0] for k, v in run["end_to_end"].items()}} for run in runs],
    }


def verdict_lines(row: dict, specs: dict[str, dict]) -> list[str]:
    """One line per end-to-end metric of BENCHMARK.json in a summarised
    `row`: its verdict, `change_vs_base` and whether that is inside the bound."""
    lines = []
    for name in specs:
        metric = row["metrics"].get(name)
        if metric is None:
            continue
        change = "n/a" if metric["change_vs_base"] is None else f"{metric['change_vs_base']:+.2%}"
        inside = {True: "yes", False: "NO", None: "n/a"}[metric["inside_bound"]]
        lines.append(f"{row['workload']} seed {row['seed']} {name}: {metric['verdict']}, "
                     f"change_vs_base {change}, inside bound {inside}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    doc = {
        "command": "python3 tools/bench_pairs.py " + " ".join(args.rows),
        "perfbench": {"seconds": seconds, "trace": 0},
        "machine": None,
        "rows": [],
    }
    for spec in args.rows:
        workload, seed, n_pairs = spec.split(":")
        runs = []
        for pair in range(1, int(n_pairs) + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                record = run_once(roots[side], workload, int(seed), seconds)
                doc["machine"] = doc["machine"] or record["machine"]
                runs.append({**record, "pair": pair, "side": side, "first": order[0]})
                print(f"{workload} seed {seed} pair {pair} {side}: "
                      + " ".join(f"{k}={v[0]:.4g}" for k, v in record["end_to_end"].items()), flush=True)
        row = summarise(workload, int(seed), runs, specs)
        doc["rows"].append(row)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        for line in verdict_lines(row, specs):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
