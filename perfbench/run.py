"""Benchmark of the trifuse engine: the train, eval and query workloads.

    python3 perfbench/run.py --workload train|eval|query --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports trifuse from ./src and from
nowhere else. Each invocation is one fresh process running one workload. It
sets up several times, runs untimed warm-up operations, then runs timed
operations back to back for S seconds, checking each one's output outside
the timed interval. It prints a readable report and, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The traced run is a separate invocation; it also reports its overhead against
the untraced run of the same workload and seed, when that has been run.
Results and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXIT_NO_PROGRAM = 2

# The end-to-end metrics every workload reports, each bounded in BENCHMARK.json;
# README.md says what each means on each workload.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms", "op_ms_p99": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="trifuse benchmark")
    parser.add_argument("--workload", required=True, choices=["train", "eval", "query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal input sizes, for the smoke test")
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put this checkout's src/ first on the path; True if trifuse comes from there."""
    if not (SRC / "trifuse" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import trifuse

    return Path(trifuse.__file__).resolve().parent == (SRC / "trifuse").resolve()


def machine() -> dict:
    import numpy as np

    caches = {}
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0].lower()] = value.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var, "unset (library default)")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
    }


def measure(workload, seed: int, seconds: float, tracer, workdir: Path) -> dict:
    from trifuse import nn

    setup_s = []
    for k in range(workload.setups):
        tracer.run = f"setup-{k}"
        start = time.perf_counter()
        workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)

    tracer.run = "warmup"
    tracer.memory = True
    attempted, failed = workload.warmup()
    tracer.memory = False

    op_ms: list[float] = []
    op_runs: dict[str, tuple[int, int]] = {}
    block_evals = 0
    deadline = time.perf_counter() + seconds
    while not op_ms or time.perf_counter() < deadline:
        run = tracer.run = f"op-{len(op_ms)}"
        blocks_before = nn.BLOCK_EVAL_COUNTER["count"]
        start = time.perf_counter()
        out = workload.op()
        elapsed = time.perf_counter() - start
        blocks = nn.BLOCK_EVAL_COUNTER["count"] - blocks_before
        tracer.run = "check"
        units, bad = workload.check(out)
        units = max(units, 1)
        tracer.counts[run]["nn.block_evals"] += blocks
        op_runs[run] = (units, units * workload.items_per_unit)
        op_ms.append(elapsed * 1e3 / units)
        attempted += units
        failed += bad
        block_evals += blocks
    if workload.frozen_network and block_evals:
        failed = attempted
    return {"setup_s": setup_s, "op_ms": op_ms, "op_runs": op_runs, "attempted": attempted, "failed": failed}


def end_to_end(m: dict) -> dict:
    from workloads import percentile

    values = {
        "setup_s": statistics.median(m["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms_p50": statistics.median(m["op_ms"]),
        "op_ms_p99": percentile(m["op_ms"], 99),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def overhead(traced: dict, untraced_path: Path, seconds: float) -> dict:
    """Traced / untraced - 1 for each end-to-end figure of a matching untraced run."""
    if not untraced_path.is_file():
        return {}
    untraced = json.loads(untraced_path.read_text())
    if untraced["seconds"] != seconds:
        return {}
    base = untraced["end_to_end"]
    return {name: traced[name][0] / base[name][0] - 1.0 for name in traced if base.get(name, (0,))[0]}


def print_report(record: dict) -> None:
    print(f"perfbench {record['workload']}: seed {record['seed']}, {record['seconds']} s measured, "
          f"trace {record['trace']}, closed loop with one caller")
    print(f"  why: {record['why']}")
    print("  machine: " + json.dumps(record["machine"], sort_keys=True))
    print(f"  {record['samples']} timed operations, unit of work: {record['unit']}; "
          f"{record['attempted']} units attempted, {record['failed']} failed")
    for title, table in (("end-to-end", record["end_to_end"]), ("per-layer", record.get("per_layer", {}))):
        if table:
            print(f"  {title}:")
        for name, (value, unit) in table.items():
            note = f"   (traced / untraced - 1: {record['overhead'][name]:+.3f})" if name in record.get("overhead", {}) else ""
            print(f"    {name:40s} {value:14.6g} {unit}{note}")
    if record.get("self_ms_by_layer"):
        print(f"  self time per {record['unit']} by layer (ms):")
        for layer, ms in record["self_ms_by_layer"].items():
            print(f"    {layer:40s} {ms:14.6g} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"perfbench: no trifuse package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        m = measure(workload, args.seed, args.seconds, tracer, workdir)
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(m)
    e2e.update(workload.report(m["op_ms"]))
    e2e["failed_op_share"] = (m["failed"] / m["attempted"], "failed/attempted")
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "why": " ".join(workload.__doc__.split("Why:")[1].split()),
        "unit": workload.unit, "samples": len(m["op_ms"]), "op_ms": m["op_ms"],
        "attempted": m["attempted"], "failed": m["failed"],
        "machine": machine(), "end_to_end": e2e,
    }
    if args.trace:
        setup_runs = [f"setup-{k}" for k in range(workload.setups)]
        record["per_layer"] = layers.per_layer(tracer, m["op_runs"], setup_runs)
        record["self_ms_by_layer"] = layers.self_ms_by_layer(tracer, m["op_runs"])
        record["overhead"] = overhead(e2e, OUT / f"{stem}-trace0.json", args.seconds)
        tracer.write(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_report(record)
    metrics = record["per_layer"] if args.trace else {name: e2e[name] for name in END_TO_END_UNITS}
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
