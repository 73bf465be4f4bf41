"""Whether two checkouts write the same bits: a characterisation run of the CLI in each.

    python3 tools/same_bits.py --base DIR [--change DIR] [--work DIR]

Both checkouts run one fixed recipe through `python -m trifuse.cli`, one
process per command, each in a work directory of its own:
- `gen`: 300 items, correspondence noise 0.3, 10% of items without audio and
  10% without speech, seed 0;
- for every mode and every alignment kind: `train` (2 epochs, batch 32, lr
  1e-3, seed 0), then `inspect` of the checkpoint it wrote (the architecture
  and readings that `load_params` reads back), `eval --groups` on the test
  split and `score` of the test split's first query.

Every file each command writes is an artifact, and so is its stdout, its
stderr and its exit code. For each artifact one line says `identical`, or
where the two first differ: the first differing record (a container record,
a JSONL line, a key of a JSON document or a field of a text line), how many
differ, the largest absolute difference over them, and each changed value
(`base -> change`, at most MAX_CHANGES of them). The exit code is 0 when
every artifact is identical, else 1.

`--base` and `--change` are the roots of two full checkouts (the change
defaults to this one). Make the base with `git archive`. The work directory
(a temporary one by default) holds `base/` and `change/` with the artifacts.
Run both on one machine: BLAS kernels may differ across hosts, so no digest is
pinned here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trifuse.data import ContainerError, read_container  # noqa: E402

SIDES = ("base", "change")
MODES = ("save", "avigate", "no_audio", "vision_only")
ALIGN_KINDS = ("soft_albef", "hard_albef", "none")
CONFIG = {
    "synth": {"n_items": 300, "correspondence_noise": 0.3, "missing_audio": 0.1, "missing_speech": 0.1, "seed": 0},
    "train": {"epochs": 2, "batch_size": 32, "lr": 1e-3, "seed": 0},
}
CONTAINERS = (".sve", ".ckpt")
MAX_CHANGES = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the parent's checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the change's checkout")
    parser.add_argument("--work", type=Path, default=None, help="where to write both sides' artifacts")
    return parser.parse_args(argv)


def run_recipe(root: Path, work: Path) -> None:
    """The recipe's commands with the checkout `root`'s code, in `work`:
    each command's stdout, stderr and exit code go to `<name>.out`, `.err`
    and `.exit` beside what it writes."""
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(CONFIG))

    def cli(name: str, *argv: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "trifuse.cli", *argv], cwd=work, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
        for suffix, text in ((".out", proc.stdout), (".err", proc.stderr), (".exit", f"{proc.returncode}\n")):
            (work / f"{name}{suffix}").write_text(text)

    cli("gen", "gen", "--config", "config.json", "--out", "data")
    query = json.loads((work / "data" / "manifest.json").read_text())["splits"]["test"]["queries"][0]
    for mode in MODES:
        for align in ALIGN_KINDS:
            run = f"{mode}-{align}"
            cli(f"{run}.train", "train", "--config", "config.json", "--data", "data", "--out", run, "--mode", mode,
                "--align-kind", align)
            cli(f"{run}.inspect", "inspect", f"{run}/best.ckpt")
            cli(f"{run}.eval", "eval", "--checkpoint", f"{run}/best.ckpt", "--data", "data", "--groups")
            cli(f"{run}.score", "score", "--checkpoint", f"{run}/best.ckpt", "--data", "data", "--query", query)


def _leaves(doc, path: str = ""):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(doc, dict):
        for key in doc:
            yield from _leaves(doc[key], f"{path}.{key}" if path else str(key))
    elif isinstance(doc, list):
        for k, each in enumerate(doc):
            yield from _leaves(each, f"{path}[{k}]")
    else:
        yield path, doc


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def records(path: Path) -> dict:
    """An artifact as named records: a container's arrays, a JSON
    document's scalars, a JSONL file's scalars by line, or a text file's
    whitespace-separated fields by line (numbers as floats)."""
    if path.suffix in CONTAINERS:
        return dict(read_container(path))
    text = path.read_text()
    try:
        return dict(_leaves(json.loads(text)))
    except json.JSONDecodeError:
        pass
    out = {}
    for k, line in enumerate(text.splitlines(), 1):
        try:
            out.update(_leaves(json.loads(line), f"line {k}"))
        except json.JSONDecodeError:
            out.update({f"line {k} field {j}": _number(token) for j, token in enumerate(line.split(), 1)})
    return out


def _difference(a, b) -> float | None:
    """The largest absolute difference of two numbers or two arrays of one
    shape; None where it has no meaning."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or not a.size:
            return None
        return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(float(a) - float(b))
    return None


_ABSENT = object()  # a record that one side lacks


def _same(a, b) -> bool:
    """Equal bits: arrays of one shape and bytes, scalars of one type and
    value (NaN equal to NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def _shown(value) -> str:
    if isinstance(value, np.ndarray):
        return f"array{value.shape}"
    return "absent" if value is _ABSENT else json.dumps(value)


def compare(base: Path, change: Path) -> str:
    """One line on two versions of an artifact: `identical`, or where and by
    how much they differ."""
    if not base.exists() or not change.exists():
        return f"only in {'change' if change.exists() else 'base'}"
    if base.read_bytes() == change.read_bytes():
        return "identical"
    try:
        old, new = records(base), records(change)
    except (ContainerError, UnicodeDecodeError) as err:
        return f"differs; unreadable as records ({err})"
    names = list(old) + [name for name in new if name not in old]
    differing = [name for name in names if not _same(old.get(name, _ABSENT), new.get(name, _ABSENT))]
    if not differing:  # the same records, written in another order or layout
        return "differs in bytes only; every record is equal"
    gaps = [gap for name in differing if (gap := _difference(old.get(name), new.get(name))) is not None]
    largest = f"largest absolute difference {max(gaps):.6g}" if gaps else "no numeric difference"
    changes = [f"{name} {_shown(old.get(name, _ABSENT))} -> {_shown(new.get(name, _ABSENT))}"
               for name in differing[:MAX_CHANGES]]
    more = f"; {len(differing) - MAX_CHANGES} more" if len(differing) > MAX_CHANGES else ""
    return (f"differs at record {differing[0]} ({len(differing)} of {len(names)} records differ); {largest}; "
            f"changed: {', '.join(changes)}{more}")


def report(base: Path, change: Path) -> tuple[list[str], bool]:
    """One line per artifact under either directory, in path order, and
    whether every artifact is identical."""
    paths = sorted({p.relative_to(root) for root in (base, change) for p in root.rglob("*") if p.is_file()})
    lines = [f"{path}: {compare(base / path, change / path)}" for path in paths]
    same = all(line.endswith(": identical") for line in lines)
    return lines + [f"{sum(line.endswith(': identical') for line in lines)} of {len(lines)} artifacts identical"], same


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bits-") as scratch:
        work = args.work or Path(scratch)
        for side, root in zip(SIDES, (args.base, args.change)):
            run_recipe(root.resolve(), work / side)
        lines, same = report(work / "base", work / "change")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
