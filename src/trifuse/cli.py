"""Operator surface: generate, train, evaluate, score, inspect.

One JSON config file drives generation ("synth" section) and training
("train" section); command-line flags override individual keys. A
checkpoint records the fusion mode and sharpness it was trained with; `eval`
and `score` score with both, and `--mode` overrides the mode. Exit codes:
0 success, 2 config parse error (including an out-of-range value, such as a
train sharpness outside (0, 80]), 3 IO error (a missing file, a malformed
container, manifest or checkpoint sidecar, a manifest with a duplicate id or
a wrongly typed field, a checkpoint sidecar sharpness outside (0, 80] or
fusion mode not among `--mode`'s choices, checkpoint tensors that disagree
with their sidecar, a non-finite embedding, or an eval split that the
manifest does not list or that has no queries), 4
training aborted on non-finite loss, 5 checkpoint, config or dataset dimension mismatch
(including audio longer than max_audio_len), 6 unknown query id.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .data import ContainerError, ValidationError, atomic_write, read_dataset
from .evaluation import grouped_eval, summary_metrics
from .fusion import FusionMode, load_params, precompute_index, save_params
from .losses import AlignKind
from .similarity import ScoreMatrix, score_matrix
from .synth import SynthConfig, write_synthetic
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NAN = 4
EXIT_DIM = 5
EXIT_QUERY = 6

MODE_CHOICES = [m.value for m in FusionMode]
ALIGN_CHOICES = [k.value for k in AlignKind]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    sub = doc.get(section, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    return sub


def _build(cls, section: dict, overrides: dict, section_name: str):
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(cls)}
    for key in merged:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in config section {section_name!r}")
    try:
        return cls(**merged)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {section_name} config: {err}") from err


def _audio_too_long(dataset, max_audio_len: int) -> bool:
    """True, with a message, if an item's audio (or the zero-fill standing in
    for missing audio) is longer than the resampler accepts."""
    longest = max(
        (len(it.audio_tokens) if it.audio_tokens is not None else dataset.manifest.audio_pad
         for it in dataset.items.values()),
        default=0,
    )
    if longest > max_audio_len:
        print(f"audio length {longest} exceeds max_audio_len {max_audio_len}", file=sys.stderr)
    return longest > max_audio_len


def _checkpoint_mismatch(params, dataset) -> bool:
    """True, with a message, if the checkpoint cannot run on the dataset: its
    d or m differ, or the dataset's audio is too long for its resampler."""
    arch, man = params.arch, dataset.manifest
    if arch["dim"] != man.dim or arch["frames"] != man.frames:
        print(
            f"checkpoint dims (d={arch['dim']}, m={arch['frames']}) do not match "
            f"dataset (d={man.dim}, m={man.frames})",
            file=sys.stderr,
        )
        return True
    return _audio_too_long(dataset, arch["max_audio_len"])


def _mode(args, params) -> FusionMode:
    """The --mode override, else the mode the checkpoint was trained in."""
    return FusionMode(args.mode or params.arch["mode"])


def cmd_gen(args) -> int:
    cfg = _build(SynthConfig, _load_config_section(args.config, "synth"), {"seed": args.seed}, "synth")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"refusing to overwrite non-empty {out} (use --force)", file=sys.stderr)
        return EXIT_IO
    dataset, _ = write_synthetic(cfg, out)
    groups = {}
    for item in dataset.items.values():
        groups[item.group] = groups.get(item.group, 0) + 1
    summary = {
        "items": len(dataset.items),
        "queries": len(dataset.queries),
        "groups": dict(sorted(groups.items())),
        "missing_audio_fraction": round(
            sum(1 for i in dataset.items.values() if i.audio_tokens is None) / len(dataset.items), 6
        ),
        "missing_speech_fraction": round(
            sum(1 for i in dataset.items.values() if i.speech_tokens is None) / len(dataset.items), 6
        ),
        "splits": {k: len(v["items"]) for k, v in dataset.manifest.splits.items()},
        "out": str(out),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {
        "mode": args.mode,
        "seed": args.seed,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "align_kind": args.align_kind,
    }
    config = _build(TrainConfig, _load_config_section(args.config, "train"), overrides, "train")
    dataset = read_dataset(args.data)
    if _audio_too_long(dataset, config.max_audio_len):
        return EXIT_DIM
    result = train(config, dataset, val_split="val")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl"
    atomic_write(log_path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.log).encode())
    if result.aborted:
        print(f"training aborted: {result.abort_reason}", file=sys.stderr)
        save_params(result.params, out / "last_good.ckpt")
        return EXIT_NAN

    save_params(result.params, out / "best.ckpt")
    steps = [rec for rec in result.log if "total" in rec]
    print(
        json.dumps(
            {
                "steps": len(steps),
                "final_total": steps[-1]["total"],
                "best_epoch": result.best_epoch,
                "checkpoint": str(out / "best.ckpt"),
                "log": str(log_path),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _transpose_for_v2t(matrix: ScoreMatrix, first_query: dict[str, str]) -> tuple[ScoreMatrix, dict[str, str]]:
    """Video-to-text direction: rank this invocation's queries per video,
    each video's ground truth being its first query (`Dataset.first_queries`)."""
    keep = [j for j, item_id in enumerate(matrix.item_ids) if item_id in first_query]
    transposed = ScoreMatrix(
        values=matrix.values.T[keep],
        query_ids=[matrix.item_ids[j] for j in keep],
        item_ids=list(matrix.query_ids),
    )
    gt = {matrix.item_ids[j]: first_query[matrix.item_ids[j]] for j in keep}
    return transposed, gt


def cmd_eval(args) -> int:
    params = load_params(args.checkpoint)
    dataset = read_dataset(args.data)
    if _checkpoint_mismatch(params, dataset):
        return EXIT_DIM
    if args.split not in dataset.manifest.splits:
        print(f"unknown split {args.split!r}", file=sys.stderr)
        return EXIT_IO
    items = dataset.split_items(args.split)
    queries = dataset.split_queries(args.split)
    if not queries:
        print(f"split {args.split!r} has no queries", file=sys.stderr)
        return EXIT_IO
    index = precompute_index(items, params, _mode(args, params), dataset.manifest)
    matrix = score_matrix(index, queries, sharpness=params.arch["sharpness"])

    if args.direction == "v2t":
        matrix, gt = _transpose_for_v2t(matrix, dataset.first_queries(args.split))
    else:
        gt = {q.query_id: q.ground_truth_item for q in queries}

    metrics = summary_metrics(matrix, gt)
    metrics["mr1"] = metrics["r1"]  # single-run invocation: mean R1 over one run
    if args.groups:
        tags = {q.query_id: q.group for q in queries}
        if args.direction == "v2t":
            tags = {i.item_id: i.group for i in items}
        metrics["per_group"] = grouped_eval(matrix, gt, tags)

    if args.format == "csv":
        lines = ["metric,value"]
        for key in ("r1", "r5", "r10", "sumr", "mr1"):
            lines.append(f"{key},{metrics[key]}")
        for group, vals in metrics.get("per_group", {}).items():
            for key, val in vals.items():
                lines.append(f"{group}.{key},{val}")
        print("\n".join(lines))
    else:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_score(args) -> int:
    params = load_params(args.checkpoint)
    dataset = read_dataset(args.data)
    if args.query not in dataset.queries:
        print(f"unknown query id: {args.query}", file=sys.stderr)
        return EXIT_QUERY
    if _checkpoint_mismatch(params, dataset):
        return EXIT_DIM
    query = dataset.queries[args.query]
    split = next(
        (s for s in sorted(dataset.manifest.splits) if args.query in dataset.manifest.splits[s]["queries"]),
        None,
    )
    items = dataset.split_items(split) if split else list(dataset.items.values())
    index = precompute_index(items, params, _mode(args, params), dataset.manifest)
    matrix = score_matrix(index, [query], sharpness=params.arch["sharpness"])
    scores = matrix.values[0]
    order = np.lexsort((np.array(matrix.item_ids), -scores))
    for j in order[: args.k]:
        marker = " *" if matrix.item_ids[j] == query.ground_truth_item else ""
        print(f"{matrix.item_ids[j]}\t{scores[j]:.6f}{marker}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        dataset = read_dataset(path)
        man = dataset.manifest
        n = len(dataset.items)
        groups = {}
        for item in dataset.items.values():
            key = item.group or "untagged"
            groups[key] = groups.get(key, 0) + 1
        print(json.dumps(
            {
                "kind": "dataset",
                "dim": man.dim,
                "teacher_dim": man.teacher_dim,
                "frames": man.frames,
                "speech_pad": man.speech_pad,
                "audio_pad": man.audio_pad,
                "items": n,
                "queries": len(dataset.queries),
                "groups": dict(sorted(groups.items())),
                "audio_fraction": round(sum(1 for i in dataset.items.values() if i.audio_tokens is not None) / n, 6)
                if n
                else 0.0,
                "speech_fraction": round(
                    sum(1 for i in dataset.items.values() if i.speech_tokens is not None) / n, 6
                )
                if n
                else 0.0,
                "splits": {k: {"items": len(v["items"]), "queries": len(v["queries"])} for k, v in man.splits.items()},
            },
            indent=2,
            sort_keys=True,
        ))
        return EXIT_OK
    params = load_params(path)
    print(json.dumps(
        {
            "kind": "checkpoint",
            "arch": params.arch,
            "audio_gate": params.audio_fusion.gate_value(),
            "speech_gate": params.speech_fusion.gate_value(),
            "logit_scale": float(params.logit_scale.data),
            "temperature": 1.0 / float(np.exp(params.logit_scale.data)),
        },
        indent=2,
        sort_keys=True,
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trifuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--config", help="JSON config with a 'synth' section")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train fusion parameters")
    tr.add_argument("--config", help="JSON config with a 'train' section")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--mode", choices=MODE_CHOICES, default=None)
    tr.add_argument("--align-kind", dest="align_kind", choices=ALIGN_CHOICES, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", default="test")
    ev.add_argument("--mode", choices=MODE_CHOICES, default=None, help="default: the checkpoint's mode")
    ev.add_argument("--groups", action="store_true")
    ev.add_argument("--direction", choices=["t2v", "v2t"], default="t2v")
    ev.add_argument("--format", choices=["json", "csv"], default="json")
    ev.set_defaults(func=cmd_eval)

    sc = sub.add_parser("score", help="rank the gallery for one query")
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--data", required=True)
    sc.add_argument("--query", required=True)
    sc.add_argument("--k", type=int, default=10)
    sc.add_argument("--mode", choices=MODE_CHOICES, default=None, help="default: the checkpoint's mode")
    sc.set_defaults(func=cmd_score)

    ins = sub.add_parser("inspect", help="summarize a dataset dir or checkpoint")
    ins.add_argument("path")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContainerError, ValidationError, FileNotFoundError, NotADirectoryError, json.JSONDecodeError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
