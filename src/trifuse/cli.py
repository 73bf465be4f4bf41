"""Operator surface: generate, train, evaluate, score, inspect.

One JSON config file drives generation ("synth" section) and training
("train" section); command-line flags override individual keys. A
checkpoint records the fusion mode and sharpness it was trained with; `eval`
and `score` score with both, and `--mode` overrides the mode. The exit codes
(EXIT_*) and the bounds of every config and artifact field are listed once,
in the README's "Exit codes". A command refuses by raising `Refusal`; only
`main` writes to stderr.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .data import ContainerError, ValidationError, atomic_write, read_dataset, read_json
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


class Refusal(Exception):
    """An input a command refuses: `main` prints the message to stderr and
    exits with `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ConfigError(Refusal):
    def __init__(self, message: str):
        super().__init__(EXIT_CONFIG, f"config error: {message}")


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    try:
        doc = read_json(path)
    except (FileNotFoundError, NotADirectoryError) as err:
        raise ConfigError(f"config file not found: {path}") from err
    except ContainerError as err:
        raise ConfigError(f"bad config file: {err}") from err
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


def _refuse_long_audio(dataset, max_audio_len: int) -> None:
    """Refuse (exit 5) a dataset with an item whose audio (or the zero-fill
    standing in for missing audio) is longer than the resampler accepts."""
    longest = dataset.longest_audio()
    if longest > max_audio_len:
        raise Refusal(EXIT_DIM, f"audio length {longest} exceeds max_audio_len {max_audio_len}")


def _refuse_mismatch(params, dataset) -> None:
    """Refuse (exit 5) a checkpoint that cannot run on the dataset: its d or
    m differ, or the dataset's audio is too long for its resampler."""
    arch, man = params.arch, dataset.manifest
    if arch["dim"] != man.dim or arch["frames"] != man.frames:
        raise Refusal(EXIT_DIM, f"checkpoint dims (d={arch['dim']}, m={arch['frames']}) do not match "
                                f"dataset (d={man.dim}, m={man.frames})")
    _refuse_long_audio(dataset, arch["max_audio_len"])


def _mode(args, params) -> FusionMode:
    """The --mode override, else the mode the checkpoint was trained in."""
    return FusionMode(args.mode or params.arch["mode"])


def _group_counts(dataset) -> dict[str, int]:
    """Items per group, from the dataset's lists; untagged items under "untagged"."""
    return dict(sorted(collections.Counter(group or "untagged" for group in dataset.item_groups).items()))


def _share(count: int, total: int) -> float:
    """count / total to 6 places; 0.0 when the total is 0."""
    return round(count / total, 6) if total else 0.0


def cmd_gen(args) -> None:
    cfg = _build(SynthConfig, _load_config_section(args.config, "synth"), {"seed": args.seed}, "synth")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise Refusal(EXIT_IO, f"refusing to overwrite non-empty {out} (use --force)")
    dataset, _ = write_synthetic(cfg, out)
    n = len(dataset.item_ids)
    summary = {
        "items": n,
        "queries": len(dataset.query_ids),
        "groups": _group_counts(dataset),
        "missing_audio_fraction": _share(dataset.audio_lens.count(0), n),
        "missing_speech_fraction": _share(dataset.speech_lens.count(0), n),
        "splits": {k: len(v["items"]) for k, v in dataset.manifest.splits.items()},
        "out": str(out),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))


def cmd_train(args) -> None:
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
    if dataset.manifest.dim % config.heads:
        raise Refusal(EXIT_DIM, f"dataset dim {dataset.manifest.dim} is not divisible by heads {config.heads}")
    splits = dataset.manifest.splits
    if "train" in splits and len(splits["train"]["items"]) < config.batch_size:
        raise Refusal(EXIT_DIM, f"batch size {config.batch_size} exceeds the {len(splits['train']['items'])} "
                                "items of the train split")
    _refuse_long_audio(dataset, config.max_audio_len)
    result = train(config, dataset, val_split="val")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl"
    atomic_write(log_path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.log).encode())
    if result.aborted:
        save_params(result.params, out / "last_good.ckpt")
        raise Refusal(EXIT_NAN, f"training aborted: {result.abort_reason}")

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


def cmd_eval(args) -> None:
    params = load_params(args.checkpoint)
    dataset = read_dataset(args.data)
    _refuse_mismatch(params, dataset)
    if args.split not in dataset.manifest.splits:
        raise Refusal(EXIT_IO, f"unknown split {args.split!r}")
    items = dataset.split_items(args.split)
    queries = dataset.split_queries(args.split)
    if not queries:
        raise Refusal(EXIT_IO, f"split {args.split!r} has no queries")
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


def cmd_score(args) -> None:
    params = load_params(args.checkpoint)
    dataset = read_dataset(args.data)
    if args.query not in dataset.queries:
        raise Refusal(EXIT_QUERY, f"unknown query id: {args.query}")
    _refuse_mismatch(params, dataset)
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


def cmd_inspect(args) -> None:
    path = Path(args.path)
    if path.is_dir():
        dataset = read_dataset(path)
        man, n = dataset.manifest, len(dataset.item_ids)
        print(json.dumps(
            {
                "kind": "dataset",
                "dim": man.dim,
                "teacher_dim": man.teacher_dim,
                "frames": man.frames,
                "speech_pad": man.speech_pad,
                "audio_pad": man.audio_pad,
                "items": n,
                "queries": len(dataset.query_ids),
                "groups": _group_counts(dataset),
                "audio_fraction": _share(n - dataset.audio_lens.count(0), n),
                "speech_fraction": _share(n - dataset.speech_lens.count(0), n),
                "splits": {k: {"items": len(v["items"]), "queries": len(v["queries"])} for k, v in man.splits.items()},
            },
            indent=2,
            sort_keys=True,
        ))
        return
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


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, else exit 2."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


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
    sc.add_argument("--k", type=_positive_int, default=10, help="how many items to list (>= 1)")
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
        args.func(args)
    except Refusal as err:
        print(err, file=sys.stderr)
        return err.code
    except (ContainerError, ValidationError, FileNotFoundError, NotADirectoryError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
