"""The benchmark's three workloads: train, eval and query.

Each workload makes its inputs with `trifuse.synth` from the seed it is
given and drives the program through its public functions, from one process
with one caller in a closed loop: the next operation starts when the last
one has returned. A workload class provides

    unit            the unit of work: a training step, an eval pass or a query
    setups          how many times a run sets up; `setup_s` is their median
    items_per_unit  items one unit of work touches (for per-item counts)
    frozen_network  whether every unit fails if a cross-attention block runs
    setup(seed, workdir)
    warmup()        untimed operations before measuring -> (attempted, failed)
    op()            one timed operation
    check(out)      untimed check of its output -> (units of work, failed units)
    report(op_ms)   the workload's own end-to-end figures, name -> (value, unit)

Checks never run inside a timed interval. A failed unit of work (a training
step, an eval pass or a query) counts toward `failed` in the result.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from trifuse import data, evaluation, fusion, similarity, synth, trainer

HERE = Path(__file__).resolve().parent
REFERENCE_LOSS = HERE / "reference_loss.json"

SHARPNESS = similarity.DEFAULT_SHARPNESS
# Raw value of both fusion gates in the checkpoint that eval and query score
# (tanh(0.5) = 0.46). With zero gates fusion reduces to the visual tokens, so
# a shortcut for zero gates could show a gain trained checkpoints never get.
GATE = 0.5
# Scores are cosines in [-1, 1]. Float32 arithmetic moves them by ~1e-7; a
# changed formula (shift, sharpness, weights) by far more than 1e-5.
SCORE_TOL = 1e-5
# Relative tolerance on each logged loss. Reordering float32 sums moves a loss
# by ~1e-6 relative; a changed formula by far more than 1e-4.
LOSS_RTOL = 1e-4
LOSS_KEYS = ("contrastive", "alignment", "total")
QUERY_SAMPLE = 7  # items checked per query besides the ground truth
EVAL_SAMPLE = 64  # queries checked per pass, each at its ground truth and 3 other items


def fixed_gate_params(manifest: data.Manifest, seed: int) -> fusion.FusionParams:
    params = fusion.FusionParams(dim=manifest.dim, frames=manifest.frames, seed=seed)
    params.audio_fusion.gate.data = np.asarray(GATE, dtype=params.dtype)
    params.speech_fusion.gate.data = np.asarray(GATE, dtype=params.dtype)
    return params


def close_score(got: float, query, index: fusion.VideoIndex, j: int) -> bool:
    want = similarity.combined_similarity(index.tokens[j], index.pooled[j], query.embedding, SHARPNESS)
    return abs(float(got) - want) <= SCORE_TOL


class Train:
    """`trainer.train` on the README's default synth config, one epoch per call.

    Why: the only workload that builds tapes and runs backward and Adam. Per-item
    graphs dominate it: 768 cross-attention block evaluations per step. The
    correspondence noise and the missing modalities make the zero-fill and
    teacher-alignment paths run. It never touches `QueryScorer` or
    `score_matrix`, so a change to serving must leave it unchanged.
    """

    name = "train"
    unit = "step"
    setups = 5
    frozen_network = False
    SYNTH = dict(
        n_items=512, dim=16, frames=12, audio_len=12, speech_pad=32,
        correspondence_noise=0.3, missing_audio=0.1, missing_speech=0.1,
    )
    # 358 training items give 2 steps of 128 per epoch.
    TRAIN = dict(epochs=1, batch_size=128, mode="save", align_kind="soft_albef")

    def __init__(self, smoke: bool):
        self.synth_args = dict(self.SYNTH, n_items=64) if smoke else self.SYNTH
        self.train_args = dict(self.TRAIN, batch_size=16) if smoke else self.TRAIN
        self.items_per_unit = self.train_args["batch_size"]

    def setup(self, seed: int, workdir: Path) -> None:
        self.dataset = None
        self.dataset, _ = synth.generate(synth.SynthConfig(**self.synth_args, seed=seed))
        self.config = trainer.TrainConfig(**self.train_args)

    def warmup(self) -> tuple[int, int]:
        """Train on the stored reference's data and compare the loss
        trajectory with it; every reference step is one checked operation."""
        reference = json.loads(REFERENCE_LOSS.read_text())
        dataset, _ = synth.generate(synth.SynthConfig(**reference["synth"]))
        result = trainer.train(trainer.TrainConfig(**reference["train"]), dataset)
        steps = [rec for rec in result.log if "total" in rec]
        failed = sum(
            not all(math.isclose(got[k], want[k], rel_tol=LOSS_RTOL) for k in LOSS_KEYS)
            for got, want in zip(steps, reference["steps"])
        )
        failed += abs(len(reference["steps"]) - len(steps))
        return len(reference["steps"]), min(failed, len(reference["steps"]))

    def op(self) -> trainer.TrainResult:
        return trainer.train(self.config, self.dataset)

    def check(self, result: trainer.TrainResult) -> tuple[int, int]:
        """A step fails if it gives a non-finite loss; an abort fails the step it stopped at."""
        steps = [rec for rec in result.log if "total" in rec]
        failed = sum(not math.isfinite(rec["total"]) for rec in steps) + int(result.aborted)
        return len(steps) + int(result.aborted), failed

    def report(self, op_ms: list[float]) -> dict:
        return {
            "train_samples_per_s": (self.items_per_unit * 1e3 / statistics.median(op_ms), "items/s"),
        }


class Eval:
    """The `trifuse eval --groups` sequence, in-process, on a 10 000-item container.

    Why: the only workload with bulk container reads, a bulk index build under
    `no_grad` and the dense (queries x gallery x m) float64 scoring tensor that
    sets its peak RSS. It builds no tape. Default splits give a 2 000-item test
    gallery and 2 000 queries.
    """

    name = "eval"
    unit = "pass"
    setups = 3
    frozen_network = False
    SYNTH = dict(n_items=10000)

    def __init__(self, smoke: bool):
        self.synth_args = dict(self.SYNTH, n_items=100) if smoke else self.SYNTH
        self.index_ms_per_item: list[float] = []

    def setup(self, seed: int, workdir: Path) -> None:
        self.data_dir = workdir / "data"
        self.checkpoint = workdir / "eval.ckpt"
        dataset, _ = synth.write_synthetic(synth.SynthConfig(**self.synth_args, seed=seed), self.data_dir)
        fusion.save_params(fixed_gate_params(dataset.manifest, seed), self.checkpoint)
        self.items_per_unit = len(dataset.manifest.splits["test"]["items"])
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> tuple[int, int]:
        checked = self.check(self.op())
        self.index_ms_per_item.clear()
        return checked

    def op(self) -> dict:
        """The library calls of `cli.cmd_eval`, in its order."""
        dataset = data.read_dataset(self.data_dir)
        params = fusion.load_params(self.checkpoint)
        items = dataset.split_items("test")
        queries = dataset.split_queries("test")
        start = time.perf_counter()
        index = fusion.precompute_index(items, params, fusion.FusionMode.SAVE, dataset.manifest)
        self.index_ms_per_item.append((time.perf_counter() - start) * 1e3 / len(items))
        matrix = similarity.score_matrix(index, queries, sharpness=SHARPNESS)
        gt = {q.query_id: q.ground_truth_item for q in queries}
        metrics = evaluation.summary_metrics(matrix, gt)
        metrics["per_group"] = evaluation.grouped_eval(matrix, gt, {q.query_id: q.group for q in queries})
        return {"index": index, "queries": queries, "matrix": matrix, "metrics": metrics}

    def check(self, out: dict) -> tuple[int, int]:
        """Sampled scores against `combined_similarity`; R@k against `rank_of`."""
        index, queries, matrix, metrics = out["index"], out["queries"], out["matrix"], out["metrics"]
        col_of = {item_id: j for j, item_id in enumerate(matrix.item_ids)}
        gt_cols = [col_of[q.ground_truth_item] for q in queries]
        ok = matrix.values.shape == (len(queries), len(index.item_ids))
        for i in self.rng.choice(len(queries), size=min(EVAL_SAMPLE, len(queries)), replace=False):
            for j in (gt_cols[i], *self.rng.integers(len(matrix.item_ids), size=3)):
                ok &= close_score(matrix.values[i, j], queries[i], index, j)
        ranks = np.array([evaluation.rank_of(matrix.values[i], gt_cols[i]) for i in range(len(queries))])
        for k in evaluation.RECALL_KS:
            ok &= abs(metrics[f"r{k}"] - float(np.mean(ranks <= k))) <= 1e-12
        self.sumr = metrics["sumr"]
        return 1, int(not ok)

    def report(self, op_ms: list[float]) -> dict:
        return {
            "index_ms_per_item": (statistics.median(self.index_ms_per_item), "ms"),
            "eval_s": (statistics.median(op_ms) / 1e3, "s"),
            "eval_sumr": (self.sumr, "SumR"),
        }


class Query:
    """Online serving: `QueryScorer.score_one` against an 8 000-item `save` index.

    Why: `similarity` runs here one query at a time and in `eval` in bulk, so a
    change that helps bulk scoring and slows single queries shows up. The
    12 MB float64 gallery is far above the per-core L2 cache. The fusion
    network must not run while queries are scored.
    """

    name = "query"
    unit = "query"
    setups = 3
    frozen_network = True
    items_per_unit = 1
    SYNTH = dict(n_items=8000)
    WARMUP = 20

    def __init__(self, smoke: bool):
        self.synth_args = dict(self.SYNTH, n_items=100) if smoke else self.SYNTH

    def setup(self, seed: int, workdir: Path) -> None:
        """Build the index, write it with `save_index` and read it back."""
        self.scorer = self.index = None
        dataset, _ = synth.generate(synth.SynthConfig(**self.synth_args, seed=seed))
        checkpoint = workdir / "query.ckpt"
        fusion.save_params(fixed_gate_params(dataset.manifest, seed), checkpoint)
        params = fusion.load_params(checkpoint)
        index = fusion.precompute_index(list(dataset.items.values()), params, fusion.FusionMode.SAVE, dataset.manifest)
        fusion.save_index(index, workdir / "gallery.idx")
        self.index = fusion.load_index(workdir / "gallery.idx")
        self.scorer = similarity.QueryScorer(self.index, fusion.FusionMode.SAVE, SHARPNESS)
        self.rng = np.random.default_rng(seed)
        self.queries = [dataset.queries[q] for q in sorted(dataset.queries)]
        self.order = self.rng.permutation(len(self.queries))
        self.col_of = {item_id: j for j, item_id in enumerate(self.index.item_ids)}
        self.served = 0

    def warmup(self) -> tuple[int, int]:
        failed = sum(self.check(self.op())[1] for _ in range(self.WARMUP))
        return self.WARMUP, failed

    def op(self):
        query = self.queries[self.order[self.served % len(self.order)]]
        self.served += 1
        return query, self.scorer.score_one(query.embedding)

    def check(self, out) -> tuple[int, int]:
        """The ground truth and a seeded sample of items against `combined_similarity`."""
        query, scores = out
        cols = (self.col_of[query.ground_truth_item], *self.rng.integers(len(scores), size=QUERY_SAMPLE))
        ok = len(scores) == len(self.index.item_ids) and all(
            close_score(scores[j], query, self.index, j) for j in cols
        )
        return 1, int(not ok)

    def report(self, op_ms: list[float]) -> dict:
        return {
            "query_ms_p50": (statistics.median(op_ms), "ms"),
            "query_ms_p99": (percentile(op_ms, 99), "ms"),
        }


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


WORKLOADS = {w.name: w for w in (Train, Eval, Query)}
