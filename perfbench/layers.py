"""What the traced run wraps, and the per-layer metrics it reports.

The layers are the modules of `trifuse`. Each public function is wrapped
where its caller looks it up: `trainer` imports `forward_video` into its own
namespace, so the training loop's calls are caught at
`trifuse.trainer.forward_video`, while `precompute_index` calls the one in
`trifuse.fusion`. `cli` is not timed on its own: the eval workload makes the
same library calls as `trifuse eval`, in the same order.
"""

from __future__ import annotations

import statistics

from trifuse import autodiff, data, evaluation, fusion, similarity, synth, trainer

# (metric, unit, kind, source). Kinds:
#   ms        milliseconds in the source spans, per unit of work
#   self_ms   self time of the source spans, per unit of work
#   count     the source counter, per unit of work
#   per_item  the source counter, per item
#   peak      the source tracemalloc peak, taken in the untimed warm-up
# A kind ending in "+setup" falls back to the median over set-ups when the
# measured operations never run the layer (on query, the index is built in
# set-up). A unit of work is a training step, an eval pass or a query.
PER_LAYER = [
    ("autodiff.tape_nodes_per_step", "count", "count", "autodiff.tape_nodes"),
    ("autodiff.backward_ms_per_step", "ms", "ms", {"autodiff.backward"}),
    ("nn.block_evals_per_step", "count", "count", "nn.block_evals"),
    ("nn.block_evals_per_item", "count", "per_item", "nn.block_evals"),
    ("fusion.forward_video_ms_per_step", "ms", "ms", {"fusion.forward_video"}),
    ("fusion.pre_fusion_pooled_ms_per_step", "ms", "ms", {"fusion.pre_fusion_pooled"}),
    ("fusion.precompute_index_ms", "ms", "ms+setup", {"fusion.precompute_index"}),
    ("fusion.save_index_ms", "ms", "ms+setup", {"fusion.save_index"}),
    ("fusion.load_index_ms", "ms", "ms+setup", {"fusion.load_index"}),
    ("similarity.batch_scores_ms_per_step", "ms", "ms", {"similarity.batch_scores"}),
    ("similarity.score_matrix_ms", "ms", "ms", {"similarity.score_matrix"}),
    ("similarity.score_matrix_peak_mb", "MB", "peak", "similarity.score_matrix_peak_mb"),
    ("similarity.scorer_init_ms", "ms", "ms+setup", {"similarity.scorer_init"}),
    ("similarity.gallery_bytes_per_query", "B", "count+setup", "similarity.gallery_bytes"),
    ("losses.contrastive_ms_per_step", "ms", "ms", {"losses.contrastive_loss"}),
    (
        "losses.alignment_ms_per_step", "ms", "ms",
        {"losses.affinity_from_teacher", "losses.student_affinity", "losses.soft_albef_loss"},
    ),
    ("trainer.optimizer_ms_per_step", "ms", "ms", {"trainer.clip_global_norm", "trainer.Adam.step"}),
    ("trainer.self_ms_per_step", "ms", "self_ms", {"trainer.step"}),
    ("data.resolve_missing_ms_per_step", "ms", "ms", {"data.resolve_missing"}),
    ("data.read_dataset_ms", "ms", "ms", {"data.read_dataset"}),
    ("data.read_dataset_peak_mb", "MB", "peak", "data.read_dataset_peak_mb"),
    ("evaluation.summary_metrics_ms", "ms", "ms", {"evaluation.summary_metrics"}),
    ("evaluation.grouped_eval_ms", "ms", "ms", {"evaluation.grouped_eval"}),
    ("synth.generate_ms", "ms", "ms+setup", {"synth.generate", "synth.write_synthetic"}),
]


def tape_nodes(loss: autodiff.Tensor) -> int:
    """Nodes of the graph `backward` will walk from `loss`."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def gallery_bytes(scorer: similarity.QueryScorer) -> int:
    """Bytes of the gallery arrays one query reads, from the scorer's array sizes."""
    arrays = (scorer.tokens, scorer.pooled, scorer.holistic, scorer.speech_pool)
    return sum(a.nbytes for a in arrays if a is not None)


def install(tracer) -> None:
    wrap = tracer.wrap
    tracer.wrap_iteration(trainer, "batch_iter", "trainer.step")
    wrap(trainer, "train", "trainer.train")
    wrap(trainer, "resolve_missing", "data.resolve_missing")
    wrap(trainer, "forward_video", "fusion.forward_video")
    wrap(trainer, "pre_fusion_pooled", "fusion.pre_fusion_pooled")
    wrap(trainer, "batch_scores", "similarity.batch_scores")
    for name in ("contrastive_loss", "affinity_from_teacher", "student_affinity", "soft_albef_loss", "total_loss"):
        wrap(trainer, name, f"losses.{name}")
    wrap(trainer, "clip_global_norm", "trainer.clip_global_norm")
    wrap(trainer.Adam, "step", "trainer.Adam.step")
    wrap(
        autodiff.Tensor, "backward", "autodiff.backward",
        before=lambda args: tracer.count("autodiff.tape_nodes", tape_nodes(args[0])),
    )
    wrap(data, "read_dataset", "data.read_dataset", peak=True)
    wrap(fusion, "resolve_missing", "data.resolve_missing")
    for name in ("forward_video", "precompute_index", "save_params", "load_params", "save_index", "load_index"):
        wrap(fusion, name, f"fusion.{name}")
    wrap(similarity, "score_matrix", "similarity.score_matrix", peak=True)
    wrap(
        similarity.QueryScorer, "__init__", "similarity.scorer_init",
        after=lambda args, _: tracer.count("similarity.gallery_bytes", gallery_bytes(args[0])),
    )
    wrap(similarity.QueryScorer, "score_one", "similarity.score_one")
    wrap(evaluation, "summary_metrics", "evaluation.summary_metrics")
    wrap(evaluation, "grouped_eval", "evaluation.grouped_eval")
    wrap(synth, "generate", "synth.generate")
    wrap(synth, "write_synthetic", "synth.write_synthetic")


def per_layer(tracer, op_runs: dict[str, tuple[int, int]], setup_runs: list[str]) -> dict:
    """metric -> (value, unit): the median over measured operations of each
    metric per unit of work. `op_runs` maps each operation's run id to its
    (units of work, items)."""
    selfs = tracer.self_ms()
    out = {}
    for metric, unit, kind, source in PER_LAYER:
        if kind == "peak":
            out[metric] = (tracer.counts["warmup"][source], unit)
            continue
        base = kind.removesuffix("+setup")
        if base == "ms":
            raw = tracer.outermost_ms(source)
        elif base == "self_ms":
            raw = {run: sum(by_name.get(n, 0.0) for n in source) for run, by_name in selfs.items()}
        else:
            raw = {run: counts.get(source, 0.0) for run, counts in tracer.counts.items()}
        per_op = [raw.get(run, 0.0) / (items if base == "per_item" else units) for run, (units, items) in op_runs.items()]
        value = statistics.median(per_op)
        if kind.endswith("+setup") and not any(per_op):
            value = statistics.median(raw.get(run, 0.0) for run in setup_runs)
        out[metric] = (value, unit)
    return out


def self_ms_by_layer(tracer, op_runs: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Layer -> median self milliseconds per unit of work over the measured operations."""
    selfs = tracer.self_ms()
    layers = sorted({name.split(".")[0] for by_name in selfs.values() for name in by_name})
    table = {}
    for layer in layers:
        per_op = [
            sum(ms for name, ms in selfs.get(run, {}).items() if name.split(".")[0] == layer) / units
            for run, (units, _) in op_runs.items()
        ]
        table[layer] = statistics.median(per_op)
    return table
