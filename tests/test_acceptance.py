"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 5 and 6 are directional reproductions of the paper's ablations: they
train `save` and the ablated modes on the size-B synth recipe of ROADMAP's
ablation probe, three seeds each, once per module (~40 s on 2 vCPU), and
assert the direction of the mean over seeds while printing each seed's
margin. Criterion 7 (soft-ALBEF over hard-ALBEF and no alignment) is not
here: it does not hold on this synth yet (ROADMAP item 4). Criterion 8 times
`QueryScorer.score_one` itself and reads `nn.BLOCK_EVAL_COUNTER` around it.
"""

import time

import numpy as np
import pytest

from trifuse import nn
from trifuse.autodiff import Tensor, parameter
from trifuse.data import ItemRecord, read_dataset, resolve_missing, write_dataset
from trifuse.evaluation import grouped_eval, ranks_of_matrix, summary_metrics
from trifuse.fusion import FusedBatch, FusionMode, FusionParams, forward_video, precompute_index
from trifuse.losses import contrastive_loss, hard_albef_loss, soft_albef_loss
from trifuse.similarity import QueryScorer, ScoreMatrix, batch_scores, score_matrix
from trifuse.synth import SynthConfig, generate
from trifuse.trainer import TrainConfig, train

from gradcheck import finite_difference_check


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" :: {detail}" if detail else ""))
    assert passed, f"{criterion} failed: {detail}"


def size_b_dataset(seed: int):
    """The ablation probe's size-B synth recipe: 700 train, 280 validation and
    1,820 test items, with drifted audio and half-visual queries."""
    dataset, _ = generate(SynthConfig(n_items=2800, seed=seed, audio_drift=2.0, query_visual_mix=0.5,
                                      splits={"train": 0.25, "val": 0.1, "test": 0.65}))
    return dataset


def train_and_score(dataset, mode, seed):
    """Train as the ablation probe does (soft-ALBEF, 20 epochs, batch 32,
    lr 1e-3, the default `grad_clip`, the best epoch by validation R@1), then
    score the test split at sharpness 20: overall metrics plus `per_group`."""
    config = TrainConfig(epochs=20, batch_size=32, lr=1e-3, mode=mode, align_kind="soft_albef", seed=seed)
    result = train(config, dataset, val_split="val")
    assert not result.aborted, result.abort_reason
    items = dataset.split_items("test")
    queries = dataset.split_queries("test")
    index = precompute_index(items, result.params, mode, dataset.manifest)
    matrix = score_matrix(index, queries, sharpness=20.0)
    gt = {q.query_id: q.ground_truth_item for q in queries}
    metrics = summary_metrics(matrix, gt)
    metrics["per_group"] = grouped_eval(matrix, gt, {q.query_id: q.group for q in queries})
    return metrics


ABLATION_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def size_b_run():
    """`run(mode, seed)`: the metrics of one size-B run, each (mode, seed)
    trained once per module, on first request."""
    datasets, runs = {}, {}

    def run(mode: FusionMode, seed: int) -> dict:
        if (mode, seed) not in runs:
            if seed not in datasets:
                datasets[seed] = size_b_dataset(seed)
            runs[mode, seed] = train_and_score(datasets[seed], mode, seed)
        return runs[mode, seed]

    return run


def directional(size_b_run, group: str, mode: FusionMode, baseline: FusionMode) -> tuple[bool, str]:
    """Whether `mode` beats `baseline` on `group` R@1 in the mean over the
    ablation seeds, and a line naming the mean margin; prints each seed's."""
    margins = []
    for seed in ABLATION_SEEDS:
        ours = size_b_run(mode, seed)["per_group"][group]["r1"]
        theirs = size_b_run(baseline, seed)["per_group"][group]["r1"]
        margins.append(ours - theirs)
        print(f"  {group} R@1 seed {seed}: {mode.value} {ours:.3f} - {baseline.value} {theirs:.3f} = {ours - theirs:+.3f}")
    mean = float(np.mean(margins))
    return mean > 0.0, f"{group} {mode.value} over {baseline.value} by {mean:+.3f}"


class TestCriterion1GradientIntegrity:
    """finite_difference_check < 1e-4 (64-bit) for every trainable op family,
    10 random instances each, under 2 minutes."""

    def test_gradient_integrity(self):
        start = time.time()
        worst: dict[str, float] = {}

        def track(name, err):
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < 1e-4, f"{name}: {err}"

        for seed in range(10):
            rng = np.random.default_rng(seed)

            block = nn.CrossAttentionBlock(4, 2, rng, dtype=np.float64)
            q = Tensor(rng.normal(size=(2, 4)))
            kv = Tensor(rng.normal(size=(3, 4)))
            r = rng.normal(size=(2, 4))
            track("cross_attention_block",
                  finite_difference_check(lambda: (block(q, kv) * r).sum(), block.parameters()))

            fusion = nn.GatedFusion(4, 2, 2, rng, dtype=np.float64)
            fusion.gate.data = np.asarray(rng.uniform(-0.8, 0.8))
            track("gated_fusion",
                  finite_difference_check(lambda: (fusion(q, kv) * r).sum(), fusion.parameters()))

            resampler = nn.Resampler(4, 2, 3, rng, depth=1, max_len=8, dtype=np.float64)
            tokens = Tensor(rng.normal(size=(5, 4)))
            rr = rng.normal(size=(3, 4))
            track("resample",
                  finite_difference_check(lambda: (resampler(tokens) * rr).sum(), resampler.parameters()))

            scores = parameter(rng.normal(size=(4, 4)))
            scale = parameter(np.asarray(rng.uniform(1.0, 5.0)))
            track("contrastive_loss",
                  finite_difference_check(lambda: contrastive_loss(scores, scale=scale), [scores, scale]))

            m0 = rng.normal(size=(4, 4))
            m1 = parameter(rng.normal(size=(4, 4)))
            track("soft_albef_loss", finite_difference_check(lambda: soft_albef_loss(m0, m1), [m1]))
            track("hard_albef_loss", finite_difference_check(lambda: hard_albef_loss(m1), [m1]))

            # a zero-padded batch of two items with 3 and 1 key/value tokens
            bq = Tensor(rng.normal(size=(2, 2, 4)))
            padded = rng.normal(size=(2, 3, 4))
            padded[1, 1:] = 0.0
            mask = np.array([[True, True, True], [True, False, False]])
            br = rng.normal(size=(2, 2, 4))
            track("masked_batch_cross_attention",
                  finite_difference_check(lambda: (block(bq, Tensor(padded), mask) * br).sum(), block.parameters()))

            # save-mode batch scores: the one-node local term plus the global cosine
            stok = parameter(rng.normal(size=(3, 2, 4)))
            squery = rng.normal(size=(2, 4))
            sr = rng.normal(size=(2, 3))
            track("batch_scores",
                  finite_difference_check(
                      lambda: (batch_scores(FusedBatch(stok, stok.mean(axis=1)), squery) * sr).sum(),
                      [stok]))

        elapsed = time.time() - start
        detail = f"max rel err {max(worst.values()):.2e} over {len(worst)} ops, {elapsed:.0f}s"
        report("1 gradient integrity", elapsed < 120.0, detail)


class TestCriterion2ZeroGateIdentity:
    """At default init, every gated mode (save/avigate/no_audio) scores
    bit-identically to vision_only on 100 random items: a zero gate adds
    exactly 0 to the visual tokens."""

    def test_zero_gate_identity(self):
        cfg = SynthConfig(n_items=100, dim=16, frames=6, audio_len=8, speech_pad=8,
                          missing_audio=0.2, missing_speech=0.3, seed=11,
                          splits={"train": 0.0, "val": 0.0, "test": 1.0})
        dataset, _ = generate(cfg)
        params = FusionParams(dim=16, frames=6, heads=4, seed=0)
        items = dataset.split_items("test")
        queries = dataset.split_queries("test")
        base = precompute_index(items, params, FusionMode.VISION_ONLY, dataset.manifest)
        base_scores = score_matrix(base, queries).values
        identical = True
        for mode in (FusionMode.SAVE, FusionMode.AVIGATE, FusionMode.NO_AUDIO):
            index = precompute_index(items, params, mode, dataset.manifest)
            if not np.array_equal(index.tokens, base.tokens):
                identical = False
            if not np.array_equal(score_matrix(index, queries).values, base_scores):
                identical = False
        report("2 zero-gate identity", identical, "100 items, 3 modes, bitwise")


class TestCriterion3SoftAlbefOracle:
    def test_eq3_oracle(self):
        anti = float(soft_albef_loss(np.eye(2), Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))).data)
        ok_anti = abs(anti - 4.0) < 1e-6

        rng = np.random.default_rng(3)
        ok_self = True
        ok_shift = True
        for _ in range(100):
            b = int(rng.integers(2, 7))
            m = rng.normal(size=(b, b))
            if float(soft_albef_loss(m, Tensor(m.copy())).data) > 1e-9:
                ok_self = False
            m1 = rng.normal(size=(b, b))
            c = float(rng.uniform(-3, 3))
            base = float(soft_albef_loss(m, Tensor(m1)).data)
            shifted = float(soft_albef_loss(m, Tensor(m1 + c)).data)
            if abs(base - shifted) > 1e-9:
                ok_shift = False
        report(
            "3 Eq.3 oracle",
            ok_anti and ok_self and ok_shift,
            f"anti-diagonal={anti:.8f}, self-loss<=1e-9: {ok_self}, shift-invariant: {ok_shift}",
        )


class TestCriterion4MetricOracle:
    """R@k / SumR match an independent sort-based oracle exactly on 100 random
    50x50 matrices including ties."""

    @staticmethod
    def sort_oracle(scores: np.ndarray, gt: int) -> int:
        return int(np.sum(scores > scores[gt]) + np.sum(scores == scores[gt]))

    def test_metric_oracle(self):
        rng = np.random.default_rng(4)
        exact = True
        for _ in range(100):
            values = np.round(rng.normal(size=(50, 50)), 1)  # rounding forces ties
            qids = [f"q{i}" for i in range(50)]
            iids = [f"v{j}" for j in range(50)]
            gt = {qids[i]: iids[int(rng.integers(0, 50))] for i in range(50)}
            matrix = ScoreMatrix(values, qids, iids)
            col = {iid: j for j, iid in enumerate(iids)}
            oracle_ranks = np.array([self.sort_oracle(values[i], col[gt[qids[i]]]) for i in range(50)])
            for k in (1, 5, 10):
                if float(np.mean(ranks_of_matrix(matrix, gt) <= k)) != float(np.mean(oracle_ranks <= k)):
                    exact = False
            got = summary_metrics(matrix, gt)
            want_sumr = 100.0 * sum(float(np.mean(oracle_ranks <= k)) for k in (1, 5, 10))
            if got["sumr"] != want_sumr:
                exact = False
        report("4 metric oracle", exact, "100 matrices, ties included, exact equality")


class TestCriterion5SpeechBranch:
    """Claim: SAVE's dedicated speech branch is what answers queries that
    describe what is said. `save` beats both `avigate` (audio, no speech
    branch) and `vision_only` on speech and sound_speech R@1, in the mean
    over seeds 0-2 of the size-B probe."""

    def test_speech_branch(self, size_b_run):
        results = [directional(size_b_run, group, FusionMode.SAVE, baseline)
                   for baseline in (FusionMode.AVIGATE, FusionMode.VISION_ONLY)
                   for group in ("speech", "sound_speech")]
        report("5 speech branch", all(ok for ok, _ in results), "; ".join(detail for _, detail in results))


class TestCriterion6AudioBranch:
    """Claim: SAVE's audio branch carries what a video sounds like. `save`
    beats `no_audio` (the same model without its audio branch) on sound R@1,
    in the mean over seeds 0-2 of the size-B probe."""

    def test_audio_branch(self, size_b_run):
        ok, detail = directional(size_b_run, "sound", FusionMode.SAVE, FusionMode.NO_AUDIO)
        report("6 audio branch", ok, detail)


class TestCriterion8EfficiencyContract:
    """Scoring one query against an index runs no fusion block, costs under 3x
    per item when the gallery doubles, and costs the same in `save` and
    `avigate`, whose galleries share one shape and dtype."""

    @staticmethod
    def score_ms(index, queries: list, repetitions: int) -> float:
        """Median wall time in ms of scoring each query against `index`,
        `repetitions` times, with a scorer built for this call. (Two scorers
        kept alive across the alternating repetitions read save/avigate gaps
        over 10% in 3 of 30 runs on 2 vCPU; a scorer per call in 1 of 60.)"""
        scorer = QueryScorer(index, index.mode)
        embeddings = [query.embedding for query in queries]
        samples = []
        for _ in range(repetitions):
            for embedding in embeddings:
                start = time.perf_counter()
                scorer.score_one(embedding)
                samples.append((time.perf_counter() - start) * 1e3)
        return float(np.median(samples))

    def test_efficiency_contract(self):
        frames, d = 6, 16
        params = FusionParams(dim=d, frames=frames, heads=4, seed=0)

        def gallery(n, seed):
            cfg = SynthConfig(n_items=n, dim=d, frames=frames, audio_len=8, speech_pad=8, seed=seed,
                              splits={"train": 0.0, "val": 0.0, "test": 1.0})
            ds, _ = generate(cfg)
            items = ds.split_items("test")
            return ds, precompute_index(items, params, FusionMode.SAVE, ds.manifest)

        ds1, small = gallery(1000, 0)
        ds2, big = gallery(2000, 1)
        queries = ds1.split_queries("test")[:8]
        avigate_index = precompute_index(ds1.split_items("test"), params, FusionMode.AVIGATE, ds1.manifest)

        blocks_before = nn.BLOCK_EVAL_COUNTER["count"]
        ratio = self.score_ms(big, queries, 30) / self.score_ms(small, queries, 30)

        # The two modes run identical scoring code. Their timings alternate
        # repetition by repetition (leading in turn), so that host drift over
        # the run reaches both medians alike.
        rep_ms = {"save": [], "avigate": []}
        for rep in range(60):
            pair = [("save", small), ("avigate", avigate_index)]
            for name, index in pair if rep % 2 == 0 else pair[::-1]:
                rep_ms[name].append(self.score_ms(index, queries, 1))
        fusion_evals = nn.BLOCK_EVAL_COUNTER["count"] - blocks_before
        linear_ok = ratio < 3.0 * 2.0
        t_save = float(np.median(rep_ms["save"]))
        t_avigate = float(np.median(rep_ms["avigate"]))
        cost_gap = abs(t_save - t_avigate) / max(t_save, t_avigate)
        modes_ok = cost_gap <= 0.10
        # The deterministic half: no block evaluation while scoring, and
        # galleries of one shape and dtype in both modes.
        same_work = fusion_evals == 0 and all(
            (a.shape, a.dtype) == (b.shape, b.dtype)
            for a, b in ((small.tokens, avigate_index.tokens), (small.pooled, avigate_index.pooled))
        )

        report(
            "8 efficiency contract",
            linear_ok and same_work and modes_ok,
            f"2x gallery ratio {ratio:.2f} (<6), {fusion_evals} fusion evals, save and avigate galleries of one "
            f"shape and dtype {same_work}, save/avigate gap {cost_gap:.1%} (<=10%)",
        )


class TestCriterion9DeterminismIO:
    def test_determinism_and_io(self, tmp_path):
        cfg = SynthConfig(n_items=48, dim=8, teacher_dim=4, frames=3, audio_len=4, speech_pad=4,
                          missing_audio=0.25, seed=9,
                          splits={"train": 0.5, "val": 0.25, "test": 0.25})
        dataset, _ = generate(cfg)

        config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, heads=2, fusion_depth=1, seed=7)
        a = train(config, dataset)
        b = train(config, dataset)
        logs_ok = a.log == b.log
        params_ok = all(
            np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.params.named_parameters(), b.params.named_parameters())
        )

        from trifuse.fusion import save_params

        save_params(a.params, tmp_path / "a.ckpt")
        save_params(b.params, tmp_path / "b.ckpt")
        ckpt_ok = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

        write_dataset(dataset, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        write_dataset(back, tmp_path / "ds2")
        roundtrip_ok = (tmp_path / "ds" / "tensors.sve").read_bytes() == (
            tmp_path / "ds2" / "tensors.sve"
        ).read_bytes()

        report(
            "9 determinism & IO",
            logs_ok and params_ok and ckpt_ok and roundtrip_ok,
            f"logs={logs_ok} params={params_ok} ckpt={ckpt_ok} roundtrip={roundtrip_ok}",
        )


class TestCriterion10MissingModalityRobustness:
    def test_missing_modality_robustness(self):
        cfg = SynthConfig(n_items=64, dim=8, teacher_dim=4, frames=3, audio_len=4, speech_pad=4,
                          missing_audio=0.5, missing_speech=0.85, seed=10,
                          splits={"train": 0.5, "val": 0.0, "test": 0.5})
        dataset, _ = generate(cfg)
        config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, heads=2, fusion_depth=1, seed=0)
        result = train(config, dataset)
        trained_ok = not result.aborted

        items = dataset.split_items("test")
        queries = dataset.split_queries("test")
        index = precompute_index(items, result.params, FusionMode.SAVE, dataset.manifest)
        metrics = summary_metrics(score_matrix(index, queries),
                                  {q.query_id: q.ground_truth_item for q in queries})
        eval_ok = 0.0 <= metrics["sumr"] <= 300.0

        # vision_only scores of fully-missing items must ignore the other branches
        params = FusionParams(dim=8, frames=3, heads=2, seed=1)
        fully_missing = [it for it in items if it.audio_tokens is None and it.speech_tokens is None]
        unchanged = len(fully_missing) > 0
        rng = np.random.default_rng(0)
        for item in fully_missing:
            before = forward_video([resolve_missing(item, dataset.manifest)], params, FusionMode.VISION_ONLY).tokens
            stuffed = ItemRecord(
                item_id=item.item_id,
                visual_tokens=item.visual_tokens,
                audio_tokens=rng.normal(size=(4, 8)).astype(np.float32),
                speech_tokens=rng.normal(size=(4, 8)).astype(np.float32),
            )
            after = forward_video([stuffed], params, FusionMode.VISION_ONLY).tokens
            if not np.array_equal(before.data, after.data):
                unchanged = False
        report(
            "10 missing-modality robustness",
            trained_ok and eval_ok and unchanged,
            f"50% audio / 85% speech missing; train={trained_ok} eval sumr={metrics['sumr']:.1f} "
            f"vision_only invariant on {len(fully_missing)} fully-missing items={unchanged}",
        )
