"""Optimizer math, LR schedule, loop determinism, validation-based selection."""

import math

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import trainer
from trifuse.autodiff import parameter
from trifuse.fusion import FusionMode
from trifuse.losses import AlignKind
from trifuse.synth import SynthConfig, generate
from trifuse.trainer import (
    Adam,
    NanGradientError,
    TrainConfig,
    clip_global_norm,
    cosine_lr,
    train,
)


def small_dataset(seed=0, n=48, **overrides):
    cfg = SynthConfig(
        n_items=n,
        dim=8,
        teacher_dim=4,
        frames=3,
        audio_len=4,
        speech_pad=4,
        seed=seed,
        splits={"train": 0.5, "val": 0.25, "test": 0.25},
        **overrides,
    )
    dataset, _ = generate(cfg)
    return dataset


def small_config(**overrides):
    defaults = dict(epochs=2, batch_size=8, lr=1e-3, heads=2, fusion_depth=1, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = parameter([1.0, -2.0])
        p.grad = np.zeros(2)
        opt = Adam([("p", p)])
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_is_signed_lr(self):
        """theta=0, g=0.5, lr=0.01: bias correction makes step ~ -lr * sign(g)."""
        p = parameter(np.asarray(0.0))
        p.grad = np.asarray(0.5)
        Adam([("p", p)]).step(lr=0.01)
        assert float(p.data) == pytest.approx(-0.01, abs=1e-6)

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=4) for _ in range(10)]

        def trajectory():
            p = parameter(np.ones(4))
            opt = Adam([("p", p)])
            for g in grads:
                p.grad = g.copy()
                opt.step(lr=0.05)
            return p.data.copy()

        np.testing.assert_array_equal(trajectory(), trajectory())

    def test_nan_gradient_names_parameter(self):
        p = parameter(np.zeros(2))
        p.grad = np.array([np.nan, 1.0])
        with pytest.raises(NanGradientError, match="bad_param"):
            Adam([("bad_param", p)]).step(lr=0.1)

    def test_missing_gradient_skipped(self):
        p = parameter(np.ones(2))
        p.grad = None
        Adam([("p", p)]).step(lr=0.1)
        np.testing.assert_array_equal(p.data, np.ones(2))


class TestCosineLr:
    def test_start_is_base(self):
        assert cosine_lr(0, 100, 3e-4) == pytest.approx(3e-4)

    def test_end_is_zero(self):
        assert cosine_lr(100, 100, 3e-4) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1e-4)

    def test_nonincreasing(self):
        lrs = [cosine_lr(s, 64, 1e-3) for s in range(65)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestClip:
    def test_large_gradients_scaled_to_max_norm(self):
        p = parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_global_norm([("p", p)], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_small_gradients_untouched(self):
        p = parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.2])
        clip_global_norm([("p", p)], max_norm=1.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.2])

    def test_no_max_norm_only_measures(self):
        p = parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])
        assert clip_global_norm([("p", p)], max_norm=None) == pytest.approx(5.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0, 0.0])


class TestConfig:
    def test_rejects_tiny_batch(self):
        with pytest.raises(ValueError, match="batch size"):
            TrainConfig(batch_size=1)

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_coerces_enum_strings(self):
        cfg = TrainConfig(mode="save", align_kind="none")
        assert cfg.mode is FusionMode.SAVE
        assert cfg.align_kind is AlignKind.NONE


class TestTrainLoop:
    def test_loss_decreases_after_fifty_steps(self):
        """Smoke oracle: ~50 steps at B=8; 2 of 3 seeds end below step 1."""
        wins = 0
        for seed in range(3):
            dataset = small_dataset(seed=seed, n=80)  # 40 train items -> 5 steps/epoch
            result = train(small_config(seed=seed, epochs=10), dataset)
            assert not result.aborted
            assert len(result.log) == 50
            if result.log[-1]["total"] < result.log[0]["total"]:
                wins += 1
        assert wins >= 2

    def test_identical_runs_bit_identical_logs_and_params(self):
        dataset = small_dataset(seed=1)
        a = train(small_config(seed=4), dataset)
        b = train(small_config(seed=4), dataset)
        assert a.log == b.log
        for (na, pa), (nb, pb) in zip(a.params.named_parameters(), b.params.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_zero_variance_teacher_matches_align_none(self):
        """A constant teacher makes every softmaxed row degenerate: alignment
        contributes 0 and the contrastive trajectory matches align none."""
        dataset = small_dataset(seed=2)
        flat = np.full(dataset.manifest.teacher_dim, 1.0, dtype=np.float32)
        flat /= np.linalg.norm(flat)
        for item in dataset.items.values():
            item.teacher_video = flat.copy()
            item.teacher_audio = flat.copy()
        soft = train(small_config(align_kind=AlignKind.SOFT_ALBEF), dataset)
        none = train(small_config(align_kind=AlignKind.NONE), dataset)
        assert all(rec["alignment"] == 0.0 for rec in soft.log)
        assert [r["contrastive"] for r in soft.log] == [r["contrastive"] for r in none.log]

    def test_vision_only_mode_has_zero_alignment(self):
        dataset = small_dataset(seed=3)
        result = train(small_config(mode=FusionMode.VISION_ONLY), dataset)
        assert all(rec["alignment"] == 0.0 for rec in result.log)

    def test_speech_stack_gets_no_gradient_from_alignment(self):
        """Gradient-path check: the alignment term touches pre-fusion pooling
        only, so speech-fusion parameters receive gradient solely from the
        contrastive term."""
        from trifuse.data import resolve_missing
        from trifuse.fusion import FusionParams, forward_video, pre_fusion_pooled
        from trifuse.losses import affinity_from_teacher, soft_albef_loss, student_affinity

        dataset = small_dataset(seed=4)
        man = dataset.manifest
        params = FusionParams(dim=man.dim, frames=man.frames, heads=2, seed=0)
        items = [resolve_missing(dataset.items[i], man) for i in man.splits["train"]["items"][:4]]
        m0 = affinity_from_teacher(
            np.stack([it.teacher_video for it in items]),
            np.stack([it.teacher_audio for it in items]),
        )
        m1 = student_affinity(*pre_fusion_pooled(forward_video(items, params, FusionMode.SAVE)))
        params.zero_grad()
        soft_albef_loss(m0, m1).backward()
        speech_grads = [p.grad for p in params.speech_fusion.parameters()]
        assert all(g is None for g in speech_grads)
        resampler_grads = [p.grad for p in params.resampler.parameters()]
        assert any(g is not None and np.any(g != 0) for g in resampler_grads)

    def test_nan_loss_aborts_with_last_good_params(self):
        dataset = small_dataset(seed=5)
        # poison one query so the scores go non-finite immediately
        qid = dataset.manifest.splits["train"]["queries"][0]
        dataset.queries[qid].embedding = np.full(dataset.manifest.dim, np.inf, dtype=np.float32)
        with pytest.warns(RuntimeWarning):  # inf / inf while normalizing the poisoned query
            result = train(small_config(epochs=1), dataset)
        assert result.aborted
        assert "non-finite" in result.abort_reason
        fresh = train(small_config(epochs=1), small_dataset(seed=5))
        assert not fresh.aborted

    def test_learning_rate_nonincreasing_in_log(self):
        result = train(small_config(epochs=2), small_dataset(seed=6))
        lrs = [rec["lr"] for rec in result.log if "lr" in rec]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_one_checkpoint_per_epoch(self):
        """One validation record per epoch, right after that epoch's last step."""
        result = train(small_config(epochs=3), small_dataset(seed=7), val_split="val")
        val = [(k, rec) for k, rec in enumerate(result.log) if "val_r1" in rec]
        assert [rec["epoch"] for _, rec in val] == [0, 1, 2]
        assert all(set(rec) == {"epoch", "val_r1"} for _, rec in val)
        assert all(result.log[k - 1]["epoch"] == rec["epoch"] for k, rec in val)
        assert val[-1][0] == len(result.log) - 1


STEP_READINGS = ("grad_norm", "audio_gate", "speech_gate", "temperature", "teacher_items")


class TestStepDiagnostics:
    @pytest.mark.parametrize("grad_clip", [1.0, None], ids=["clipped", "unclipped"])
    def test_step_records_hold_finite_readings(self, grad_clip):
        result = train(small_config(epochs=1, grad_clip=grad_clip), small_dataset(seed=11))
        steps = [rec for rec in result.log if "total" in rec]
        assert steps
        for rec in steps:
            assert all(math.isfinite(rec[key]) for key in STEP_READINGS)
            assert 0 <= rec["teacher_items"] <= 8 and isinstance(rec["teacher_items"], int)
        first = steps[0]  # the parameters at their initial values
        assert (first["audio_gate"], first["speech_gate"]) == (0.0, 0.0)
        assert first["temperature"] == pytest.approx(0.07, rel=1e-6)
        assert any(rec["teacher_items"] > 0 for rec in steps)

    def test_grad_norm_is_the_norm_before_clipping(self, monkeypatch):
        """Step 0's grad_norm is the norm of the gradients clipping received,
        recomputed here, and the same with clipping off."""
        clip = trainer.clip_global_norm
        norms = []

        def recording(named_params, max_norm):
            grads = [p.grad.astype(np.float64).ravel() for _, p in named_params if p.grad is not None]
            norms.append(float(np.linalg.norm(np.concatenate(grads))))
            return clip(named_params, max_norm)

        monkeypatch.setattr(trainer, "clip_global_norm", recording)
        clipped = train(small_config(epochs=1, grad_clip=1e-3), small_dataset(seed=12))
        assert norms[0] > 1e-3  # so this step was clipped
        assert clipped.log[0]["grad_norm"] == pytest.approx(norms[0], rel=1e-12)
        unclipped = train(small_config(epochs=1, grad_clip=None), small_dataset(seed=12))
        assert unclipped.log[0]["grad_norm"] == clipped.log[0]["grad_norm"]


class TestZeroCopyGradients:
    def test_no_step_writes_into_a_gradient(self, monkeypatch):
        """Gradients are stored without a copy, so one array may be the .grad
        of several tensors. With every stored gradient made read-only, a
        save/soft_albef step (forward, backward, clipping, Adam) must run:
        any in-place write into a gradient raises."""
        accumulate, clip = ad._accumulate, trainer.clip_global_norm

        def lock(t):
            if isinstance(t.grad, np.ndarray):
                t.grad.flags.writeable = False

        def accumulate_read_only(t, g):
            accumulate(t, g)
            lock(t)

        def clip_read_only(named_params, max_norm):
            norm = clip(named_params, max_norm)
            for _, p in named_params:
                lock(p)
            return norm

        monkeypatch.setattr(ad, "_accumulate", accumulate_read_only)
        monkeypatch.setattr(trainer, "clip_global_norm", clip_read_only)
        config = small_config(epochs=1, batch_size=16, grad_clip=1e-3, mode=FusionMode.SAVE,
                              align_kind=AlignKind.SOFT_ALBEF)
        result = train(config, small_dataset(seed=13))
        assert not result.aborted
        assert len(result.log) == 1 and result.log[0]["alignment"] != 0.0
        assert result.log[0]["grad_norm"] > 1e-3  # clipping rescaled this step


class TestSelectCheckpoint:
    def test_single_checkpoint_returned(self):
        result = train(small_config(epochs=1), small_dataset(seed=8), val_split="val")
        assert result.best_epoch == 0

    def test_best_val_r1_wins(self, monkeypatch):
        """A scripted validation curve 0.25, 0.5, 0.5: epoch 1 wins the tie with
        epoch 2, and train returns the parameters it validated."""
        seen = []

        def scripted_r1(params, dataset, split, config):
            seen.append({name: p.data.copy() for name, p in params.named_parameters()})
            return [0.25, 0.5, 0.5][len(seen) - 1]

        monkeypatch.setattr(trainer, "_val_r1", scripted_r1)
        result = train(small_config(epochs=3), small_dataset(seed=9), val_split="val")
        assert [rec["val_r1"] for rec in result.log if "val_r1" in rec] == [0.25, 0.5, 0.5]
        assert result.best_epoch == 1
        assert any(np.any(seen[1][name] != seen[2][name]) for name in seen[1])
        for name, p in result.params.named_parameters():
            np.testing.assert_array_equal(p.data, seen[1][name])

    def test_empty_val_returns_last_with_warning(self, caplog):
        dataset = small_dataset(seed=10)
        dataset.manifest.splits["val"] = {"items": [], "queries": []}
        with caplog.at_level("WARNING"):
            result = train(small_config(epochs=2), dataset, val_split="val")
        assert result.best_epoch == 1
        assert not any("val_r1" in rec for rec in result.log)
        assert any("validation" in rec.message for rec in caplog.records)
