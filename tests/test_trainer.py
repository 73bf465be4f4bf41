"""Optimizer math, LR schedule, loop determinism, validation-based selection."""

import math
import weakref

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import trainer
from trifuse.autodiff import parameter
from trifuse.fusion import FusionMode, FusionParams, load_params, save_params
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

    def test_missing_gradient_names_parameter(self):
        """Adam holds only parameters the loss reaches: one without a
        gradient is a fault, refused before anything moves."""
        p, q = parameter(np.ones(2)), parameter(np.ones(3))
        p.grad = np.ones(2)
        opt = Adam([("p", p), ("unreached", q)])
        with pytest.raises(RuntimeError, match="no gradient for parameter unreached"):
            opt.step(lr=0.1)
        np.testing.assert_array_equal(opt.data, np.ones(5))
        assert not opt.m.any() and not opt.v.any() and opt.step_count == 0


class PerTensorAdam:
    """The per-tensor Adam update that the flat buffer replaced, as the reference."""

    def __init__(self, arrays: dict, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data = {name: a.copy() for name, a in arrays.items()}
        self.moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in arrays.items()}
        self.beta1, self.beta2, self.eps, self.t = beta1, beta2, eps, 0

    def step(self, grads: dict, lr: float) -> None:
        self.t += 1
        for name, g in grads.items():
            if g is None:
                continue
            m, v = self.moments[name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.moments[name] = (m, v)
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p = self.data[name]
            self.data[name] = p - (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)


def flat_slice(adam: Adam, array: np.ndarray, name: str) -> np.ndarray:
    """The part of a flat array of `adam` (its data or a moment) that holds `name`."""
    i = [n for n, _ in adam.named_params].index(name)
    return array[adam.bounds[i] : adam.bounds[i + 1]]


def recorded_adams(monkeypatch) -> list:
    """Every `Adam` that `train` builds, in order."""
    built = []

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(trainer, "Adam", Recorded)
    return built


UNUSED_BRANCHES = {
    FusionMode.AVIGATE: ("speech_fusion.",),
    FusionMode.NO_AUDIO: ("resampler.", "audio_fusion."),
    FusionMode.VISION_ONLY: ("resampler.", "audio_fusion.", "speech_fusion."),
}


class TestFlatBuffer:
    def test_twenty_steps_bit_identical_to_per_tensor_adam(self):
        """Seeded float32 gradients over every fusion parameter: every
        parameter and moment matches the per-tensor reference bit for bit."""
        params = FusionParams(dim=8, frames=3, heads=2, seed=0)
        named = list(params.named_parameters())
        reference = PerTensorAdam({name: p.data for name, p in named})
        adam = Adam(named)
        rng = np.random.default_rng(0)
        for step in range(20):
            grads = {name: rng.normal(size=p.shape).astype(np.float32) for name, p in named}
            for name, p in named:
                p.grad = grads[name]
            lr = cosine_lr(step, 20, 1e-2)
            adam.step(lr)
            reference.step(grads, lr)
        for name, p in named:
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == np.asarray(reference.data[name]).tobytes(), name
            m, v = reference.moments[name]
            assert flat_slice(adam, adam.m, name).tobytes() == np.asarray(m).tobytes(), name
            assert flat_slice(adam, adam.v, name).tobytes() == np.asarray(v).tobytes(), name

    def test_parameters_are_views_into_one_buffer(self, monkeypatch):
        adams = recorded_adams(monkeypatch)
        result = train(small_config(epochs=1), small_dataset(seed=14))
        (adam,) = adams
        for name, p in result.params.named_parameters():
            assert p.data.base is adam.data
            assert flat_slice(adam, adam.data, name).tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("mode", list(UNUSED_BRANCHES), ids=lambda m: m.value)
    def test_unused_branch_keeps_its_data_and_moments(self, monkeypatch, mode):
        """Adam holds exactly the parameters the mode runs; a branch the mode
        does not run is left out, so it has no moments, and keeps its initial
        bytes."""
        adams = recorded_adams(monkeypatch)
        result = train(small_config(epochs=2, mode=mode), small_dataset(seed=15))
        (adam,) = adams
        fresh = dict(FusionParams(dim=8, frames=3, heads=2, fusion_depth=1, seed=0).named_parameters())
        unused = [name for name in fresh if name.startswith(UNUSED_BRANCHES[mode])]
        assert unused
        assert [name for name, _ in adam.named_params] == [name for name in fresh if name not in unused]
        for name, p in result.params.named_parameters():
            if name in unused:
                assert p.data.base is not adam.data, name
                assert p.data.tobytes() == fresh[name].data.tobytes(), name
        assert result.params.logit_scale.data != fresh["logit_scale"].data  # the used part did train

    def test_checkpoint_round_trip_byte_equal(self, tmp_path):
        """A checkpoint written from the buffer's views has the bytes of one
        written from arrays of their own, and loading and saving it again
        changes no byte."""
        result = train(small_config(epochs=1), small_dataset(seed=16))
        save_params(result.params, tmp_path / "views.ckpt")
        owned = load_params(tmp_path / "views.ckpt")
        assert all(p.data.base is None for p in owned.parameters())
        save_params(owned, tmp_path / "owned.ckpt")
        for suffix in ("ckpt", "ckpt.json"):
            assert (tmp_path / f"views.{suffix}").read_bytes() == (tmp_path / f"owned.{suffix}").read_bytes()


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
        """Clipping scales the gathered vector in place; through Adam.step,
        the step returns the norm before clipping, updates with the clipped
        gradients and leaves every `.grad` as it was."""
        flat = np.array([3.0, 4.0, 0.0])
        assert clip_global_norm(flat, max_norm=1.0) == pytest.approx(5.0)
        assert np.linalg.norm(flat) == pytest.approx(1.0, rel=1e-6)
        a, b = parameter(np.zeros(2)), parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0, 0.0]), np.array([4.0])
        opt = Adam([("a", a), ("b", b)])
        assert opt.step(lr=0.1, max_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(opt.m, 0.1 * np.array([0.6, 0.0, 0.8]), rtol=1e-12)
        np.testing.assert_array_equal(a.grad, [3.0, 0.0])
        np.testing.assert_array_equal(b.grad, [4.0])

    def test_small_gradients_untouched(self):
        flat = np.array([0.1, 0.2])
        assert clip_global_norm(flat, max_norm=1.0) == pytest.approx(math.sqrt(0.05))
        np.testing.assert_array_equal(flat, [0.1, 0.2])

    def test_no_max_norm_only_measures(self):
        flat = np.array([3.0, 4.0, 0.0])
        assert clip_global_norm(flat, max_norm=None) == pytest.approx(5.0)
        np.testing.assert_array_equal(flat, [3.0, 4.0, 0.0])
        p = parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])
        opt = Adam([("p", p)])
        assert opt.step(lr=0.1) == pytest.approx(5.0)
        np.testing.assert_allclose(opt.m, 0.1 * np.array([3.0, 4.0, 0.0]), rtol=1e-12)


class TestConfig:
    def test_rejects_tiny_batch(self):
        with pytest.raises(ValueError, match="batch_size must be an integer >= 2, got 1"):
            TrainConfig(batch_size=1)

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.0, TypeError), ("3", TypeError)])
    def test_rejects_seed_that_is_not_an_integer_at_least_0(self, seed, error):
        with pytest.raises(error, match="seed must be an integer"):
            TrainConfig(seed=seed)

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

    def test_alignment_skips_a_batch_with_fewer_than_two_teacher_items(self):
        """With one train item carrying teacher embeddings, no batch has the
        two rows an affinity needs: alignment is logged as 0.0 and the total
        is the contrastive loss."""
        dataset = small_dataset(seed=6)
        for item_id in dataset.manifest.splits["train"]["items"][1:]:
            dataset.items[item_id].teacher_video = dataset.items[item_id].teacher_audio = None
        steps = train(small_config(align_kind=AlignKind.SOFT_ALBEF), dataset).log
        assert {rec["teacher_items"] for rec in steps} == {0, 1}
        assert all(rec["alignment"] == 0.0 and rec["total"] == rec["contrastive"] for rec in steps)

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
        """Step 0's grad_norm is the norm of the gathered gradients clipping
        received, recomputed here, and the same with clipping off."""
        clip = trainer.clip_global_norm
        norms = []

        def recording(flat, max_norm):
            norms.append(float(np.linalg.norm(flat.astype(np.float64))))
            return clip(flat, max_norm)

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
        any in-place write into a gradient raises. Clipping scales only the
        vector Adam gathers, so it must not receive a gradient array."""
        accumulate, clip = ad._accumulate, trainer.clip_global_norm

        def accumulate_read_only(t, g):
            accumulate(t, g)
            if isinstance(t.grad, np.ndarray):
                t.grad.flags.writeable = False

        def clip_own_vector(flat, max_norm):
            assert flat.flags.writeable and flat.flags.owndata
            return clip(flat, max_norm)

        monkeypatch.setattr(ad, "_accumulate", accumulate_read_only)
        monkeypatch.setattr(trainer, "clip_global_norm", clip_own_vector)
        config = small_config(epochs=1, batch_size=16, grad_clip=1e-3, mode=FusionMode.SAVE,
                              align_kind=AlignKind.SOFT_ALBEF)
        result = train(config, small_dataset(seed=13))
        assert not result.aborted
        assert len(result.log) == 1 and result.log[0]["alignment"] != 0.0
        assert result.log[0]["grad_norm"] > 1e-3  # clipping rescaled this step


class TestTapeLifetime:
    def test_no_earlier_tape_alive_at_forward_or_validation(self, monkeypatch):
        """A step's tape is freed when the step ends: when a forward starts or
        validation runs, no earlier step's fused-token array is alive. The
        weak reference is to the array, since Tensor has no __weakref__."""
        forward, val_r1 = trainer.forward_video, trainer._val_r1
        tapes, live_at = [], {"forward": [], "validation": []}

        def alive():
            return sum(ref() is not None for ref in tapes)

        def watched_forward(*args, **kwargs):
            live_at["forward"].append(alive())
            fused = forward(*args, **kwargs)
            tapes.append(weakref.ref(fused.tokens.data))
            return fused

        def watched_val_r1(*args, **kwargs):
            live_at["validation"].append(alive())
            return val_r1(*args, **kwargs)

        monkeypatch.setattr(trainer, "forward_video", watched_forward)
        monkeypatch.setattr(trainer, "_val_r1", watched_val_r1)
        result = train(small_config(epochs=2), small_dataset(seed=14), val_split="val")
        assert len(result.log) == 8  # 3 steps and one validation per epoch
        assert live_at == {"forward": [0] * 6, "validation": [0, 0]}


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
