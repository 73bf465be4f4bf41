"""Fusion modes, zero-gate identities, pooled pre-fusion outputs, index building."""

import json

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import fusion
from trifuse.autodiff import Tensor, finite_difference_check
from trifuse.data import (KIND_TOKENS, KIND_VECTOR, ContainerError, ItemRecord, Manifest, QueryRecord, read_container,
                          resolve_missing, write_container)
from trifuse.fusion import (
    AV_AUDIO_WEIGHT,
    AV_VISUAL_WEIGHT,
    AUDIO_MODES,
    FusionMode,
    FusionParams,
    forward_video,
    load_index,
    load_params,
    precompute_index,
    pre_fusion_pooled,
    save_index,
    save_params,
)
from trifuse.similarity import QueryScorer, batch_scores, combined_similarity, score_matrix


D, M = 8, 3
MAN = Manifest(dim=D, teacher_dim=4, frames=M, speech_pad=6, audio_pad=M)


def make_item(seed=0, with_audio=True, with_speech=True) -> ItemRecord:
    rng = np.random.default_rng(seed)
    return ItemRecord(
        item_id=f"item{seed}",
        visual_tokens=rng.normal(size=(M, D)).astype(np.float32),
        audio_tokens=rng.normal(size=(4, D)).astype(np.float32) if with_audio else None,
        speech_tokens=rng.normal(size=(6, D)).astype(np.float32) if with_speech else None,
    )


def make_params(seed=0, dtype=np.float32) -> FusionParams:
    return FusionParams(dim=D, frames=M, heads=2, seed=seed, dtype=dtype)


class TestForwardVideo:
    def test_vision_only_passthrough(self):
        item = make_item(1)
        out = forward_video([item], make_params(), FusionMode.VISION_ONLY)
        np.testing.assert_array_equal(out.tokens.data[0], item.visual_tokens)
        np.testing.assert_allclose(out.pooled.data[0], item.visual_tokens.mean(axis=0), rtol=1e-6)

    @pytest.mark.parametrize(
        "mode",
        [FusionMode.SAVE, FusionMode.AVIGATE, FusionMode.NO_AUDIO],
        ids=["save", "avigate", "no_audio"],
    )
    def test_zero_gate_identity_is_bitwise(self, mode):
        """Fresh gates are zero, so every gated mode must emit the raw visual tokens."""
        item = make_item(2)
        out = forward_video([item], make_params(), mode)
        np.testing.assert_array_equal(out.tokens.data[0], item.visual_tokens)

    def test_avigate_weighted_sum_coefficients(self):
        """With the audio branch stubbed to echo v, Eq-style weights give back v.

        Fused tokens are stored rescaled by 1/0.95 (cosine-equivalent), so the
        check multiplies back.
        """
        item = make_item(3)
        params = make_params()
        params.audio_fusion = lambda v, a: v  # identity stub
        out = forward_video([item], params, FusionMode.AVIGATE)
        np.testing.assert_allclose(AV_VISUAL_WEIGHT * out.tokens.data[0], item.visual_tokens, rtol=1e-6)
        assert AV_VISUAL_WEIGHT + AV_AUDIO_WEIGHT == 1.0

    def test_no_audio_uses_speech_branch_only(self):
        item = make_item(4)
        params = make_params()
        params.speech_fusion.gate.data = np.asarray(0.7, dtype=np.float32)
        out = forward_video([item], params, FusionMode.NO_AUDIO)
        s_hat = params.speech_fusion(
            Tensor(item.visual_tokens), Tensor(item.speech_tokens)
        )
        np.testing.assert_allclose(out.tokens.data[0], item.visual_tokens + s_hat.data, rtol=1e-5)
        assert out.audio is None

    def test_unresolved_item_rejected(self):
        item = make_item(6, with_audio=False)
        with pytest.raises(ValueError, match="resolve_missing"):
            forward_video([make_item(5), item], make_params(), FusionMode.SAVE)

    def test_deterministic(self):
        items = [make_item(7), make_item(9)]
        params = make_params(seed=3)
        a = forward_video(items, params, FusionMode.SAVE)
        b = forward_video(items, params, FusionMode.SAVE)
        np.testing.assert_array_equal(a.tokens.data, b.tokens.data)

    def test_gradients_reach_every_branch(self):
        """Perturbed gates: loss gradients flow to both gates, resampler, both stacks."""
        params = FusionParams(dim=4, frames=2, heads=2, seed=1, dtype=np.float64)
        params.audio_fusion.gate.data = np.asarray(0.4)
        params.speech_fusion.gate.data = np.asarray(-0.3)
        rng = np.random.default_rng(0)
        item = ItemRecord(
            item_id="g",
            visual_tokens=rng.normal(size=(2, 4)),
            audio_tokens=rng.normal(size=(3, 4)),
            speech_tokens=rng.normal(size=(3, 4)),
        )
        r = rng.normal(size=(2, 4))

        def f():
            return (forward_video([item], params, FusionMode.SAVE).tokens * r).sum()

        probes = [
            params.audio_fusion.gate,
            params.speech_fusion.gate,
            params.resampler.queries,
            params.audio_fusion.stack.blocks[0].attn.wv.weight,
            params.speech_fusion.stack.blocks[1].ff.fc2.weight,
        ]
        assert finite_difference_check(f, probes, eps=1e-5) < 1e-4
        for p in probes:
            p.grad = None
        f().backward()
        for p in probes:
            assert p.grad is not None and np.any(p.grad != 0.0)


class TestBatchInvariance:
    """A batch fuses each item exactly as the item fused alone (float64)."""

    def batch(self):
        """Mixed audio and speech lengths, plus zero-filled missing modalities."""
        rng = np.random.default_rng(30)
        shapes = [(4, 6), (1, 2), (7, None), (None, 3), (None, None), (2, 9)]
        items = [
            ItemRecord(
                item_id=f"b{k}",
                visual_tokens=rng.normal(size=(M, D)),
                audio_tokens=None if la is None else rng.normal(size=(la, D)),
                speech_tokens=None if ls is None else rng.normal(size=(ls, D)),
            )
            for k, (la, ls) in enumerate(shapes)
        ]
        return [resolve_missing(item, MAN) for item in items]

    def params(self):
        params = make_params(seed=8, dtype=np.float64)
        params.audio_fusion.gate.data = np.asarray(0.4)
        params.speech_fusion.gate.data = np.asarray(-0.3)
        return params

    @staticmethod
    def arrays(out):
        got = {"tokens": out.tokens.data, "pooled": out.pooled.data}
        if out.audio is not None:
            got["v_mean"], got["a_mean"] = (t.data for t in pre_fusion_pooled(out))
        return got

    @pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
    def test_each_item_matches_its_solo_run(self, mode):
        items, params = self.batch(), self.params()
        batched = self.arrays(forward_video(items, params, mode))
        assert ("a_mean" in batched) == (mode in AUDIO_MODES)
        for b, item in enumerate(items):
            alone = self.arrays(forward_video([item], params, mode))
            assert alone.keys() == batched.keys()
            for key, value in alone.items():
                np.testing.assert_allclose(batched[key][b], value[0], rtol=0, atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
    def test_permuting_the_batch_permutes_outputs(self, mode):
        items, params = self.batch(), self.params()
        perm = np.random.default_rng(31).permutation(len(items))
        base = self.arrays(forward_video(items, params, mode))
        permuted = self.arrays(forward_video([items[k] for k in perm], params, mode))
        for key, value in base.items():
            np.testing.assert_allclose(permuted[key], value[perm], rtol=0, atol=1e-12, err_msg=key)


class TestPreFusionPooled:
    def test_equal_visual_tokens_pool_to_unit_direction(self):
        u = np.array([3.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float32)
        item = ItemRecord("p", np.tile(u, (M, 1)), np.zeros((2, D), np.float32), None)
        v_mean, _ = pre_fusion_pooled(forward_video([item], make_params(), FusionMode.AVIGATE))
        np.testing.assert_allclose(v_mean.data[0], u / 5.0, rtol=1e-6)

    def test_single_frame_pools_to_itself(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1, D)).astype(np.float32)
        params = FusionParams(dim=D, frames=1, heads=2)
        item = ItemRecord("p1", v, np.zeros((2, D), np.float32), None)
        v_mean, _ = pre_fusion_pooled(forward_video([item], params, FusionMode.AVIGATE))
        np.testing.assert_allclose(v_mean.data[0], v[0] / np.linalg.norm(v[0]), rtol=1e-5)

    def test_missing_audio_items_share_one_pooled_audio(self):
        params = make_params()
        a = resolve_missing(make_item(10, with_audio=False), MAN)
        b = resolve_missing(make_item(11, with_audio=False), MAN)
        _, a_mean = pre_fusion_pooled(forward_video([a], params, FusionMode.SAVE))
        _, b_mean = pre_fusion_pooled(forward_video([b], params, FusionMode.SAVE))
        np.testing.assert_array_equal(a_mean.data, b_mean.data)
        assert np.linalg.norm(a_mean.data) > 0.5  # resampler output, not zeros

    def test_modes_without_audio_rejected(self):
        with pytest.raises(ValueError, match="audio"):
            pre_fusion_pooled(forward_video([make_item(12)], make_params(), FusionMode.NO_AUDIO))

    def test_gradient_flows_to_resampler(self):
        params = FusionParams(dim=4, frames=2, heads=2, seed=2, dtype=np.float64)
        rng = np.random.default_rng(1)
        item = ItemRecord("g", rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), None)
        r = rng.normal(size=4)

        def f():
            _, a_mean = pre_fusion_pooled(forward_video([item], params, FusionMode.AVIGATE))
            return (a_mean * r).sum()

        assert finite_difference_check(f, params.resampler.parameters(), eps=1e-5) < 1e-4


class TestIndex:
    def items(self, n=5):
        return [make_item(100 + i, with_audio=i % 2 == 0, with_speech=i % 3 == 0) for i in range(n)]

    def test_two_runs_identical(self):
        params = make_params(4)
        a = precompute_index(self.items(), params, FusionMode.SAVE, MAN)
        b = precompute_index(self.items(), params, FusionMode.SAVE, MAN)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.pooled, b.pooled)

    def test_shapes(self):
        index = precompute_index(self.items(5), make_params(), FusionMode.SAVE, MAN)
        assert index.tokens.shape == (5, M, D)
        assert index.pooled.shape == (5, D)

    def test_chunking_does_not_change_the_index(self, monkeypatch):
        params = make_params(6)
        params.audio_fusion.gate.data = np.asarray(0.3, dtype=np.float32)
        params.speech_fusion.gate.data = np.asarray(-0.2, dtype=np.float32)
        items = self.items(7)
        whole = precompute_index(items, params, FusionMode.SAVE, MAN)
        monkeypatch.setattr(fusion, "INDEX_CHUNK", 3)
        chunked = precompute_index(items, params, FusionMode.SAVE, MAN)
        assert chunked.item_ids == whole.item_ids
        for name in ("tokens", "pooled"):
            np.testing.assert_allclose(getattr(chunked, name), getattr(whole, name), rtol=1e-5, atol=1e-6)

    def test_empty_item_list(self):
        index = precompute_index([], make_params(), FusionMode.SAVE, MAN)
        assert index.tokens.shape == (0, M, D) and index.pooled.shape == (0, D)

    def test_index_scores_match_fresh_forward(self):
        params = make_params(5)
        params.audio_fusion.gate.data = np.asarray(0.3, dtype=np.float32)
        params.speech_fusion.gate.data = np.asarray(-0.2, dtype=np.float32)
        items = self.items(4)
        index = precompute_index(items, params, FusionMode.SAVE, MAN)
        rng = np.random.default_rng(0)
        query = rng.normal(size=D).astype(np.float32)
        for i, item in enumerate(items):
            out = forward_video([resolve_missing(item, MAN)], params, FusionMode.SAVE)
            direct = combined_similarity(out.tokens.data[0], out.pooled.data[0], query)
            via_index = combined_similarity(index.tokens[i], index.pooled[i], query)
            assert abs(direct - via_index) < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 60])
    @pytest.mark.parametrize("mode", [FusionMode.SAVE])
    def test_save_load_round_trip_bit_exact(self, tmp_path, mode, n):
        params = make_params(8)
        params.audio_fusion.gate.data = np.asarray(0.3, dtype=np.float32)
        index = precompute_index(self.items(n), params, mode, MAN)
        save_index(index, tmp_path / "g.idx")
        back = load_index(tmp_path / "g.idx")
        assert back.mode == index.mode and back.item_ids == index.item_ids
        for name in ("tokens", "pooled"):
            want, got = getattr(index, name), getattr(back, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(read_container(tmp_path / "g.idx")) == 2

    def test_load_rejects_row_count_that_disagrees_with_ids(self, tmp_path):
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        sidecar = tmp_path / "g.idx.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "item_ids": meta["item_ids"][:2]}))
        with pytest.raises(ContainerError, match="index record tokens has 9 rows, expected 6"):
            load_index(tmp_path / "g.idx")

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"m": None}, "KeyError: 'm'"),
            ({"item_ids": None}, "KeyError: 'item_ids'"),
            ({"mode": "bogus"}, "'bogus' is not a valid FusionMode"),
            ({"mode": "holistic"}, "'holistic' is not a valid FusionMode"),
            ({"mode": "late_fusion"}, "'late_fusion' is not a valid FusionMode"),
            ({"mode": "learnable_weights"}, "'learnable_weights' is not a valid FusionMode"),
        ],
        ids=["missing_m", "missing_item_ids", "unknown_mode", "holistic", "late_fusion", "learnable_weights"],
    )
    def test_sidecar_that_disagrees_with_records_raises(self, tmp_path, change, match):
        """A sidecar that lacks a key, or names a mode that does not exist
        (a deleted one included), raises ContainerError."""
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        sidecar = tmp_path / "g.idx.json"
        meta = {**json.loads(sidecar.read_text()), **change}
        sidecar.write_text(json.dumps({key: value for key, value in meta.items() if value is not None}))
        with pytest.raises(ContainerError, match=match):
            load_index(tmp_path / "g.idx")

    @pytest.mark.parametrize("mode", list(FusionMode), ids=lambda m: m.value)
    def test_score_matrix_matches_batch_scores(self, tmp_path, mode):
        """Each mode's index survives save/load bit for bit. Serving it gives
        the scores of training-time scoring of the same fused batch and of the
        scalar reference, and a scorer in any other mode is refused."""
        params = make_params(9, dtype=np.float64)
        params.audio_fusion.gate.data = np.asarray(0.3)
        params.speech_fusion.gate.data = np.asarray(-0.2)
        items = self.items(6)
        rng = np.random.default_rng(3)
        queries = [QueryRecord(f"q{i}", rng.normal(size=D).astype(np.float32), "item100") for i in range(4)]
        with ad.no_grad():
            index = precompute_index(items, params, mode, MAN)
            fused = forward_video([resolve_missing(item, MAN) for item in items], params, mode)
            want = batch_scores(fused, np.stack([q.embedding for q in queries])).data

        save_index(index, tmp_path / "g.idx")
        back = load_index(tmp_path / "g.idx")
        assert back.mode == mode and back.item_ids == index.item_ids
        for name in ("tokens", "pooled"):
            held, loaded = getattr(index, name), getattr(back, name)
            assert loaded.shape == held.shape and loaded.tobytes() == held.tobytes()

        got = score_matrix(back, queries).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        for i, q in enumerate(queries):
            for j in range(len(items)):
                assert abs(got[i, j] - combined_similarity(index.tokens[j], index.pooled[j], q.embedding)) < 1e-9
        scorer = QueryScorer(back, mode)
        assert scorer.tokens.shape == (M, 6, D) and scorer.tokens.flags.c_contiguous
        other = next(m for m in FusionMode if m != mode)
        with pytest.raises(ValueError, match=f"cannot score a {mode.value} index in mode {other.value}"):
            QueryScorer(index, other)


class TestParamsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        params = make_params(6)
        params.audio_fusion.gate.data = np.asarray(0.25, dtype=np.float32)
        save_params(params, tmp_path / "p.ckpt")
        back = load_params(tmp_path / "p.ckpt")
        for (na, a), (nb, b) in zip(params.named_parameters(), back.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(a.data, b.data)

    def test_mode_and_sharpness_in_sidecar(self, tmp_path):
        params = FusionParams(dim=D, frames=M, heads=2, mode="avigate", sharpness=7.5)
        save_params(params, tmp_path / "p.ckpt")
        assert load_params(tmp_path / "p.ckpt").arch == {**params.arch, "mode": "avigate", "sharpness": 7.5}
        # a sidecar written before these keys existed scores as save at 20
        sidecar = tmp_path / "p.ckpt.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({k: v for k, v in meta.items() if k not in ("mode", "sharpness")}))
        arch = load_params(tmp_path / "p.ckpt").arch
        assert (arch["mode"], arch["sharpness"]) == ("save", 20.0)

    def test_sharpness_bound(self, tmp_path):
        """The local term takes exp(sharpness * cosine) unshifted, so a
        sharpness above fusion.MAX_SHARPNESS is refused; the bound itself loads."""
        with pytest.raises(ValueError, match="MAX_SHARPNESS"):
            FusionParams(dim=D, frames=M, heads=2, sharpness=fusion.MAX_SHARPNESS + 0.5)
        save_params(FusionParams(dim=D, frames=M, heads=2, sharpness=fusion.MAX_SHARPNESS), tmp_path / "p.ckpt")
        assert load_params(tmp_path / "p.ckpt").arch["sharpness"] == 80.0

    def test_two_saves_identical_bytes(self, tmp_path):
        params = make_params(7)
        save_params(params, tmp_path / "a.ckpt")
        save_params(params, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"fusion_depth": 3}, "missing parameter audio_fusion.stack.blocks.2"),
            ({"frames": M + 1}, f"parameter resampler.queries has {M * D} values, not {(M + 1) * D}"),
            ({"bogus": 1}, "unknown parameter 'bogus'"),
            ({"dim": None}, "missing 1 required positional argument: 'dim'"),
            ({"dtype": None}, "KeyError: 'dtype'"),
            ({"heads": 3}, "model dim 8 not divisible by head count 3"),
            ({"dim": "8"}, "TypeError"),
            ({"mode": "bogus"}, "'bogus' is not a valid FusionMode"),
            ({"mode": "holistic"}, "'holistic' is not a valid FusionMode"),
            ({"mode": "late_fusion"}, "'late_fusion' is not a valid FusionMode"),
            ({"mode": "learnable_weights"}, "'learnable_weights' is not a valid FusionMode"),
            ({"sharpness": 0}, "sharpness must be > 0, got 0"),
            ({"sharpness": 100}, r"sharpness must be <= MAX_SHARPNESS \(80.0\), got 100"),
        ],
        ids=["missing_record", "size_mismatch", "unknown_key", "missing_dim", "missing_dtype", "heads_vs_dim",
             "dim_as_string", "unknown_mode", "holistic", "late_fusion", "learnable_weights", "zero_sharpness",
             "over_max_sharpness"],
    )
    def test_sidecar_that_disagrees_with_tensors_raises(self, tmp_path, change, match):
        save_params(make_params(), tmp_path / "c.ckpt")
        sidecar = tmp_path / "c.ckpt.json"
        meta = {**json.loads(sidecar.read_text()), **change}
        sidecar.write_text(json.dumps({key: value for key, value in meta.items() if value is not None}))
        with pytest.raises(ContainerError, match=match):
            load_params(tmp_path / "c.ckpt")

    def test_checkpoint_with_tensors_of_deleted_modes_scores_the_same(self, tmp_path):
        """A save checkpoint written while the holistic and learnable-weights
        modes existed also holds their tensors; they are ignored, so it loads
        and scores bit-identically to the same checkpoint without them."""
        params = make_params(6)
        params.audio_fusion.gate.data = np.asarray(0.3, dtype=np.float32)
        params.speech_fusion.gate.data = np.asarray(-0.2, dtype=np.float32)
        save_params(params, tmp_path / "new.ckpt")
        rng = np.random.default_rng(0)
        old = {}
        for name, record in read_container(tmp_path / "new.ckpt").items():  # in the old writer's record order
            if name == "param/logit_scale":
                old["param/holistic.weight"] = (KIND_TOKENS, rng.normal(size=(D, D)))
                old["param/holistic.query"] = (KIND_VECTOR, rng.normal(size=D))
            old[name] = record
        old |= {"param/alpha": (KIND_VECTOR, np.ones(1)), "param/beta": (KIND_VECTOR, np.zeros(1))}
        write_container(tmp_path / "old.ckpt", old)
        (tmp_path / "old.ckpt.json").write_bytes((tmp_path / "new.ckpt.json").read_bytes())

        items = [make_item(200 + i, with_audio=i % 2 == 0, with_speech=i % 3 == 0) for i in range(5)]
        queries = [QueryRecord(f"q{i}", make_item(300 + i).visual_tokens[0], "item200") for i in range(3)]
        scores = []
        for name in ("new.ckpt", "old.ckpt"):
            loaded = load_params(tmp_path / name)
            scores.append(score_matrix(precompute_index(items, loaded, FusionMode.SAVE, MAN), queries).values)
        assert scores[0].tobytes() == scores[1].tobytes()
