"""Fusion modes, zero-gate identities, pooled pre-fusion outputs, index building."""

import json
import re

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import fusion
from trifuse.autodiff import Tensor
from trifuse.data import (ContainerError, ItemRecord, Manifest, QueryRecord, read_container, resolve_missing,
                          write_container)
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

from gradcheck import finite_difference_check


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


class TestStack:
    def test_full_length_batch_gets_no_mask(self):
        tokens, mask = fusion._stack([make_item(seed=s) for s in range(3)], "speech_tokens", np.float32)
        assert mask is None
        assert tokens.data.tobytes() == np.stack([make_item(seed=s).speech_tokens for s in range(3)]).tobytes()

    def test_ragged_batch_gets_a_mask(self):
        short = make_item(seed=1)
        short.speech_tokens = short.speech_tokens[:2]
        tokens, mask = fusion._stack([make_item(seed=0), short], "speech_tokens", np.float32)
        np.testing.assert_array_equal(mask, [[True] * 6, [True] * 2 + [False] * 4])
        assert np.all(tokens.data[1, 2:] == 0.0)
        np.testing.assert_array_equal(tokens.data[1, :2], short.speech_tokens)


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

    def test_load_rejects_records_of_different_widths(self, tmp_path):
        """Tokens 8 wide beside pooled vectors 6 wide would load and then
        fail inside the scorer's matmul."""
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        records = read_container(tmp_path / "g.idx")
        records["index/pooled"] = records["index/pooled"][:, :6]
        write_container(tmp_path / "g.idx", records)
        with pytest.raises(ContainerError, match="index record tokens is 8 wide, record pooled 6"):
            load_index(tmp_path / "g.idx")

    @pytest.mark.parametrize("m", [0, -1, 2.0, "2", True])
    def test_load_rejects_m_that_is_not_a_positive_integer(self, tmp_path, m):
        """m = 0 with an empty tokens record would load and then fail with a
        math domain error when scored."""
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        records = read_container(tmp_path / "g.idx")
        records["index/tokens"] = np.zeros((0, D), np.float32)
        write_container(tmp_path / "g.idx", records)
        sidecar = tmp_path / "g.idx.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "m": m}))
        with pytest.raises(ContainerError, match=rf"\(FieldError: m must be an integer.*, got {re.escape(repr(m))}\)"):
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

    @pytest.mark.parametrize("doc", ["5", "null", "[1]", '"x"'])
    def test_sidecar_that_is_not_an_object_raises(self, tmp_path, doc):
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        (tmp_path / "g.idx.json").write_text(doc)
        with pytest.raises(ContainerError, match=r"g\.idx\.json is not a JSON object"):
            load_index(tmp_path / "g.idx")

    @pytest.mark.parametrize("item_ids", [5, "v0", [1], [None], {"v0": 1}, True],
                             ids=["int", "string", "list_of_int", "list_of_null", "object", "bool"])
    def test_item_ids_that_are_not_a_list_of_strings_raise(self, tmp_path, item_ids):
        """Not a bare TypeError (`len` of an int) or a row-count complaint:
        the field is named."""
        save_index(precompute_index([], make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        sidecar = tmp_path / "g.idx.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "item_ids": item_ids}))
        with pytest.raises(ContainerError, match=r"\(FieldError: item_ids(\[0\])? must be a (list|string), got "):
            load_index(tmp_path / "g.idx")

    def test_repeated_item_id_raises(self, tmp_path):
        """Two rows under one id would both be scored and ranked as that item."""
        save_index(precompute_index(self.items(3), make_params(), FusionMode.SAVE, MAN), tmp_path / "g.idx")
        sidecar = tmp_path / "g.idx.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "item_ids": ["v0", "v0", "v2"]}))
        with pytest.raises(ContainerError, match="index sidecar field item_ids lists v0 more than once"):
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
                assert abs(got[i, j] - combined_similarity(index.tokens[j], index.pooled[j], q.embedding)) < 1e-6
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

    def test_checkpoint_layout(self, tmp_path):
        """The name and shape of every record of a fixed small model, in
        order: the layout that existing checkpoints hold, which a change to
        how the model declares its tensors must keep."""
        save_params(FusionParams(dim=4, frames=2, heads=2, fusion_depth=1, resampler_depth=1, max_audio_len=3),
                    tmp_path / "c.ckpt")
        layout = [(name, array.shape) for name, array in read_container(tmp_path / "c.ckpt").items()]
        assert layout == [
            ("param/resampler.queries", (2, 4)),
            ("param/resampler.pos", (3, 4)),
            ("param/resampler.stack.blocks.0.ln_q.gain", (4,)),
            ("param/resampler.stack.blocks.0.ln_q.bias", (4,)),
            ("param/resampler.stack.blocks.0.ln_kv.gain", (4,)),
            ("param/resampler.stack.blocks.0.ln_kv.bias", (4,)),
            ("param/resampler.stack.blocks.0.attn.wq.weight", (4, 4)),
            ("param/resampler.stack.blocks.0.attn.wq.bias", (4,)),
            ("param/resampler.stack.blocks.0.attn.wk.weight", (4, 4)),
            ("param/resampler.stack.blocks.0.attn.wk.bias", (4,)),
            ("param/resampler.stack.blocks.0.attn.wv.weight", (4, 4)),
            ("param/resampler.stack.blocks.0.attn.wv.bias", (4,)),
            ("param/resampler.stack.blocks.0.attn.wo.weight", (4, 4)),
            ("param/resampler.stack.blocks.0.attn.wo.bias", (4,)),
            ("param/resampler.stack.blocks.0.ln_ff.gain", (4,)),
            ("param/resampler.stack.blocks.0.ln_ff.bias", (4,)),
            ("param/resampler.stack.blocks.0.ff.fc1.weight", (4, 16)),
            ("param/resampler.stack.blocks.0.ff.fc1.bias", (16,)),
            ("param/resampler.stack.blocks.0.ff.fc2.weight", (16, 4)),
            ("param/resampler.stack.blocks.0.ff.fc2.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_q.gain", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_q.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_kv.gain", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_kv.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.attn.wq.weight", (4, 4)),
            ("param/audio_fusion.stack.blocks.0.attn.wq.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.attn.wk.weight", (4, 4)),
            ("param/audio_fusion.stack.blocks.0.attn.wk.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.attn.wv.weight", (4, 4)),
            ("param/audio_fusion.stack.blocks.0.attn.wv.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.attn.wo.weight", (4, 4)),
            ("param/audio_fusion.stack.blocks.0.attn.wo.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_ff.gain", (4,)),
            ("param/audio_fusion.stack.blocks.0.ln_ff.bias", (4,)),
            ("param/audio_fusion.stack.blocks.0.ff.fc1.weight", (4, 16)),
            ("param/audio_fusion.stack.blocks.0.ff.fc1.bias", (16,)),
            ("param/audio_fusion.stack.blocks.0.ff.fc2.weight", (16, 4)),
            ("param/audio_fusion.stack.blocks.0.ff.fc2.bias", (4,)),
            ("param/audio_fusion.gate", (1,)),
            ("param/speech_fusion.stack.blocks.0.ln_q.gain", (4,)),
            ("param/speech_fusion.stack.blocks.0.ln_q.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.ln_kv.gain", (4,)),
            ("param/speech_fusion.stack.blocks.0.ln_kv.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.attn.wq.weight", (4, 4)),
            ("param/speech_fusion.stack.blocks.0.attn.wq.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.attn.wk.weight", (4, 4)),
            ("param/speech_fusion.stack.blocks.0.attn.wk.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.attn.wv.weight", (4, 4)),
            ("param/speech_fusion.stack.blocks.0.attn.wv.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.attn.wo.weight", (4, 4)),
            ("param/speech_fusion.stack.blocks.0.attn.wo.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.ln_ff.gain", (4,)),
            ("param/speech_fusion.stack.blocks.0.ln_ff.bias", (4,)),
            ("param/speech_fusion.stack.blocks.0.ff.fc1.weight", (4, 16)),
            ("param/speech_fusion.stack.blocks.0.ff.fc1.bias", (16,)),
            ("param/speech_fusion.stack.blocks.0.ff.fc2.weight", (16, 4)),
            ("param/speech_fusion.stack.blocks.0.ff.fc2.bias", (4,)),
            ("param/speech_fusion.gate", (1,)),
            ("param/logit_scale", (1,)),
        ]

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
            ({"seed": True}, "unknown parameter 'seed'"),
            ({"dim": None}, "missing 1 required positional argument: 'dim'"),
            ({"dtype": None}, "KeyError: 'dtype'"),
            ({"heads": 3}, "model dim 8 not divisible by head count 3"),
            ({"dim": "8"}, "FieldError: dim must be an integer, got '8'"),
            ({"mode": "bogus"}, "'bogus' is not a valid FusionMode"),
            ({"mode": "holistic"}, "'holistic' is not a valid FusionMode"),
            ({"mode": "late_fusion"}, "'late_fusion' is not a valid FusionMode"),
            ({"mode": "learnable_weights"}, "'learnable_weights' is not a valid FusionMode"),
            ({"sharpness": 0}, "sharpness must be a finite number > 0, got 0"),
            ({"sharpness": 100}, r"sharpness must be <= MAX_SHARPNESS \(80.0\), got 100"),
        ],
        ids=["missing_record", "size_mismatch", "unknown_key", "seed_key", "missing_dim", "missing_dtype", "heads_vs_dim",
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
