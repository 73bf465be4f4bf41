"""Generator determinism, controllable structure, and the latent oracle."""

import numpy as np
import pytest

from trifuse.data import KIND_VECTOR, ContainerError, batch_iter, read_container, read_dataset, write_container
from trifuse.fusion import FusionMode, FusionParams, precompute_index
from trifuse.losses import affinity_from_teacher
from trifuse.similarity import score_matrix
from trifuse.synth import (
    SynthConfig,
    generate,
    load_latents,
    oracle_rank,
    oracle_scores,
    write_synthetic,
)


def config(**overrides):
    defaults = dict(n_items=60, dim=8, teacher_dim=4, frames=3, audio_len=4, speech_pad=4, seed=0)
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a, sa = generate(config())
        b, sb = generate(config())
        for iid in a.items:
            np.testing.assert_array_equal(a.items[iid].visual_tokens, b.items[iid].visual_tokens)
        np.testing.assert_array_equal(sa.z_sp, sb.z_sp)
        for qid in a.queries:
            np.testing.assert_array_equal(a.queries[qid].embedding, b.queries[qid].embedding)

    def test_missing_fraction_exact_count(self):
        ds, _ = generate(config(n_items=100, missing_audio=0.5, missing_speech=0.85))
        missing_audio = sum(1 for it in ds.items.values() if it.audio_tokens is None)
        missing_speech = sum(1 for it in ds.items.values() if it.speech_tokens is None)
        assert missing_audio == 50
        assert missing_speech == 85

    def test_group_mix_partitions_queries(self):
        ds, _ = generate(config(n_items=40))
        groups = [q.group for q in ds.queries.values()]
        assert all(g in {"visual", "sound", "speech", "sound_speech"} for g in groups)
        counts = {g: groups.count(g) for g in set(groups)}
        assert sum(counts.values()) == 40

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            config(group_mix={"visual": 0.5, "sound": 0.1, "speech": 0.1, "sound_speech": 0.1})

    def test_splits_partition_items(self):
        ds, _ = generate(config(n_items=50))
        seen = [i for s in ds.manifest.splits.values() for i in s["items"]]
        assert sorted(seen) == sorted(ds.items)

    def test_matched_audio_gives_diagonal_dominant_teacher(self):
        """rho=0: mean teacher diagonal beats off-diagonal over 20 random batches."""
        ds, _ = generate(config(n_items=64, correspondence_noise=0.0, seed=3))
        ids = sorted(ds.items)
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = [ds.items[ids[j]] for j in rng.choice(len(ids), size=8, replace=False)]
            m0 = affinity_from_teacher(
                np.stack([it.teacher_video for it in batch]),
                np.stack([it.teacher_audio for it in batch]),
            )
            diag = np.diag(m0).mean()
            off = (m0.sum() - np.trace(m0)) / (8 * 7)
            assert diag > off + 0.2

    def test_full_mismatch_makes_teacher_uninformative(self):
        """rho=1: diagonal and off-diagonal means within 2 pooled standard errors."""
        ds, _ = generate(config(n_items=64, correspondence_noise=1.0, seed=4))
        ids = sorted(ds.items)
        rng = np.random.default_rng(1)
        diags, offs = [], []
        for _ in range(20):
            batch = [ds.items[ids[j]] for j in rng.choice(len(ids), size=8, replace=False)]
            m0 = affinity_from_teacher(
                np.stack([it.teacher_video for it in batch]),
                np.stack([it.teacher_audio for it in batch]),
            )
            diags.extend(np.diag(m0).tolist())
            offs.extend(m0[~np.eye(8, dtype=bool)].tolist())
        diags, offs = np.array(diags), np.array(offs)
        pooled_se = np.sqrt(diags.var(ddof=1) / len(diags) + offs.var(ddof=1) / len(offs))
        assert abs(diags.mean() - offs.mean()) < 2.0 * pooled_se

    def test_warning_scale_for_contrastive_batches(self):
        # construction-level guard only: tiny datasets still generate
        ds, _ = generate(config(n_items=4))
        assert len(ds.items) == 4


class TestSidecar:
    def test_write_read_round_trip(self, tmp_path):
        ds, store = write_synthetic(config(), tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert sorted(back.items) == sorted(ds.items)
        loaded = load_latents(tmp_path / "ds", store.item_ids, sorted(ds.queries))
        np.testing.assert_allclose(loaded.z_vis, store.z_vis, atol=1e-7)
        # any ids, in any order, come back as the rows of those ids
        rows = [7, 0, 59, 3]
        item_ids, query_ids = [store.item_ids[k] for k in rows], ["q00042", "q00001"]
        loaded = load_latents(tmp_path / "ds", item_ids, query_ids)
        assert loaded.item_ids == item_ids
        for name in ("z_vis", "z_aud", "z_sp"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(store, name)[rows])
        assert list(loaded.query_latent) == query_ids
        for qid in query_ids:
            np.testing.assert_array_equal(loaded.query_latent[qid], store.query_latent[qid])

    def test_one_record_per_latent_field(self, tmp_path):
        write_synthetic(config(), tmp_path / "ds")
        records = read_container(tmp_path / "ds" / "latents.sve")
        assert {name: arr.shape for name, (_, arr) in records.items()} == {
            "latent/z_vis": (60, 8), "latent/z_aud": (60, 8), "latent/z_sp": (60, 8), "latent/query": (60, 8)
        }
        # a sidecar in the older one-record-per-item layout is refused
        write_container(tmp_path / "ds" / "latents.sve", {"latent/v00000/z_vis": (KIND_VECTOR, np.ones(8))})
        with pytest.raises(ContainerError, match="lacks record latent/z_vis"):
            load_latents(tmp_path / "ds", ["v00000"], [])

    def test_missing_sidecar_raises(self, tmp_path):
        write_synthetic(config(), tmp_path / "ds")
        (tmp_path / "ds" / "latents.sve").unlink()
        with pytest.raises(FileNotFoundError):
            load_latents(tmp_path / "ds", [], [])


class TestOracle:
    def test_noiseless_query_ranks_own_item_first(self):
        ds, store = generate(config(n_items=30, query_noise=0.0, seed=5))
        for k, item_id in enumerate(store.item_ids[:10]):
            qid = f"q{item_id[1:]}"
            group = ds.queries[qid].group
            rank = oracle_rank(store.query_latent[qid], store.item_latents(group), k)
            assert rank == 1

    def test_duplicate_items_tie_pessimistically(self):
        latents = np.stack([np.ones(4), np.ones(4), -np.ones(4)])
        rank = oracle_rank(np.ones(4), latents, gt_index=0)
        assert rank == 2  # the duplicate forces rank 2

    def test_speech_queries_separate_in_latent_space_but_not_visually(self):
        """Oracle resolves speech queries; an untrained vision-only scorer is at
        chance (mean rank ~ (N+1)/2 within 15%) over 200 speech queries."""
        cfg = config(
            n_items=200,
            dim=8,
            group_mix={"visual": 0.0, "sound": 0.0, "speech": 1.0, "sound_speech": 0.0},
            seed=6,
            splits={"train": 0.0, "val": 0.0, "test": 1.0},
        )
        ds, store = generate(cfg)
        ids = store.item_ids
        # oracle separates: true item always first without query noise contribution dominating
        oracle_better = 0
        params = FusionParams(dim=cfg.dim, frames=cfg.frames, heads=2, seed=0)
        index = precompute_index([ds.items[i] for i in ids], params, FusionMode.VISION_ONLY, ds.manifest)
        queries = [ds.queries[f"q{i[1:]}"] for i in ids]
        matrix = score_matrix(index, queries)
        vision_ranks = []
        for k, item_id in enumerate(ids):
            qid = f"q{item_id[1:]}"
            o_rank = oracle_rank(store.query_latent[qid], store.item_latents("speech"), k)
            if o_rank <= 3:
                oracle_better += 1
            vision_ranks.append(1 + np.sum(matrix.values[k] > matrix.values[k, k]))
        assert oracle_better >= 190  # oracle nails nearly everything
        mean_rank = float(np.mean(vision_ranks))
        chance = (len(ids) + 1) / 2.0
        assert abs(mean_rank - chance) < 0.15 * chance

    def test_scores_shape(self):
        _, store = generate(config(n_items=12, seed=7))
        s = oracle_scores(store.query_latent["q00000"], store.item_latents("visual"))
        assert s.shape == (12,)
