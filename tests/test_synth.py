"""Generator determinism, controllable structure, and the latent oracle."""

import math

import numpy as np
import pytest

from trifuse import synth
from trifuse.data import Dataset, ItemRecord, Manifest, QueryRecord
from trifuse.fusion import FusionMode, FusionParams, precompute_index
from trifuse.losses import affinity_from_teacher
from trifuse.similarity import score_matrix
from trifuse.synth import (
    CHUNK_ITEMS,
    LatentStore,
    SynthConfig,
    _largest_remainder_counts,
    _orthonormal,
    _unit_rows,
    generate,
    oracle_rank,
    oracle_scores,
    write_synthetic,
)

from records import dataset_from_records


def reference_generate(config: SynthConfig) -> tuple[Dataset, LatentStore]:
    """The per-item generator that `generate` replaced, kept verbatim as the
    byte-identity oracle for every knob it has (not the drift and mix knobs)."""
    rng = np.random.default_rng(config.seed)
    n, d, d_t = config.n_items, config.dim, config.teacher_dim

    query_map = _orthonormal(rng, d, d)  # shared pre-aligned space (vision/speech/query)
    audio_map = _orthonormal(rng, d, d)  # separate, unaligned audio-encoder space
    teacher_map = _orthonormal(rng, d, d_t)

    group_counts = _largest_remainder_counts(n, config.group_mix)
    group_pool = [g for g in sorted(group_counts) for _ in range(group_counts[g])]
    groups = [group_pool[i] for i in rng.permutation(n)]

    n_mismatch = int(round(config.correspondence_noise * n))
    mismatched = set(rng.permutation(n)[:n_mismatch].tolist())
    soundtrack_pool = _unit_rows(rng.normal(size=(max(1, config.background_pool), d)))
    n_no_audio = int(round(config.missing_audio * n))
    no_audio = set(rng.permutation(n)[:n_no_audio].tolist())
    n_no_speech = int(round(config.missing_speech * n))
    no_speech = set(rng.permutation(n)[:n_no_speech].tolist())

    items: dict[str, ItemRecord] = {}
    queries: dict[str, QueryRecord] = {}
    ids, z_vis_all, z_aud_all, z_sp_all = [], [], [], []
    query_latents: dict[str, np.ndarray] = {}

    for i in range(n):
        item_id = f"v{i:05d}"
        group = groups[i]
        z_vis = _unit_rows(rng.normal(size=d))
        z_aud = soundtrack_pool[rng.integers(len(soundtrack_pool))].copy() if i in mismatched else z_vis.copy()
        z_sp = _unit_rows(rng.normal(size=d))

        visual = z_vis @ query_map.T + config.noise_scale * rng.normal(size=(config.frames, d))
        audio = z_aud @ audio_map.T + config.noise_scale * rng.normal(size=(config.audio_len, d))
        speech = z_sp @ query_map.T + config.noise_scale * rng.normal(size=(config.speech_pad, d))

        teacher_video = _unit_rows(z_vis @ teacher_map + config.teacher_noise * rng.normal(size=d_t))
        teacher_audio = _unit_rows(z_aud @ teacher_map + config.teacher_noise * rng.normal(size=d_t))

        if group == "visual":
            source = z_vis
        elif group == "sound":
            source = z_aud
        elif group == "speech":
            source = z_sp
        else:
            source = _unit_rows(z_aud + z_sp)
        query_emb = source @ query_map.T + config.query_noise * rng.normal(size=d)

        items[item_id] = ItemRecord(
            item_id=item_id,
            visual_tokens=visual.astype(np.float32),
            audio_tokens=None if i in no_audio else audio.astype(np.float32),
            speech_tokens=None if i in no_speech else speech.astype(np.float32),
            teacher_video=teacher_video.astype(np.float32),
            teacher_audio=teacher_audio.astype(np.float32),
            group=group,
        )
        query_id = f"q{i:05d}"
        queries[query_id] = QueryRecord(
            query_id=query_id,
            embedding=query_emb.astype(np.float32),
            ground_truth_item=item_id,
            group=group,
        )
        ids.append(item_id)
        z_vis_all.append(z_vis)
        z_aud_all.append(z_aud)
        z_sp_all.append(z_sp)
        query_latents[query_id] = source.astype(np.float32)

    split_counts = _largest_remainder_counts(n, config.splits)
    order = rng.permutation(n)
    splits: dict[str, dict[str, list[str]]] = {}
    cursor = 0
    for split in sorted(split_counts):
        take = order[cursor : cursor + split_counts[split]]
        cursor += split_counts[split]
        member_items = sorted(ids[j] for j in take)
        splits[split] = {
            "items": member_items,
            "queries": [f"q{iid[1:]}" for iid in member_items],
        }

    manifest = Manifest(
        dim=d,
        teacher_dim=d_t,
        frames=config.frames,
        speech_pad=config.speech_pad,
        audio_pad=config.frames,
        splits=splits,
    )
    dataset = dataset_from_records(manifest, items, queries)
    store = LatentStore(
        item_ids=ids,
        z_vis=np.stack(z_vis_all).astype(np.float32),
        z_aud=np.stack(z_aud_all).astype(np.float32),
        z_sp=np.stack(z_sp_all).astype(np.float32),
        query_latent=query_latents,
    )
    return dataset, store


def config(**overrides):
    defaults = dict(n_items=60, dim=8, teacher_dim=4, frames=3, audio_len=4, speech_pad=4, seed=0)
    defaults.update(overrides)
    return SynthConfig(**defaults)


ITEM_FIELDS = ("visual_tokens", "audio_tokens", "speech_tokens", "teacher_video", "teacher_audio")


def same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_bytes(got, want):
    """Every array of every item, query and latent, and every other field,
    bit for bit."""
    __tracebackhide__ = True  # a failure report would print both whole datasets
    (ds_a, store_a), (ds_b, store_b) = got, want
    assert ds_a.manifest == ds_b.manifest
    assert list(ds_a.items) == list(ds_b.items) and list(ds_a.queries) == list(ds_b.queries)
    for iid, a in ds_a.items.items():
        b = ds_b.items[iid]
        assert (a.item_id, a.group) == (b.item_id, b.group)
        for name in ITEM_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), (iid, name)
            assert x is None or same_bytes(x, y), (iid, name)
    for qid, a in ds_a.queries.items():
        b = ds_b.queries[qid]
        assert (a.query_id, a.ground_truth_item, a.group) == (b.query_id, b.ground_truth_item, b.group)
        assert same_bytes(a.embedding, b.embedding), qid
    assert store_a.item_ids == store_b.item_ids
    for name in ("z_vis", "z_aud", "z_sp"):
        assert same_bytes(getattr(store_a, name), getattr(store_b, name)), name
    assert list(store_a.query_latent) == list(store_b.query_latent)
    for qid, x in store_a.query_latent.items():
        assert same_bytes(x, store_b.query_latent[qid]), qid


# The train workload's synth config, at full size.
TRAIN_WORKLOAD = dict(
    n_items=512, dim=16, frames=12, audio_len=12, speech_pad=32,
    correspondence_noise=0.3, missing_audio=0.1, missing_speech=0.1,
)
ORACLE_CONFIGS = {
    "defaults": dict(n_items=300),
    "train_workload": TRAIN_WORKLOAD,
    "full_mismatch_one_soundtrack": dict(n_items=300, correspondence_noise=1.0, background_pool=1),
    "no_audio": dict(n_items=300, missing_audio=1.0),
    "two_items": dict(n_items=2),
    "chunk_minus_one": dict(n_items=CHUNK_ITEMS - 1, correspondence_noise=0.3, seed=3),
    "chunk_plus_one": dict(n_items=CHUNK_ITEMS + 1, correspondence_noise=0.3, seed=4),
    "three_chunks_and_five": dict(n_items=3 * CHUNK_ITEMS + 5, correspondence_noise=0.5, missing_speech=0.2, seed=5),
    "small_shapes": dict(n_items=60, dim=8, teacher_dim=4, frames=3, audio_len=4, speech_pad=4, seed=2,
                         correspondence_noise=0.4, background_pool=2),
}


class TestChunkedGenerator:
    """`generate` draws items in chunks as array operations and must give the
    bytes of the per-item loop it replaced, `reference_generate`."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_same_bytes_as_per_item_loop(self, name):
        cfg = SynthConfig(**ORACLE_CONFIGS[name])
        assert_same_bytes(generate(cfg), reference_generate(cfg))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_output_does_not_depend_on_chunk_size(self, chunk, monkeypatch):
        cfg = SynthConfig(n_items=40, correspondence_noise=0.5, missing_audio=0.2, seed=9)
        monkeypatch.setattr(synth, "CHUNK_ITEMS", chunk)
        assert_same_bytes(generate(cfg), reference_generate(cfg))

    @pytest.mark.parametrize("name", ["defaults", "train_workload"])
    def test_written_files_same_bytes(self, name, tmp_path, monkeypatch):
        cfg = SynthConfig(**ORACLE_CONFIGS[name])
        write_synthetic(cfg, tmp_path / "chunked")
        monkeypatch.setattr(synth, "generate", reference_generate)
        write_synthetic(cfg, tmp_path / "reference")
        for filename in ("manifest.json", "tensors.sve"):
            same = (tmp_path / "chunked" / filename).read_bytes() == (tmp_path / "reference" / filename).read_bytes()
            assert same, filename

    def test_item_arrays_are_views_of_one_array_per_field(self):
        ds, store = generate(config(n_items=20))
        items = list(ds.items.values())
        for name in ITEM_FIELDS:
            bases = {id(getattr(it, name).base) for it in items if getattr(it, name) is not None}
            assert len(bases) == 1, name
        assert len({id(q.embedding.base) for q in ds.queries.values()}) == 1
        assert len({id(v.base) for v in store.query_latent.values()}) == 1


class TestDriftAndMix:
    """The audio-drift (kappa) and query-visual-mix (lambda) knobs."""

    def test_drift_moves_only_the_audio_latent(self):
        base_ds, base = generate(config(n_items=50))
        ds, store = generate(config(n_items=50, audio_drift=2.0))
        # the drift comes from a child generator: the main stream is untouched
        for name in ("z_vis", "z_sp"):
            np.testing.assert_array_equal(getattr(store, name), getattr(base, name))
        for iid, item in ds.items.items():
            np.testing.assert_array_equal(item.visual_tokens, base_ds.items[iid].visual_tokens)
            np.testing.assert_array_equal(item.teacher_video, base_ds.items[iid].teacher_video)
        np.testing.assert_allclose(np.linalg.norm(store.z_aud, axis=1), 1.0, atol=1e-6)
        # matched items no longer hear exactly what they show
        cos = np.sum(store.z_aud * store.z_vis, axis=1)
        assert cos.max() < 0.99

    def test_mix_adds_the_visual_latent_to_non_visual_queries(self):
        _, base = generate(config(n_items=50))
        ds, store = generate(config(n_items=50, query_visual_mix=0.5))
        for k, item_id in enumerate(store.item_ids):
            qid = f"q{item_id[1:]}"
            group = ds.queries[qid].group
            if group == "visual":
                np.testing.assert_array_equal(store.query_latent[qid], base.query_latent[qid])
            else:
                want = _unit_rows(base.item_latents(group)[k].astype(np.float64) + 0.5 * base.z_vis[k])
                np.testing.assert_allclose(store.query_latent[qid], want, atol=1e-6)

    def test_vision_only_oracle_ceilings(self):
        """Test-split gallery, z_vis item latents, R@1 of `oracle_rank`, at
        kappa 2, lambda 0.5, seed 0 and 1,000 items."""
        ds, store = generate(SynthConfig(n_items=1000, seed=0, audio_drift=2.0, query_visual_mix=0.5))
        row = {iid: k for k, iid in enumerate(store.item_ids)}
        test_items = ds.manifest.splits["test"]["items"]
        gallery = store.z_vis[[row[i] for i in test_items]]
        r1 = {}
        for group in ("visual", "sound", "speech"):
            hits = [oracle_rank(store.query_latent[f"q{iid[1:]}"], gallery, k) == 1
                    for k, iid in enumerate(test_items) if ds.items[iid].group == group]
            r1[group] = round(float(np.mean(hits)), 3)
        assert r1 == {"visual": 1.0, "sound": 0.807, "speech": 0.152}


class TestGenerate:
    def test_same_seed_bit_identical(self):
        assert_same_bytes(generate(config()), generate(config()))

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

    def test_ids_sort_in_item_order_past_99999_items(self):
        """Ids share one zero-padded width, so the manifest, which lists
        items and queries in generation order, lists them sorted."""
        ds, store = generate(SynthConfig(n_items=100_001, dim=2, teacher_dim=1, frames=1, audio_len=1, speech_pad=1))
        for ids in (list(ds.items), list(ds.queries)):
            assert ids == sorted(ids) and ids[-1][1:] == "100000"
        assert store.item_ids == list(ds.items)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.0, TypeError), ("3", TypeError)])
    def test_seed_that_is_not_an_integer_at_least_0_rejected(self, seed, error):
        with pytest.raises(error, match="seed must be an integer"):
            config(seed=seed)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.5])
    @pytest.mark.parametrize("name", ["noise_scale", "query_noise", "teacher_noise", "audio_drift", "query_visual_mix"])
    def test_noise_drift_and_mix_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0"):
            config(**{name: value})

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
