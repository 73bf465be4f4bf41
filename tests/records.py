"""Hand-built datasets for the tests: item and query records stacked into the
one in-memory form of a dataset, `trifuse.data.Dataset`.

The engine never builds a dataset from records: `read_dataset` maps a
container's columns and `synth.generate` hands over its generator arrays.
Test fixtures and the per-item reference generator of `test_synth.py` build
records one by one, and this turns them into columns once.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from trifuse.data import Dataset, ItemRecord, Manifest, QueryRecord


def dataset_from_records(manifest: Manifest, items: Mapping[str, ItemRecord],
                         queries: Mapping[str, QueryRecord]) -> Dataset:
    """Hand-built records as columns, stacked once in sorted id order.
    Their shapes are checked where the dataset is written (`data._check`)."""
    d, d_t = manifest.dim, manifest.teacher_dim
    items = [items[i] for i in sorted(items)]
    queries = [queries[q] for q in sorted(queries)]
    teachers = [item for item in items if item.has_teacher()]

    def stacked(arrays: list[np.ndarray], cols: int, join=np.concatenate) -> np.ndarray:
        return np.asarray(join(arrays), dtype=np.float32) if arrays else np.zeros((0, cols), dtype=np.float32)

    columns = {
        "items/visual": stacked([item.visual_tokens for item in items], d),
        "items/audio": stacked([item.audio_tokens for item in items if item.audio_tokens is not None], d),
        "items/speech": stacked([item.speech_tokens for item in items if item.speech_tokens is not None], d),
        "items/teacher_video": stacked([item.teacher_video for item in teachers], d_t, np.stack),
        "items/teacher_audio": stacked([item.teacher_audio for item in teachers], d_t, np.stack),
        "queries/embedding": stacked([query.embedding for query in queries], d, np.stack),
    }
    return Dataset(
        manifest, columns,
        item_ids=[item.item_id for item in items],
        item_groups=[item.group for item in items],
        audio_lens=[0 if item.audio_tokens is None else len(item.audio_tokens) for item in items],
        speech_lens=[0 if item.speech_tokens is None else len(item.speech_tokens) for item in items],
        has_teacher=[item.has_teacher() for item in items],
        query_ids=[query.query_id for query in queries],
        ground_truth_items=[query.ground_truth_item for query in queries],
        query_groups=[query.group for query in queries],
    )
