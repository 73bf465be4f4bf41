"""The bytes a dataset keeps per item beside its columns, as a traced count.

The query workload's peak RSS comes from a generated dataset whose every item
and query has been looked up. Its columns are the container's arrays; what
else it keeps, per item, is its field lists, its records (each a handful of
views into the columns), its id-to-row maps and its split lists. tracemalloc
counts those bytes exactly, so a change that holds a fact twice again, or
gives each record an instance dict, fails here.
"""

import gc
import tracemalloc

from trifuse.synth import SynthConfig, generate

N_ITEMS = 2000
# Retained bytes per item, beyond the columns' buffers, on CPython 3.11: with
# one manifest entry dict per item and query beside the field values, and a
# record class without slots, it was 1,725; with one list per entry key and
# slotted records it is 1,299.
MAX_BYTES_PER_ITEM = 1500


def retained_bytes_per_item() -> float:
    """Traced bytes a 2,000-item generated dataset keeps, once every item and
    query is built, less its columns' buffers, per item."""
    generate(SynthConfig(n_items=20, seed=1))  # first-call allocations of numpy and the generator
    gc.collect()
    tracemalloc.start()
    try:
        dataset = generate(SynthConfig(n_items=N_ITEMS, seed=1))[0]
        for owner in dataset.items:
            dataset.items[owner]
        for owner in dataset.queries:
            dataset.queries[owner]
        gc.collect()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (traced - sum(column.nbytes for column in dataset.columns.values())) / N_ITEMS


def test_dataset_bytes_per_item_within_budget():
    per_item = retained_bytes_per_item()
    print(f"\na looked-up dataset keeps {per_item:,.0f} bytes per item beside its columns "
          f"(budget {MAX_BYTES_PER_ITEM:,})")
    assert per_item <= MAX_BYTES_PER_ITEM
