"""The size of one training step's tape, as deterministic counters.

The benchmark measures the train workload's peak RSS, which the tape sets but
heap history moves too. These counters cannot move without a change to the
graph the step records, so a change that grows the tape again fails here.
"""

import numpy as np

from trifuse import autodiff as ad
from trifuse.synth import SynthConfig, generate
from trifuse.trainer import TrainConfig, train

# One save-mode step with soft-ALBEF alignment on 32 items at the default
# synth shapes (12 visual tokens, 12 audio, speech padded to 32), with
# missing modalities and correspondence noise, so every branch records.
SYNTH = dict(n_items=100, correspondence_noise=0.3, missing_audio=0.1, missing_speech=0.1, seed=0)
TRAIN = dict(epochs=1, batch_size=32, lr=1e-3, mode="save", align_kind="soft_albef")
# What that step's tape reached with one node per cross-attention block,
# `l2_normalize` and `soft_albef_loss`. With those two as composites of
# primitive ops it was 197 nodes and 1,594,208 bytes; with one node per linear
# map, layer norm, attention core and feed-forward layer as well, 247 nodes
# and 2,823,968 bytes. Lower them when the tape shrinks.
MAX_NODES = 146
MAX_RETAINED_BYTES = 1_506_052


def _held_arrays(obj, depth=0):
    """The arrays `obj` holds: an array, a tensor's data, or the arrays in a
    tuple, a list or a function's closure (a backward's kept state)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, ad.Tensor):
        yield obj.data
    elif depth < 3 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item, depth + 1)
    elif depth < 3 and callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                contents = cell.cell_contents
            except ValueError:  # a cell not yet assigned
                continue
            yield from _held_arrays(contents, depth + 1)


def tape_size(loss: ad.Tensor) -> tuple[int, int]:
    """(tensors `backward` walks from `loss`: op nodes and the leaves that
    need a gradient, as perfbench counts them; distinct bytes of the arrays
    they hold, each underlying buffer once)."""
    seen, stack, buffers = {id(loss)}, [loss], {}
    while stack:
        node = stack.pop()
        for arr in (node.data, *_held_arrays(node._backward)):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), sum(buffers.values())


def test_tape_within_budget(monkeypatch):
    """Measured on the first step's loss as its backward starts."""
    sizes = []
    backward = ad.Tensor.backward

    def measured(loss):
        if not sizes:
            sizes.append(tape_size(loss))
        return backward(loss)

    monkeypatch.setattr(ad.Tensor, "backward", measured)
    dataset, _ = generate(SynthConfig(**SYNTH))
    train(TrainConfig(**TRAIN), dataset)
    nodes, retained = sizes[0]
    print(f"\none training step's tape: {nodes} nodes, {retained:,} bytes retained "
          f"(budget {MAX_NODES} nodes, {MAX_RETAINED_BYTES:,} bytes)")
    assert nodes <= MAX_NODES
    assert retained <= MAX_RETAINED_BYTES
