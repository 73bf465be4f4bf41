"""Mutated artifacts: every command that reads a damaged dataset or checkpoint
exits with a documented code, prints no traceback, and prints exactly one
stderr line when it refuses.

The base artifacts are a small synth dataset with missing audio and speech
(so a mutated `n_s` or `l_a0` reaches `resolve_missing`) and a one-epoch
checkpoint. Trial k mutates one of `manifest.json`, `tensors.sve`,
`best.ckpt` and `best.ckpt.json` with the generator `default_rng([SEED, k])`:

- a container gets one byte flipped or replaced in its first 512 bytes, or
  is truncated;
- a JSON file gets one field replaced by one of JSON_VALUES, or deleted. The
  field is a top-level key, descended into with probability 1/2 per level.

It then runs `inspect`, `eval`, `score` or `train` on the copy in a child
process with an address-space limit, so an allocation sized by a mutated
field fails as a MemoryError traceback instead of exhausting the host.

An index (`fusion.save_index`: a container and its `.json` sidecar) is
mutated the same way, INDEX_TRIALS times, and loaded in-process: `load_index`
reads every size from the sidecar and the record headers and compares them
before it touches a value, and its arrays are views of the mapped file, so
no mutated size can allocate. Each trial must load a consistent index or
raise ContainerError.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trifuse
from trifuse.cli import main
from trifuse.data import ContainerError
from trifuse.fusion import FusionMode, VideoIndex, load_index, save_index

SEED = 0
TRIALS = 32
AS_LIMIT = 1 << 30  # bytes of address space per child; a trial peaks near 160 MB
TIMEOUT_S = 60  # a trial takes ~0.3 s
INDEX_TRIALS = 1000  # ~0.5 ms each
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}

JSON_VALUES = [None, True, 0, -1, 1.5, 10**9, "x", [], {}]
DATASET_FILES = ("data/manifest.json", "data/tensors.sve")
CHECKPOINT_FILES = ("run/best.ckpt", "run/best.ckpt.json")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutation")
    config = {
        "synth": {"n_items": 32, "dim": 8, "teacher_dim": 4, "frames": 3, "audio_len": 4, "speech_pad": 4,
                  "missing_audio": 0.3, "missing_speech": 0.3, "seed": 0,
                  "splits": {"train": 0.5, "val": 0.25, "test": 0.25}},
        "train": {"epochs": 1, "batch_size": 8, "heads": 2, "fusion_depth": 1, "seed": 0},
    }
    (root / "config.json").write_text(json.dumps(config))
    assert main(["gen", "--config", str(root / "config.json"), "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(root / "config.json"), "--data", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


def mutate_container(path: Path, rng: np.random.Generator) -> str:
    blob = bytearray(path.read_bytes())
    how = rng.integers(3)
    if how == 0:
        cut = int(rng.integers(len(blob)))
        path.write_bytes(blob[:cut])
        return f"truncated to {cut} of {len(blob)} bytes"
    at = int(rng.integers(min(512, len(blob))))
    if how == 1:
        bit = int(rng.integers(8))
        blob[at] ^= 1 << bit
        change = f"bit {bit} of byte {at} flipped"
    else:
        blob[at] = int(rng.integers(256))
        change = f"byte {at} set to {blob[at]}"
    path.write_bytes(bytes(blob))
    return change


def mutate_json(path: Path, rng: np.random.Generator) -> str:
    doc = json.loads(path.read_text())
    holder, where = None, []
    node = doc
    while isinstance(node, (dict, list)) and node and (holder is None or rng.random() < 0.5):
        key = list(node)[rng.integers(len(node))] if isinstance(node, dict) else int(rng.integers(len(node)))
        holder, node = node, node[key]
        where.append(key)
    choice = int(rng.integers(len(JSON_VALUES) + 1))
    if choice == len(JSON_VALUES):
        del holder[key]
        change = "deleted"
    else:
        holder[key] = JSON_VALUES[choice]
        change = f"set to {json.dumps(JSON_VALUES[choice])}"
    path.write_text(json.dumps(doc))
    return f"field {where} {change}"


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


@pytest.mark.parametrize("trial", range(TRIALS))
def test_mutated_artifact_exits_with_a_documented_code(base, tmp_path, trial):
    rng = np.random.default_rng([SEED, trial])
    target = (DATASET_FILES + CHECKPOINT_FILES)[trial % 4]
    for name in ("data", "run"):
        shutil.copytree(base / name, tmp_path / name)
    mutate = mutate_json if target.endswith(".json") else mutate_container
    change = mutate(tmp_path / target, rng)

    data, ckpt = str(tmp_path / "data"), str(tmp_path / "run" / "best.ckpt")
    query = json.loads((base / "data" / "manifest.json").read_text())["splits"]["test"]["queries"][0]
    commands = {
        "inspect": ["inspect", data if target in DATASET_FILES else ckpt],
        "eval": ["eval", "--checkpoint", ckpt, "--data", data],
        "score": ["score", "--checkpoint", ckpt, "--data", data, "--query", query],
    }
    if target in DATASET_FILES:  # train reads no checkpoint
        commands["train"] = ["train", "--config", str(base / "config.json"), "--data", data,
                             "--out", str(tmp_path / "out")]
    command = list(commands)[rng.integers(len(commands))]

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(trifuse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "trifuse.cli", *commands[command]], capture_output=True, text=True,
                          env=env, timeout=TIMEOUT_S, preexec_fn=limit_address_space)
    what = f"{command} after {target} {change}: exit {proc.returncode}, stderr {proc.stderr!r}"
    assert proc.returncode in DOCUMENTED_EXITS, what
    assert "Traceback" not in proc.stderr, what
    assert proc.returncode == 0 or len(proc.stderr.splitlines()) == 1, what


def test_mutated_index_loads_or_raises_container_error(tmp_path):
    """Four items of two 4-wide tokens: the whole container (250 bytes) lies
    within the bytes that `mutate_container` changes."""
    rng = np.random.default_rng(SEED)
    base = VideoIndex(mode=FusionMode.SAVE, item_ids=[f"v{k}" for k in range(4)],
                      tokens=rng.normal(size=(4, 2, 4)).astype(np.float32),
                      pooled=rng.normal(size=(4, 4)).astype(np.float32))
    save_index(base, tmp_path / "base.idx")
    outcomes = {"loaded": 0, "refused": 0}
    for trial in range(INDEX_TRIALS):
        rng = np.random.default_rng([SEED, 1, trial])
        path = tmp_path / f"{trial}.idx"  # a fresh file: no trial rewrites a file a loaded index maps
        for suffix in ("", ".json"):
            shutil.copyfile(f"{tmp_path / 'base.idx'}{suffix}", f"{path}{suffix}")
        target = Path(f"{path}.json") if trial % 2 else path
        change = (mutate_json if trial % 2 else mutate_container)(target, rng)
        try:
            index = load_index(path)
        except ContainerError:
            outcomes["refused"] += 1
            continue
        n, (m, d) = len(index.item_ids), index.tokens.shape[1:]
        assert index.tokens.shape == (n, m, d) and index.pooled.shape == (n, d), f"{target.name} {change}"
        assert len(set(index.item_ids)) == n, f"{target.name} {change}"
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"]
