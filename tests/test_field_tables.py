"""Refusals generated from the field tables: every field of every input kind,
given a wrong type, a JSON boolean, a value below its least and, where it has
one, a value above its greatest (and 10^9 for an integer; NaN and infinity
for a number), is refused with its documented code, one stderr line and no
traceback; its message is the one `data.check` gives for that value, unless
a checkpoint's tensor records refuse the size first.

Each input kind, its table and how it is read:
- synth config: `table(SynthConfig)`, `gen`, exit 2;
- train config: `table(TrainConfig)`, `train`, exit 2;
- manifest sizes: `table(Manifest)`, `inspect` of the dataset, exit 3;
- checkpoint sidecar: `fusion.ARCH_FIELDS`, `inspect` of the checkpoint,
  exit 3;
- index sidecar: `fusion.INDEX_FIELDS`, `fusion.load_index`, which raises
  ContainerError (no command reads an index yet).

A list or object field also gets each bad value of its element spec, as its
one element. Every case of a kind, and the kind's input as written (which
must be accepted), runs through `cli.main` in one child process under an
address-space limit, as tests/test_mutation.py runs its trials: a size that
no bound stops then ends in a MemoryError traceback there instead of
exhausting the host.
"""

import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

import trifuse
from trifuse.cli import EXIT_CONFIG, EXIT_IO, main
from trifuse.data import FieldError, Manifest, check, table
from trifuse.fusion import ARCH_FIELDS, INDEX_FIELDS, FusionMode, FusionParams, VideoIndex, save_index, save_params
from trifuse.synth import SynthConfig
from trifuse.trainer import TrainConfig

AS_LIMIT = 1 << 30  # bytes of address space per child
TIMEOUT_S = 60

# input kind -> its field table and the outcome of a refused field
KINDS = {
    "synth": (table(SynthConfig), EXIT_CONFIG),
    "train": (table(TrainConfig), EXIT_CONFIG),
    "manifest": (table(Manifest), EXIT_IO),
    "checkpoint": (ARCH_FIELDS, EXIT_IO),
    "index": (INDEX_FIELDS, "ContainerError"),
}
WRONG_TYPE = {int: 2.5, float: "1", str: 5, list: {}, dict: []}
SYNTH = {"n_items": 16, "dim": 8, "teacher_dim": 4, "frames": 3, "audio_len": 4, "speech_pad": 4,
         "splits": {"train": 0.5, "val": 0.25, "test": 0.25}}
TRAIN = {"epochs": 1, "batch_size": 4, "heads": 2, "fusion_depth": 1}


def bad_values(spec) -> dict:
    """The bad values of one spec, by label."""
    values = {"wrong_type": 5 if issubclass(spec.kind, Enum) else WRONG_TYPE[spec.kind], "bool": True}
    if spec.kind in (int, float):
        if spec.kind is int:
            values["below_least"] = spec.least - 1
        else:
            values["below_least"] = spec.least if spec.above else math.nextafter(spec.least, -math.inf)
            values.update(nan=math.nan, inf=math.inf)  # JSON NaN and Infinity, which Python's json reads
        if spec.most < math.inf:
            values["above_most"] = spec.most + 1 if spec.kind is int else math.nextafter(spec.most, math.inf)
            if spec.kind is int and spec.most < 10**9:
                values["far_above_most"] = 10**9
    if spec.item is not None:
        for label, value in bad_values(spec.item).items():
            values[f"element_{label}"] = [value] if spec.kind is list else {"k": value}
    return values


CASES = {f"{kind}-{key}-{label}": (kind, key, value)
         for kind, (fields, _) in KINDS.items() for key, spec in fields.items()
         for label, value in bad_values(spec).items()}
AS_WRITTEN = {f"{kind}-as_written": (kind, None, None) for kind in KINDS}


def check_message(kind: str, key: str, value) -> str:
    """The message that `data.check` gives for `value` in field `key` of `kind`."""
    with pytest.raises(FieldError) as refusal:
        check(KINDS[kind][0][key], key, value)
    return str(refusal.value)


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


# Runs each case of the JSON file argv[1] ({case: argv, or ["index", path]})
# and writes {case: {"code", "stderr"}} to argv[2].
CHILD = r"""
import contextlib, io, json, sys, traceback
from pathlib import Path
from trifuse.cli import main
from trifuse.data import ContainerError
from trifuse.fusion import load_index

outcomes = {}
for case, action in json.loads(Path(sys.argv[1]).read_text()).items():
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            if action[0] == "index":
                try:
                    load_index(action[1])
                    code = "loaded"
                except ContainerError as refusal:
                    code = "ContainerError"
                    print(refusal, file=sys.stderr)
            else:
                code = main(action)
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    outcomes[case] = {"code": code, "stderr": err.getvalue()}
Path(sys.argv[2]).write_text(json.dumps(outcomes))
"""


def edited(src: Path, dst: Path, key: str | None, value) -> None:
    """`dst`: the JSON object in `src` with `key` set to `value`."""
    doc = json.loads(src.read_text())
    if key is not None:
        doc[key] = value
    dst.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """Every case's exit code (or index outcome) and stderr, and the output
    paths that a refused command must not have written."""
    root = tmp_path_factory.mktemp("fields")
    (root / "base.json").write_text(json.dumps({"synth": SYNTH, "train": TRAIN}))
    assert main(["gen", "--config", str(root / "base.json"), "--out", str(root / "data")]) == 0
    save_params(FusionParams(dim=8, frames=3, heads=2, fusion_depth=1), root / "base.ckpt")
    rng = np.random.default_rng(0)
    save_index(VideoIndex(FusionMode.SAVE, ["v0", "v1"], rng.normal(size=(2, 3, 8)).astype(np.float32),
                          rng.normal(size=(2, 8)).astype(np.float32)), root / "base.idx")

    actions, outputs = {kind: {} for kind in KINDS}, {}
    for case, (kind, key, value) in {**CASES, **AS_WRITTEN}.items():
        where = root / case
        where.mkdir()
        if kind in ("synth", "train"):
            config = json.loads((root / "base.json").read_text())
            if key is not None:
                config[kind][key] = value
            (where / "c.json").write_text(json.dumps(config))
            outputs[case] = where / "out"
            actions[kind][case] = (["gen", "--config", str(where / "c.json"), "--out", str(where / "out")]
                                   if kind == "synth" else
                                   ["train", "--config", str(where / "c.json"), "--data", str(root / "data"),
                                    "--out", str(where / "out")])
        elif kind == "manifest":
            shutil.copyfile(root / "data" / "tensors.sve", where / "tensors.sve")
            edited(root / "data" / "manifest.json", where / "manifest.json", key, value)
            actions[kind][case] = ["inspect", str(where)]
        else:
            name = "base.ckpt" if kind == "checkpoint" else "base.idx"
            shutil.copyfile(root / name, where / name)
            edited(root / f"{name}.json", where / f"{name}.json", key, value)
            actions[kind][case] = ["inspect" if kind == "checkpoint" else "index", str(where / name)]

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(trifuse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    results = {}
    for kind, cases in actions.items():
        (root / f"{kind}.json").write_text(json.dumps(cases))
        subprocess.run([sys.executable, "-c", CHILD, str(root / f"{kind}.json"), str(root / f"{kind}.out.json")],
                       check=True, env=env, timeout=TIMEOUT_S, preexec_fn=limit_address_space)
        results.update(json.loads((root / f"{kind}.out.json").read_text()))
    return results, outputs


@pytest.mark.parametrize("case", CASES)
def test_refused_with_its_documented_outcome(outcomes, case):
    results, outputs = outcomes
    kind, key, value = CASES[case]
    got = results[case]
    what = f"{kind} field {key} = {value!r}: {got}"
    assert got["code"] == KINDS[kind][1], what
    assert "Traceback" not in got["stderr"] and len(got["stderr"].splitlines()) == 1, what
    # a checkpoint size may be refused for disagreeing with the tensor records, before its own check
    by_records = kind == "checkpoint" and re.match(r"io error: checkpoint (missing )?parameter ", got["stderr"])
    assert by_records or check_message(kind, key, value) in got["stderr"], what
    assert case not in outputs or not outputs[case].exists(), what


@pytest.mark.parametrize("case", AS_WRITTEN)
def test_each_input_as_written_is_accepted(outcomes, case):
    """The bad values are the only change: each base input is accepted."""
    got = outcomes[0][case]
    assert got["code"] == ("loaded" if case.startswith("index") else 0), got


def test_every_field_has_a_wrong_type_a_bool_and_a_below_least_case():
    for kind, (fields, _) in KINDS.items():
        for key, spec in fields.items():
            labels = set(bad_values(spec))
            assert {"wrong_type", "bool"} <= labels, (kind, key)
            assert spec.kind not in (int, float) or "below_least" in labels, (kind, key)
