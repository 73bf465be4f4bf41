"""tools/same_bits.py's report, from hand-made artifacts: no command runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from trifuse.data import write_container

_spec = importlib.util.spec_from_file_location(
    "same_bits", Path(__file__).resolve().parent.parent / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def write_side(root: Path, *, weight: float, total: float, r1: float, score: str) -> None:
    """One side's artifacts: a checkpoint, a train log, eval metrics, a
    score listing and a file only the change writes."""
    run = root / "save-none"
    run.mkdir(parents=True)
    write_container(run / "best.ckpt", {"param/a": np.arange(4, dtype=np.float32),
                                        "param/b": np.full((2, 3), weight, np.float32)})
    (run / "best.ckpt.json").write_text(json.dumps({"dim": 4, "mode": "save"}))
    (run / "train_log.jsonl").write_text(
        "".join(json.dumps({"step": k, "total": total if k == 1 else 1.0}) + "\n" for k in range(3)))
    (root / "save-none.eval.out").write_text(json.dumps({"r1": r1, "r5": 50.0, "sumr": r1 + 150.0}, indent=2))
    (root / "save-none.score.out").write_text(f"v00001\t{score} *\nv00002\t0.100000\n")


def test_identical_sides_report_identical(tmp_path):
    for side in same_bits.SIDES:
        write_side(tmp_path / side, weight=0.5, total=2.0, r1=10.0, score="0.900000")
    lines, same = same_bits.report(tmp_path / "base", tmp_path / "change")
    assert same and lines[-1] == "5 of 5 artifacts identical"
    assert all(line.endswith(": identical") for line in lines[:-1])


def test_each_difference_names_the_first_differing_record_and_the_largest_gap(tmp_path):
    write_side(tmp_path / "base", weight=0.5, total=2.0, r1=10.0, score="0.900000")
    write_side(tmp_path / "change", weight=0.75, total=2.5, r1=12.0, score="0.800000")
    (tmp_path / "change" / "extra.out").write_text("x\n")
    lines, same = same_bits.report(tmp_path / "base", tmp_path / "change")
    got = dict(line.split(": ", 1) for line in lines[:-1])
    assert not same and lines[-1] == "1 of 6 artifacts identical"
    assert got["extra.out"] == "only in change"
    assert got["save-none/best.ckpt.json"] == "identical"
    assert got["save-none/best.ckpt"] == ("differs at record param/b (1 of 2 records differ); largest absolute "
                                         "difference 0.25; changed: param/b array(2, 3) -> array(2, 3)")
    assert got["save-none/train_log.jsonl"] == ("differs at record line 2.total (1 of 6 records differ); largest "
                                               "absolute difference 0.5; changed: line 2.total 2.0 -> 2.5")
    # every changed metric is listed
    assert got["save-none.eval.out"] == ("differs at record r1 (2 of 3 records differ); largest absolute difference "
                                         "2; changed: r1 10.0 -> 12.0, sumr 160.0 -> 162.0")
    assert got["save-none.score.out"].startswith("differs at record line 1 field 2 (1 of 5 records differ); "
                                                 "largest absolute difference 0.1")


def test_a_record_one_side_lacks_is_named(tmp_path):
    base, change = tmp_path / "a.sve", tmp_path / "b.sve"
    write_container(base, {"x": np.zeros(2, np.float32)})
    write_container(change, {"x": np.zeros(2, np.float32), "y": np.ones(2, np.float32)})
    assert same_bits.compare(base, change) == ("differs at record y (1 of 2 records differ); no numeric difference; "
                                               "changed: y absent -> array(2,)")
