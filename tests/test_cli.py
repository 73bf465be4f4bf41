"""Command surface: exit codes, artifacts, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trifuse
from trifuse import cli, data, trainer
from trifuse.cli import main
from trifuse.data import read_container, write_container
from trifuse.similarity import ScoreMatrix
from trifuse.synth import SynthConfig
from trifuse.trainer import TrainConfig, TrainResult


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "synth": {
            "n_items": 48,
            "dim": 8,
            "teacher_dim": 4,
            "frames": 3,
            "audio_len": 4,
            "speech_pad": 4,
            "missing_audio": 0.25,
            "seed": 0,
            "splits": {"train": 0.5, "val": 0.25, "test": 0.25},
        },
        "train": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "heads": 2, "fusion_depth": 1, "seed": 0},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = root / "data"
    run_dir = root / "run"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run_dir)]) == 0
    return {"root": root, "config": cfg_path, "data": data_dir, "run": run_dir}


def test_readme_config_example_builds_the_defaults():
    """The README's config example builds a SynthConfig and a TrainConfig
    through the CLI's parser, names every field of each, and gives each field
    that has a default that default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = json.loads(re.search(r"## Config file\n.*?```json\n(.*?)```", readme, re.S).group(1))
    assert example.keys() == {"synth", "train"}
    for cls, section in ((SynthConfig, "synth"), (TrainConfig, "train")):
        built = cli._build(cls, example[section], {}, section)
        assert example[section].keys() == {f.name for f in dataclasses.fields(cls)}, section
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                assert getattr(built, f.name) == f.default, (section, f.name)
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(built, f.name) == f.default_factory(), (section, f.name)


class TestGen:
    def test_minimal_config_generates(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 32, "dim": 8, "frames": 2, "audio_len": 2, "speech_pad": 2}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["items"] == 32
        # the dataset and nothing else: the generator's latents stay in memory
        assert sorted(path.name for path in (tmp_path / "d").iterdir()) == ["manifest.json", "tensors.sve"]

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 8, "bogus_knob": 1}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("background_pool", 0), ("noise_scale", -1.0), ("query_noise", -0.1), ("teacher_noise", -0.05),
        ("frames", 0), ("audio_len", 0), ("speech_pad", 0), ("teacher_dim", 0), ("dim", 0), ("dim", 1),
        ("audio_drift", -1.0), ("query_visual_mix", -0.5),
        ("group_mix", {"visual": 1.5, "sound": -0.5}), ("splits", {"train": 1.5, "test": -0.5}),
    ])
    def test_bad_value_is_config_error_before_writing(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 8, key: value}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_unknown_group_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 8, "group_mix": {"visual": 0.5, "music": 0.5}}}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert "group mix keys" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        code = main(["gen", "--config", str(workspace["config"]), "--out", str(workspace["data"])])
        assert code == 3
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_force_overwrites(self, workspace, tmp_path):
        out = tmp_path / "d2"
        assert main(["gen", "--config", str(workspace["config"]), "--out", str(out)]) == 0
        assert main(["gen", "--config", str(workspace["config"]), "--out", str(out), "--force"]) == 0


class TestTrain:
    def test_artifacts_exist(self, workspace):
        assert (workspace["run"] / "best.ckpt").exists()
        assert (workspace["run"] / "train_log.jsonl").exists()

    def test_rerun_same_seed_byte_identical_checkpoint(self, workspace, tmp_path):
        rerun = tmp_path / "rerun"
        code = main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]), "--out", str(rerun)])
        assert code == 0
        assert (rerun / "best.ckpt").read_bytes() == (workspace["run"] / "best.ckpt").read_bytes()
        assert (rerun / "train_log.jsonl").read_bytes() == (workspace["run"] / "train_log.jsonl").read_bytes()

    def test_vision_only_logs_zero_alignment(self, workspace, tmp_path):
        out = tmp_path / "vo"
        code = main(
            ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--out", str(out), "--mode", "vision_only"]
        )
        assert code == 0
        records = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert all(rec["alignment"] == 0.0 for rec in records if "alignment" in rec)

    @pytest.mark.parametrize("sharpness", [0, 100])
    def test_sharpness_out_of_range_is_config_error(self, workspace, tmp_path, capsys, sharpness):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"sharpness": sharpness}}))
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sharpness must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, section", [
        (["--align-kind", "mse"], {}),
        ([], {"margin": 0.2}),
        ([], {"keep_ratio": 0.5}),
    ], ids=["align_kind_mse", "margin_key", "keep_ratio_key"])
    def test_removed_alignment_options_exit_2(self, workspace, tmp_path, flags, section):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": section}))
        argv = ["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o"), *flags]
        try:
            code = main(argv)
        except SystemExit as exit_info:  # argparse rejects an unknown choice
            code = exit_info.code
        assert code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("heads", 0), ("fusion_depth", -1), ("resampler_depth", 0), ("max_audio_len", 0),
    ])
    def test_size_below_one_is_config_error(self, workspace, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {key: value}}))
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key} must be an integer >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_heads_that_do_not_divide_dim_exit_5(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"heads": 3}}))  # the workspace data has d = 8
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o")])
        assert code == 5
        assert "dataset dim 8 is not divisible by heads 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_aborted_run_exit_4_keeps_last_good_and_log(self, workspace, tmp_path, capsys, monkeypatch):
        """An aborted run writes its log and last-good parameters, no best
        checkpoint, and exits 4 with a message instead of a traceback."""
        def aborting(config, dataset, val_split=None):
            result = trainer.train(config, dataset, val_split)
            return TrainResult(result.params, result.log, aborted=True, abort_reason="non-finite loss at step 3")

        monkeypatch.setattr(cli, "train", aborting)
        out = tmp_path / "o"
        assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "training aborted: non-finite loss at step 3" in err and "Traceback" not in err
        assert sorted(path.name for path in out.iterdir()) == ["last_good.ckpt", "last_good.ckpt.json",
                                                               "train_log.jsonl"]

    def test_aborted_run_prints_one_stderr_line(self, workspace, tmp_path):
        """The real trainer aborting on a NaN loss, in a child process so that
        its stderr is the one a user sees: exit 4 and the abort reason on one
        line, which `TrainResult.abort_reason` carries, with no log line."""
        script = ("import sys; from trifuse import cli, trainer; loss = trainer.contrastive_loss; "
                  "trainer.contrastive_loss = lambda *a, **k: loss(*a, **k) * float('nan'); "
                  "sys.exit(cli.main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(trifuse.__file__).parents[1]),
                                                            os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, "train", "--config", str(workspace["config"]),
                               "--data", str(workspace["data"]), "--out", str(tmp_path / "o")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines() == ["training aborted: non-finite loss at step 0"]

    @pytest.mark.parametrize("config, match", [
        ([{"train": {}}], "config root must be an object"),
        ({"train": [["epochs", 1]]}, "config section 'train' must be an object"),
    ], ids=["root_list", "train_section_list"])
    def test_config_that_is_not_an_object_exit_2(self, workspace, tmp_path, capsys, config, match):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and match in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_dir_is_io_error(self, workspace, tmp_path):
        code = main(["train", "--config", str(workspace["config"]), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestSeed:
    """A seed is an integer >= 0, given as a flag or as a config key; any
    other exits 2 before anything is written, never with a traceback."""

    CASES = {"flag_negative": (["--seed", "-1"], {}), "key_negative": ([], {"seed": -2}),
             "key_float": ([], {"seed": 1.5})}

    @pytest.mark.parametrize("case", CASES)
    def test_gen_exit_2(self, tmp_path, capsys, case):
        flags, section = self.CASES[case]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 8, **section}}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d"), *flags]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", CASES)
    def test_train_exit_2(self, workspace, tmp_path, capsys, case):
        flags, section = self.CASES[case]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": section}))
        argv = ["train", "--config", str(cfg), "--data", str(workspace["data"]), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def long_audio_data(tmp_path):
    """A dataset whose audio (70 tokens) exceeds the default max_audio_len of 64."""
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"synth": {"n_items": 16, "dim": 8, "frames": 3, "audio_len": 70, "speech_pad": 4}}))
    out = tmp_path / "long"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestOverlongAudio:
    def test_train_exit_5(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["config"]), "--data", str(long_audio_data(tmp_path)),
                     "--out", str(tmp_path / "o")])
        assert code == 5
        assert "max_audio_len 64" in capsys.readouterr().err

    def test_eval_exit_5(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"),
                     "--data", str(long_audio_data(tmp_path))])
        assert code == 5
        assert "max_audio_len 64" in capsys.readouterr().err

    def test_score_exit_5(self, workspace, tmp_path):
        data = long_audio_data(tmp_path)
        qid = json.loads((data / "manifest.json").read_text())["queries"][0]["id"]
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data),
                     "--query", qid])
        assert code == 5


def copied_data(workspace, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("manifest.json", "tensors.sve"):
        (data / name).write_bytes((workspace["data"] / name).read_bytes())
    return data


def mismatched_checkpoint(workspace, tmp_path):
    """The trained checkpoint with a sidecar claiming more fusion blocks than it holds."""
    ckpt = tmp_path / "c.ckpt"
    ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
    meta = json.loads((workspace["run"] / "best.ckpt.json").read_text())
    (tmp_path / "c.ckpt.json").write_text(json.dumps({**meta, "heads": 2, "fusion_depth": 3}))
    return ckpt


def count_built_items(monkeypatch) -> list[str]:
    """Record the id of every `ItemRecord` that `read_dataset` builds."""
    built, build = [], data.ItemRecord

    def counted(**fields):
        built.append(fields["item_id"])
        return build(**fields)

    monkeypatch.setattr(data, "ItemRecord", counted)
    return built


def deep_checkpoint(tmp_path, **edit):
    """A fresh checkpoint for the workspace data with two fusion and two
    resampler blocks, its sidecar edited."""
    from trifuse.fusion import FusionParams, save_params

    ckpt = tmp_path / "deep.ckpt"
    save_params(FusionParams(dim=8, frames=3, heads=2, fusion_depth=2, resampler_depth=2), ckpt)
    sidecar = tmp_path / "deep.ckpt.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    return ckpt


def groups_of_test_items(workspace) -> set[str]:
    """The groups of the test items that are some test query's ground truth."""
    manifest = json.loads((workspace["data"] / "manifest.json").read_text())
    group_of = {entry["id"]: entry["group"] for entry in manifest["items"]}
    test_queries = set(manifest["splits"]["test"]["queries"])
    return {group_of[entry["gt"]] for entry in manifest["queries"] if entry["id"] in test_queries}


class TestEval:
    @pytest.mark.parametrize("edit, match", [
        ({}, None),
        ({"heads": 0}, "heads must be an integer >= 1, got 0"),
        ({"heads": 3}, "model dim 8 not divisible by head count 3"),
        ({"dtype": "int32"}, "parameters need a float dtype, got int32"),
        ({"fusion_depth": 0}, "fusion_depth must be an integer >= 1, got 0"),
        ({"resampler_depth": 0}, "resampler_depth must be an integer >= 1, got 0"),
        ({"fusion_depth": 1}, "record param/audio_fusion.stack.blocks.1."),
        ({"resampler_depth": 1}, "record param/resampler.stack.blocks.1."),
        ({"heads": True}, "heads must be an integer, got True"),
        ({"sharpness": True}, "sharpness must be a number, got True"),
        # sizes far beyond the machine: refused from the records, before anything of that size is built
        ({"dim": 10**9}, "parameter resampler.queries has 24 values, not 3000000000"),
        ({"max_audio_len": 10**9}, "parameter resampler.pos has 512 values, not 8000000000"),
        ({"resampler_depth": 10**9}, "missing parameter resampler.stack.blocks.2.* (its sidecar says resampler_depth"),
    ], ids=["as_written", "zero_heads", "heads_vs_dim", "int_dtype", "zero_fusion_depth", "zero_resampler_depth",
            "fewer_fusion_blocks", "fewer_resampler_blocks", "heads_bool", "sharpness_bool", "huge_dim",
            "huge_max_audio_len", "huge_resampler_depth"])
    def test_sidecar_that_disagrees_with_its_tensors_exit_3(self, workspace, tmp_path, capsys, edit, match):
        code = main(["eval", "--checkpoint", str(deep_checkpoint(tmp_path, **edit)), "--data", str(workspace["data"])])
        err = capsys.readouterr().err
        assert code == (0 if match is None else 3)
        assert match is None or match in err and len(err.splitlines()) == 1

    def test_json_metrics(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"])])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) >= {"r1", "r5", "r10", "sumr", "mr1"}
        assert 0.0 <= metrics["sumr"] <= 300.0

    def test_builds_only_the_split_it_scores(self, workspace, capsys, monkeypatch):
        built = count_built_items(monkeypatch)
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--groups"])
        assert code == 0
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        assert built == manifest["splits"]["test"]["items"] and len(built) < len(manifest["items"])

    def test_groups_flag_adds_blocks(self, workspace, capsys):
        code = main(
            ["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]), "--groups"]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "per_group" in metrics and len(metrics["per_group"]) >= 1

    def test_csv_format(self, workspace, capsys):
        code = main(
            ["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
             "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("sumr,") for line in lines)

    def test_v2t_direction_runs(self, workspace, capsys):
        code = main(
            ["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
             "--direction", "v2t"]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "sumr" in metrics

    def test_v2t_groups_are_tagged_from_the_items(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--direction", "v2t", "--groups"])
        assert code == 0
        per_group = json.loads(capsys.readouterr().out)["per_group"]
        assert set(per_group) == groups_of_test_items(workspace) and "unknown" not in per_group

    def test_csv_groups_are_group_dot_metric_lines(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--format", "csv", "--groups"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[:6]] == ["metric", "r1", "r5", "r10", "sumr", "mr1"]
        group_lines = [line.split(",") for line in lines[6:]]
        assert {key.split(".")[0] for key, _ in group_lines} == groups_of_test_items(workspace)
        for key, value in group_lines:
            group, metric = key.split(".")
            assert metric in ("r1", "r5", "r10", "sumr") and np.isfinite(float(value))
        assert len(group_lines) == 4 * len(groups_of_test_items(workspace))

    def test_avigate_plus_is_an_unknown_mode(self, workspace, capsys):
        """avigate_plus, once an alias of avigate, fails like any unknown mode."""
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                  "--mode", "avigate_plus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'avigate_plus'" in capsys.readouterr().err

    def test_deleted_mode_exits_3_from_a_sidecar_and_2_as_a_flag(self, workspace, tmp_path, capsys):
        """holistic is no longer a fusion mode: a checkpoint whose sidecar names
        it exits 3 under eval and inspect, and --mode holistic exits 2."""
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
        meta = json.loads((workspace["run"] / "best.ckpt.json").read_text())
        (tmp_path / "c.ckpt.json").write_text(json.dumps({**meta, "mode": "holistic"}))
        for command in (["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])], ["inspect", str(ckpt)]):
            assert main(command) == 3, command
            err = capsys.readouterr().err
            assert "'holistic' is not a valid FusionMode" in err and "Traceback" not in err
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                  "--mode", "holistic"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'holistic'" in capsys.readouterr().err

    def test_checkpoint_with_tensors_of_deleted_modes_exit_3(self, workspace, tmp_path, capsys):
        """A checkpoint that also holds a tensor of the deleted holistic mode is
        refused like any record that its sidecar's model lacks."""
        ckpt = tmp_path / "c.ckpt"
        records = read_container(workspace["run"] / "best.ckpt")
        write_container(ckpt, {**records, "param/holistic.weight": np.ones((8, 8), dtype=np.float32)})
        (tmp_path / "c.ckpt.json").write_bytes((workspace["run"] / "best.ckpt.json").read_bytes())
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])]) == 3
        assert capsys.readouterr().err == ("io error: checkpoint record param/holistic.weight is not a parameter of "
                                           "the model its sidecar describes\n")

    def test_dim_mismatch_exit_5(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 16, "dim": 4, "frames": 2, "audio_len": 2, "speech_pad": 2}}))
        other = tmp_path / "other"
        assert main(["gen", "--config", str(cfg), "--out", str(other)]) == 0
        qid = json.loads((other / "manifest.json").read_text())["queries"][0]["id"]
        for command in (["eval"], ["score", "--query", qid]):
            code = main([*command, "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(other)])
            assert code == 5, command
            err = capsys.readouterr().err
            assert "do not match dataset (d=4, m=2)" in err and "Traceback" not in err

    def test_checkpoint_sidecar_mismatch_exit_3(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(mismatched_checkpoint(workspace, tmp_path)),
                     "--data", str(workspace["data"])])
        assert code == 3
        assert "missing parameter audio_fusion.stack.blocks.1" in capsys.readouterr().err


    def test_nan_query_embedding_exit_3(self, workspace, tmp_path, capsys):
        data = copied_data(workspace, tmp_path)
        records = read_container(data / "tensors.sve")
        doc = json.loads((data / "manifest.json").read_text())
        qid = doc["splits"]["test"]["queries"][0]
        embeddings = records["queries/embedding"] = records["queries/embedding"].copy()
        embeddings[[q["id"] for q in doc["queries"]].index(qid)] = np.nan
        write_container(data / "tensors.sve", records)
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"query {qid}: non-finite embedding" in err and "Traceback" not in err

    def test_unknown_split_exit_3(self, workspace, capsys, monkeypatch):
        def no_forward_pass(*args, **kwargs):
            raise AssertionError("index built for an unknown split")

        monkeypatch.setattr(cli, "precompute_index", no_forward_pass)
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--split", "nope"])
        assert code == 3
        err = capsys.readouterr().err
        assert "unknown split 'nope'" in err and "Traceback" not in err

    def test_per_item_layout_exit_3(self, workspace, tmp_path, capsys):
        """A container in the older one-record-per-item layout is refused."""
        data = copied_data(workspace, tmp_path)
        ids = [item["id"] for item in json.loads((data / "manifest.json").read_text())["items"]]
        write_container(data / "tensors.sve", {f"item/{i}/visual": np.zeros((3, 8), np.float32) for i in ids})
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data)])
        assert code == 3
        err = capsys.readouterr().err
        assert "container lacks record items/visual" in err and "Traceback" not in err

    def test_split_without_queries_exit_3(self, workspace, tmp_path, capsys):
        data = copied_data(workspace, tmp_path)
        doc = json.loads((data / "manifest.json").read_text())
        doc["splits"]["test"]["queries"] = []
        (data / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data)])
        assert code == 3
        err = capsys.readouterr().err
        assert "split 'test' has no queries" in err and "Traceback" not in err


class TestScore:
    def test_gt_listed_and_ordering_deterministic(self, workspace, capsys):
        data = workspace["data"]
        manifest = json.loads((data / "manifest.json").read_text())
        qid = manifest["splits"]["test"]["queries"][0]
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data),
                     "--query", qid, "--k", "5"])
        assert code == 0
        first = capsys.readouterr().out
        main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data),
              "--query", qid, "--k", "5"])
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 5

    def test_builds_only_the_split_of_the_query(self, workspace, capsys, monkeypatch):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        qid = manifest["splits"]["val"]["queries"][0]
        built = count_built_items(monkeypatch)
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--query", qid])
        assert code == 0
        assert built == manifest["splits"]["val"]["items"] and len(built) < len(manifest["items"])

    def test_k_larger_than_gallery_lists_all(self, workspace, capsys):
        data = workspace["data"]
        manifest = json.loads((data / "manifest.json").read_text())
        qid = manifest["splits"]["test"]["queries"][0]
        gallery = len(manifest["splits"]["test"]["items"])
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data),
                     "--query", qid, "--k", "999"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == gallery

    def test_ties_ordered_by_item_id(self, workspace, capsys, monkeypatch):
        """Equal scores list in item-id order, as a sort on (-score, id) gives."""
        data = workspace["data"]
        qid = json.loads((data / "manifest.json").read_text())["splits"]["test"]["queries"][0]
        ids = ["v3", "v1", "v4", "v0", "v2", "v5"]
        scores = np.array([0.5, 0.5, 0.9, 0.5, -0.0, 0.0])

        def tied(index, queries, sharpness):
            return ScoreMatrix(scores[None, :], [queries[0].query_id], ids)

        monkeypatch.setattr(cli, "score_matrix", tied)
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data),
                     "--query", qid, "--k", "6"])
        assert code == 0
        order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
        assert capsys.readouterr().out == "".join(f"{ids[j]}\t{scores[j]:.6f}\n" for j in order)

    def test_scores_in_the_trained_mode(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--out", str(run), "--mode", "avigate"]) == 0
        qid = json.loads((workspace["data"] / "manifest.json").read_text())["splits"]["test"]["queries"][0]
        outputs = []
        for mode in ([], ["--mode", "avigate"], ["--mode", "save"]):
            capsys.readouterr()
            assert main(["score", "--checkpoint", str(run / "best.ckpt"), "--data", str(workspace["data"]),
                         "--query", qid, *mode]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_unknown_query_exit_6(self, workspace):
        code = main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                     "--query", "qXXXXX"])
        assert code == 6

    @pytest.mark.parametrize("k", ["0", "-3", "two"])
    def test_k_below_one_exit_2(self, workspace, capsys, k):
        qid = json.loads((workspace["data"] / "manifest.json").read_text())["splits"]["test"]["queries"][0]
        with pytest.raises(SystemExit) as exit_info:  # argparse rejects the value
            main(["score", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"]),
                  "--query", qid, "--k", k])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --k: {k!r} is not an integer >= 1" in captured.err and captured.out == ""


class TestInspect:
    def test_dataset_summary(self, workspace, capsys):
        code = main(["inspect", str(workspace["data"])])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "dataset"
        assert doc["audio_fraction"] == 0.75  # 25% missing audio

    def test_fresh_checkpoint_gates_zero(self, tmp_path, capsys):
        from trifuse.fusion import FusionParams, save_params

        save_params(FusionParams(dim=8, frames=3, heads=2), tmp_path / "fresh.ckpt")
        code = main(["inspect", str(tmp_path / "fresh.ckpt")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["audio_gate"] == 0.0 and doc["speech_gate"] == 0.0

    def test_trained_checkpoint_reports_gates(self, workspace, capsys):
        code = main(["inspect", str(workspace["run"] / "best.ckpt")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "checkpoint"
        assert "temperature" in doc

    def test_empty_dir_exit_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["inspect", str(empty)]) == 3

    def test_checkpoint_sidecar_mismatch_exit_3(self, workspace, tmp_path, capsys):
        assert main(["inspect", str(mismatched_checkpoint(workspace, tmp_path))]) == 3
        assert "missing parameter" in capsys.readouterr().err

    def test_sidecar_without_dtype_exit_3(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
        meta = json.loads((workspace["run"] / "best.ckpt.json").read_text())
        del meta["dtype"]
        (tmp_path / "c.ckpt.json").write_text(json.dumps(meta))
        assert main(["inspect", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "KeyError: 'dtype'" in err and "Traceback" not in err

    def test_sharpness_above_max_exit_3(self, workspace, tmp_path, capsys):
        """A sidecar sharpness above fusion.MAX_SHARPNESS (80) exits 3; 80 itself scores."""
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
        meta = json.loads((workspace["run"] / "best.ckpt.json").read_text())
        commands = (["inspect", str(ckpt)], ["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])])
        for sharpness, want in ((100, 3), (80.0, 0)):
            (tmp_path / "c.ckpt.json").write_text(json.dumps({**meta, "sharpness": sharpness}))
            for command in commands:
                assert main(command) == want, (sharpness, command)
                err = capsys.readouterr().err
                assert "Traceback" not in err
                if want:
                    assert "sharpness must be <= MAX_SHARPNESS (80.0), got 100" in err

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["queries"][0].update(gt=[doc["queries"][0]["gt"]]), "unhashable type: 'list'"),
        (lambda doc: doc["splits"]["test"]["items"].append(doc["splits"]["test"]["items"][:1]),
         "unhashable type: 'list'"),
        (lambda doc: doc["queries"][0].update(id=7), "query id 7 is not a string"),
    ], ids=["gt", "split_member", "query_id"])
    def test_wrongly_typed_manifest_field_exit_3(self, workspace, tmp_path, capsys, edit, match):
        data = copied_data(workspace, tmp_path)
        doc = json.loads((data / "manifest.json").read_text())
        edit(doc)
        (data / "manifest.json").write_text(json.dumps(doc))
        assert main(["inspect", str(data)]) == 3
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_directory_in_place_of_container_exit_3(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_bytes((workspace["data"] / "manifest.json").read_bytes())
        (data / "tensors.sve").mkdir()
        assert main(["inspect", str(data)]) == 3
        err = capsys.readouterr().err
        assert "tensors.sve is a directory, not a container" in err and "Traceback" not in err

    def test_non_utf8_record_name_exit_3(self, workspace, tmp_path, capsys):
        data = copied_data(workspace, tmp_path)
        blob = (data / "tensors.sve").read_bytes()
        (data / "tensors.sve").write_bytes(blob.replace(b"items/", b"\xfftems/", 1))
        assert main(["inspect", str(data)]) == 3
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err


class TestUnreadableJson:
    """A JSON input that is a directory or not UTF-8: exit 2 for a config,
    3 for a manifest or a checkpoint sidecar, never a traceback."""

    DAMAGE = {
        "directory": (lambda path: path.mkdir(), "is a directory, not a JSON file"),
        "not_utf8": (lambda path: path.write_bytes(b'{"synth": {}, "note": "\xff"}'), "is not UTF-8 JSON"),
    }

    def run(self, capsys, argv, code, match):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_config_exit_2(self, tmp_path, capsys, damage):
        make, match = self.DAMAGE[damage]
        make(tmp_path / "c.json")
        self.run(capsys, ["gen", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "d")], 2,
                 f"c.json {match}")
        assert not (tmp_path / "d").exists()

    def test_config_under_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text("{}")
        self.run(capsys, ["gen", "--config", str(tmp_path / "c.json" / "x"), "--out", str(tmp_path / "d")], 2,
                 "config file not found")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["inspect", "train", "eval", "score"])
    def test_manifest_not_utf8_exit_3(self, workspace, tmp_path, capsys, command):
        data = copied_data(workspace, tmp_path)
        manifest = (data / "manifest.json").read_bytes()
        (data / "manifest.json").write_bytes(manifest.replace(b'"v00000"', b'"v\xff0000"'))
        ckpt = str(workspace["run"] / "best.ckpt")
        argv = {
            "inspect": ["inspect", str(data)],
            "train": ["train", "--config", str(workspace["config"]), "--data", str(data), "--out", str(tmp_path / "o")],
            "eval": ["eval", "--checkpoint", ckpt, "--data", str(data)],
            "score": ["score", "--checkpoint", ckpt, "--data", str(data), "--query", "q00000"],
        }[command]
        self.run(capsys, argv, 3, "manifest.json is not UTF-8 JSON")

    @pytest.mark.parametrize("command", ["inspect", "eval"])
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_checkpoint_sidecar_exit_3(self, workspace, tmp_path, capsys, damage, command):
        make, match = self.DAMAGE[damage]
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
        make(tmp_path / "c.ckpt.json")
        argv = {"inspect": ["inspect", str(ckpt)],
                "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])]}[command]
        self.run(capsys, argv, 3, f"c.ckpt.json {match}")

    @pytest.mark.parametrize("command", ["inspect", "eval", "score"])
    @pytest.mark.parametrize("doc", ["5", "null", "[1]", '"x"'])
    def test_checkpoint_sidecar_not_an_object_exit_3(self, workspace, tmp_path, capsys, doc, command):
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_bytes((workspace["run"] / "best.ckpt").read_bytes())
        (tmp_path / "c.ckpt.json").write_text(doc)
        argv = {"inspect": ["inspect", str(ckpt)],
                "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])],
                "score": ["score", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                          "--query", "q00000"]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "c.ckpt.json is not a JSON object" in err and len(err.splitlines()) == 1


def ground_truth_moved_to_train(split):
    """A manifest edit: the first query of `split` and its ground-truth item
    join the train split, and the item leaves `split`; the query stays in
    `split`, so training can pair the item and only `split` lacks it."""
    def edit(doc):
        query = doc["splits"][split]["queries"][0]
        gt = {entry["id"]: entry["gt"] for entry in doc["queries"]}[query]
        doc["splits"][split]["items"].remove(gt)
        doc["splits"]["train"]["items"].append(gt)
        doc["splits"]["train"]["queries"].append(query)
    return edit


def manifest_size(key, value):
    """A manifest edit: size `key` set to `value`."""
    return lambda doc: doc.update({key: value})


class TestRefusedInputs:
    """Inputs that each ended in a traceback, or were accepted and then failed
    or ran wrongly: each exits with its documented code and a message, writes
    nothing, and prints no traceback."""

    # command, config keys (merged into the workspace section), flags, manifest edit, exit code, message
    CASES = {
        "eval_query_gt_outside_split": ("eval", {}, [], ground_truth_moved_to_train("test"), 3,
                                        "ground-truth item"),
        "train_val_query_gt_outside_split": ("train", {}, [], ground_truth_moved_to_train("val"), 3,
                                             "split val: query"),
        "train_no_train_split": ("train", {}, [], lambda doc: doc["splits"].pop("train"), 3,
                                 "dataset has no train split"),
        "train_item_without_train_query": ("train", {}, [], lambda doc: doc["splits"]["train"]["queries"].pop(0), 3,
                                           "train items without any query"),
        "train_batch_above_train_split": ("train", {}, ["--batch-size", "500"], None, 5,
                                          "batch size 500 exceeds the 24 items of the train split"),
        "train_epochs_float": ("train", {"epochs": 1.5}, [], None, 2, "epochs must be an integer"),
        "train_batch_size_float": ("train", {"batch_size": 8.0}, [], None, 2, "batch_size must be an integer"),
        "train_lr_nan_flag": ("train", {}, ["--lr", "nan"], None, 2, "lr must be a finite number > 0"),
        # the initial temperature is fusion.LOGIT_SCALE_INIT, not a config key
        "train_tau_init_unknown": ("train", {"tau_init": 0.07}, [], None, 2,
                                   "config error: unknown key 'tau_init' in config section 'train'"),
        "train_grad_clip_negative": ("train", {"grad_clip": -1}, [], None, 2, "grad_clip must be a finite number"),
        "gen_n_items_float": ("gen", {"n_items": 50.5}, [], None, 2, "n_items must be an integer"),
        "gen_frames_float": ("gen", {"frames": 2.5}, [], None, 2, "frames must be an integer"),
        # JSON true is a bool, which Python counts as the integer 1; tests/test_field_tables.py gives every
        # field a JSON true, and these cases a value in a list or object
        "gen_group_mix_bool": ("gen", {"group_mix": {"visual": True}}, [], None, 2,
                               "group_mix['visual'] must be a number, got True"),
        "gen_splits_bool": ("gen", {"splits": {"train": True}}, [], None, 2,
                            "splits['train'] must be a number, got True"),
        # manifest sizes: each an integer >= 1, dim >= 2, each pad at most MAX_PAD
        **{f"eval_manifest_{key}_{label}": ("eval", {}, [], manifest_size(key, value), 3, message)
           for key, label, value, message in [
               ("n_s", "zero", 0, "n_s must be an integer >= 1, got 0"),
               ("n_s", "negative", -1, "n_s must be an integer >= 1, got -1"),
               ("n_s", "bool", True, "n_s must be an integer, got True"),
               ("n_s", "huge", 10**9, f"n_s must be <= MAX_PAD ({data.MAX_PAD}), got 1000000000"),
               ("l_a0", "negative", -3, "l_a0 must be an integer >= 1, got -3"),
               ("l_a0", "huge", 10**9, f"l_a0 must be <= MAX_PAD ({data.MAX_PAD}), got 1000000000"),
               ("dim", "float", 16.5, "dim must be an integer, got 16.5"),
               ("m", "float", 12.9, "m must be an integer, got 12.9"),
               ("teacher_dim", "float", 8.2, "teacher_dim must be an integer, got 8.2"),
               ("dim", "one", 1, "dim must be an integer >= 2, got 1"),
           ]},
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_without_traceback(self, workspace, tmp_path, capsys, case):
        command, keys, flags, edit, code, message = self.CASES[case]
        config = json.loads(workspace["config"].read_text())
        config["synth" if command == "gen" else "train"].update(keys)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        data = workspace["data"]
        if edit is not None:
            data = copied_data(workspace, tmp_path)
            doc = json.loads((data / "manifest.json").read_text())
            edit(doc)
            (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--config", str(cfg), "--out", str(out)],
            "train": ["train", "--config", str(cfg), "--data", str(data), "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(data)],
        }[command]
        assert main([*argv, *flags]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()
