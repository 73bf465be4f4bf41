"""Command surface: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from trifuse import cli
from trifuse.cli import main
from trifuse.data import read_container, write_container
from trifuse.similarity import ScoreMatrix


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


class TestGen:
    def test_minimal_config_generates(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_items": 32, "dim": 8, "frames": 2, "audio_len": 2, "speech_pad": 2}}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["items"] == 32

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

    def test_missing_data_dir_is_io_error(self, workspace, tmp_path):
        code = main(["train", "--config", str(workspace["config"]), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 3


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


class TestEval:
    def test_json_metrics(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace["run"] / "best.ckpt"), "--data", str(workspace["data"])])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) >= {"r1", "r5", "r10", "sumr", "mr1"}
        assert 0.0 <= metrics["sumr"] <= 300.0

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
        kind, embeddings = records["queries/embedding"]
        embeddings = embeddings.copy()
        embeddings[[q["id"] for q in doc["queries"]].index(qid)] = np.nan
        records["queries/embedding"] = (kind, embeddings)
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
        write_container(data / "tensors.sve", {f"item/{i}/visual": (0, np.zeros((3, 8), np.float32)) for i in ids})
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

    def test_non_utf8_record_name_exit_3(self, workspace, tmp_path, capsys):
        data = copied_data(workspace, tmp_path)
        blob = (data / "tensors.sve").read_bytes()
        (data / "tensors.sve").write_bytes(blob.replace(b"items/", b"\xfftems/", 1))
        assert main(["inspect", str(data)]) == 3
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err
