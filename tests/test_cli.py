import base64
import json
import shutil

import numpy as np
import pytest

from masktab import jsonio
from masktab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    derive_seed,
    main,
    run_pipeline,
)

SMALL_SYNTH = {
    "n_samples": 70,
    "n_sites": 20,
    "n_responses": 4,
    "weather_lag_days": 6,
    "seed": 0,
}
SMALL_TRAIN = {"hidden_dims": [24, 12], "max_epochs": 15, "patience": 15,
               "ae": {"encoder_dims": [24, 12], "max_epochs": 6, "patience": 6}}
SMALL_PIPELINE = {
    "seed": 7,
    "synth": SMALL_SYNTH,
    "train": SMALL_TRAIN,
    "models": ["baseline", "pretrained-frozen"],
    "importance": {"mode": "grouped", "repeats": 3},
}


def write_json(path, obj):
    jsonio.dump(obj, path)
    return str(path)


def cut_last_unit(layer: dict, path: str, dim: str) -> dict:
    """The layer at ``path`` with its last input (``dim="in_dim"``) or output
    (``"out_dim"``) unit cut, payloads included; other layers unchanged."""
    if layer["path"] != path:
        return layer
    W, b = (np.frombuffer(base64.b64decode(layer[a]), dtype="<f8") for a in ("W", "b"))
    W = W.reshape(layer["out_dim"], layer["in_dim"])
    W, b = (W[:, :-1], b) if dim == "in_dim" else (W[:-1], b[:-1])
    payload = {a: base64.b64encode(np.ascontiguousarray(v).tobytes()).decode("ascii")
               for a, v in (("W", W), ("b", b))}
    return {**layer, dim: layer[dim] - 1, **payload}


class TestStageCommands:
    def test_generate_preprocess_train_evaluate_importance_report(self, tmp_path, capsys):
        synth_cfg = write_json(tmp_path / "synth.json", SMALL_SYNTH)
        raw_dir = tmp_path / "raw"
        assert main(["generate", "--config", synth_cfg, "--out", str(raw_dir)]) == EXIT_OK
        assert (raw_dir / "raw.csv").exists()

        ds_dir = tmp_path / "dataset"
        assert main([
            "preprocess", "--in", str(raw_dir), "--out", str(ds_dir), "--seed", "1",
        ]) == EXIT_OK
        assert (ds_dir / "split.json").exists()
        assert (ds_dir / "preprocess_report.json").exists()

        train_cfg = write_json(tmp_path / "train.json", SMALL_TRAIN)
        ckpt = tmp_path / "art" / "ckpt_baseline.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--config", train_cfg, "--out", str(ckpt),
        ]) == EXIT_OK
        assert ckpt.exists()
        assert (tmp_path / "art" / "ckpt_baseline_history.json").exists()

        report = tmp_path / "art" / "eval_baseline.json"
        assert main([
            "evaluate", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(ckpt), "--out", str(report),
        ]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert len(doc["per_response"]) == 4

        imp = tmp_path / "art" / "importance.json"
        assert main([
            "importance", "--ckpt", str(ckpt), "--dataset", str(ds_dir),
            "--split", str(ds_dir / "split.json"), "--mode", "grouped",
            "--repeats", "2", "--seed", "0", "--out", str(imp),
        ]) == EXIT_OK
        assert imp.exists()

        assert main(["report", str(tmp_path / "art")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "win percentages" in out
        assert (tmp_path / "art" / "report.csv").exists()

    def test_report_column_order_matches_table_layout(self, tmp_path):
        art = tmp_path / "art"
        art.mkdir()
        from masktab.metrics import EvalReport, ResponseMetrics

        for name, vals in (("alpha", (0.5, 0.8, 0.7, 0.9)), ("beta", (0.6, 0.7, 0.6, 0.8))):
            EvalReport(per_response=[
                ResponseMetrics(name="t", n_observed=5, n_positive=2,
                                rmse=vals[0], r2=vals[1], f1=vals[2], auc=vals[3])
            ]).save(art / f"eval_{name}.json")
        assert main(["report", str(art)]) == EXIT_OK
        header = (art / "report.csv").read_text().splitlines()[0]
        assert header == "model,rmse,r2,f1,auc,win_pct"
        doc = json.loads((art / "report.json").read_text())
        assert sum(doc["ranking"]["win_percentages"].values()) == pytest.approx(100.0, abs=0.1)

    def test_single_model_report_is_total_winner(self, tmp_path):
        art = tmp_path / "art"
        art.mkdir()
        from masktab.metrics import EvalReport, ResponseMetrics

        EvalReport(per_response=[
            ResponseMetrics(name="t", n_observed=5, n_positive=2,
                            rmse=0.5, r2=0.8, f1=0.7, auc=0.9)
        ]).save(art / "eval_only.json")
        assert main(["report", str(art)]) == EXIT_OK
        doc = json.loads((art / "report.json").read_text())
        assert doc["ranking"]["win_percentages"]["only"] == 100.0


class TestExitCodes:
    def test_missing_dataset_names_preprocess(self, tmp_path, capsys):
        code = main([
            "train", "--dataset", str(tmp_path / "nope"), "--split", str(tmp_path / "s.json"),
            "--model", "baseline", "--out", str(tmp_path / "c.json"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "preprocess" in err
        assert "nope" in err

    def test_bad_config_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "raw")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_pipeline_key_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {"sede": 1})
        code = main(["pipeline", "--config", cfg, "--out", str(tmp_path / "art")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        {"train": {"dropout": 2.0}},
        {"seed": "abc"},
        {"synth": {**SMALL_SYNTH, "missingness_profile": [0.1, 0.2, 1.5, 0.0]}},
        {"importance": {"mode": "bogus"}},
        {"importance": {"mode": "grouped", "repeats": 0}},
        {"synth": 5},
        {"train": ["x"]},
        {"train": {"learning_rate": 0.01}},
        {"train": {"ae": {"hiden_dims": [8]}}},
        {"train": {"finetune_mode": "frozen"}},
        {"synth": {**SMALL_SYNTH, "n_sample": 50}},
        {"preprocess": {"test_fraction": 0.2, "tset_fraction": 0.3}},
        {"importance": {"repeat": 3}},
        {"models": "baseline"},
        {"preprocess": {"test_fraction": -0.2}},
        {"preprocess": {"test_fraction": 1.5}},
        {"preprocess": {"val_fraction_of_train": 1.0}},
    ], ids=["train-dropout", "seed", "synth-profile", "importance-mode", "importance-repeats",
            "synth-not-object", "train-not-object", "train-unknown-key", "train-ae-unknown-key",
            "train-finetune-mode", "synth-unknown-key", "preprocess-unknown-key",
            "importance-unknown-key", "models-not-list", "test-fraction-negative",
            "test-fraction-above-one", "val-fraction-one"])
    def test_bad_pipeline_setting_is_config_error_before_training(self, tmp_path, capsys,
                                                                  override):
        # the same exit code as the subcommand that takes the setting, and no
        # checkpoint is trained first
        cfg = write_json(tmp_path / "p.json", {**SMALL_PIPELINE, **override})
        out = tmp_path / "art"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not list(out.glob("ckpt_*"))
        assert not (out / "dataset" / "split.json").exists()

    @pytest.mark.parametrize("command, config, key", [
        ("train", {**SMALL_TRAIN, "hiden_dims": [8]}, "hiden_dims"),
        ("train", {**SMALL_TRAIN, "ae": {"learning_rate": 0.01}}, "learning_rate"),
        ("generate", {**SMALL_SYNTH, "n_sample": 50}, "n_sample"),
    ], ids=["train", "train-ae", "generate"])
    def test_unknown_config_key_is_config_error(self, pipeline_dir, tmp_path, capsys,
                                                command, config, key):
        cfg = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        ds_dir = pipeline_dir / "dataset"
        argv = {
            "train": ["--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                      "--model", "baseline"],
            "generate": [],
        }[command]
        assert main([command, *argv, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--test-fraction=-0.2", "--test-fraction=1.5",
                                      "--val-fraction=1.0"])
    def test_out_of_range_split_fraction_is_config_error(self, tmp_path, capsys, flag):
        synth_cfg = write_json(tmp_path / "synth.json", SMALL_SYNTH)
        raw_dir, ds_dir = tmp_path / "raw", tmp_path / "ds"
        assert main(["generate", "--config", synth_cfg, "--out", str(raw_dir)]) == EXIT_OK
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(ds_dir), flag]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (ds_dir / "split.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(train_row=d.pop("train_rows")),
        lambda d: d.update(test_rows="all"),
    ], ids=["unknown-key", "rows-not-a-list"])
    def test_malformed_split_is_data_error(self, pipeline_dir, tmp_path, capsys, edit):
        doc = json.loads((pipeline_dir / "dataset" / "split.json").read_text())
        edit(doc)
        split = write_json(tmp_path / "split.json", doc)
        out = tmp_path / "out.json"
        assert main([
            "evaluate", "--dataset", str(pipeline_dir / "dataset"), "--split", split,
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json"), "--out", str(out),
        ]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    def test_truncated_checkpoint_is_data_error(self, pipeline_dir, tmp_path, capsys, command):
        doc = json.loads((pipeline_dir / "ckpt_baseline.json").read_text())
        payload = doc["layers"][0]["W"]
        doc["layers"][0]["W"] = payload[: len(payload) // 2 // 4 * 4 + 4]
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "out.json"
        assert main([
            command, "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(ckpt), "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "backbone.0.W" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    @pytest.mark.parametrize("edit, message", [
        (lambda layers: [l for l in layers if not l["path"].startswith("bin.")], "no bin head"),
        (lambda layers: [cut_last_unit(l, "backbone.0", "in_dim") for l in layers],
         "input columns"),
        (lambda layers: [cut_last_unit(l, "cont.0", "out_dim") for l in layers],
         "predicts"),
    ], ids=["no-bin-head", "one-column-narrower", "one-response-narrower"])
    def test_checkpoint_not_fitting_the_dataset_is_data_error(
        self, pipeline_dir, tmp_path, capsys, command, edit, message
    ):
        doc = json.loads((pipeline_dir / "ckpt_baseline.json").read_text())
        doc["layers"] = edit(doc["layers"])
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "out.json"
        assert main([
            command, "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(ckpt), "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_out_of_range_holdout_fraction_is_config_error(self, pipeline_dir, tmp_path, capsys,
                                                           command, fraction):
        train = {**SMALL_TRAIN, "ae": {**SMALL_TRAIN["ae"], "holdout_fraction": fraction}}
        out = tmp_path / "out"
        if command == "train":
            ds_dir = pipeline_dir / "dataset"
            cfg = write_json(tmp_path / "train.json", train)
            argv = ["train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                    "--model", "pretrained-frozen", "--config", cfg, "--out", str(out)]
        else:
            cfg = write_json(tmp_path / "p.json", {**SMALL_PIPELINE, "train": train})
            argv = ["pipeline", "--config", cfg, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "ae.holdout_fraction" in err
        assert not out.exists() or not list(out.glob("ckpt_*"))

    @pytest.mark.parametrize("damage, named", [
        (lambda d: (d / "mask.csv").unlink(), "mask.csv"),
        (lambda d: (d / "features.csv").write_text(""), "dataset"),
    ], ids=["missing-mask", "empty-features"])
    def test_unreadable_dataset_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                              damage, named):
        ds_dir = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", ds_dir)
        damage(ds_dir)
        out = tmp_path / "ckpt.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and named in err
        assert not out.exists()

    def test_truncated_eval_artifact_is_data_error(self, pipeline_dir, tmp_path, capsys):
        for p in pipeline_dir.glob("eval_*.json"):
            shutil.copy(p, tmp_path / p.name)
        text = (tmp_path / "eval_baseline.json").read_text()
        (tmp_path / "eval_baseline.json").write_text(text[: len(text) // 2])
        assert main(["report", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "eval_baseline.json" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["generate", "preprocess"])
    def test_unwritable_output_is_data_error(self, pipeline_dir, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = blocker / "out"
        if command == "generate":
            argv = ["generate", "--config", write_json(tmp_path / "synth.json", SMALL_SYNTH),
                    "--out", str(out)]
        else:
            argv = ["preprocess", "--in", str(pipeline_dir / "raw"), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and str(out) in err

    def test_invalid_synth_profile_is_config_error(self, tmp_path):
        cfg = write_json(
            tmp_path / "synth.json",
            {**SMALL_SYNTH, "missingness_profile": [0.1, 0.2, 1.5, 0.0]},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "raw")]) == EXIT_CONFIG

    def test_diverging_training_is_numerical_failure(self, tmp_path, capsys):
        from masktab.cli import EXIT_NUMERIC

        synth_cfg = write_json(tmp_path / "synth.json", SMALL_SYNTH)
        raw_dir, ds_dir = tmp_path / "raw", tmp_path / "ds"
        main(["generate", "--config", synth_cfg, "--out", str(raw_dir)])
        main(["preprocess", "--in", str(raw_dir), "--out", str(ds_dir)])
        train_cfg = write_json(tmp_path / "train.json", {**SMALL_TRAIN, "lr": 1e300})
        code = main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--config", train_cfg, "--out", str(tmp_path / "c.json"),
        ])
        assert code == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


class TestSeedHandling:
    def test_env_overrides_config_seed(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "synth.json", SMALL_SYNTH)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        monkeypatch.setenv("MASKTAB_SEED", "123")
        main(["generate", "--config", cfg, "--out", str(tmp_path / "b")])
        monkeypatch.delenv("MASKTAB_SEED")
        a = (tmp_path / "a" / "responses.csv").read_bytes()
        b = (tmp_path / "b" / "responses.csv").read_bytes()
        assert a != b

    def test_derive_seed_separates_stages(self):
        seeds = {derive_seed(0, s) for s in ("generate", "preprocess", "train:baseline")}
        assert len(seeds) == 3
        assert derive_seed(5, "generate") == derive_seed(5, "generate")


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "art"
    run_pipeline(SMALL_PIPELINE, out)
    return out


class TestPipeline:
    def test_manifest_lists_all_six_stages(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert manifest["completed"] == [
            "generate", "preprocess", "train", "evaluate", "importance", "report",
        ]
        for stage in manifest["completed"]:
            assert manifest["stages"][stage]["outputs"]

    def test_all_artifacts_exist(self, pipeline_dir):
        for rel in (
            "raw/raw.csv", "dataset/features.csv", "dataset/split.json",
            "ckpt_baseline.json", "ckpt_pretrained-frozen.json",
            "eval_baseline.json", "eval_pretrained-frozen.json",
            "winners.json", "importance.json",
            "report.json", "report.csv", "report_summary.txt", "manifest.json",
        ):
            assert (pipeline_dir / rel).exists(), rel

    def test_rerun_identical_and_idempotent(self, pipeline_dir, tmp_path):
        manifest_before = (pipeline_dir / "manifest.json").read_bytes()
        report_before = (pipeline_dir / "report.json").read_bytes()
        mtime = (pipeline_dir / "ckpt_baseline.json").stat().st_mtime_ns
        run_pipeline(SMALL_PIPELINE, pipeline_dir)  # no-op: everything current
        assert (pipeline_dir / "manifest.json").read_bytes() == manifest_before
        assert (pipeline_dir / "ckpt_baseline.json").stat().st_mtime_ns == mtime

        fresh = tmp_path / "fresh"
        run_pipeline(SMALL_PIPELINE, fresh)
        assert (fresh / "manifest.json").read_bytes() == manifest_before
        assert (fresh / "report.json").read_bytes() == report_before

    def test_changed_config_reruns_stage(self, pipeline_dir, tmp_path):
        out = tmp_path / "art2"
        run_pipeline(SMALL_PIPELINE, out)
        changed = {**SMALL_PIPELINE, "importance": {"mode": "grouped", "repeats": 4}}
        run_pipeline(changed, out)
        manifest = json.loads((out / "manifest.json").read_text())
        doc = json.loads((out / "importance.json").read_text())
        assert doc["n_repeats"] == 4
        assert manifest["stages"]["importance"]["config"] != json.loads(
            (pipeline_dir / "manifest.json").read_text()
        )["stages"]["importance"]["config"]

    def test_train_command_matches_pipeline_train_stage(self, pipeline_dir, tmp_path):
        ds_dir = pipeline_dir / "dataset"
        seed = derive_seed(SMALL_PIPELINE["seed"], "train:baseline")
        train_cfg = write_json(tmp_path / "train.json", {**SMALL_TRAIN, "seed": seed})
        ckpt = tmp_path / "ckpt_baseline.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--config", train_cfg, "--out", str(ckpt),
        ]) == EXIT_OK
        for name in ("ckpt_baseline.json", "ckpt_baseline_history.json"):
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

    def test_evaluate_command_matches_pipeline_evaluate_stage(self, pipeline_dir, tmp_path):
        ds_dir = pipeline_dir / "dataset"
        out = tmp_path / "eval_baseline.json"
        assert main([
            "evaluate", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json"), "--out", str(out),
        ]) == EXIT_OK
        assert out.read_bytes() == (pipeline_dir / "eval_baseline.json").read_bytes()

    def test_stages_share_one_parse_of_the_dataset(self, tmp_path, monkeypatch):
        import masktab.cli

        real, calls = masktab.cli.load_dataset, []
        monkeypatch.setattr(masktab.cli, "load_dataset", lambda d: calls.append(d) or real(d))
        run_pipeline(SMALL_PIPELINE, tmp_path / "art")
        assert len(calls) == 1

    def test_single_model_winners_agree_with_report(self, tmp_path):
        out = tmp_path / "art"
        run_pipeline({**SMALL_PIPELINE, "models": ["baseline"]}, out)
        winners = json.loads((out / "winners.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert winners == report["ranking"]
        assert winners["total_pairs"] > 0
        assert winners["wins"] == {"baseline": winners["total_pairs"]}
        assert winners["win_percentages"] == {"baseline": 100.0}
