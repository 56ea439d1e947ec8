import base64
import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import masktab
from masktab import blas, jsonio
from masktab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    derive_seed,
    main,
    run_pipeline,
    sha256_file,
)
from masktab.data_model import SplitAssignment, load_dataset
from masktab.nn_core import load_checkpoint
from masktab.trainer import TrainConfig, TrainHistory, pretrain_encoder

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

# sha256 of every file `masktab generate --config {"seed": s}` and `masktab
# preprocess --seed s` write at default sizes, recorded before the generator
# drew by block index and the readers cast object arrays of cells. Neither
# stage calls BLAS, so these bytes hold at any thread count
STAGE_SHA256 = {
    0: {
        "loq.json": "285b7218719be344fade6d6e229bcb6fa4b6fdb208f4e0b7aa8fb613779f052a",
        "meta.json": "da5850a6527982de558844354f257f2e86915e8b6aa2174799d9a816ac0a3cec",
        "raw.csv": "54618cd66d6720c4eac90ee440f9e59f5211f72b0a4fb4679c6e1016158203d0",
        "responses.csv": "1fb9e361502e5d355d6d55d85b45e1da810d02cfcc23ae081ed644eb7800e1aa",
        "blocks.csv": "bbba189e58f5968d1f1ad5f72c7c4fbe9ebb212a5723cfb8773acfd1ef705c60",
        "features.csv": "bd8a235fabf9b0c080d4aa01083a24835af59cd2515f8f78d6caa215597f79da",
        "mask.csv": "f94925ab572e8611d5887a3146ce57968fa05ca1a045b3d4c5ebbb169f48f4fd",
        "preprocess_report.json": "37a138223aa93793a053bcfe52a7e9b814c3d0ea3740774a302c676011343d0c",
        "responses_bin.csv": "539c5a98d36f7a27028b27fa4069bddd98e57223a05c7ece53f661b0a1d4b34f",
        "responses_cont.csv": "e5fdb31eaf275c660dc36c0f8183649ad72e5d533350f4181052f5d2b2791401",
        "schema.json": "849e6ce8801c1dab63068f061a8f6e0ab9427e951658f3f2e41dd8871c2907dc",
        "split.json": "0e40fc51ecba9d2bbc4be03a0e781b1dcd4861b7165bc6b27d3b7c920159aa2c",
    },
    1: {
        "loq.json": "285b7218719be344fade6d6e229bcb6fa4b6fdb208f4e0b7aa8fb613779f052a",
        "meta.json": "da5850a6527982de558844354f257f2e86915e8b6aa2174799d9a816ac0a3cec",
        "raw.csv": "43e129683af584accd5037022bb9dba7f9ad0efd07103a653a04d1aeb0230657",
        "responses.csv": "264c9846fd1f245fae36ae2fe30be378df958fa7f365586226c69ca715ccbb21",
        "blocks.csv": "b42f927f83fafe0856e5fe798b245d07921990d25631bc8f36ea853d5c893762",
        "features.csv": "b9d4df3464897897267a98de0c2e960b6b56e9c88777a6b73082d4b091b5b71d",
        "mask.csv": "35b34154e7195d65c14b987ec64f8c232a2b39619ef3b5878d0b64cb05fb6f3c",
        "preprocess_report.json": "564c543419d6cd93b413d62691dd0777b8f024766a82e27cb7444cbf56cbb4e9",
        "responses_bin.csv": "b16e2666896876eb1ad0523d778e58676ebae8e4a8e78299c48aefd9844eaab0",
        "responses_cont.csv": "e1c5a653a9464dafe519e18ccec60b335c049b7f02f6914c93b16346bf3f06bf",
        "schema.json": "4de13b154c2534a77e2a2d355923e5a60a7afe819724af21c193ed7fb06c77ab",
        "split.json": "6dc1b7e3990d726a36e8ad3e334778bc03213eac9ae13f7d355bab98a383d6ff",
    },
    2: {
        "loq.json": "285b7218719be344fade6d6e229bcb6fa4b6fdb208f4e0b7aa8fb613779f052a",
        "meta.json": "da5850a6527982de558844354f257f2e86915e8b6aa2174799d9a816ac0a3cec",
        "raw.csv": "9647d6cfe5ce054217ecee94e956333c1e050b16f4fbd3917694a7ca0c6be6c4",
        "responses.csv": "792be4d69c4dbc560f9da43bc5f4cddac469551d1ce62e3be7b6e0f608f6bc89",
        "blocks.csv": "b6afd016cea157ef911efd016abc5b1f8c19094ec166fa30bb9f227adf6ad97d",
        "features.csv": "1b0c234b0630bfd8f88130e8ce10a941d97a2026d83a8875e659ee61f3abd186",
        "mask.csv": "37eb63f95ce7b51f2f3d59ac34e993aacdb6ddfc6e2b002f0b196f6bb5a5aa7b",
        "preprocess_report.json": "3c7897354df7a5908ef7d63e18a2ba5d8f814ca194676493ac2fedf60c0c9c5e",
        "responses_bin.csv": "62798e17cae2a18a731560266f241b730803c57ca8b061202debe993ea06cdc6",
        "responses_cont.csv": "203e12cd503476f2baed2337b131351d387fbe2a69915f2046e514640a957f8d",
        "schema.json": "4de13b154c2534a77e2a2d355923e5a60a7afe819724af21c193ed7fb06c77ab",
        "split.json": "7461c5cfb7d45b50ab6ed34257a77bb567aba8b4809eb9868c62ec6ce3756d89",
    },
}


# a planted effect the generator cannot plant, and the dotted path named for it
PLANTED_ERRORS = [
    ({"variable": "bogus", "response": 0, "size": 1.0}, "synth.planted_effects[0].variable"),
    ({"variable": "seed_moisture", "response": 4, "size": 1.0},
     "synth.planted_effects[0].response"),
]


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


class TestStageBytes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generate_and_preprocess_files_match_recorded_sha256(self, tmp_path, seed):
        raw_dir, ds_dir = tmp_path / "raw", tmp_path / "dataset"
        cfg = write_json(tmp_path / "synth.json", {"seed": seed})
        assert main(["generate", "--config", cfg, "--out", str(raw_dir)]) == EXIT_OK
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(ds_dir),
                     "--seed", str(seed)]) == EXIT_OK
        written = {p.name: sha256_file(p) for d in (raw_dir, ds_dir) for p in d.iterdir()}
        assert written == STAGE_SHA256[seed]


class TestBlasThreads:
    @pytest.mark.skipif(blas.threads() is None, reason="numpy's BLAS is not the bundled OpenBLAS")
    def test_pipeline_files_match_at_one_and_two_blas_threads(self, tmp_path):
        # default network sizes, where a second BLAS thread changes the sums
        cfg = write_json(tmp_path / "pipeline.json", {
            "seed": 3, "importance": {"mode": "grouped", "repeats": 1},
            "train": {"max_epochs": 2, "patience": 2, "ae": {"max_epochs": 2, "patience": 2}}})
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "masktab.cli", "pipeline", "--config", cfg,
                 "--out", str(out)],
                check=True, capture_output=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": str(Path(masktab.__file__).parents[1])},
            )
            files.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(files[0]) > 20
        assert files[0] == files[1]


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
        # a cast would read row x + 0.5 as x, and "x" as x
        lambda d: d["train_rows"].append(d["train_rows"].pop() + 0.5),
        lambda d: d["test_rows"].append(str(d["test_rows"].pop())),
    ], ids=["unknown-key", "rows-not-a-list", "half-row", "string-row"])
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
        (lambda doc: [], "checkpoint is a JSON list, not an object"),
        (lambda doc: {**doc, "layers": [{**doc["layers"][0], "path": 5}, *doc["layers"][1:]]},
         "checkpoint layer path 5 is not a string"),
    ], ids=["top-level-list", "numeric-layer-path"])
    def test_malformed_checkpoint_json_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                                     command, edit, message):
        doc = json.loads((pipeline_dir / "ckpt_baseline.json").read_text())
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(edit(doc)))
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "out.json"
        assert main([
            command, "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(ckpt), "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and message in err
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
        (lambda d: (d / "blocks.csv").write_text("\n\n"), "dataset"),
    ], ids=["missing-mask", "empty-features", "blank-blocks"])
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

    @staticmethod
    def every_one_made_two(ds_dir):
        cells = ds_dir / "responses_bin.csv"
        lines = cells.read_text().splitlines(keepends=True)
        cells.write_text(lines[0] + "".join(line.replace("1", "2") for line in lines[1:]))
        return f"invalid dataset {ds_dir}: observed Y_bin not in {{0,1}} at "

    @staticmethod
    def even_rows_train_odd_rows_test(ds_dir):
        n = load_dataset(ds_dir).n_samples
        SplitAssignment(train_rows=list(range(0, n, 2)),
                        test_rows=list(range(1, n, 2))).save(ds_dir / "split.json")
        return "invalid split for dataset: block "

    @pytest.mark.parametrize("damage", ["every_one_made_two", "even_rows_train_odd_rows_test"],
                             ids=["dataset", "split"])
    def test_invalid_input_message_is_one_bounded_line(self, pipeline_dir, tmp_path, capsys,
                                                       damage):
        # one violation per bad cell or leaking block: the message gives the
        # first and the number of the rest
        ds_dir = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", ds_dir)
        start = getattr(self, damage)(ds_dir)
        out = tmp_path / "ckpt.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {start}" in err
        assert err.endswith(" more)\n") and err.count("\n") == 1 and len(err) < 300
        assert not out.exists()

    def test_short_raw_row_is_data_error(self, pipeline_dir, tmp_path, capsys):
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        lines = (raw_dir / "raw.csv").read_text().splitlines(keepends=True)
        lines[3] = ",".join(next(csv.reader([lines[3]]))[:10]) + "\n"
        (raw_dir / "raw.csv").write_text("".join(lines))
        out = tmp_path / "dataset"
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "raw.csv line 4: 10 cells" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage, named", [
        (lambda d: (d / "raw.csv").write_text(
            (d / "raw.csv").read_text().replace("elevation", "height", 1)),
         "raw.csv has no column 'elevation', which meta.json names"),
        (lambda d: (d / "responses.csv").write_text(
            "".join((d / "responses.csv").read_text().splitlines(keepends=True)[:-1])),
         "responses.csv has 69 rows, raw.csv has 70"),
    ], ids=["renamed-column", "short-responses"])
    def test_raw_table_not_matching_itself_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                                         damage, named):
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        damage(raw_dir)
        out = tmp_path / "dataset"
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and named in err
        assert not out.exists()

    @staticmethod
    def edit_raw_cells(raw_dir, column, rows, value):
        """Set column's cell on each data row (0-based) of raw.csv to value."""
        with open(raw_dir / "raw.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        for row in rows:
            lines[row + 1][lines[0].index(column)] = value
        with open(raw_dir / "raw.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(lines)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "6.5-inf", "nan-7", "abc"])
    def test_bad_soil_ph_cell_is_data_error_naming_it(self, pipeline_dir, tmp_path, capsys,
                                                      cell):
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        self.edit_raw_cells(raw_dir, "soil_ph", [4], cell)
        out = tmp_path / "dataset"
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: row 4, column 'soil_ph': " in err and repr(cell) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["", "nan", " NaN "])
    def test_blank_and_nan_soil_ph_cells_are_missing(self, pipeline_dir, tmp_path, cell):
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        self.edit_raw_cells(raw_dir, "soil_ph", [4], cell)
        out = tmp_path / "dataset"
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(out)]) == EXIT_OK
        counts = json.loads((out / "preprocess_report.json").read_text())["imputation_counts"]
        assert counts["soil_ph"] == 1

    @pytest.mark.parametrize("column, where, value, stats", [
        ("latitude", [0, 1], "1e308", "training mean inf, standard deviation inf"),
        ("soil_ph", "test", "1.7e308", "training mean 6.6"),
    ], ids=["training-rows", "test-row"])
    def test_huge_cells_are_data_error_without_warning(self, pipeline_dir, tmp_path, capsys,
                                                       column, where, value, stats):
        # huge cells overflow the column's training statistics, or a test
        # row's z-score (soil pH's deviation is below 1): one line naming the
        # column, no numpy warning, and no dataset written
        seed = str(derive_seed(SMALL_PIPELINE["seed"], "preprocess"))  # pipeline_dir's split
        rows = where
        if where == "test":
            rows = SplitAssignment.load(pipeline_dir / "dataset" / "split.json").test_rows[:1]
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        self.edit_raw_cells(raw_dir, column, rows, value)
        out = tmp_path / "dataset"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["preprocess", "--in", str(raw_dir), "--out", str(out),
                         "--seed", seed]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: column {column!r}: z-scores are not finite ({stats}" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_huge_dew_point_is_data_error_naming_the_lag_pair(self, pipeline_dir, tmp_path,
                                                              capsys):
        # the Magnus exponent overflows; it used to clamp the humidity to 100
        code, err = self.preprocess_damaged(pipeline_dir, tmp_path, capsys, "raw.csv",
                                            "dew_lag_02", 5, "1e308")
        assert code == EXIT_DATA
        assert "data error: columns 'temp_lag_02' and 'dew_lag_02', row 5: temperature " in err
        assert err.endswith(" with dew point 1e+308 has no finite Magnus humidity\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_blank_lag_cells_are_imputed(self, pipeline_dir, tmp_path):
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        with open(raw_dir / "raw.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index("temp_lag_05")] = ""
        rows[6][rows[0].index("dew_lag_02")] = ""
        with open(raw_dir / "raw.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "dataset"
        assert main(["preprocess", "--in", str(raw_dir), "--out", str(out)]) == EXIT_OK
        counts = json.loads((out / "preprocess_report.json").read_text())["imputation_counts"]
        assert counts["temp_lag_05"] == 1
        assert counts["humidity_lag_05"] == 1 and counts["humidity_lag_02"] == 1

    @staticmethod
    def preprocess_damaged(pipeline_dir, tmp_path, capsys, file, column, row, value):
        """Exit code and stderr of ``masktab preprocess`` on a copy of the raw
        table with one cell of ``file`` (data row ``row``) set to ``value``;
        any warning fails the test."""
        raw_dir = tmp_path / "raw"
        shutil.copytree(pipeline_dir / "raw", raw_dir)
        with open(raw_dir / file, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[row + 1][rows[0].index(column)] = value
        with open(raw_dir / file, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["preprocess", "--in", str(raw_dir), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("file, column, value", [
        ("raw.csv", "latitude", "inf"),
        ("raw.csv", "temp_lag_03", "Infinity"),
        ("raw.csv", "dew_lag_02", "-inf"),
        ("raw.csv", "sowing_doy", "inf"),
        ("responses.csv", "deoxynivalenol", "inf"),
    ])
    def test_infinite_raw_cell_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                             file, column, value):
        code, err = self.preprocess_damaged(pipeline_dir, tmp_path, capsys, file, column, 7,
                                            value)
        assert code == EXIT_DATA
        assert err.endswith(f"row 7, column {column!r}: {float(value)} is not finite\n")
        assert not (tmp_path / "out").exists()

    def test_out_of_range_day_names_column_and_row(self, pipeline_dir, tmp_path, capsys):
        code, err = self.preprocess_damaged(pipeline_dir, tmp_path, capsys, "raw.csv",
                                            "harvest_doy", 17, "400")
        assert code == EXIT_DATA
        assert err.endswith("harvest_doy row 17: day of year 400.0 out of range [1, 366]\n")
        assert len(err) < 200 and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["dataset/features.csv", "raw/raw.csv"])
    def test_oversized_csv_field_is_data_error(self, pipeline_dir, tmp_path, capsys, name):
        for part in ("raw", "dataset"):
            shutil.copytree(pipeline_dir / part, tmp_path / part)
        path = tmp_path / name
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "9" * 200_000 + lines[2]  # past the csv module's field size limit
        path.write_text("".join(lines))
        if name.startswith("raw/"):
            argv = ["preprocess", "--in", str(tmp_path / "raw"), "--out", str(tmp_path / "out")]
        else:
            argv = ["train", "--dataset", str(tmp_path / "dataset"), "--split",
                    str(tmp_path / "dataset" / "split.json"), "--model", "baseline",
                    "--out", str(tmp_path / "ckpt.json")]
        assert main(argv) == EXIT_DATA
        assert "field larger than field limit" in capsys.readouterr().err

    def test_header_only_features_is_data_error_without_a_warning(self, pipeline_dir,
                                                                  tmp_path):
        ds_dir = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", ds_dir)
        features = ds_dir / "features.csv"
        features.write_text(features.read_text().splitlines(keepends=True)[0])
        out = tmp_path / "ckpt.json"
        run = subprocess.run(
            [sys.executable, "-m", "masktab.cli", "train", "--dataset", str(ds_dir),
             "--split", str(ds_dir / "split.json"), "--model", "baseline", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONWARNINGS": "always",
                 "PYTHONPATH": str(Path(masktab.__file__).parents[1])},
        )
        assert run.returncode == EXIT_DATA
        assert "data error" in run.stderr and "dataset" in run.stderr
        assert "Warning" not in run.stderr and "loadtxt" not in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "importance"])
    def test_empty_predictor_cell_is_data_error(self, pipeline_dir, tmp_path, capsys, command):
        ds_dir = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", ds_dir)
        with open(ds_dir / "features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][1] = ""
        with open(ds_dir / "features.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out.json"
        argv = [command, "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                "--out", str(out)]
        argv += (["--model", "baseline"] if command == "train"
                 else ["--ckpt", str(pipeline_dir / "ckpt_baseline.json")])
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "non-finite predictor at (1,1)" in err
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

    @pytest.mark.parametrize("edit, message", [
        (lambda name, m: m if name == "baseline" else {**m, "name": "other"},
         "models were evaluated on different response sets"),
        (lambda name, m: {**m, **dict.fromkeys(("rmse", "r2", "f1", "auc"))},
         "no defined (response, metric) pairs to rank"),
    ], ids=["different-responses", "no-defined-metric"])
    def test_unrankable_eval_artifacts_are_data_error(self, pipeline_dir, tmp_path, capsys,
                                                      edit, message):
        for p in pipeline_dir.glob("eval_*.json"):
            doc = json.loads(p.read_text())
            name = p.stem[len("eval_"):]
            doc["per_response"] = [edit(name, m) for m in doc["per_response"]]
            write_json(tmp_path / p.name, doc)
        assert main(["report", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not (tmp_path / "report.json").exists()

    def test_split_without_validation_rows_is_data_error(self, pipeline_dir, tmp_path,
                                                         capsys):
        ds_dir, out = tmp_path / "ds", tmp_path / "ckpt.json"
        assert main(["preprocess", "--in", str(pipeline_dir / "raw"), "--out", str(ds_dir),
                     "--val-fraction", "0"]) == EXIT_OK
        assert json.loads((ds_dir / "split.json").read_text())["val_rows"] == []
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "baseline", "--config", write_json(tmp_path / "t.json", SMALL_TRAIN),
            "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "empty validation set" in err
        assert not out.exists()

    def test_split_without_test_rows_is_data_error(self, pipeline_dir, tmp_path, capsys):
        ds_dir = pipeline_dir / "dataset"
        doc = json.loads((ds_dir / "split.json").read_text())
        doc.update(train_rows=sorted(doc["train_rows"] + doc["test_rows"]), test_rows=[],
                   val_rows=[])
        split, out = write_json(tmp_path / "split.json", doc), tmp_path / "imp.json"
        assert main([
            "importance", "--dataset", str(ds_dir), "--split", split,
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json"), "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "empty row set" in err
        assert not out.exists()

    def test_evaluate_without_test_rows_is_data_error(self, pipeline_dir, tmp_path, capsys):
        ds_dir = pipeline_dir / "dataset"
        doc = json.loads((ds_dir / "split.json").read_text())
        doc.update(train_rows=sorted(doc["train_rows"] + doc["test_rows"]), test_rows=[])
        split, out = write_json(tmp_path / "split.json", doc), tmp_path / "eval.json"
        assert main([
            "evaluate", "--dataset", str(ds_dir), "--split", split,
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json"), "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "empty row set" in err
        assert not out.exists()

    @pytest.mark.parametrize("row", [10000, -1], ids=["past-the-end", "negative"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "importance"])
    def test_split_row_outside_the_dataset_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                                         command, row):
        ds_dir = pipeline_dir / "dataset"
        doc = json.loads((ds_dir / "split.json").read_text())
        doc["test_rows"].append(row)
        split, out = write_json(tmp_path / "split.json", doc), tmp_path / "out.json"
        argv = ["--model", "baseline"] if command == "train" else [
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json")]
        assert main([command, "--dataset", str(ds_dir), "--split", split, *argv,
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and f"row {row} lies outside" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, rows", [("evaluate", "test_rows"), ("train", "val_rows")])
    def test_repeated_split_row_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                              command, rows):
        # a repeated row would silently weigh twice in the metrics or the
        # validation loss
        ds_dir = pipeline_dir / "dataset"
        doc = json.loads((ds_dir / "split.json").read_text())
        repeated = doc[rows][:3] if command == "evaluate" else doc[rows][:1]
        doc[rows] = doc[rows] + repeated
        split, out = write_json(tmp_path / "split.json", doc), tmp_path / "out.json"
        argv = ["--model", "baseline"] if command == "train" else [
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json")]
        assert main([command, "--dataset", str(ds_dir), "--split", split, *argv,
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and f"{rows} repeats row {repeated[0]}" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["preprocess", "evaluate", "report"])
    def test_output_onto_a_directory_is_data_error_without_a_temp_file(
            self, pipeline_dir, tmp_path, capsys, command):
        if command == "preprocess":
            (tmp_path / "dataset" / "features.csv").mkdir(parents=True)
            argv = ["preprocess", "--in", str(pipeline_dir / "raw"),
                    "--out", str(tmp_path / "dataset")]
            blocked = tmp_path / "dataset"
        elif command == "evaluate":
            (tmp_path / "eval.json").mkdir()
            ds_dir = pipeline_dir / "dataset"
            argv = ["evaluate", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                    "--ckpt", str(pipeline_dir / "ckpt_baseline.json"),
                    "--out", str(tmp_path / "eval.json")]
            blocked = tmp_path
        else:
            shutil.copy(pipeline_dir / "eval_baseline.json", tmp_path)
            (tmp_path / "report.csv").mkdir()
            argv = ["report", str(tmp_path)]
            blocked = tmp_path
        assert main(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not list(blocked.glob(".*.tmp"))

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


class TestStrictSettings:
    """Each value here once passed, was truncated, or failed deep in numpy."""

    @pytest.mark.parametrize("config, named", [
        ({"seed": 1.5}, "seed"),
        ({"n_samples": True}, "n_samples"),
        ({"n_samples": 0}, "n_samples"),
        ({"n_sites": 0}, "n_sites"),
        ({"n_responses": 0}, "n_responses"),
        ({"seed": -1}, "seed"),
    ], ids=["seed-fraction", "n-samples-bool", "n-samples-0", "n-sites-0", "n-responses-0",
            "seed-negative"])
    def test_bad_synthesis_setting_is_config_error(self, tmp_path, capsys, config, named):
        cfg = write_json(tmp_path / "synth.json", {**SMALL_SYNTH, **config})
        out = tmp_path / "raw"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: synthesis config: {named} must" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, named", [
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": -1}, "seed must lie in [0, inf), got -1"),
        ({"hidden_dims": [0]}, "hidden_dims[0] must lie in [1, inf), got 0"),
        ({"lr": "nan"}, "lr must be a number, got 'nan'"),
        ({"loss_weights": [0, 0]}, "loss_weights must not all be 0"),
    ], ids=["seed-string", "seed-negative", "hidden-dims-0", "lr-nan-string", "loss-weights-0"])
    def test_bad_train_setting_is_config_error(self, pipeline_dir, tmp_path, capsys, config,
                                               named):
        cfg = write_json(tmp_path / "train.json", {**SMALL_TRAIN, **config})
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "ckpt.json"
        assert main(["train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                     "--model", "baseline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_env_seed_is_config_error(self, pipeline_dir, tmp_path, capsys,
                                               monkeypatch, command):
        monkeypatch.setenv("MASKTAB_SEED", "-5")
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "out"
        argv = {
            "generate": ["generate", "--config", write_json(tmp_path / "s.json", SMALL_SYNTH)],
            "train": ["train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
                      "--model", "baseline",
                      "--config", write_json(tmp_path / "t.json", SMALL_TRAIN)],
        }[command]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "MASKTAB_SEED" in err and "seed must lie in [0, inf), got -5" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--seed", "MASKTAB_SEED"])
    def test_negative_split_seed_is_config_error(self, pipeline_dir, tmp_path, capsys,
                                                 monkeypatch, source):
        out = tmp_path / "dataset"
        argv = ["preprocess", "--in", str(pipeline_dir / "raw"), "--out", str(out)]
        if source == "--seed":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("MASKTAB_SEED", "-2")
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and source in err and "seed must lie in [0, inf)" in err
        assert not out.exists()

    @pytest.mark.parametrize("effect, named", PLANTED_ERRORS, ids=["variable", "response"])
    def test_planted_effect_error_before_any_directory(self, tmp_path, capsys, effect, named):
        synth = {**SMALL_SYNTH, "planted_effects": [effect]}
        cfg = write_json(tmp_path / "p.json", {**SMALL_PIPELINE, "synth": synth})
        out = tmp_path / "art"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("effect, named", PLANTED_ERRORS, ids=["variable", "response"])
    def test_generate_rejects_planted_effect_on_reading_config(self, tmp_path, capsys,
                                                               monkeypatch, effect, named):
        # the config is refused as it is read: generation never starts
        monkeypatch.setattr("masktab.cli.generate", lambda cfg: pytest.fail("generate ran"))
        cfg = write_json(tmp_path / "s.json", {**SMALL_SYNTH, "planted_effects": [effect]})
        out = tmp_path / "raw"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and named.removeprefix("synth.") in err
        assert not out.exists()

    def test_negative_pipeline_seed_is_only_hashed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MASKTAB_SEED", "-5")
        out = run_pipeline({**SMALL_PIPELINE, "models": ["baseline"]}, tmp_path / "art")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["global_seed"] == -5
        assert manifest["stage_seeds"]["generate"] == derive_seed(-5, "generate")

    @pytest.mark.parametrize("threshold", ["nan", "7", "-0.5"])
    def test_threshold_outside_unit_interval_is_config_error(self, pipeline_dir, tmp_path,
                                                             capsys, threshold):
        ds_dir, out = pipeline_dir / "dataset", tmp_path / "eval.json"
        assert main([
            "evaluate", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--ckpt", str(pipeline_dir / "ckpt_baseline.json"), "--out", str(out),
            "--threshold", threshold,
        ]) == EXIT_CONFIG
        assert "threshold must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_threshold_checked_before_any_stage(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {**SMALL_PIPELINE, "threshold": 7})
        out = tmp_path / "art"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "threshold must lie in [0, 1], got 7.0" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("garbage", [b"\xff{not json", b"[1, 2]"],
                             ids=["not-json", "not-an-object"])
    def test_unreadable_manifest_reruns_every_stage(self, pipeline_dir, tmp_path, capsys,
                                                    garbage):
        out = tmp_path / "art"
        shutil.copytree(pipeline_dir, out)
        (out / "manifest.json").write_bytes(garbage)
        cfg = write_json(tmp_path / "p.json", SMALL_PIPELINE)
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unreadable; every stage reruns" in err
        assert (out / "manifest.json").read_bytes() == (
            pipeline_dir / "manifest.json").read_bytes()

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

    def test_train_command_matches_pipeline_with_one_pretrained_kind(self, pipeline_dir,
                                                                     tmp_path):
        # with one pretrained kind requested, its encoder is pre-trained under
        # its own seed, exactly as a standalone `masktab train` does
        ds_dir = pipeline_dir / "dataset"
        seed = derive_seed(SMALL_PIPELINE["seed"], "train:pretrained-frozen")
        train_cfg = write_json(tmp_path / "train.json", {**SMALL_TRAIN, "seed": seed})
        ckpt = tmp_path / "ckpt_pretrained-frozen.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "pretrained-frozen", "--config", train_cfg, "--out", str(ckpt),
        ]) == EXIT_OK
        for name in ("ckpt_pretrained-frozen.json", "ckpt_pretrained-frozen_history.json"):
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

    def test_pretrain_history_only_with_a_pretrained_kind(self, pipeline_dir, tmp_path):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert "pretrain_history.json" in manifest["stages"]["train"]["outputs"]
        out = run_pipeline({**SMALL_PIPELINE, "models": ["baseline"]}, tmp_path / "art")
        manifest = json.loads((out / "manifest.json").read_text())
        assert not (out / "pretrain_history.json").exists()
        assert "pretrain_history.json" not in manifest["stages"]["train"]["outputs"]

    def test_manifest_of_an_older_version_reruns_train(self, pipeline_dir, tmp_path,
                                                       monkeypatch):
        import masktab.cli

        out = tmp_path / "art"
        shutil.copytree(pipeline_dir, out)
        manifest = json.loads((out / "manifest.json").read_text())
        write_json(out / "manifest.json", {**manifest, "package_version": "0.1.0"})
        real, trained = masktab.cli.train_model, []
        monkeypatch.setattr(masktab.cli, "train_model",
                            lambda *a, **k: trained.append(a[3]) or real(*a, **k))
        run_pipeline(SMALL_PIPELINE, out)
        assert trained == SMALL_PIPELINE["models"]
        assert (out / "manifest.json").read_bytes() == (
            pipeline_dir / "manifest.json").read_bytes()

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


SHARED_PIPELINE = {**SMALL_PIPELINE, "models": ["pretrained-unfrozen", "pretrained-frozen"]}


@pytest.fixture(scope="module")
def shared_encoder_run(tmp_path_factory):
    """A pipeline with both pretrained kinds, and the autoencoders it pre-trained."""
    import masktab.trainer

    out = tmp_path_factory.mktemp("shared") / "art"
    real, fitted = masktab.trainer.pretrain_autoencoder, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masktab.trainer, "pretrain_autoencoder",
                   lambda *a, **k: fitted.append(k["seed"]) or real(*a, **k))
        run_pipeline(SHARED_PIPELINE, out)
    return out, fitted


class TestSharedEncoder:
    """Both fine-tuning modes start from one encoder, pre-trained once per
    run with the pretrained-unfrozen train config."""

    def unfrozen_cfg(self):
        seed = derive_seed(SHARED_PIPELINE["seed"], "train:pretrained-unfrozen")
        return TrainConfig.from_dict({**SMALL_TRAIN, "seed": seed})

    def test_pretrains_once_with_the_unfrozen_seed(self, shared_encoder_run):
        _, fitted = shared_encoder_run
        assert fitted == [self.unfrozen_cfg().seed]

    def test_frozen_backbone_is_the_shared_encoder(self, shared_encoder_run):
        out, _ = shared_encoder_run
        ds, split = load_dataset(out / "dataset"), SplitAssignment.load(
            out / "dataset" / "split.json")
        encoder, history = pretrain_encoder(ds, split, self.unfrozen_cfg())
        frozen, _ = load_checkpoint(out / "ckpt_pretrained-frozen.json")
        assert len(frozen.backbone) == len(encoder)
        for a, b in zip(frozen.backbone, encoder):
            assert a.W.tobytes() == b.W.tobytes() and a.b.tobytes() == b.b.tobytes()
        assert TrainHistory.load(out / "pretrain_history.json").to_dict() == history.to_dict()
        manifest = json.loads((out / "manifest.json").read_text())
        digest = manifest["stages"]["train"]["outputs"]["pretrain_history.json"]
        assert digest == sha256_file(out / "pretrain_history.json")

    def test_unfrozen_checkpoint_matches_train_command(self, shared_encoder_run, tmp_path):
        out, _ = shared_encoder_run
        ds_dir = out / "dataset"
        train_cfg = write_json(tmp_path / "train.json", self.unfrozen_cfg().to_dict())
        ckpt = tmp_path / "ckpt_pretrained-unfrozen.json"
        assert main([
            "train", "--dataset", str(ds_dir), "--split", str(ds_dir / "split.json"),
            "--model", "pretrained-unfrozen", "--config", train_cfg, "--out", str(ckpt),
        ]) == EXIT_OK
        assert ckpt.read_bytes() == (out / ckpt.name).read_bytes()
