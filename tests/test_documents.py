"""The one dataclass codec behind every config and artifact document."""

import numpy as np
import pytest

from masktab import jsonio
from masktab.data_model import FeatureSchema, RawMeta, SchemaEntry, SplitAssignment
from masktab.metrics import EvalReport, ResponseMetrics
from masktab.preprocess import NormStats, PreprocessReport
from masktab.synthgen import PlantedEffect, SynthConfig
from masktab.trainer import AEConfig, TrainConfig, TrainHistory
from masktab.vimp import ImportanceEntry, ImportanceReport

DOCUMENTS = [
    FeatureSchema(entries=(
        SchemaEntry(column_index=0, original_variable="moisture", kind="continuous",
                    group_id="moisture"),
        SchemaEntry(column_index=1, original_variable="crop", kind="one_hot_level",
                    group_id="crop", level_label="A"),
        SchemaEntry(column_index=2, original_variable="crop", kind="one_hot_level",
                    group_id="crop", level_label="B"),
    )),
    SplitAssignment(train_rows=[0, 1, 2, 5], test_rows=[3, 4], val_rows=[5]),
    RawMeta(site_column="site", year_column="year", categorical_columns=("crop",),
            continuous_columns=("moisture",), temperature_lag_columns=("t_01", "t_02"),
            dew_point_lag_columns=("d_01", "d_02"), humidity_prefix="rh"),
    PreprocessReport(columns_dropped={"rate": "constant"}, imputation_counts={"moisture": 2},
                     normalisation_stats={"moisture": NormStats(1.25, 0.1),
                                          "ph": NormStats(-3.0, 1e-300)}),
    EvalReport(per_response=[
        ResponseMetrics(name="a", n_observed=5, n_positive=2, rmse=0.5, r2=None, f1=0.7,
                        auc=0.9, flags=["r2 undefined: zero variance in observed targets"]),
        ResponseMetrics(name="b", n_observed=0, n_positive=0, flags=["no observed entries"]),
    ]),
    ImportanceReport(
        entries=[ImportanceEntry(group="g", task="regression", baseline_loss=1.0,
                                 permuted_loss_mean=1.5, permuted_loss_sd=0.1,
                                 importance_pct=float("inf"), n_repeats=3, seed=2**62)],
        groups={"g": [0, 1]}, mode="per-column", n_repeats=3, seed=7, rows_label="val",
    ),
    SynthConfig(n_samples=50, n_responses=2, missingness_profile=(0.1, 0.25),
                planted_effects=(PlantedEffect(variable="seed_moisture", response=1, size=2.5),),
                occurrence_profile=(0.3, 0.4), latent_noise_sd=0.1),
    TrainConfig(hidden_dims=(8, 4), lr=3e-4, shuffle=True, loss_weights=(1.0, 0.5), seed=11,
                ae=AEConfig(encoder_dims=(6, 3), dropout=0.0, include_test_rows=True)),
    TrainHistory(train_mse=[1.0, 0.5], train_bce=[0.7, 0.6], train_combined=[1.7, 1.1],
                 val_mse=[1.1, 0.4], val_bce=[0.8, 0.5], val_combined=[1.9, 0.9],
                 best_epoch=1, stopped_epoch=1),
]


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[type(d).__name__ for d in DOCUMENTS])
def test_roundtrip_reencodes_identically(doc, tmp_path):
    text = jsonio.dumps(doc.to_dict())
    assert doc.to_dict()["version"] == 1
    assert jsonio.dumps(type(doc).from_dict(doc.to_dict()).to_dict()) == text
    doc.save(tmp_path / "doc.json")
    assert jsonio.dumps(type(doc).load(tmp_path / "doc.json").to_dict()) == text


def test_values_come_back_as_their_annotated_types():
    cfg = TrainConfig.from_dict(jsonio.loads(jsonio.dumps(DOCUMENTS[7].to_dict())))
    assert cfg == DOCUMENTS[7]
    assert cfg.hidden_dims == (8, 4) and cfg.ae.encoder_dims == (6, 3)
    synth = SynthConfig.from_dict(DOCUMENTS[6].to_dict())
    assert synth == DOCUMENTS[6]
    assert synth.planted_effects == (PlantedEffect("seed_moisture", 1, 2.5),)
    split = SplitAssignment.from_dict(DOCUMENTS[1].to_dict())
    assert split.val_rows.dtype == np.int64 and split.val_rows.tolist() == [5]


def test_missing_keys_take_field_defaults():
    assert TrainConfig.from_dict({}) == TrainConfig()
    assert TrainConfig.from_dict({"ae": {"lr": 0.01}}).ae == AEConfig(lr=0.01)
    split = SplitAssignment.from_dict({"train_rows": [0, 1], "test_rows": [2]})
    assert split.val_rows.size == 0


@pytest.mark.parametrize("cls, d, key", [
    (TrainConfig, {"learning_rate": 0.01}, "learning_rate"),
    (TrainConfig, {"hiden_dims": [8]}, "hiden_dims"),
    (TrainConfig, {"finetune_mode": "frozen"}, "finetune_mode"),
    (TrainConfig, {"ae": {"hiden_dims": [8]}}, "hiden_dims"),
    (TrainConfig, {"ae": {"version": 1}}, "version"),
    (SynthConfig, {"n_sample": 50}, "n_sample"),
    (SynthConfig, {"planted_effects": [{"variable": "yield", "response": 0, "size": 1.0,
                                        "sign": -1}]}, "sign"),
    (EvalReport, {"per_response": [{"name": "a", "n_observed": 1, "n_positive": 0,
                                    "rmse_": 1.0}]}, "rmse_"),
])
def test_unknown_keys_rejected(cls, d, key):
    with pytest.raises(ValueError, match=key):
        cls.from_dict(d)


@pytest.mark.parametrize("d", [
    {"shuffle": "false"},
    {"hidden_dims": 8},
    {"loss_weights": [1.0, 1.0, 1.0]},
    {"ae": [1]},
    {"max_epochs": "many"},
])
def test_ill_typed_values_rejected(d):
    with pytest.raises((TypeError, ValueError)):
        TrainConfig.from_dict(d)


def test_nested_documents_carry_no_version():
    d = DOCUMENTS[7].to_dict()
    assert "version" not in d["ae"]
    assert "version" not in AEConfig().to_dict()
    assert "version" not in DOCUMENTS[5].to_dict()["entries"][0]


def test_eval_report_writes_averages_and_reading_drops_them():
    d = DOCUMENTS[4].to_dict()
    assert d["averages"] == {"rmse": 0.5, "r2": None, "f1": 0.7, "auc": 0.9}
    assert EvalReport.from_dict(d) == DOCUMENTS[4]


def test_normalisation_stats_written_as_mean_and_stdev():
    d = DOCUMENTS[3].to_dict()
    assert d["normalisation_stats"]["moisture"] == {"mean": 1.25, "stdev": 0.1}
    mean, std = PreprocessReport.from_dict(d).normalisation_stats["moisture"]
    assert (mean, std) == (1.25, 0.1)
    with pytest.raises(ValueError, match="std"):
        PreprocessReport.from_dict({"normalisation_stats": {"x": {"mean": 0.0, "std": 1.0}}})
