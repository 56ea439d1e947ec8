"""The one dataclass codec behind every config and artifact document."""

import dataclasses
import types
import typing

import numpy as np
import pytest

from masktab import jsonio
from masktab.cli import PipelineConfig
from masktab.data_model import FeatureSchema, RawMeta, SchemaEntry, SplitAssignment
from masktab.metrics import EvalReport, ResponseMetrics
from masktab.preprocess import NormStats, PreprocessConfig, PreprocessReport
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


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


def float_bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("x", SPECIAL_FLOATS, ids=repr)
def test_special_floats_roundtrip_bit_for_bit(x):
    history = TrainHistory(train_mse=[x], val_mse=[x, 1.0])
    text = jsonio.dumps(history.to_dict())
    back = TrainHistory.from_dict(jsonio.loads(text))
    assert float_bits(back.train_mse) == float_bits([x])
    assert jsonio.dumps(back.to_dict()) == text


def test_negative_zero_keeps_its_sign_in_json_only():
    assert jsonio.dumps(-0.0) == "-0.0\n"
    assert jsonio.dumps(0.0) == "0\n"
    assert jsonio.format_float(-0.0) == "-0"  # CSV cells keep their bytes


@pytest.mark.parametrize("d, path", [
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"max_epochs": "2"}, "max_epochs"),
    ({"hidden_dims": [8, 2.5]}, "hidden_dims[1]"),
    ({"hidden_dims": "88"}, "hidden_dims"),
    ({"lr": "nan"}, "lr"),
    ({"lr": True}, "lr"),
    ({"dropout": None}, "dropout"),
    ({"loss_weights": [1.0, "1"]}, "loss_weights[1]"),
    ({"ae": {"batch_size": 32.5}}, "ae.batch_size"),
    ({"ae": {"include_test_rows": 1}}, "ae.include_test_rows"),
])
def test_strict_numbers_name_the_field(d, path):
    with pytest.raises(jsonio.SettingError) as info:
        TrainConfig.from_dict(d)
    assert info.value.path == path


def test_whole_numbers_decode_exactly():
    cfg = TrainConfig.from_dict({"seed": 3.0, "lr": 1, "loss_weights": [1, 0]})
    assert cfg.seed == 3 and type(cfg.seed) is int
    assert cfg.lr == 1.0 and type(cfg.lr) is float
    assert cfg.loss_weights == (1.0, 0.0)
    with pytest.raises(jsonio.SettingError, match="^lr int too large"):
        TrainConfig.from_dict({"lr": 10**400})
    with pytest.raises(jsonio.SettingError, match="must be a string"):
        SynthConfig.from_dict({"planted_effects": [{"variable": 3, "response": 0, "size": 1}]})


@pytest.mark.parametrize("build, message", [
    (lambda: AEConfig(holdout_fraction=0.0), "holdout_fraction must lie in (0, 1), got 0.0"),
    (lambda: TrainConfig.from_dict({"ae": {"holdout_fraction": 0.0}}),
     "ae.holdout_fraction must lie in (0, 1), got 0.0"),
    (lambda: TrainConfig(hidden_dims=(8, 0)), "hidden_dims[1] must lie in [1, inf), got 0"),
    (lambda: TrainConfig(lr=float("nan")), "lr must lie in (0, inf), got nan"),
    (lambda: TrainConfig(dropout=1.0), "dropout must lie in [0, 1), got 1.0"),
    (lambda: SynthConfig(seed=-1), "seed must lie in [0, inf), got -1"),
    (lambda: SynthConfig(interaction_strength=float("inf")),
     "interaction_strength must lie in (-inf, inf), got inf"),
    (lambda: SynthConfig.from_dict({"planted_effects": [{"variable": "yield", "response": -2,
                                                         "size": 1.0}]}),
     "planted_effects[0].response must lie in [0, inf), got -2"),
    (lambda: PreprocessConfig(val_fraction_of_train=1.0),
     "val_fraction_of_train must lie in [0, 1), got 1.0"),
    (lambda: PipelineConfig(threshold=7.0), "threshold must lie in [0, 1], got 7.0"),
    (lambda: PipelineConfig.from_dict({"importance": {"mode": "bogus"}}),
     "importance.mode must be one of ('grouped', 'per-column'), got 'bogus'"),
])
def test_construction_and_decoding_share_one_rule(build, message):
    with pytest.raises(jsonio.SettingError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build, path", [
    (lambda: TrainConfig(patience=30, max_epochs=20), "patience"),
    (lambda: TrainConfig(loss_weights=(0.0, 0.0)), "loss_weights"),
    (lambda: AEConfig(encoder_dims=()), "encoder_dims"),
    (lambda: SynthConfig(n_responses=3, occurrence_profile=(0.5, 0.5)), "occurrence_profile"),
    (lambda: PipelineConfig.from_dict({"synth": {"n_responses": 1,
                                                  "missingness_profile": [0.1, 0.2]}}),
     "synth.missingness_profile"),
    (lambda: PipelineConfig(models=()), "models"),
    (lambda: SynthConfig(planted_effects=(PlantedEffect("yield", 0, 1.0),
                                          PlantedEffect("bogus", 0, 1.0))),
     "planted_effects[1].variable"),
    (lambda: SynthConfig(n_responses=2, planted_effects=(PlantedEffect("seed_moisture", 2, 1.0),)),
     "planted_effects[0].response"),
    (lambda: PipelineConfig.from_dict({"synth": {"planted_effects": [
        {"variable": "seed_moisture", "response": 24, "size": 1.0}]}}),
     "synth.planted_effects[0].response"),
])
def test_cross_field_rules_name_the_field(build, path):
    with pytest.raises(jsonio.SettingError) as info:
        build()
    assert info.value.path == path


def _unwrap(tp):
    """tp without ``| None``."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    return args[0] if typing.get_origin(tp) in (typing.Union, types.UnionType) else tp


def undeclared_numbers(cls) -> list[str]:
    """Every numeric field, or tuple of numbers, of ``cls`` and of the
    documents nested in it that declares no interval."""
    missing = []
    for name, tp in typing.get_type_hints(cls).items():
        tp = _unwrap(tp)
        if name == "VERSION":
            continue
        items = typing.get_args(tp) if typing.get_origin(tp) is tuple else (tp,)
        items = [a for a in items if a is not Ellipsis]
        if dataclasses.is_dataclass(items[0]):
            missing += [f"{cls.__name__}.{m}" for m in undeclared_numbers(items[0])]
        elif any(a in (int, float) for a in items):
            if not isinstance(jsonio.declared(cls).get(name), str):
                missing.append(f"{cls.__name__}.{name}")
    return missing


@pytest.mark.parametrize("cls", [SynthConfig, TrainConfig, AEConfig, PipelineConfig],
                         ids=lambda c: c.__name__)
def test_every_numeric_setting_declares_its_range(cls):
    assert undeclared_numbers(cls) == []


def test_declaration_guard_sees_an_undeclared_setting():
    @dataclasses.dataclass
    class Loose(jsonio.Document):
        declared_rate: float = jsonio.setting("(0, 1)", 0.5)
        sizes: tuple[int, ...] = (1, 2)
        nested: AEConfig = dataclasses.field(default_factory=AEConfig)

    assert undeclared_numbers(Loose) == ["Loose.sizes"]
