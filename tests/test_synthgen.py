import numpy as np
import pytest

from masktab.data_model import load_raw_table, save_raw_table
from masktab.synthgen import (
    DEFAULT_RESPONSES,
    PlantedEffect,
    SynthConfig,
    default_planted_effects,
    generate,
    importance_group_of,
    oracle_importance,
)


def small_cfg(**kw):
    base = dict(n_samples=80, n_sites=25, n_responses=5, weather_lag_days=8, seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(small_cfg())
        b = generate(small_cfg())
        assert np.array_equal(a.responses, b.responses, equal_nan=True)
        for name in a.columns:
            col_a, col_b = a.columns[name], b.columns[name]
            if col_a.dtype == object:
                assert list(col_a) == list(col_b)
            else:
                assert np.array_equal(col_a, col_b, equal_nan=True)

    def test_different_seed_differs(self):
        a = generate(small_cfg(seed=0))
        b = generate(small_cfg(seed=1))
        assert not np.array_equal(a.responses, b.responses, equal_nan=True)

    def test_zero_missingness_gives_full_mask(self):
        cfg = small_cfg(missingness_profile=(0.0,) * 5)
        raw = generate(cfg)
        assert not np.isnan(raw.responses).any()

    def test_default_missingness_near_targets(self):
        # densest response in the default profile targets 10.3% missing
        cfg = SynthConfig(seed=3)
        raw = generate(cfg)
        realised = np.isnan(raw.responses).mean(axis=0)
        assert abs(realised[0] - 0.103) <= 0.03
        targets = np.array([r[1] for r in DEFAULT_RESPONSES])
        assert np.all(np.abs(realised - targets) <= 0.03)

    def test_missingness_is_blockwise(self):
        raw = generate(small_cfg(seed=4))
        blocks = raw.block_labels()
        for k in range(raw.responses.shape[1]):
            missing = np.isnan(raw.responses[:, k])
            for lab in set(blocks):
                rows = blocks == lab
                # a block is either fully measured or fully missing per response
                assert missing[rows].all() or not missing[rows].any()

    def test_hurdle_consistency(self):
        raw = generate(small_cfg(seed=5))
        vals = raw.responses[~np.isnan(raw.responses)]
        assert np.all(vals >= 0)
        assert (vals == 0).any() and (vals > 0).any()

    def test_occurrence_profile_respected(self):
        cfg = small_cfg(
            occurrence_profile=(0.3, 0.5, 0.7, 0.4, 0.6),
            missingness_profile=(0.0,) * 5,
            n_samples=400, n_sites=80,
        )
        raw = generate(cfg)
        rate = (raw.responses > 0).mean(axis=0)
        np.testing.assert_allclose(rate, cfg.occurrence_profile, atol=0.06)

    def test_unknown_planted_variable_rejected(self):
        with pytest.raises(ValueError, match="not in generated schema"):
            small_cfg(planted_effects=(PlantedEffect("not_a_column", 0, 1.0),))

    def test_out_of_range_planted_response_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            small_cfg(planted_effects=(PlantedEffect("seed_moisture", 99, 1.0),))

    def test_bad_missing_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            generate(small_cfg(missingness_profile=(0.2, 0.3, 1.0, 0.1, 0.0)))

    def test_raw_table_roundtrip(self, tmp_path):
        raw = generate(small_cfg(seed=6))
        save_raw_table(raw, tmp_path / "raw")
        loaded = load_raw_table(tmp_path / "raw")
        assert np.array_equal(raw.responses, loaded.responses, equal_nan=True)
        assert loaded.meta == raw.meta
        assert list(raw.columns) == list(loaded.columns)
        for name, col in raw.columns.items():
            if col.dtype == object:
                assert [str(v) if v is not None else None for v in col] == [
                    v if v is None else str(v) for v in loaded.columns[name]
                ]
            else:
                assert np.array_equal(col, loaded.columns[name], equal_nan=True)

    def test_config_roundtrip(self):
        cfg = small_cfg(planted_effects=(PlantedEffect("seed_moisture", 1, 2.0),),
                        missingness_profile=(0.1, 0.0, 0.2, 0.3, 0.4))
        again = SynthConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestOracleImportance:
    def test_ranked_by_effect_size(self):
        cfg = small_cfg(
            planted_effects=(
                PlantedEffect("humidity_lag_mean", 0, 2.0),
                PlantedEffect("seed_moisture", 0, 1.0),
            )
        )
        ranking = oracle_importance(cfg)
        assert ranking[0] == ["humidity_lag_mean", "seed_moisture"]
        assert ranking[1] == []  # no planted effects: everything tied

    def test_strict_order_for_distinct_sizes(self):
        cfg = small_cfg(
            planted_effects=(
                PlantedEffect("yield", 2, 0.5),
                PlantedEffect("seed_moisture", 2, 1.5),
                PlantedEffect("precip_lag_mean", 2, 1.0),
            )
        )
        assert oracle_importance(cfg)[2] == ["seed_moisture", "precip_lag_mean", "yield"]

    def test_default_effects_cover_every_response(self):
        cfg = SynthConfig()
        ranking = oracle_importance(cfg)
        assert len(ranking) == 24
        for per_response in ranking:
            assert per_response[0] == "humidity_lag_mean"
            assert per_response[-1] == "seed_moisture"

    def test_group_mapping(self):
        assert importance_group_of("humidity_lag_mean") == "humidity_history"
        assert importance_group_of("precip_lag_mean") == "precip_history"
        assert importance_group_of("seed_moisture") == "seed_moisture"


class TestPlantedSignal:
    def test_planted_driver_correlates_with_latent(self):
        # concentrations should track the planted humidity driver
        cfg = small_cfg(
            n_samples=300, n_sites=60,
            planted_effects=tuple(
                PlantedEffect("humidity_lag_mean", k, 2.0) for k in range(5)
            ),
            missingness_profile=(0.0,) * 5,
            latent_noise_sd=0.1,
        )
        raw = generate(cfg)
        from masktab.preprocess import relative_humidity

        temp = np.column_stack([raw.columns[c] for c in raw.meta.temperature_lag_columns])
        dew = np.column_stack([raw.columns[c] for c in raw.meta.dew_point_lag_columns])
        humidity = relative_humidity(temp, dew).mean(axis=1)
        corr = np.corrcoef(humidity, np.log1p(raw.responses[:, 0]))[0, 1]
        assert corr > 0.6
