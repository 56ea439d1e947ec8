import hashlib
import logging
import math
import re

import numpy as np
import pytest

from masktab import preprocess
from masktab.data_model import RawMeta, RawTable, validate
from masktab.preprocess import (
    _partition_blocks,
    _refine_partition,
    encode_and_normalise,
    encode_day_of_year,
    preprocess_raw,
    relative_humidity,
    soil_ph_midpoint,
    split_blocks,
    transform_responses,
)
from masktab.synthgen import SynthConfig, generate


class TestDayEncoding:
    def test_day_365_closes_the_circle(self):
        s, c = encode_day_of_year(365)
        assert abs(s - 0.0) < 1e-12
        assert abs(c - 1.0) < 1e-12

    def test_mid_year_values(self):
        # frozen from high-precision evaluation of sin/cos(2*pi*d/365)
        s, c = encode_day_of_year(91)
        assert s == pytest.approx(0.9999907397361901, abs=1e-12)
        assert c == pytest.approx(0.004303538296244289, abs=1e-12)
        s, c = encode_day_of_year(92)
        assert s == pytest.approx(0.9999166586547379, abs=1e-12)
        assert c == pytest.approx(-0.01291029607500882, abs=1e-12)

    def test_year_boundary_adjacency(self):
        e365 = np.array(encode_day_of_year(365))
        e1 = np.array(encode_day_of_year(1))
        e180 = np.array(encode_day_of_year(180))
        assert np.linalg.norm(e365 - e1) < np.linalg.norm(e180 - e1)

    def test_unit_circle_identity(self):
        for d in range(1, 367):
            s, c = encode_day_of_year(d)
            assert abs(s * s + c * c - 1.0) < 1e-12

    def test_out_of_range_rejected(self):
        for bad in (0, 367, -3, math.nan):
            with pytest.raises(ValueError):
                encode_day_of_year(bad)


class TestRelativeHumidity:
    def test_saturation_at_equal_temperatures(self):
        assert relative_humidity(15.0, 15.0) == pytest.approx(100.0, abs=1e-12)

    def test_reference_value(self):
        # frozen from independent evaluation of the saturation-pressure ratio
        assert relative_humidity(20.0, 10.0) == pytest.approx(52.54132558106588, abs=1e-10)
        assert relative_humidity(20.0, 10.0) == pytest.approx(52.54, abs=0.01)

    def test_supersaturation_clamped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="masktab.preprocess"):
            rh = relative_humidity(10.0, 20.0)
        assert rh == 100.0
        assert any("supersaturation" in rec.message for rec in caplog.records)

    def test_monotone_in_dew_point(self):
        for t in (-5.0, 5.0, 15.0, 25.0):
            dews = np.linspace(t - 20.0, t, 41)
            rh = relative_humidity(np.full_like(dews, t), dews)
            assert np.all(np.diff(rh) > 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            relative_humidity(float("nan"), 5.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t, td, message", [
        ([10.0, 12.0], [5.0, 1e308], "row 1: temperature 12.0 with dew point 1e+308 has no "
                                     "finite Magnus humidity"),
        ([1e308], [5.0], "row 0: temperature 1e+308 with dew point 5.0 has no finite"),
        ([20.0, -243.0], [10.0, -243.03], "row 1: temperature -243.0 with dew point -243.03 "
                                          "has no finite"),  # both exponentials underflow
        ([20.0, -250.0], [10.0, 0.0], "row 1: temperature -250.0 with dew point 0.0 lies at "
                                      "or below -243.04 C"),
    ], ids=["huge-dew-point", "huge-temperature", "both-near-floor", "below-floor"])
    def test_pair_without_finite_humidity_named_without_warning(self, t, td, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            relative_humidity(np.array(t), np.array(td))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_air_term_is_supersaturation(self):
        # exp of the air temperature's exponent underflows to 0: an infinite
        # ratio, clamped to 100 like any dew point above the air temperature
        assert relative_humidity(-243.0, 10.0) == 100.0


class TestTransformResponses:
    def test_zero_maps_to_zero(self):
        y_cont, y_bin, m = transform_responses(np.array([[0.0]]))
        assert y_cont[0, 0] == 0.0
        assert y_bin[0, 0] == 0.0
        assert m[0, 0] == 1.0

    def test_below_loq_zeroed(self):
        y_cont, y_bin, _ = transform_responses(np.array([[0.4, 2.0]]), loq=np.array([1.0, 1.0]))
        assert y_cont[0, 0] == 0.0 and y_bin[0, 0] == 0.0
        assert y_cont[0, 1] == pytest.approx(math.log(3.0)) and y_bin[0, 1] == 1.0

    def test_log1p_value(self):
        y_cont, y_bin, _ = transform_responses(np.array([[100.0]]))
        assert y_cont[0, 0] == pytest.approx(4.61512051684126, abs=1e-12)
        assert y_bin[0, 0] == 1.0

    def test_missing_stays_missing(self):
        y_cont, y_bin, m = transform_responses(np.array([[math.nan, 3.0]]))
        assert m[0, 0] == 0.0 and m[0, 1] == 1.0
        assert math.isnan(y_cont[0, 0]) and math.isnan(y_bin[0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative concentration"):
            transform_responses(np.array([[-1.0]]))

    def test_monotone(self):
        xs = np.array([[0.0, 0.5, 1.0, 10.0, 1000.0]])
        y_cont, _, _ = transform_responses(xs)
        assert np.all(np.diff(y_cont[0]) > 0)


class TestSoilPh:
    def test_range_midpoint(self):
        assert soil_ph_midpoint("6.5-7.1") == pytest.approx(6.8)

    def test_plain_values(self):
        assert soil_ph_midpoint(6.3) == 6.3
        assert soil_ph_midpoint("5.9") == 5.9

    def test_missing(self):
        assert math.isnan(soil_ph_midpoint(None))
        assert math.isnan(soil_ph_midpoint(""))


def tiny_raw(n=12, seed=0):
    """Hand-sized raw table: 2 continuous, 1 categorical, responses, blocks."""
    rng = np.random.default_rng(seed)
    cont = rng.standard_normal(n) * 3 + 10
    cat = np.array([("A", "B", "C")[i % 3] for i in range(n)], dtype=object)
    responses = rng.gamma(2.0, 10.0, size=(n, 2)) * rng.integers(0, 2, size=(n, 2))
    meta = RawMeta(
        site_column="site",
        year_column="year",
        categorical_columns=("crop",),
        continuous_columns=("moisture", "rate"),
    )
    return RawTable(
        columns={
            "site": np.array([f"s{i // 2}" for i in range(n)], dtype=object),
            "year": np.array(["2022"] * n, dtype=object),
            "moisture": cont,
            "rate": rng.uniform(100, 200, size=n),
            "crop": cat,
        },
        meta=meta,
        responses=responses,
        response_names=("tox_a", "tox_b"),
        loq=np.array([1.0, 1.0]),
    )


class TestEncodeAndNormalise:
    def test_zscore_uses_training_rows_only(self):
        raw = tiny_raw()
        raw.columns["moisture"][:] = np.arange(12, dtype=float)
        train = np.array([0, 1, 2])  # values {0,1,2}
        ds, report = encode_and_normalise(raw, train)
        j = ds.schema.column_names().index("moisture")
        np.testing.assert_allclose(
            ds.X[train, j], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-6
        )
        mean, std = report.normalisation_stats["moisture"]
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(math.sqrt(2.0 / 3.0))
        # test rows transformed with the same statistics, never refit
        np.testing.assert_allclose(ds.X[3:, j], (np.arange(3, 12) - mean) / std)

    def test_one_hot_groups_share_group_id(self):
        ds, _ = encode_and_normalise(tiny_raw(), np.arange(6))
        groups = ds.schema.groups()
        assert len(groups["crop"]) == 3
        names = [ds.schema.entries[c].column_name() for c in groups["crop"]]
        assert names == ["crop=A", "crop=B", "crop=C"]
        rows = ds.X[:, groups["crop"]]
        np.testing.assert_array_equal(rows.sum(axis=1), np.ones(12))

    def test_soil_ph_midpoint_applied(self):
        raw = tiny_raw()
        raw.meta = RawMeta(
            site_column="site", year_column="year",
            categorical_columns=("crop",), continuous_columns=("moisture", "rate"),
            soil_ph_columns=("ph",),
        )
        ph = np.array([6.2, "6.5-7.1", 7.0, 5.8, "6.0-6.4", 6.6] * 2, dtype=object)
        raw.columns["ph"] = ph
        train = np.arange(12)
        ds, report = encode_and_normalise(raw, train)
        j = ds.schema.column_names().index("ph")
        mean, std = report.normalisation_stats["ph"]
        assert ds.X[1, j] == pytest.approx((6.8 - mean) / std)

    def test_constant_column_dropped(self):
        raw = tiny_raw()
        raw.columns["rate"][:] = 5.0
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.columns_dropped["rate"] == "constant"
        assert "rate" not in ds.schema.column_names()

    def test_sparse_column_dropped(self):
        raw = tiny_raw()
        raw.columns["rate"][:] = np.nan
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.columns_dropped["rate"] in ("sparse>95%", "unimputable")

    def test_imputation_counts_recorded(self):
        raw = tiny_raw()
        raw.columns["moisture"][4] = np.nan
        raw.columns["crop"][5] = None
        ds, report = encode_and_normalise(raw, np.arange(12))
        assert report.imputation_counts["moisture"] == 1
        assert report.imputation_counts["crop"] == 1
        assert validate(ds) == []

    @pytest.mark.parametrize("train_labels, mode", [
        (["B", "A", "B", "A", "C"], "A"),  # a tie goes to the smallest label
        (["B", "A", "B", "A", "B"], "B"),  # the highest count wins
    ])
    def test_categorical_mode_fills_every_blank(self, train_labels, mode):
        raw = tiny_raw()
        raw.columns["crop"] = np.array(
            [*train_labels, None, "C", "B", None, "A", "C", "B"], dtype=object)
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.imputation_counts["crop"] == 2
        j = ds.schema.column_names().index(f"crop={mode}")
        assert ds.X[5, j] == 1.0 and ds.X[8, j] == 1.0
        assert ds.X[[5, 8]][:, ds.schema.groups()["crop"]].sum() == 2.0

    def test_categorical_missing_cells(self):
        raw = tiny_raw()
        crop = raw.columns["crop"]
        blank = [0, 4, 8, 9, 10]
        crop[blank] = [None, float("nan"), "", "  \t", np.float64("nan")]
        ds, report = encode_and_normalise(raw, np.arange(12))
        assert report.imputation_counts["crop"] == 5
        names = ds.schema.column_names()
        assert names[-3:] == ["crop=A", "crop=B", "crop=C"]
        np.testing.assert_array_equal(ds.X[blank, names.index("crop=C")], 1.0)  # the mode

    def test_categorical_levels_sorted_as_text(self):
        raw = tiny_raw()
        raw.columns["crop"] = np.array(["b", "B", "a", "10", "9", 7] * 2, dtype=object)
        ds, report = encode_and_normalise(raw, np.arange(6))
        groups = ds.schema.groups()["crop"]
        assert [ds.schema.entries[c].level_label for c in groups] == [
            "10", "7", "9", "B", "a", "b"]
        np.testing.assert_array_equal(ds.X[:, groups[1]], [0, 0, 0, 0, 0, 1] * 2)
        assert "crop" not in report.imputation_counts

    def test_categorical_level_constant_over_all_rows_dropped(self):
        raw = tiny_raw()
        raw.columns["crop"] = np.array(["A"] * 11 + [None], dtype=object)
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.columns_dropped["crop=A"] == "constant"
        assert report.imputation_counts["crop"] == 1
        assert "crop" not in ds.schema.groups()

    @pytest.mark.parametrize("blank, reason", [
        (slice(None), "sparse>95%"),
        (slice(0, 6), "unimputable"),  # blank on every training row
    ])
    @pytest.mark.parametrize("column, blank_value", [("rate", np.nan), ("crop", None)])
    def test_blank_column_dropped_with_its_reason(self, column, blank_value, blank, reason):
        raw = tiny_raw()
        raw.columns[column][blank] = blank_value
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.columns_dropped[column] == reason
        assert column not in report.imputation_counts
        assert column not in ds.schema.groups()

    @pytest.mark.parametrize("blank, reason", [
        (np.arange(6), "unimputable"),  # blank on every training row
        (np.arange(1, 40), "sparse>95%"),  # 39 of 40 blank, one known training value
    ])
    def test_blank_day_of_year_dropped_with_its_reason(self, blank, reason):
        raw = tiny_raw(n=40)
        raw.meta = RawMeta(
            site_column="site", year_column="year",
            categorical_columns=("crop",), continuous_columns=("moisture", "rate"),
            day_of_year_columns=("sowing_doy",),
        )
        raw.columns["sowing_doy"] = np.arange(100.0, 140.0)
        raw.columns["sowing_doy"][blank] = np.nan
        ds, report = encode_and_normalise(raw, np.arange(6))
        assert report.columns_dropped["sowing_doy"] == reason
        assert "sowing_doy" not in report.imputation_counts
        assert not any(n.startswith("sowing_doy") for n in ds.schema.column_names())

    def test_blank_lag_cells_impute_humidity(self):
        cfg = SynthConfig(n_samples=30, n_sites=10, n_responses=3, weather_lag_days=5, seed=3)
        raw = generate(cfg)
        raw.columns["temp_lag_02"][4] = np.nan
        raw.columns["dew_lag_02"][7] = np.nan
        raw.columns["dew_lag_05"][7] = np.nan
        ds, _, report = preprocess_raw(raw, seed=0)
        counts = report.imputation_counts
        assert counts["temp_lag_02"] == 1
        assert counts["humidity_lag_02"] == 2 and counts["humidity_lag_05"] == 1
        assert "humidity_lag_01" not in counts
        assert validate(ds) == []

    @pytest.mark.filterwarnings("error")
    def test_huge_training_values_named_by_column(self):
        raw = tiny_raw()
        raw.columns["moisture"][:2] = 1e308
        with pytest.raises(ValueError, match=r"^column 'moisture': z-scores are not finite "
                                             r"\(training mean inf, standard deviation inf\)$"):
            encode_and_normalise(raw, np.arange(6))

    @pytest.mark.filterwarnings("error")
    def test_huge_test_value_named_by_column(self):
        raw = tiny_raw()
        raw.columns["moisture"][:6] = np.arange(6) / 10.0  # a training deviation below 1
        raw.columns["moisture"][9] = -1.7e308
        with pytest.raises(ValueError, match=r"^column 'moisture': z-scores are not finite "
                                             r"\(training mean 0\.25, standard deviation "):
            encode_and_normalise(raw, np.arange(6))

    def test_invalid_dataset_reports_first_violation_and_count(self, monkeypatch):
        cfg = SynthConfig(n_samples=30, n_sites=10, n_responses=3, weather_lag_days=5, seed=3)
        monkeypatch.setattr(preprocess, "validate", lambda ds: ["first", "second", "third"])
        with pytest.raises(ValueError, match=r"^preprocessed dataset is invalid: first "
                                             r"\(and 2 more\)$"):
            preprocess_raw(generate(cfg), seed=0)

    def test_validate_clean_after_pipeline(self):
        cfg = SynthConfig(n_samples=50, n_sites=15, n_responses=4, weather_lag_days=8, seed=11)
        raw = generate(cfg)
        ds, split, _ = preprocess_raw(raw, seed=1)
        assert validate(ds) == []

    def test_humidity_columns_derived(self):
        cfg = SynthConfig(n_samples=30, n_sites=10, n_responses=3, weather_lag_days=5, seed=3)
        raw = generate(cfg)
        ds, _, _ = preprocess_raw(raw, seed=0)
        names = ds.schema.column_names()
        assert "humidity_lag_01" in names
        assert not any(n.startswith("dew_lag") for n in names)
        assert "sowing_doy_sin" in names and "sowing_doy_cos" in names


class TestBlockSplit:
    def equal_blocks(self, n_blocks=10, rows_per_block=4):
        blocks = np.repeat([f"b{i}" for i in range(n_blocks)], rows_per_block).astype(object)
        n = len(blocks)
        rng = np.random.default_rng(0)
        y = (rng.random((n, 3)) > 0.5).astype(float)
        m = np.ones((n, 3))
        return blocks, y, m

    def test_ten_equal_blocks_two_in_test(self):
        blocks, y, m = self.equal_blocks()
        for seed in range(10):
            split = split_blocks(blocks, y, m, test_fraction=0.2, seed=seed)
            test_blocks = {blocks[i] for i in split.test_rows}
            assert len(test_blocks) == 2

    def test_no_block_spans_partitions(self):
        blocks, y, m = self.equal_blocks(n_blocks=7, rows_per_block=3)
        for seed in range(20):
            split = split_blocks(blocks, y, m, seed=seed)
            assert split.violations(blocks) == []

    def test_deterministic_under_seed(self):
        blocks, y, m = self.equal_blocks()
        a = split_blocks(blocks, y, m, seed=42)
        b = split_blocks(blocks, y, m, seed=42)
        assert np.array_equal(a.train_rows, b.train_rows)
        assert np.array_equal(a.val_rows, b.val_rows)
        assert np.array_equal(a.test_rows, b.test_rows)

    def test_different_seeds_vary_assignment(self):
        blocks, y, m = self.equal_blocks()
        tests = {tuple(split_blocks(blocks, y, m, seed=s).test_rows) for s in range(20)}
        assert len(tests) > 1

    @pytest.mark.parametrize("test_fraction, val_fraction", [
        (0.0, 0.2), (1.0, 0.2), (-0.2, 0.2), (1.5, 0.2), (float("nan"), 0.2),
        (0.2, -0.1), (0.2, 1.0),
    ])
    def test_out_of_range_fractions_rejected(self, test_fraction, val_fraction):
        blocks, y, m = self.equal_blocks()
        with pytest.raises(ValueError, match="fraction"):
            split_blocks(blocks, y, m, test_fraction=test_fraction,
                         val_fraction_of_train=val_fraction)

    def test_too_few_blocks_rejected(self):
        blocks = np.array(["a", "a", "b"], dtype=object)
        with pytest.raises(ValueError, match="at least 3"):
            split_blocks(blocks[:2], np.zeros((2, 1)), np.ones((2, 1)))

    def test_unequal_blocks_fraction_within_one_block(self):
        rng = np.random.default_rng(7)
        sizes = rng.integers(1, 9, size=25)
        blocks = np.concatenate([
            np.repeat(f"b{i}", s) for i, s in enumerate(sizes)
        ]).astype(object)
        n = len(blocks)
        y = (rng.random((n, 2)) > 0.6).astype(float)
        m = np.ones((n, 2))
        for seed in range(25):
            split = split_blocks(blocks, y, m, test_fraction=0.2, seed=seed)
            realised = len(split.test_rows) / n
            assert abs(realised - 0.2) <= sizes.max() / n + 1e-12

    @pytest.mark.parametrize("case, message", [
        ("blocks short", r"row counts differ: 295, 300 and 300"),
        ("blocks long", r"row counts differ: 305, 300 and 300"),
        ("mask short", r"row counts differ: 300, 300 and 299"),
        ("mask narrow", r"shapes differ: \(300, 3\) and \(300, 2\)"),
        ("y_bin flat", r"blocks must be 1-D and y_bin, mask 2-D"),
        ("mask half", r"mask cell \(7,1\) is 0.5, not 0 or 1"),
        ("mask nan", r"mask cell \(7,1\) is nan, not 0 or 1"),
        ("y_bin nan observed", r"observed y_bin cell \(9,2\) is nan, not 0 or 1"),
        ("y_bin count", r"observed y_bin cell \(9,2\) is 2.0, not 0 or 1"),
        ("no responses", r"no response columns: shape \(300, 0\)"),
    ])
    def test_mismatched_or_non_binary_inputs_rejected(self, case, message):
        blocks, y, m = self.equal_blocks(n_blocks=30, rows_per_block=10)

        def cell(a, i, k, value):
            a = a.copy()
            a[i, k] = value
            return a

        bad = {
            "blocks short": (blocks[:-5], y, m),
            "blocks long": (np.concatenate([blocks, blocks[:5]]), y, m),
            "mask short": (blocks, y, m[:-1]),
            "mask narrow": (blocks, y, m[:, :2]),
            "y_bin flat": (blocks, y[:, 0], m[:, 0]),
            "mask half": (blocks, y, cell(m, 7, 1, 0.5)),
            "mask nan": (blocks, y, cell(m, 7, 1, np.nan)),
            "y_bin nan observed": (blocks, cell(y, 9, 2, np.nan), m),
            "y_bin count": (blocks, cell(y, 9, 2, 2.0), m),
            "no responses": (blocks, np.zeros((300, 0)), np.zeros((300, 0))),
        }[case]
        with pytest.raises(ValueError, match=message):
            split_blocks(*bad)

    def test_unobserved_y_bin_cells_are_not_checked(self):
        blocks, y, m = self.equal_blocks()
        m[::3, 1] = 0.0
        want = split_blocks(blocks, y, m, seed=3)
        got = split_blocks(blocks, np.where(m == 1.0, y, 7.5), m, seed=3)
        for rows in ("train_rows", "val_rows", "test_rows"):
            assert np.array_equal(getattr(got, rows), getattr(want, rows))

    def test_stratification_keeps_positive_rates_close(self):
        cfg = SynthConfig(n_samples=200, n_sites=60, n_responses=6, weather_lag_days=5, seed=2)
        raw = generate(cfg)
        _, y_bin, mask = transform_responses(raw.responses, raw.loq)
        split = split_blocks(raw.block_labels(), y_bin, mask, seed=0)
        for k in range(6):
            tr, te = split.train_rows, split.test_rows
            tr_obs = mask[tr, k] == 1
            te_obs = mask[te, k] == 1
            if tr_obs.sum() and te_obs.sum():
                gap = abs(y_bin[tr, k][tr_obs].mean() - y_bin[te, k][te_obs].mean())
                assert gap <= 0.15


def _old_gap_objective(sp, so, rp, ro):
    """The refinement objective as first written: clamped rates, both sides."""
    both = (so > 0) & (ro > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = np.abs(sp / np.maximum(so, 1e-12) - rp / np.maximum(ro, 1e-12))
    gaps = np.where(both, gaps, 0.0)
    return gaps.max(axis=-1) + 0.02 * gaps.mean(axis=-1)


def _old_refine_partition(sel, rest, block_rows, pos_of, obs_of, cap_sel, max_steps=30):
    """The refinement as first written: both sides re-summed every step and
    every (sel, rest) pair scored before the window masks it."""
    if not sel or not rest:
        return sel, rest
    labels = sorted(sel) + sorted(rest)
    sizes = np.array([len(block_rows[lab]) for lab in labels], dtype=np.float64)
    pos = np.vstack([pos_of[lab] for lab in labels])
    obs = np.vstack([obs_of[lab] for lab in labels])
    in_sel = np.array([lab in set(sel) for lab in labels])
    window = sizes.max() / 2.0
    for _ in range(max_steps):
        si = np.flatnonzero(in_sel)
        ri = np.flatnonzero(~in_sel)
        sp, so = pos[si].sum(axis=0), obs[si].sum(axis=0)
        rp, ro = pos[ri].sum(axis=0), obs[ri].sum(axis=0)
        rows_sel = sizes[si].sum()
        base = _old_gap_objective(sp, so, rp, ro)
        if base <= 0.04:
            break
        best_obj = base - 1e-4
        flips = None
        if si.size > 1:
            t = si[np.abs(rows_sel - sizes[si] - cap_sel) <= window]
            if t.size:
                objs = _old_gap_objective(sp - pos[t], so - obs[t], rp + pos[t], ro + obs[t])
                j = int(np.argmin(objs))
                if objs[j] < best_obj:
                    best_obj = objs[j]
                    flips = [(int(t[j]), False)]
        if ri.size > 1:
            u = ri[np.abs(rows_sel + sizes[ri] - cap_sel) <= window]
            if u.size:
                objs = _old_gap_objective(sp + pos[u], so + obs[u], rp - pos[u], ro - obs[u])
                j = int(np.argmin(objs))
                if objs[j] < best_obj:
                    best_obj = objs[j]
                    flips = [(int(u[j]), True)]
        if flips is None and si.size and ri.size:
            delta = rows_sel - sizes[si][:, None] + sizes[ri][None, :]
            ok = np.abs(delta - cap_sel) <= window
            if ok.any():
                sp2 = sp - pos[si][:, None, :] + pos[ri][None, :, :]
                so2 = so - obs[si][:, None, :] + obs[ri][None, :, :]
                rp2 = rp + pos[si][:, None, :] - pos[ri][None, :, :]
                ro2 = ro + obs[si][:, None, :] - obs[ri][None, :, :]
                objs = np.where(ok, _old_gap_objective(sp2, so2, rp2, ro2), np.inf)
                a, b = np.unravel_index(int(np.argmin(objs)), objs.shape)
                if objs[a, b] < best_obj:
                    best_obj = objs[a, b]
                    flips = [(int(si[a]), False), (int(ri[b]), True)]
        if flips is None:
            break
        for idx, flag in flips:
            in_sel[idx] = flag
    return ([labels[i] for i in np.flatnonzero(in_sel)],
            [labels[i] for i in np.flatnonzero(~in_sel)])


def random_block_layout(seed, k=24):
    """Blocks of 1-7 rows with 0/1 responses under a partial mask, and a
    random (so unbalanced) starting partition holding about a quarter of the
    rows. Even seeds observe response 0 on the selected side only; in every
    third layout, blocks of equal size are identical."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 8, size=int(rng.integers(8, 60)))
    labels = [f"b{i:02d}" for i in range(sizes.size)]
    n = int(sizes.sum())
    block_rows = dict(zip(labels, np.split(np.arange(n), np.cumsum(sizes)[:-1])))
    mask = (rng.random((n, k)) < rng.uniform(0.2, 1.0, size=k)).astype(np.float64)
    y = (rng.random((n, k)) < rng.uniform(0.05, 0.6, size=k)).astype(np.float64)
    if seed % 3 == 1:  # blocks of one size are copies, so candidates tie
        for lab in labels:
            first = next(l for l in labels if len(block_rows[l]) == len(block_rows[lab]))
            mask[block_rows[lab]] = mask[block_rows[first]]
            y[block_rows[lab]] = y[block_rows[first]]
    order = [labels[i] for i in rng.permutation(sizes.size)]
    cut = int(np.searchsorted(np.cumsum([len(block_rows[lab]) for lab in order]), n / 4)) + 1
    sel, rest = order[:cut], order[cut:]
    if seed % 2 == 0:
        for lab in rest:
            mask[block_rows[lab], 0] = 0.0
    pos_of = {lab: np.where(mask[r] == 1.0, y[r], 0.0).sum(axis=0) for lab, r in block_rows.items()}
    obs_of = {lab: mask[r].sum(axis=0) for lab, r in block_rows.items()}
    return sel, rest, block_rows, pos_of, obs_of, 0.25 * n


def refine_labels(sel, rest, block_rows, pos_of, obs_of, cap_sel):
    """_refine_partition on a label layout: each label becomes its position
    among the sorted labels, and the returned index arrays become labels."""
    labels = sorted(block_rows)
    index = {lab: i for i, lab in enumerate(labels)}
    got = _refine_partition(
        np.array([index[lab] for lab in sel], dtype=np.int64),
        np.array([index[lab] for lab in rest], dtype=np.int64),
        np.array([len(block_rows[lab]) for lab in labels]),
        np.vstack([pos_of[lab] for lab in labels]),
        np.vstack([obs_of[lab] for lab in labels]),
        cap_sel,
    )
    return tuple([labels[i] for i in part] for part in got)


class TestSplitIdentity:
    """The split refinement keeps integer side counts incrementally; these pin
    its output to the implementation that re-summed every step."""

    # sha256 over seeds 0-199 of split_blocks(train, val, test rows), each
    # prefixed by its length, recorded with the re-summing implementation
    SURVEY_DIGESTS = {
        0: "65119f208643b02ce6c3471d7565e3ea3c853518f3389c6f2bfcaf94ed0c86be",
        1: "8e570752e921594f096fc316adc26d53d28b499cac97be99066e32e9ce18bdc8",
        2: "3124b72c353d9ae4094676060228ff21f1b8b3e79a55040aa67abbb3d0bd2346",
    }
    # the same over seeds 0-49 of the autoencoder holdout's call: one
    # all-negative response, fully observed, no validation side
    DUMMY_MASK_DIGESTS = {
        0: "bb2bd87c3324422ffbbd7ed0843ae3969d2295a0e82148670f7bc666c7900d01",
        1: "d8b277be8210d2bec98e6d67ba40bbb93af2d4247bfd656f7cd53c971a19ae15",
        2: "9a27e05fa67909458579da5ae0506db4a81f584065b0f0837102c0ab6da6c73f",
    }

    @staticmethod
    def digest(splits):
        h = hashlib.sha256()
        for split in splits:
            for rows in (split.train_rows, split.val_rows, split.test_rows):
                rows = np.asarray(rows, dtype=np.int64)
                h.update(np.int64(rows.size).tobytes())
                h.update(rows.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("survey", [0, 1, 2])
    def test_survey_splits_match_recorded_digest(self, survey, request):
        if survey == 0:  # the default survey's draws are shared with criterion 9
            blocks, splits = request.getfixturevalue("survey0_splits")
            splits = splits[:200]
        else:
            raw = generate(SynthConfig(seed=survey))
            _, y_bin, mask = transform_responses(raw.responses, raw.loq)
            blocks = raw.block_labels()
            splits = [split_blocks(blocks, y_bin, mask, seed=s) for s in range(200)]
        n = len(blocks)
        assert self.digest(splits) == self.SURVEY_DIGESTS[survey]
        dummy = [split_blocks(blocks, np.zeros((n, 1)), np.ones((n, 1)), seed=s,
                              val_fraction_of_train=0.0) for s in range(50)]
        assert self.digest(dummy) == self.DUMMY_MASK_DIGESTS[survey]

    def test_refinement_matches_resumming_oracle(self):
        moved = one_sided = 0
        for seed in range(60):
            sel, rest, block_rows, pos_of, obs_of, cap = random_block_layout(seed)
            got = refine_labels(list(sel), list(rest), block_rows, pos_of, obs_of, cap)
            want = _old_refine_partition(list(sel), list(rest), block_rows, pos_of, obs_of, cap)
            assert np.array_equal(np.array(got[0]), np.array(want[0])), seed
            assert np.array_equal(np.array(got[1]), np.array(want[1])), seed
            moved += sorted(got[0]) != sorted(sel)
            one_sided += sum(obs_of[lab][0] for lab in rest) == 0
        # the layouts exercise the refinement, including one-sided responses
        assert moved >= 40 and one_sided >= 25

    @staticmethod
    def tied_swaps_layout():
        """Six blocks of two rows, one response, sel holding exactly its
        capacity so no single move fits the window. Swapping either positive
        sel block for either negative rest block gives the same best
        objective, and nothing improves after one swap."""
        pos = {"s1": 2.0, "s2": 2.0, "r1": 0.0, "r2": 0.0, "r3": 2.0, "r4": 2.0}
        block_rows = {lab: np.arange(2 * i, 2 * i + 2) for i, lab in enumerate(pos)}
        pos_of = {lab: np.array([p]) for lab, p in pos.items()}
        obs_of = {lab: np.array([2.0]) for lab in pos}
        return ["s1", "s2"], ["r1", "r2", "r3", "r4"], block_rows, pos_of, obs_of, 4.0

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_chunked_swap_scan_matches_oracle(self, pairs, monkeypatch):
        """The swap scan scores its pairs in chunks of `pairs` (the byte budget
        patched to fit): the running best moves only on a strictly smaller
        objective, so a tie across chunks goes to the first pair as in one
        argmin over all pairs."""
        layouts = [random_block_layout(seed) for seed in range(60)]
        layouts.append(self.tied_swaps_layout())
        for n, (sel, rest, block_rows, pos_of, obs_of, cap) in enumerate(layouts):
            k = len(pos_of[sel[0]])
            monkeypatch.setattr(preprocess, "_SCAN_BYTES", 8 * k * pairs)
            got = refine_labels(list(sel), list(rest), block_rows, pos_of, obs_of, cap)
            want = _old_refine_partition(list(sel), list(rest), block_rows, pos_of, obs_of, cap)
            assert got == want, n
        assert want == (["s2", "r1"], ["s1", "r2", "r3", "r4"])  # the first tied swap

    @pytest.mark.parametrize("pairs", [1, 170])
    def test_tied_moves_apply_the_move_out(self, pairs, monkeypatch):
        """Moving block 0 out of sel and moving block 3 into it leave mirror
        sides (blocks 1, 4 and 2, 5 hold equal tallies), so the two moves
        give the same best objective; the move out is applied, as when moves
        out were scanned before moves in, whether or not one chunk holds
        both. Blocks 2 and 5 are too large to move within the window."""
        monkeypatch.setattr(preprocess, "_SCAN_BYTES", 8 * 2 * pairs)
        pos = np.array([[3, 1], [0, 0], [3, 3], [1, 4], [0, 0], [3, 3]], dtype=np.float64)
        obs = np.array([[5, 3], [1, 0], [5, 4], [3, 5], [1, 0], [5, 4]], dtype=np.float64)
        sizes = np.array([1, 1, 10, 1, 1, 10])
        sp, so, tot_p, tot_o = pos[:3].sum(axis=0), obs[:3].sum(axis=0), pos.sum(0), obs.sum(0)
        out = preprocess._gap_objective(sp - pos[[0, 1]], so - obs[[0, 1]], tot_p, tot_o)
        into = preprocess._gap_objective(sp + pos[[3, 4]], so + obs[[3, 4]], tot_p, tot_o)
        assert out[0] == into[0] < min(out[1], into[1])  # the tie is the best move
        sel, rest = _refine_partition(np.array([0, 1, 2]), np.array([3, 4, 5]), sizes,
                                      pos, obs, 12.0, max_steps=1)
        assert (sel.tolist(), rest.tolist()) == ([1, 2], [0, 3, 4, 5])

    def test_swap_scan_stays_within_byte_budget(self, survey0_split_inputs, monkeypatch):
        """No candidate stack scored on the default survey exceeds the scan's
        byte budget, and the swap scan does fill chunks near it."""
        stacked = []
        scored = preprocess._gap_objective

        def recording(sp, so, tot_p, tot_o):
            stacked.extend((sp.nbytes, so.nbytes))
            return scored(sp, so, tot_p, tot_o)

        monkeypatch.setattr(preprocess, "_gap_objective", recording)
        for seed in range(5):
            split_blocks(*survey0_split_inputs, seed=seed)
        assert preprocess._SCAN_BYTES // 2 < max(stacked) <= preprocess._SCAN_BYTES


def test_swap_screen_keeps_every_pair_that_can_win():
    """On random layouts, window grids and thresholds, the swap screen keeps
    every pair whose full objective is below the threshold, keeps only pairs
    in the grid, and returns them in row-major order. Thresholds are drawn
    from the pairs' own objectives, so some pairs sit exactly on one."""
    dropped = 0
    for seed in range(60):
        sel, rest, block_rows, pos_of, obs_of, _ = random_block_layout(seed)
        labels = sorted(block_rows)
        pos = np.vstack([pos_of[lab] for lab in labels])
        obs = np.vstack([obs_of[lab] for lab in labels])
        si = np.sort([labels.index(lab) for lab in sel])
        ri = np.sort([labels.index(lab) for lab in rest])
        sp, so = pos[si].sum(axis=0), obs[si].sum(axis=0)
        tot_p, tot_o = pos.sum(axis=0), obs.sum(axis=0)
        rng = np.random.default_rng(seed)
        fits = rng.random((si.size, ri.size)) < rng.uniform(0.3, 1.0)
        a_all, b_all = np.nonzero(fits)
        objs = preprocess._gap_objective(sp - pos[si[a_all]] + pos[ri[b_all]],
                                         so - obs[si[a_all]] + obs[ri[b_all]], tot_p, tot_o)
        for threshold in [*rng.choice(objs, size=3), rng.uniform(objs.min(), objs.max())]:
            a, b = preprocess._screen_swaps(fits, si, ri, sp, so, pos, obs,
                                            tot_p, tot_o, threshold)
            flat = a * ri.size + b
            assert np.all(np.diff(flat) > 0), seed
            assert fits[a, b].all(), seed
            must = (a_all * ri.size + b_all)[objs < threshold]
            assert np.isin(must, flat).all(), (seed, threshold)
            dropped += a_all.size - a.size
    assert dropped  # the screen does drop pairs


class TestGreedyTieRules:
    """The greedy pass's side choice on hand-built layouts. One response,
    fully observed and never positive, makes every divergence 0, so the
    relative-deficit and side rules decide; every refinement gap is 0 too,
    so the refinement keeps the greedy sides. Sizes are distinct where the
    draw's permutation would otherwise decide the order, and every seed
    gives the same sides."""

    @staticmethod
    def greedy(sizes, target_fraction, seed):
        sizes = np.array(sizes)
        tally = np.zeros((sizes.size, 1))
        sel, rest = _partition_blocks(np.arange(sizes.size), sizes, target_fraction,
                                      tally, tally + sizes[:, None],
                                      np.random.default_rng(seed))
        return sorted(sel.tolist()), sorted(rest.tolist())

    @pytest.mark.parametrize("seed", range(10))
    def test_full_tie_goes_to_rest(self, seed):
        # the first block fits both empty sides, each with all its capacity left
        assert self.greedy([3, 2], 0.5, seed) == ([1], [0])

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_divergence_goes_to_the_larger_relative_deficit(self, seed):
        # capacities 3 and 12: block 0 ties to rest, after which block 1 fits
        # both sides and goes to sel, all of whose capacity is left, although
        # rest (half left) has 6 rows of room to sel's 3
        assert self.greedy([6, 5, 4], 0.2, seed) == ([1], [0, 2])

    @pytest.mark.parametrize("seed", range(10))
    def test_a_side_without_room_for_half_the_block_passes(self, seed):
        # capacities 1.8 and 16.2: blocks 3, 0 and 1 fit rest alone; then
        # rest's 1.2 rows of room fall short of half of block 2, which goes
        # to sel, the side with more room. Neither side can fall short: the
        # rooms sum to the rows not yet placed, this block's included
        assert self.greedy([5, 4, 3, 6], 0.1, seed) == ([2], [0, 1, 3])

    @pytest.mark.parametrize("seed", range(10))
    def test_empty_selected_side_takes_the_smallest_block(self, seed):
        # capacity 0.75 holds no half block, so sel ends empty and takes the
        # smallest block; blocks 1 and 3 tie on size and the lower index wins
        assert self.greedy([5, 3, 4, 3], 0.05, seed) == ([1], [0, 2, 3])


# what split_blocks raises for a layout it cannot split, and nothing else
SPLIT_ERRORS = ("need at least 3 distinct blocks", "all blocks assigned to test",
                "too few blocks to keep train, validation, and test non-empty")


def test_split_invariants_on_random_block_layouts():
    """400 fixed-seed layouts of 1-30 blocks of 1-12 rows each, a block's
    rows scattered through the table, 1-4 responses under a partial mask
    (NaN where masked), random fractions and every fourth layout without
    validation. The case count and seeds are fixed."""
    n_split = 0
    for case in range(400):
        rng = np.random.default_rng((20261019, case))
        sizes = rng.integers(1, 13, size=int(rng.integers(1, 31)))
        labels = [f"site_{i}|{2000 + i % 7}" for i in range(sizes.size)]
        blocks = rng.permutation(np.repeat(np.array(labels, dtype=object), sizes))
        n, k = blocks.size, int(rng.integers(1, 5))
        mask = (rng.random((n, k)) < rng.uniform(0.0, 1.0)).astype(np.float64)
        y_bin = np.where(mask == 1.0, (rng.random((n, k)) < 0.3).astype(np.float64), np.nan)
        test_fraction = float(rng.uniform(0.05, 0.95))
        val_fraction = 0.0 if case % 4 == 0 else float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(0, 2**31))
        args = (blocks, y_bin, mask, test_fraction, val_fraction, seed)
        try:
            split = split_blocks(*args)
        except ValueError as exc:
            assert str(exc).startswith(SPLIT_ERRORS), (case, exc)
            assert (sizes.size < 3) == str(exc).startswith(SPLIT_ERRORS[0]), (case, exc)
            continue
        n_split += 1
        assert split.violations(blocks) == [], case
        assert abs(split.test_rows.size / n - test_fraction) <= sizes.max() / n + 1e-12, case
        assert split.test_rows.size and split.fit_rows.size, case
        assert split.val_rows.size or val_fraction == 0.0, case
        again = split_blocks(*args)
        for rows in ("train_rows", "val_rows", "test_rows"):
            assert np.array_equal(getattr(again, rows), getattr(split, rows)), case
    assert n_split >= 200  # most layouts split


class TestNoLeakage:
    def test_report_stats_reproducible_and_fixed(self):
        raw = tiny_raw(seed=3)
        train = np.arange(6)
        ds1, report1 = encode_and_normalise(raw, train)
        ds2, report2 = encode_and_normalise(raw, train)
        assert report1.normalisation_stats == report2.normalisation_stats
        for name, (mean, std) in report1.normalisation_stats.items():
            col = np.asarray(raw.columns[name], dtype=float)[train]
            assert mean == pytest.approx(col.mean())
            assert std == pytest.approx(col.std())
