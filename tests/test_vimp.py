import numpy as np
import pytest

import masktab.vimp
from conftest import make_dataset
from masktab.jsonio import derive_seed
from masktab.masked_loss import MaskedBatch, masked_bce, masked_mse
from masktab.nn_core import DenseLayer, LayerSpec, NetworkParams, forward, init_network
from masktab.preprocess import preprocess_raw
from masktab.synthgen import SynthConfig, generate
from masktab.trainer import TrainConfig, predict, train_baseline
from masktab.vimp import (
    ImportanceEntry,
    grouped_variable_groups,
    importance_report,
    per_column_groups,
    permutation_importance,
    rank_importance,
)


def linear_net(weights_cont: np.ndarray, k: int):
    """Network whose continuous head is an explicit linear map; bin head fixed."""
    p = weights_cont.shape[1]
    cont = DenseLayer(W=weights_cont, b=np.zeros(k), spec=LayerSpec(p, k, "linear"))
    bin_head = DenseLayer(W=np.zeros((k, p)), b=np.zeros(k), spec=LayerSpec(p, k, "sigmoid"))
    return NetworkParams(backbone=[], heads={"cont": cont and [cont], "bin": [bin_head]})


class TestPermutationImportance:
    def test_zero_weight_feature_has_zero_importance(self, small_dataset):
        ds = small_dataset
        k, p = ds.n_responses, ds.n_features
        w = np.zeros((k, p))
        w[:, 0] = 1.0  # predictions depend only on column 0
        params = linear_net(w, k)
        entry = permutation_importance(
            params, ds, np.arange(ds.n_samples), "x1", [1], "regression",
            n_repeats=30, seed=0,
        )
        assert entry.permuted_loss_mean == entry.baseline_loss
        assert abs(entry.importance_pct) < 1e-9

    def test_single_row_identity_permutation(self, small_dataset):
        ds = small_dataset
        rows = np.array([0])
        w = np.ones((ds.n_responses, ds.n_features))
        params = linear_net(w, ds.n_responses)
        entry = permutation_importance(
            params, ds, rows, "x0", [0], "regression", n_repeats=5, seed=3,
        )
        assert entry.permuted_loss_mean == entry.baseline_loss
        assert entry.permuted_loss_sd == 0.0

    def test_informative_feature_positive_importance(self):
        # responses literally equal column 0: permuting it must hurt
        rng = np.random.default_rng(0)
        n = 60
        x0 = rng.standard_normal(n)
        ds = make_dataset(n=n, seed=1)
        ds.X[:, 0] = x0
        ds.Y_cont[:, :] = np.column_stack([x0, x0])
        ds.Y_bin[:, :] = (ds.Y_cont > 0).astype(float)
        ds.M[:, :] = 1.0
        w = np.zeros((2, ds.n_features))
        w[:, 0] = 1.0
        params = linear_net(w, 2)
        entry = permutation_importance(
            params, ds, np.arange(n), "x0", [0], "regression", n_repeats=10, seed=0,
        )
        assert entry.baseline_loss == pytest.approx(0.0, abs=1e-12)
        assert entry.permuted_loss_mean > 0.1

    def test_deterministic_under_seed(self, small_dataset):
        ds = small_dataset
        w = np.ones((ds.n_responses, ds.n_features))
        params = linear_net(w, ds.n_responses)
        a = permutation_importance(params, ds, np.arange(ds.n_samples), "x0", [0],
                                   "regression", n_repeats=7, seed=11)
        b = permutation_importance(params, ds, np.arange(ds.n_samples), "x0", [0],
                                   "regression", n_repeats=7, seed=11)
        assert a == b

    def test_empty_rows_rejected(self, small_dataset):
        ds = small_dataset
        params = linear_net(np.ones((2, ds.n_features)), 2)
        with pytest.raises(ValueError, match="empty row set"):
            permutation_importance(params, ds, [], "x0", [0], "regression")

    @pytest.mark.parametrize("baseline_loss", [None, 1.0], ids=["computed", "given"])
    def test_dataset_of_another_width_rejected(self, small_dataset, baseline_loss):
        ds = small_dataset
        params = linear_net(np.ones((2, ds.n_features + 1)), 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            permutation_importance(params, ds, [0, 1], "x0", [0], "regression",
                                   baseline_loss=baseline_loss)

    def test_unknown_group_rejected(self, small_dataset):
        ds = small_dataset
        params = linear_net(np.ones((2, ds.n_features)), 2)
        with pytest.raises(ValueError, match="unknown or empty group"):
            permutation_importance(params, ds, [0, 1], "ghost", [], "regression")


class TestGrouping:
    def test_per_column_groups_are_singletons(self, small_dataset):
        groups = per_column_groups(small_dataset.schema)
        assert all(len(cols) == 1 for cols in groups.values())
        assert len(groups) == small_dataset.n_features

    def test_grouped_bundles_lags_and_dates(self):
        cfg = SynthConfig(n_samples=40, n_sites=12, n_responses=3, weather_lag_days=6, seed=1)
        raw = generate(cfg)
        ds, _, _ = preprocess_raw(raw, seed=0)
        groups = grouped_variable_groups(ds.schema)
        for fam in ("humidity_history", "temp_history", "precip_history"):
            assert fam in groups
            assert len(groups[fam]) == 6
        assert "sowing_doy" in groups and len(groups["sowing_doy"]) == 2
        assert "variety" in groups  # categorical one-hot family kept whole
        # groups partition the columns
        all_cols = sorted(c for cols in groups.values() for c in cols)
        assert all_cols == list(range(ds.n_features))

    def test_grouped_permutation_preserves_one_hot_rows(self, small_dataset):
        ds = small_dataset
        cols = ds.schema.groups()["cat"]
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_samples)
        permuted = ds.X[perm][:, cols]
        np.testing.assert_array_equal(permuted.sum(axis=1), np.ones(ds.n_samples))


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(n_samples=90, n_sites=25, n_responses=3, weather_lag_days=6, seed=31)
    raw = generate(cfg)
    ds, split, _ = preprocess_raw(raw, seed=1)
    params, _ = train_baseline(
        ds, split, TrainConfig(hidden_dims=(24, 12), max_epochs=40, patience=8, seed=0)
    )
    return ds, split, params


class TestImportanceReport:
    def test_baseline_matches_masked_loss(self, trained):
        ds, split, params = trained
        rows = split.test_rows
        report = importance_report(params, ds, rows, mode="grouped", n_repeats=2, seed=0)
        cont_hat, bin_prob = predict(params, ds.X[rows])
        mse, _ = masked_mse(MaskedBatch(y=ds.Y_cont[rows], y_hat=cont_hat, m=ds.M[rows]))
        bce, _ = masked_bce(MaskedBatch(y=ds.Y_bin[rows], y_hat=bin_prob, m=ds.M[rows]))
        for e in report.entries:
            expected = mse if e.task == "regression" else bce
            assert e.baseline_loss == pytest.approx(expected, abs=1e-9)

    def test_report_roundtrip_and_determinism(self, trained, tmp_path):
        ds, split, params = trained
        a = importance_report(params, ds, split.test_rows, n_repeats=3, seed=5)
        b = importance_report(params, ds, split.test_rows, n_repeats=3, seed=5)
        assert a.entries == b.entries
        a.save(tmp_path / "imp.json")
        from masktab.vimp import ImportanceReport

        loaded = ImportanceReport.load(tmp_path / "imp.json")
        assert loaded.entries == a.entries
        assert loaded.groups == a.groups

    def test_rank_importance_orders_and_intersects(self, trained):
        ds, split, params = trained
        report = importance_report(params, ds, split.test_rows, n_repeats=5, seed=2)
        ranking = rank_importance(report)
        reg = [e["importance_pct"] for e in ranking["regression"]]
        assert reg == sorted(reg, reverse=True)
        top_reg = {e["group"] for e in ranking["regression"][:10]}
        top_cls = {e["group"] for e in ranking["classification"][:10]}
        assert set(ranking["intersection"]) == top_reg & top_cls

    def test_ties_rank_in_schema_order(self, small_dataset):
        ds = small_dataset
        params = linear_net(np.zeros((2, ds.n_features)), 2)  # nothing matters
        report = importance_report(params, ds, np.arange(ds.n_samples), n_repeats=2, seed=0)
        ranking = rank_importance(report)
        groups = list(report.groups)
        expected = sorted(groups, key=lambda g: min(report.groups[g]))
        assert [e["group"] for e in ranking["regression"]] == expected


def test_growing_planted_effect_does_not_lose_rank():
    """Regenerate + retrain over a 3-point effect-size grid for one variable."""
    from masktab.synthgen import PlantedEffect

    median_ranks = []
    for size in (0.4, 1.2, 3.0):
        ranks = []
        for seed in range(3):
            planted = tuple(
                PlantedEffect(v, k, s)
                for k in range(4)
                for v, s in (("humidity_lag_mean", 1.0), ("seed_moisture", size))
            )
            cfg = SynthConfig(
                n_samples=90, n_sites=28, n_responses=4, weather_lag_days=6,
                planted_effects=planted, seed=seed,
            )
            raw = generate(cfg)
            ds, split, _ = preprocess_raw(raw, seed=seed)
            params, _ = train_baseline(
                ds, split, TrainConfig(hidden_dims=(24, 12), max_epochs=60, patience=10, seed=seed)
            )
            report = importance_report(
                params, ds, split.test_rows, mode="grouped", n_repeats=10, seed=seed
            )
            imp = {e.group: e.importance_pct for e in report.task_entries("regression")}
            ordering = sorted(imp, key=lambda g: -imp[g])
            ranks.append(ordering.index("seed_moisture") + 1)
        median_ranks.append(float(np.median(ranks)))
    assert median_ranks[0] >= median_ranks[1] >= median_ranks[2]


# ---------------------------------------------------------------------------
# Oracle: permutation importance by a full forward pass of the permuted rows
# per repeat and one masked_mse/masked_bce call per loss.
# ---------------------------------------------------------------------------

def oracle_task_loss(params, X, ds, rows, task):
    out, _ = forward(params, X, mode="infer")
    if task == "regression":
        loss, _ = masked_mse(MaskedBatch(y=ds.Y_cont[rows], y_hat=out["cont"], m=ds.M[rows]))
    else:
        loss, _ = masked_bce(MaskedBatch(y=ds.Y_bin[rows], y_hat=out["bin"], m=ds.M[rows]))
    return loss


def oracle_permutation_importance(params, ds, rows, group, columns, task, n_repeats, seed):
    rows = np.asarray(rows, dtype=np.int64)
    X = ds.X[rows]
    baseline_loss = oracle_task_loss(params, X, ds, rows, task)
    entry_seed = derive_seed(seed, f"{task}:{group}")
    rng = np.random.default_rng(np.random.PCG64(entry_seed))
    losses = np.empty(n_repeats)
    X_perm = X.copy()
    for r in range(n_repeats):
        perm = rng.permutation(rows.size)
        X_perm[:, columns] = X[perm][:, columns]
        losses[r] = oracle_task_loss(params, X_perm, ds, rows, task)
        X_perm[:, columns] = X[:, columns]
    if losses.min() == losses.max():
        mean, sd = float(losses[0]), 0.0
    else:
        mean, sd = float(losses.mean()), float(losses.std())
    if baseline_loss != 0.0:
        importance = 100.0 * (mean - baseline_loss) / baseline_loss
    else:
        importance = 0.0 if mean == 0.0 else float("inf")
    return ImportanceEntry(
        group=group, task=task, baseline_loss=float(baseline_loss), permuted_loss_mean=mean,
        permuted_loss_sd=sd, importance_pct=importance, n_repeats=n_repeats, seed=entry_seed,
    )


def assert_matches_oracle(params, ds, rows, groups, n_repeats, seed):
    report = importance_report(params, ds, rows, groups=groups, n_repeats=n_repeats, seed=seed)
    assert len(report.entries) == 2 * len(groups)
    for e in report.entries:
        ref = oracle_permutation_importance(
            params, ds, rows, e.group, groups[e.group], e.task, n_repeats, seed
        )
        assert (e.group, e.task, e.n_repeats) == (ref.group, ref.task, ref.n_repeats)
        assert e.baseline_loss == ref.baseline_loss
        assert e.seed == ref.seed
        for name in ("permuted_loss_mean", "permuted_loss_sd"):
            assert getattr(e, name) == pytest.approx(getattr(ref, name), rel=1e-12, abs=1e-15)
        assert e.importance_pct == pytest.approx(ref.importance_pct, rel=0.0, abs=1e-9)


def two_layer_head_net(p: int, k: int, backbone: tuple[int, ...], seed: int) -> NetworkParams:
    dims = (p,) + backbone
    trunk = [LayerSpec(dims[i], dims[i + 1]) for i in range(len(backbone))]
    heads = {
        "cont": [LayerSpec(dims[-1], 5), LayerSpec(5, k, "linear")],
        "bin": [LayerSpec(dims[-1], 5), LayerSpec(5, k, "sigmoid")],
    }
    return init_network(trunk, heads, np.random.default_rng(seed))


class TestAgainstFullForwardOracle:
    @pytest.mark.parametrize("mode", ["grouped", "per-column"])
    def test_trained_network(self, trained, mode):
        ds, split, params = trained
        groups = (grouped_variable_groups if mode == "grouped" else per_column_groups)(ds.schema)
        assert_matches_oracle(params, ds, split.test_rows, groups, n_repeats=4, seed=3)

    def test_empty_backbone(self, small_dataset):
        ds = small_dataset
        w = np.random.default_rng(4).standard_normal((ds.n_responses, ds.n_features))
        params = linear_net(w, ds.n_responses)
        groups = {**per_column_groups(ds.schema), **ds.schema.groups()}
        assert_matches_oracle(params, ds, np.arange(ds.n_samples), groups, n_repeats=6, seed=1)

    @pytest.mark.parametrize("backbone", [(), (7,)], ids=["no-backbone", "one-layer-backbone"])
    def test_two_layer_head(self, small_dataset, backbone):
        ds = small_dataset
        params = two_layer_head_net(ds.n_features, ds.n_responses, backbone, seed=2)
        groups = {**per_column_groups(ds.schema), **ds.schema.groups()}
        assert_matches_oracle(params, ds, np.arange(ds.n_samples), groups, n_repeats=6, seed=5)

    def test_non_binary_target_still_rejected(self, small_dataset):
        ds = small_dataset
        ds.Y_bin[ds.M == 1.0] = 0.5
        params = two_layer_head_net(ds.n_features, ds.n_responses, (), seed=0)
        with pytest.raises(ValueError, match="not in"):
            permutation_importance(params, ds, np.arange(ds.n_samples), "x0", [0],
                                   "classification", n_repeats=3, baseline_loss=1.0)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_non_finite_first_layer_still_raises(self, trained, task):
        ds, split, params = trained
        broken = params.copy()
        broken.backbone[0].b[0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            permutation_importance(broken, ds, split.test_rows, "g", [0], task,
                                   n_repeats=2, baseline_loss=1.0)


@pytest.mark.parametrize("mode", ["grouped", "per-column"])
def test_one_forward_per_repeat_and_one_baseline_per_task(trained, monkeypatch, mode):
    ds, split, params = trained
    calls = []

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(masktab.vimp, "forward", counting_forward)
    report = importance_report(params, ds, split.test_rows, mode=mode, n_repeats=3, seed=0)
    assert len(calls) == 2 * (len(report.groups) * 3 + 1)
