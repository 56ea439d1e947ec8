"""Acceptance gate: every release criterion, one pass/fail line each.

Run with plain ``pytest tests/test_acceptance.py``; the criterion lines print
uncaptured so the verdicts are visible live. The learning-based criteria
(5-8) train real models over 10 seeds and take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest

from gradcheck import central_diff_wrt_params, flatten, max_rel_err, relu_margin
from masktab.cli import run_pipeline
from masktab.data_model import SplitAssignment, TabularDataset
from masktab.masked_loss import EPSILON, MaskedBatch, combined_loss, masked_bce, masked_mse
from masktab.metrics import auc_rank, evaluate_predictions
from masktab.nn_core import LayerSpec, backward, forward, init_network
from masktab.preprocess import (
    encode_day_of_year,
    preprocess_raw,
    relative_humidity,
)
from masktab.synthgen import SynthConfig, generate, importance_group_of, oracle_importance
from masktab.trainer import (
    TrainConfig,
    finetune,
    predict,
    pretrain_autoencoder,
    train_baseline,
)
from masktab.vimp import importance_report

N_SEEDS = 10


@pytest.fixture
def check(capsys):
    def _check(num: int, desc: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[criterion {num:02d}] {status}: {desc}{suffix}")
        assert ok, f"criterion {num} failed: {desc}{suffix}"

    return _check


def combined_test_loss(params, ds, rows, weights=(1.0, 1.0)) -> float:
    cont_hat, bin_prob = predict(params, ds.X[rows])
    total, _, _ = combined_loss(
        MaskedBatch(y=ds.Y_cont[rows], y_hat=cont_hat, m=ds.M[rows]),
        MaskedBatch(y=ds.Y_bin[rows], y_hat=bin_prob, m=ds.M[rows]),
        weights=weights,
    )
    return total


# ---------------------------------------------------------------------------
# Criterion 1: gradient oracle
# ---------------------------------------------------------------------------

def _random_masked_batches(rng, mask_fraction, b=3, k=2):
    m = (rng.random((b, k)) >= mask_fraction).astype(float)
    if mask_fraction == 1.0:
        m[:] = 0.0
    yc = rng.standard_normal((b, k))
    yb = (rng.random((b, k)) > 0.5).astype(float)
    return yc, yb, m


def test_c01_gradient_oracle(check):
    start = time.time()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        regime = (0.0, 0.5, 1.0)[seed % 3]
        rng = np.random.default_rng(seed)
        yc, yb, m = _random_masked_batches(rng, regime)

        # loss gradients with respect to predictions
        pc = rng.standard_normal(yc.shape)
        pb = rng.uniform(0.05, 0.95, size=yb.shape)
        for loss_fn, y, p in ((masked_mse, yc, pc), (masked_bce, yb, pb)):
            _, grad = loss_fn(MaskedBatch(y=y, y_hat=p, m=m))
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                plus, minus = p.copy(), p.copy()
                plus[idx] += h
                minus[idx] -= h
                fd[idx] = (
                    loss_fn(MaskedBatch(y=y, y_hat=plus, m=m))[0]
                    - loss_fn(MaskedBatch(y=y, y_hat=minus, m=m))[0]
                ) / (2 * h)
            worst = max(worst, max_rel_err(fd, grad, floor=1e-4))

        # full two-head network parameter gradients under the combined loss
        for attempt in range(60):
            net_rng = np.random.default_rng((seed, attempt, 7))
            params = init_network(
                [LayerSpec(3, 4, activation="relu")],
                {
                    "cont": [LayerSpec(4, 2, activation="relu")],
                    "bin": [LayerSpec(4, 2, activation="sigmoid")],
                },
                net_rng,
            )
            x = net_rng.standard_normal((3, 3))
            if relu_margin(params, x) > 1e-3:
                break
        else:
            raise AssertionError("no kink-free network instance found")
        assert flatten(params).size <= 50

        def net_loss(p):
            out, _ = forward(p, x)
            total, _, _ = combined_loss(
                MaskedBatch(y=yc, y_hat=out["cont"], m=m),
                MaskedBatch(y=yb, y_hat=out["bin"], m=m),
            )
            return total

        out, cache = forward(params, x, mode="train")
        _, g_cont, g_bin = combined_loss(
            MaskedBatch(y=yc, y_hat=out["cont"], m=m),
            MaskedBatch(y=yb, y_hat=out["bin"], m=m),
        )
        grads = backward(params, cache, {"cont": g_cont, "bin": g_bin})
        fd = central_diff_wrt_params(net_loss, params, h=h)
        worst = max(worst, max_rel_err(fd, flatten(grads), floor=1e-4))

    elapsed = time.time() - start
    check(
        1,
        "masked losses and two-head network match central differences (20 seeds, "
        "0/50/100% masking)",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: loss equivalence and mask invariance
# ---------------------------------------------------------------------------

def test_c02_loss_equivalence(check):
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(20):
        b, k = int(rng.integers(1, 8)), int(rng.integers(1, 30))
        y = rng.standard_normal((b, k))
        p = rng.standard_normal((b, k))
        full = np.ones((b, k))
        loss, _ = masked_mse(MaskedBatch(y=y, y_hat=p, m=full))
        plain = float(np.mean((y - p) ** 2))
        ok &= abs(loss - plain * k / (k + EPSILON)) <= 1e-9 * max(plain, 1e-12)

        yb = (rng.random((b, k)) > 0.5).astype(float)
        pb = rng.uniform(0.01, 0.99, size=(b, k))
        loss_b, _ = masked_bce(MaskedBatch(y=yb, y_hat=pb, m=full))
        plain_b = float(-np.mean(yb * np.log(pb) + (1 - yb) * np.log(1 - pb)))
        ok &= abs(loss_b - plain_b * k / (k + EPSILON)) <= 1e-9 * plain_b

        # perturbing masked-out targets changes nothing, bit for bit
        m = (rng.random((b, k)) > 0.5).astype(float)
        base_mse = masked_mse(MaskedBatch(y=y, y_hat=p, m=m))
        base_bce = masked_bce(MaskedBatch(y=yb, y_hat=pb, m=m))
        y2, yb2 = y.copy(), yb.copy()
        y2[m == 0] = 1e6
        yb2[m == 0] = np.nan
        pert_mse = masked_mse(MaskedBatch(y=y2, y_hat=p, m=m))
        pert_bce = masked_bce(MaskedBatch(y=yb2, y_hat=pb, m=m))
        ok &= pert_mse[0] == base_mse[0] and np.array_equal(pert_mse[1], base_mse[1])
        ok &= pert_bce[0] == base_bce[0] and np.array_equal(pert_bce[1], base_bce[1])
    check(2, "masked losses equal plain formulas on full masks; masked-out targets inert", ok)


# ---------------------------------------------------------------------------
# Criterion 3: hand-value checks
# ---------------------------------------------------------------------------

def test_c03_hand_values(check):
    loss_mse, _ = masked_mse(
        MaskedBatch(y=[[1.0, 2.0, 3.0]], y_hat=[[1.0, 2.0, 5.0]], m=[[1, 0, 1]])
    )
    ok_mse = abs(loss_mse - 2.0) < 1e-6
    loss_bce, _ = masked_bce(MaskedBatch(y=[[1.0]], y_hat=[[0.5]], m=[[1.0]]))
    ok_bce = abs(loss_bce - math.log(2.0)) < 1e-6
    ok_rh = abs(relative_humidity(20.0, 10.0) - 52.54) <= 0.01
    ok_circle = all(
        abs(sum(v * v for v in encode_day_of_year(d)) - 1.0) < 1e-12 for d in range(1, 367)
    )
    check(
        3,
        "hand values: masked MSE example 2.0, masked BCE example ln 2, RH(20,10)=52.54, "
        "day encoding on unit circle",
        ok_mse and ok_bce and ok_rh and ok_circle,
    )


# ---------------------------------------------------------------------------
# Criterion 4: AUC oracle
# ---------------------------------------------------------------------------

def brute_force_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_c04_auc_oracle(check):
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 7, size=n) / 6.0  # ties guaranteed at this grid
        ok &= auc_rank(labels, scores) == brute_force_auc(labels, scores)
    check(4, "rank-statistic AUC equals brute-force pair counting on 200 instances", ok)


# ---------------------------------------------------------------------------
# Criteria 5 and 8 share the 10-seed default-config training runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_runs():
    runs = []
    start = time.time()
    for seed in range(N_SEEDS):
        cfg = SynthConfig(seed=seed)  # 300 samples, 24 responses, survey missingness
        raw = generate(cfg)
        ds, split, _ = preprocess_raw(raw, seed=seed)
        params, _ = train_baseline(ds, split, TrainConfig(seed=seed))
        runs.append((cfg, ds, split, params))
    return runs, time.time() - start


def test_c05_learning_check(check, default_runs):
    runs, train_elapsed = default_runs
    start = time.time()
    r2s, aucs = [], []
    for _, ds, split, params in runs:
        rows = split.test_rows
        cont_hat, bin_prob = predict(params, ds.X[rows])
        report = evaluate_predictions(
            ds.Y_cont[rows], ds.Y_bin[rows], ds.M[rows], cont_hat, bin_prob,
            ds.response_names,
        )
        avg = report.averages()
        r2s.append(avg["r2"])
        aucs.append(avg["auc"])
    elapsed = train_elapsed + (time.time() - start)
    med_r2 = float(np.median(r2s))
    med_auc = float(np.median(aucs))
    check(
        5,
        "baseline on default planted-signal data: median avg R2 >= 0.5 and AUC >= 0.85",
        med_r2 >= 0.5 and med_auc >= 0.85 and elapsed < 300.0,
        f"R2 {med_r2:.3f}, AUC {med_auc:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: masking utility
# ---------------------------------------------------------------------------

def _mask_train_responses(ds: TabularDataset, split, complete_fraction=0.3, seed=0):
    """Mask train-row responses so ~50% of cells vanish but complete rows remain."""
    masked = TabularDataset(
        X=ds.X.copy(), Y_cont=ds.Y_cont.copy(), Y_bin=ds.Y_bin.copy(), M=ds.M.copy(),
        blocks=ds.blocks, schema=ds.schema, response_names=ds.response_names,
    )
    rng = np.random.default_rng(seed)
    k = ds.n_responses
    k_mask = int(round(0.5 * k / (1.0 - complete_fraction)))
    train_blocks = sorted(set(ds.blocks[split.train_rows]))
    order = rng.permutation(np.array(train_blocks, dtype=object))
    n_complete = max(1, int(round(complete_fraction * len(train_blocks))))
    complete = set(order[:n_complete].tolist())
    for lab in order[n_complete:]:
        rows = np.flatnonzero(ds.blocks == lab)
        gone = rng.choice(k, size=k_mask, replace=False)
        for r in rows:
            masked.M[r, gone] = 0.0
            masked.Y_cont[r, gone] = np.nan
            masked.Y_bin[r, gone] = np.nan
    return masked, complete


def _complete_case_split(ds, split, complete_blocks):
    in_complete = np.isin(ds.blocks, sorted(complete_blocks))
    train = np.array([r for r in split.train_rows if in_complete[r]], dtype=np.int64)
    val = np.array([r for r in split.val_rows if in_complete[r]], dtype=np.int64)
    if val.size == 0:
        # promote the smallest complete block to validation
        labels = sorted(set(ds.blocks[train]))
        sizes = {lab: int((ds.blocks[train] == lab).sum()) for lab in labels}
        chosen = min(labels, key=lambda l: (sizes[l], l))
        val = train[ds.blocks[train] == chosen]
    return SplitAssignment(train_rows=train, test_rows=split.test_rows, val_rows=val)


def test_c06_masking_utility(check):
    diffs = []
    masked_fracs = []
    for seed in range(N_SEEDS):
        cfg = SynthConfig(
            n_samples=160, n_sites=50, n_responses=8, weather_lag_days=30,
            missingness_profile=(0.0,) * 8, seed=seed,
        )
        raw = generate(cfg)
        ds, split, _ = preprocess_raw(raw, seed=seed)
        masked_ds, complete = _mask_train_responses(ds, split, seed=seed)
        tr = split.train_rows
        masked_fracs.append(1.0 - masked_ds.M[tr].mean())

        cfg_t = TrainConfig(hidden_dims=(64, 32), seed=seed)
        params_masked, _ = train_baseline(masked_ds, split, cfg_t)
        cc_split = _complete_case_split(ds, split, complete)
        params_cc, _ = train_baseline(masked_ds, cc_split, cfg_t)

        rows = split.test_rows
        diffs.append(
            combined_test_loss(params_cc, ds, rows) - combined_test_loss(params_masked, ds, rows)
        )
    med = float(np.median(diffs))
    frac = float(np.mean(masked_fracs))
    check(
        6,
        "masked-loss training on ~50%-masked data beats complete-case-only training",
        med > 0.0 and abs(frac - 0.5) < 0.1,
        f"median test-loss gain {med:.3f}, masked fraction {frac:.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: transfer-mode ordering
# ---------------------------------------------------------------------------

def test_c07_transfer_mode_ordering(check):
    gaps = []
    for seed in range(N_SEEDS):
        cfg = SynthConfig(
            n_samples=160, n_sites=50, n_responses=8, weather_lag_days=30, seed=seed
        )
        raw = generate(cfg)
        ds, split, _ = preprocess_raw(raw, seed=seed)
        tc = TrainConfig(seed=seed)
        rows = split.train_rows
        encoder, _ = pretrain_autoencoder(
            ds.X[rows], tc.ae, seed=seed, blocks=ds.blocks[rows]
        )
        frozen, _ = finetune(encoder, ds, split, tc, frozen=True)
        unfrozen, _ = finetune(encoder, ds, split, tc, frozen=False)
        gaps.append(
            combined_test_loss(frozen, ds, split.test_rows)
            - combined_test_loss(unfrozen, ds, split.test_rows)
        )
    med = float(np.median(gaps))
    check(
        7,
        "unfrozen fine-tuning achieves test loss <= frozen fine-tuning",
        med >= 0.0,
        f"median frozen-minus-unfrozen gap {med:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: importance recovery
# ---------------------------------------------------------------------------

def test_c08_importance_recovery(check, default_runs):
    runs, _ = default_runs
    planted_groups = [
        importance_group_of(v) for v in oracle_importance(runs[0][0])[0]
    ]
    strongest = planted_groups[0]
    margins = {("regression", g): [] for g in planted_groups}
    margins.update({("classification", g): [] for g in planted_groups})
    top_ranks = []
    for seed, (cfg, ds, split, params) in enumerate(runs):
        report = importance_report(
            params, ds, split.test_rows, mode="grouped", n_repeats=30, seed=seed
        )
        for task in ("regression", "classification"):
            imp = {e.group: e.importance_pct for e in report.task_entries(task)}
            noise = [v for g, v in imp.items() if g not in planted_groups]
            noise_median = float(np.median(noise))
            for g in planted_groups:
                margins[(task, g)].append(imp[g] - noise_median)
            if task == "regression":
                ranking = sorted(imp, key=lambda g: -imp[g])
                top_ranks.append(ranking.index(strongest) + 1)
    ok_margins = all(float(np.median(v)) > 0.0 for v in margins.values())
    ok_rank = float(np.median(top_ranks)) == 1.0
    worst = min(float(np.median(v)) for v in margins.values())
    check(
        8,
        "grouped importance puts every planted variable above the noise median; "
        "strongest planted variable ranks first in regression",
        ok_margins and ok_rank,
        f"worst median margin {worst:.2f}%, median top rank {np.median(top_ranks):.0f}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: split integrity
# ---------------------------------------------------------------------------

def test_c09_split_integrity(check, survey0_splits):
    # split_blocks on the default survey, test fraction 0.20, seeds 0-999
    blocks, splits = survey0_splits
    n = len(blocks)
    max_block = max(int((blocks == lab).sum()) for lab in set(blocks))
    leaks = 0
    worst_frac = 0.0
    for split in splits:
        if split.violations(blocks):
            leaks += 1
        worst_frac = max(worst_frac, abs(len(split.test_rows) / n - 0.20))
    check(
        9,
        "1000 block-split draws: zero leakage, test fraction within one block of 20%",
        leaks == 0 and worst_frac <= max_block / n + 1e-12,
        f"worst |fraction-0.2| {worst_frac:.4f} vs one-block bound {max_block / n:.4f}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: pipeline determinism
# ---------------------------------------------------------------------------

def test_c10_pipeline_determinism(check, tmp_path):
    config = {
        "seed": 7,
        "synth": {"n_samples": 70, "n_sites": 20, "n_responses": 4, "weather_lag_days": 6},
        "train": {
            "hidden_dims": [24, 12], "max_epochs": 15, "patience": 15,
            "ae": {"encoder_dims": [24, 12], "max_epochs": 6, "patience": 6},
        },
        "models": ["baseline", "pretrained-unfrozen"],
        "importance": {"mode": "grouped", "repeats": 3},
    }
    a = run_pipeline(config, tmp_path / "a")
    b = run_pipeline(config, tmp_path / "b")
    same = True
    for name in ("manifest.json", "report.json", "report.csv", "report_summary.txt",
                 "winners.json", "importance.json"):
        same &= (a / name).read_bytes() == (b / name).read_bytes()
    check(10, "pipeline run twice with one seed: byte-identical manifests and reports", same)
