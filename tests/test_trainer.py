import dataclasses
import math

import numpy as np
import pytest

from gradcheck import flatten
from masktab import jsonio, nn_core, trainer
from masktab.masked_loss import MaskedBatch, masked_bce, masked_mse
from masktab.preprocess import preprocess_raw
from masktab.synthgen import SynthConfig, generate
from masktab.trainer import (
    AEConfig,
    TrainConfig,
    finetune,
    predict,
    pretrain_autoencoder,
    pretrain_encoder,
    train_baseline,
    train_model,
)


@pytest.fixture(scope="module")
def planted():
    """Small planted-signal dataset shared by the training tests."""
    cfg = SynthConfig(n_samples=100, n_sites=30, n_responses=4, weather_lag_days=8, seed=21)
    raw = generate(cfg)
    ds, split, _ = preprocess_raw(raw, seed=2)
    return ds, split


def quick_cfg(**kw):
    base = dict(hidden_dims=(32, 16), max_epochs=60, patience=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainBaseline:
    def test_learning_reduces_validation_loss(self, planted):
        ds, split = planted
        params, hist = train_baseline(ds, split, quick_cfg())
        assert hist.best_val_loss < hist.val_combined[0]

    def test_patience_zero_stops_at_first_non_improvement(self, planted):
        ds, split = planted
        _, hist = train_baseline(ds, split, quick_cfg(patience=0, max_epochs=60))
        assert hist.stopped_epoch == hist.best_epoch + 1 or hist.stopped_epoch == 59

    def test_deterministic_history(self, planted):
        ds, split = planted
        _, h1 = train_baseline(ds, split, quick_cfg(max_epochs=12, patience=12))
        _, h2 = train_baseline(ds, split, quick_cfg(max_epochs=12, patience=12))
        assert h1.val_combined == h2.val_combined
        assert h1.train_combined == h2.train_combined
        assert h1.best_epoch == h2.best_epoch

    def test_best_epoch_is_minimum(self, planted):
        ds, split = planted
        _, hist = train_baseline(ds, split, quick_cfg())
        assert hist.best_val_loss == min(hist.val_combined)
        assert hist.best_epoch <= hist.stopped_epoch

    def test_restored_params_reproduce_best_loss(self, planted):
        ds, split = planted
        cfg = quick_cfg()
        params, hist = train_baseline(ds, split, cfg)
        rows = split.val_rows
        cont_hat, bin_prob = predict(params, ds.X[rows])
        mse, _ = masked_mse(MaskedBatch(y=ds.Y_cont[rows], y_hat=cont_hat, m=ds.M[rows]))
        bce, _ = masked_bce(MaskedBatch(y=ds.Y_bin[rows], y_hat=bin_prob, m=ds.M[rows]))
        assert mse + bce == pytest.approx(hist.best_val_loss, abs=1e-9)

    def test_empty_validation_rejected(self, planted):
        ds, split = planted
        from masktab.data_model import SplitAssignment

        bad = SplitAssignment(train_rows=split.train_rows, test_rows=split.test_rows,
                              val_rows=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty validation"):
            train_baseline(ds, bad, quick_cfg())

    def test_history_serialises(self, planted, tmp_path):
        ds, split = planted
        _, hist = train_baseline(ds, split, quick_cfg(max_epochs=5, patience=5))
        hist.save(tmp_path / "history.json")
        import json

        doc = json.loads((tmp_path / "history.json").read_text())
        assert len(doc["val_combined"]) == hist.stopped_epoch + 1

    def test_shuffle_changes_batches_but_stays_deterministic(self, planted):
        ds, split = planted
        _, h_fixed = train_baseline(ds, split, quick_cfg(max_epochs=6, patience=6))
        _, h_shuf1 = train_baseline(ds, split, quick_cfg(max_epochs=6, patience=6, shuffle=True))
        _, h_shuf2 = train_baseline(ds, split, quick_cfg(max_epochs=6, patience=6, shuffle=True))
        assert h_shuf1.val_combined == h_shuf2.val_combined
        assert h_shuf1.val_combined != h_fixed.val_combined

    def test_diverging_lr_raises_with_diagnostic(self, planted):
        ds, split = planted
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_baseline(ds, split, quick_cfg(lr=1e300, max_epochs=10, patience=10))


class TestPredict:
    def test_output_ranges(self, planted):
        ds, split = planted
        params, _ = train_baseline(ds, split, quick_cfg(max_epochs=10, patience=10))
        cont, prob = predict(params, ds.X[split.test_rows])
        assert np.all(cont >= 0.0)
        assert np.all((prob > 0.0) & (prob < 1.0))

    def test_deterministic(self, planted):
        ds, split = planted
        params, _ = train_baseline(ds, split, quick_cfg(max_epochs=5, patience=5))
        a = predict(params, ds.X[:10])
        b = predict(params, ds.X[:10])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestAutoencoder:
    def test_reconstruction_improves_over_initial(self, planted):
        ds, split = planted
        cfg = AEConfig(encoder_dims=(32, 16), max_epochs=40, patience=8)
        X = ds.X[split.train_rows]
        blocks = ds.blocks[split.train_rows]
        encoder, hist = pretrain_autoencoder(X, cfg, seed=1, blocks=blocks)
        assert hist.val_combined[hist.best_epoch] < hist.val_combined[0]

    def test_encoder_output_dimension(self, planted):
        ds, split = planted
        cfg = AEConfig(encoder_dims=(40, 24, 12), max_epochs=3, patience=3)
        encoder, _ = pretrain_autoencoder(ds.X, cfg, seed=0, blocks=ds.blocks)
        assert encoder[-1].spec.out_dim == 12
        assert encoder[0].spec.in_dim == ds.n_features
        # encoder alone maps any batch to the latent width
        from masktab.nn_core import NetworkParams, forward

        net = NetworkParams(backbone=[], heads={"z": encoder})
        out, _ = forward(net, ds.X[:7])
        assert out["z"].shape == (7, 12)

    def test_non_finite_validation_loss_raises(self, planted, monkeypatch):
        # a diverged holdout loss must stop training, not count as "no improvement"
        ds, _ = planted
        forward = nn_core.forward

        def nan_infer(params, X, mode="infer", rng=None):
            out, cache = forward(params, X, mode=mode, rng=rng)
            if mode == "infer":
                out = {h: np.full_like(v, np.nan) for h, v in out.items()}
            return out, cache

        monkeypatch.setattr(nn_core, "forward", nan_infer)
        cfg = AEConfig(encoder_dims=(24, 8), max_epochs=3, patience=3)
        with pytest.raises(FloatingPointError, match="non-finite validation loss at epoch 0"):
            pretrain_autoencoder(ds.X, cfg, seed=0, blocks=ds.blocks)

    def test_deterministic_under_seed(self, planted):
        ds, _ = planted
        cfg = AEConfig(encoder_dims=(24, 8), max_epochs=6, patience=6)
        e1, h1 = pretrain_autoencoder(ds.X, cfg, seed=9, blocks=ds.blocks)
        e2, h2 = pretrain_autoencoder(ds.X, cfg, seed=9, blocks=ds.blocks)
        assert h1.val_combined == h2.val_combined
        for a, b in zip(e1, e2):
            assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


# what a masked response cell may hold besides NaN
MASKED_JUNK = (math.inf, -math.inf, 1e308, -1e308, -0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fill", MASKED_JUNK)
def test_masked_cells_leave_training_bit_identical(planted, fill):
    ds, split = planted
    masked = ds.M == 0.0
    assert masked.any()
    cfg = quick_cfg(max_epochs=5, patience=5)
    want_params, want_hist = train_baseline(ds, split, cfg)
    filled = dataclasses.replace(ds, Y_cont=np.where(masked, fill, ds.Y_cont),
                                 Y_bin=np.where(masked, fill, ds.Y_bin))
    params, hist = train_baseline(filled, split, cfg)
    assert params.flat.tobytes() == want_params.flat.tobytes()
    assert jsonio.dumps(hist.to_dict()) == jsonio.dumps(want_hist.to_dict())


class TestFinetune:
    def make_encoder(self, ds, seed=0):
        cfg = AEConfig(encoder_dims=(24, 12), max_epochs=8, patience=8)
        encoder, _ = pretrain_autoencoder(ds.X, cfg, seed=seed, blocks=ds.blocks)
        return encoder

    def test_frozen_keeps_encoder_bits(self, planted):
        ds, split = planted
        encoder = self.make_encoder(ds)
        before = [(l.W.copy(), l.b.copy()) for l in encoder]
        cfg = quick_cfg(max_epochs=8, patience=8)
        params, _ = finetune(encoder, ds, split, cfg, frozen=True)
        for (w0, b0), layer in zip(before, params.backbone):
            assert np.array_equal(w0, layer.W)
            assert np.array_equal(b0, layer.b)

    def test_frozen_matches_full_update_with_zeroed_backbone_grads(self, planted, monkeypatch):
        # frozen fine-tuning fits heads only, on the encoder's outputs; the
        # oracle trains the whole network with every backbone gradient zeroed,
        # which Adam turns into no change of the encoder's weights or moments
        ds, split = planted
        encoder = self.make_encoder(ds)
        full_backward = nn_core.backward
        calls = []

        def zeroed_backward(p, cache, upstream, out=None):
            calls.append(len(p.backbone))
            grads = full_backward(p, cache, upstream, out=out)
            grads.flat[: sum(l.W.size + l.b.size for l in grads.backbone)] = 0.0
            return grads

        histories = []
        for shuffle in (False, True):
            cfg = quick_cfg(max_epochs=8, patience=8, shuffle=shuffle)
            params, hist = finetune(encoder, ds, split, cfg, frozen=True)
            rng = np.random.default_rng(np.random.PCG64(cfg.seed))
            heads = trainer._task_heads(encoder[-1].spec.out_dim, ds.n_responses)
            fresh = nn_core.init_network([], heads, rng)
            with monkeypatch.context() as m:
                m.setattr(nn_core, "backward", zeroed_backward)
                want, want_hist = trainer._train_supervised(
                    nn_core.NetworkParams(encoder, fresh.heads), ds, split, cfg, rng)
            assert calls and set(calls) == {len(encoder)}
            assert params.flat.tobytes() == want.flat.tobytes()
            assert jsonio.dumps(hist.to_dict()) == jsonio.dumps(want_hist.to_dict())
            histories.append(hist.to_dict())
        assert histories[0] != histories[1]  # shuffling changed the fit

    def test_empty_encoder_rejected(self, planted):
        ds, split = planted
        for frozen in (False, True):
            with pytest.raises(ValueError, match="at least one layer"):
                finetune((), ds, split, quick_cfg(), frozen=frozen)

    def test_unfrozen_updates_encoder(self, planted):
        ds, split = planted
        encoder = self.make_encoder(ds)
        before = flatten_encoder(encoder)
        cfg = quick_cfg(max_epochs=3, patience=3)
        params, _ = finetune(encoder, ds, split, cfg)
        assert not np.array_equal(before, flatten_encoder(params.backbone))

    def test_finetune_does_not_mutate_input_encoder(self, planted):
        ds, split = planted
        encoder = self.make_encoder(ds)
        before = flatten_encoder(encoder)
        cfg = quick_cfg(max_epochs=3, patience=3)
        finetune(encoder, ds, split, cfg)
        assert np.array_equal(before, flatten_encoder(encoder))

    def test_dimension_mismatch_rejected(self, planted):
        ds, split = planted
        encoder = self.make_encoder(ds)
        from masktab.data_model import TabularDataset

        smaller = TabularDataset(
            X=ds.X[:, :5], Y_cont=ds.Y_cont, Y_bin=ds.Y_bin, M=ds.M,
            blocks=ds.blocks, schema=ds.schema, response_names=ds.response_names,
        )
        with pytest.raises(ValueError, match="encoder expects"):
            finetune(encoder, smaller, split, quick_cfg())


def flatten_encoder(layers):
    return np.concatenate([np.concatenate([l.W.ravel(), l.b.ravel()]) for l in layers])


class TestTrainModel:
    def test_unknown_kind_rejected(self, planted):
        ds, split = planted
        with pytest.raises(ValueError, match="unknown model kind"):
            train_model(ds, split, quick_cfg(), "gradient-boost")

    def test_pretrained_kinds_run(self, planted):
        ds, split = planted
        cfg = quick_cfg(max_epochs=5, patience=5)
        cfg.ae.encoder_dims = (24, 12)
        cfg.ae.max_epochs = 5
        for kind in ("pretrained-frozen", "pretrained-unfrozen"):
            params, hist = train_model(ds, split, cfg, kind)
            assert params.backbone[0].spec.in_dim == ds.n_features
            assert len(hist.val_combined) == hist.stopped_epoch + 1

    def test_given_encoder_is_fine_tuned_instead_of_pretraining(self, planted, monkeypatch):
        ds, split = planted
        cfg = quick_cfg(max_epochs=5, patience=5, seed=3)
        cfg.ae.encoder_dims = (24, 12)
        cfg.ae.max_epochs = 5
        encoder, history = pretrain_encoder(ds, split, cfg)
        rows = split.train_rows
        direct, direct_history = pretrain_autoencoder(ds.X[rows], cfg.ae, seed=3,
                                                      blocks=ds.blocks[rows])
        assert np.array_equal(flatten_encoder(encoder), flatten_encoder(direct))
        assert history.to_dict() == direct_history.to_dict()
        before = flatten_encoder(encoder)
        own = {kind: train_model(ds, split, cfg, kind) for kind in
               ("pretrained-frozen", "pretrained-unfrozen")}
        import masktab.trainer

        monkeypatch.setattr(masktab.trainer, "pretrain_autoencoder", None)  # must not run
        for kind, (params, hist) in own.items():
            shared, shared_hist = train_model(ds, split, cfg, kind, encoder=encoder)
            assert np.array_equal(shared.flat, params.flat)
            assert shared_hist.to_dict() == hist.to_dict()
        assert np.array_equal(flatten_encoder(encoder), before)
