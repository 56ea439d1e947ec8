"""Autoencoder pre-training, then frozen vs unfrozen fine-tuning.

A symmetric autoencoder compresses the predictors into a 128-dim latent
space; its encoder then seeds the supervised model. Freezing the encoder
treats it as a fixed feature extractor; unfreezing adapts it end-to-end.
The comparison below is paired: both fine-tunes start from the same encoder
and identical head initialisations.
"""

from masktab import (
    MaskedBatch,
    SynthConfig,
    TrainConfig,
    combined_loss,
    finetune,
    generate,
    predict,
    preprocess_raw,
    pretrain_autoencoder,
)

cfg = SynthConfig(n_samples=180, n_sites=55, n_responses=8, weather_lag_days=25, seed=3)
raw = generate(cfg)
ds, split, _ = preprocess_raw(raw, seed=3)
train_cfg = TrainConfig(seed=3)

rows = split.train_rows  # reconstruction never sees test rows
encoder, ae_history = pretrain_autoencoder(
    ds.X[rows], train_cfg.ae, seed=3, blocks=ds.blocks[rows]
)
print(f"autoencoder: {ds.n_features} -> "
      + " -> ".join(str(l.spec.out_dim) for l in encoder)
      + f"; reconstruction loss {ae_history.val_combined[0]:.3f} -> "
      f"{ae_history.val_combined[ae_history.best_epoch]:.3f} "
      f"over {ae_history.stopped_epoch + 1} epochs")


def test_loss(params):
    te = split.test_rows
    cont_hat, bin_prob = predict(params, ds.X[te])
    total, _, _ = combined_loss(
        MaskedBatch(y=ds.Y_cont[te], y_hat=cont_hat, m=ds.M[te]),
        MaskedBatch(y=ds.Y_bin[te], y_hat=bin_prob, m=ds.M[te]),
    )
    return total


for mode in ("frozen", "unfrozen"):
    params, history = finetune(encoder, ds, split, train_cfg, frozen=(mode == "frozen"))
    changed = any(
        not (a.W == b.W).all() for a, b in zip(encoder, params.backbone)
    )
    print(f"{mode:9}: stopped epoch {history.stopped_epoch}, "
          f"test loss {test_loss(params):.4f}, encoder weights changed: {changed}")

print("\nunfreezing lets the representation adapt to the prediction task, "
      "which typically wins on planted-signal data")
