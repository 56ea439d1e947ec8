"""Training protocols: baseline multi-head network, autoencoder pre-training,
and frozen/unfrozen fine-tuning, all with early stopping and best-weight
restoration.

Training is deterministic under the config seed: fixed initialisation order,
fixed batch composition (shuffling is off by default to preserve the block
structure of the data), and a single generator driving dropout.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import jsonio, nn_core
from .data_model import SplitAssignment, TabularDataset
from .jsonio import SettingError, setting
from .masked_loss import MaskedBatch, masked_bce, masked_mse
from .nn_core import AdamState, DenseLayer, LayerSpec, NetworkParams
from .preprocess import split_blocks

MODEL_KINDS = ("baseline", "pretrained-frozen", "pretrained-unfrozen")


@dataclass
class AEConfig(jsonio.Document):
    """Autoencoder pre-training hyperparameters."""

    VERSION = None

    encoder_dims: tuple[int, ...] = setting("[1, inf)", (512, 256, 128))
    dropout: float = setting("[0, 1)", 0.2)
    lr: float = setting("(0, inf)", 1e-3)
    max_epochs: int = setting("[1, inf)", 100)
    batch_size: int = setting("[1, inf)", 32)
    patience: int = setting("[0, inf)", 10)
    holdout_fraction: float = setting("(0, 1)", 0.2)
    include_test_rows: bool = False  # reconstruction may legitimately see test X

    def check(self):
        if not self.encoder_dims:
            raise SettingError("encoder_dims", "must name at least one layer")


@dataclass
class TrainConfig(jsonio.Document):
    """Supervised training hyperparameters; defaults follow the reference protocol."""

    hidden_dims: tuple[int, ...] = setting("[1, inf)", (128, 64))
    dropout: float = setting("[0, 1)", 0.2)
    lr: float = setting("(0, inf)", 1e-3)
    max_epochs: int = setting("[1, inf)", 500)
    batch_size: int = setting("[1, inf)", 32)
    patience: int = setting("[0, inf)", 25)
    shuffle: bool = False
    loss_weights: tuple[float, float] = setting("[0, inf)", (1.0, 1.0))
    seed: int = setting("[0, inf)", 0)  # seeds PCG64, which takes no negative seed
    ae: AEConfig = field(default_factory=AEConfig)

    def check(self):
        if self.patience > self.max_epochs:
            raise SettingError("patience", f"must not exceed max_epochs, got {self.patience}")
        if not any(self.loss_weights):
            raise SettingError("loss_weights", f"must not all be 0, got {self.loss_weights}")


@dataclass
class TrainHistory(jsonio.Document):
    """Per-epoch losses plus where training stopped and which epoch won."""

    train_mse: list[float] = field(default_factory=list)
    train_bce: list[float] = field(default_factory=list)
    train_combined: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    val_bce: list[float] = field(default_factory=list)
    val_combined: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1

    @property
    def best_val_loss(self) -> float:
        return self.val_combined[self.best_epoch]


def _fit(
    params: NetworkParams,
    cfg: TrainConfig | AEConfig,
    n_fit: int,
    batch_loss,
    val_loss,
    shuffle_rng: np.random.Generator | None = None,
    backbone: bool = True,
) -> tuple[NetworkParams, TrainHistory]:
    """The epoch loop of every protocol: Adam over mini-batches of the fit
    rows, early stopping on validation loss, and the best weights restored.

    ``batch_loss(rows)`` runs one train-mode forward pass and returns (loss,
    parts, cache, upstream): parts are the batch's shares of the epoch's
    ``train_<part>`` means, upstream the loss gradient per head output.
    ``val_loss()`` returns the ``val_<part>`` values; ``"combined"`` decides
    early stopping. A non-finite loss raises FloatingPointError. Batch order
    is fixed unless ``shuffle_rng`` is given; ``backbone=False`` leaves the
    backbone's weights and Adam moments untouched.
    """
    state = AdamState.for_params(params, learning_rate=cfg.lr)
    grads = params.zeros_like()  # every step's gradient is written into this one buffer
    history = TrainHistory()
    best_params = params.copy()
    best_val = np.inf
    wait = 0
    base_order = np.arange(n_fit)

    for epoch in range(cfg.max_epochs):
        order = base_order if shuffle_rng is None else shuffle_rng.permutation(n_fit)
        sums: dict[str, float] = {}
        for start in range(0, n_fit, cfg.batch_size):
            loss, parts, cache, upstream = batch_loss(order[start : start + cfg.batch_size])
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}: {loss!r}"
                )
            nn_core.backward(params, cache, upstream, backbone=backbone, out=grads)
            nn_core.adam_step(params, grads, state, backbone=backbone)
            for name, value in parts.items():
                sums[name] = sums.get(name, 0.0) + value

        val = val_loss()
        if not np.isfinite(val["combined"]):
            raise FloatingPointError(f"non-finite validation loss at epoch {epoch}")
        for name, value in sums.items():
            getattr(history, f"train_{name}").append(value)
        for name, value in val.items():
            getattr(history, f"val_{name}").append(value)
        history.stopped_epoch = epoch

        if val["combined"] < best_val:
            best_val = val["combined"]
            history.best_epoch = epoch
            np.copyto(best_params.flat, params.flat)
            wait = 0
        else:
            wait += 1
            if wait >= max(cfg.patience, 1):
                break

    return best_params, history


def _train_supervised(
    params: NetworkParams,
    ds: TabularDataset,
    split: SplitAssignment,
    cfg: TrainConfig,
    rng: np.random.Generator,
    freeze_backbone: bool = False,
) -> tuple[NetworkParams, TrainHistory]:
    fit_rows = split.fit_rows
    val_rows = split.val_rows
    if val_rows.size == 0:
        raise ValueError("empty validation set")
    if fit_rows.size == 0:
        raise ValueError("no training rows left after the validation holdout")

    X_fit, X_val = ds.X[fit_rows], ds.X[val_rows]
    yc_fit, yb_fit, m_fit = ds.Y_cont[fit_rows], ds.Y_bin[fit_rows], ds.M[fit_rows]
    yc_val, yb_val, m_val = ds.Y_cont[val_rows], ds.Y_bin[val_rows], ds.M[val_rows]
    w_mse, w_bce = cfg.loss_weights

    def batch_loss(batch):
        out, cache = nn_core.forward(params, X_fit[batch], mode="train", rng=rng)
        # combined_loss's weighted sum, keeping the parts for the history
        mse, g_cont = masked_mse(MaskedBatch(y=yc_fit[batch], y_hat=out["cont"], m=m_fit[batch]))
        bce, g_bin = masked_bce(MaskedBatch(y=yb_fit[batch], y_hat=out["bin"], m=m_fit[batch]))
        total = w_mse * mse + w_bce * bce
        w = batch.size / fit_rows.size
        parts = {"mse": w * mse, "bce": w * bce, "combined": w * total}
        return total, parts, cache, {"cont": w_mse * g_cont, "bin": w_bce * g_bin}

    def val_loss():
        out, _ = nn_core.forward(params, X_val, mode="infer")
        mse, _ = masked_mse(MaskedBatch(y=yc_val, y_hat=out["cont"], m=m_val))
        bce, _ = masked_bce(MaskedBatch(y=yb_val, y_hat=out["bin"], m=m_val))
        return {"mse": mse, "bce": bce, "combined": w_mse * mse + w_bce * bce}

    # a frozen backbone gets no gradient and no Adam update: with a zero
    # gradient the full update would leave its weights and moments as they are
    return _fit(
        params, cfg, fit_rows.size, batch_loss, val_loss,
        shuffle_rng=rng if cfg.shuffle else None, backbone=not freeze_backbone,
    )


def _task_heads(in_dim: int, n_responses: int) -> dict[str, list[LayerSpec]]:
    """The concentration (ReLU) and presence (sigmoid) heads over one latent."""
    return {
        "cont": [LayerSpec(in_dim=in_dim, out_dim=n_responses, activation="relu")],
        "bin": [LayerSpec(in_dim=in_dim, out_dim=n_responses, activation="sigmoid")],
    }


def _relu_stack(dims: tuple[int, ...], dropout: float) -> list[LayerSpec]:
    """ReLU layers with dropout from ``dims[0]`` inputs through each later width."""
    return [LayerSpec(in_dim=i, out_dim=o, activation="relu", dropout_rate=dropout)
            for i, o in zip(dims, dims[1:])]


def _supervised_network(
    input_dim: int, n_responses: int, cfg: TrainConfig, rng: np.random.Generator
) -> NetworkParams:
    dims = (input_dim, *cfg.hidden_dims)
    return nn_core.init_network(
        _relu_stack(dims, cfg.dropout), _task_heads(dims[-1], n_responses), rng
    )


def train_baseline(
    ds: TabularDataset, split: SplitAssignment, cfg: TrainConfig
) -> tuple[NetworkParams, TrainHistory]:
    """Train the shared-backbone two-head network from scratch."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    params = _supervised_network(ds.n_features, ds.n_responses, cfg, rng)
    return _train_supervised(params, ds, split, cfg, rng)


def pretrain_autoencoder(
    X: np.ndarray,
    cfg: AEConfig,
    seed: int = 0,
    blocks: np.ndarray | None = None,
) -> tuple[tuple[DenseLayer, ...], TrainHistory]:
    """Unsupervised reconstruction pre-training; returns the encoder only.

    The decoder mirrors the encoder (linear output) and is discarded. Early
    stopping watches plain reconstruction MSE on a holdout of rows, block-aware
    when block labels are supplied.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    rng = np.random.default_rng(np.random.PCG64(seed))
    if blocks is not None and len(set(blocks)) >= 3:
        dummy = np.zeros((n, 1))
        holdout = split_blocks(
            blocks, dummy, np.ones((n, 1)),
            test_fraction=cfg.holdout_fraction, val_fraction_of_train=0.0, seed=seed,
        )
        fit_rows, val_rows = holdout.train_rows, holdout.test_rows
    else:
        order = rng.permutation(n)
        n_val = max(1, int(round(cfg.holdout_fraction * n)))
        val_rows, fit_rows = np.sort(order[:n_val]), np.sort(order[n_val:])
    if fit_rows.size == 0 or val_rows.size == 0:
        raise ValueError("autoencoder holdout left an empty partition")

    dims = (p, *cfg.encoder_dims)
    decoder = _relu_stack(dims[:0:-1], cfg.dropout) + [LayerSpec(dims[1], p, "linear")]
    params = nn_core.init_network(_relu_stack(dims, cfg.dropout), {"recon": decoder}, rng)

    X_fit, X_val = X[fit_rows], X[val_rows]

    def batch_loss(batch):
        xb = X_fit[batch]
        out, cache = nn_core.forward(params, xb, mode="train", rng=rng)
        diff = out["recon"] - xb
        loss = float((diff * diff).mean())
        part = loss * batch.size / fit_rows.size
        return loss, {"mse": part, "combined": part}, cache, {"recon": 2.0 * diff / diff.size}

    def val_loss():
        out, _ = nn_core.forward(params, X_val, mode="infer")
        diff = out["recon"] - X_val
        loss = float((diff * diff).mean())
        return {"mse": loss, "combined": loss}

    best_params, history = _fit(params, cfg, fit_rows.size, batch_loss, val_loss)
    return best_params.backbone, history


def finetune(
    encoder: Sequence[DenseLayer],
    ds: TabularDataset,
    split: SplitAssignment,
    cfg: TrainConfig,
    frozen: bool = False,
) -> tuple[NetworkParams, TrainHistory]:
    """Attach fresh task heads to a pre-trained encoder and train.

    ``frozen`` keeps every encoder weight bit-identical and updates only the
    heads; otherwise the network trains end-to-end.
    """
    if encoder[0].spec.in_dim != ds.n_features:
        raise ValueError(
            f"encoder expects {encoder[0].spec.in_dim} inputs, dataset has {ds.n_features}"
        )
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    fresh = nn_core.init_network([], _task_heads(encoder[-1].spec.out_dim, ds.n_responses), rng)
    params = NetworkParams(backbone=encoder, heads=fresh.heads)  # copies the encoder
    return _train_supervised(params, ds, split, cfg, rng, freeze_backbone=frozen)


def pretrain_encoder(
    ds: TabularDataset, split: SplitAssignment, cfg: TrainConfig
) -> tuple[tuple[DenseLayer, ...], TrainHistory]:
    """The pretrained kinds' encoder: ``cfg.ae`` pre-training under ``cfg.seed``
    on the split's train rows (on every row with ``include_test_rows``)."""
    ae_rows = (
        np.arange(ds.n_samples) if cfg.ae.include_test_rows else split.train_rows
    )
    return pretrain_autoencoder(
        ds.X[ae_rows], cfg.ae, seed=cfg.seed, blocks=ds.blocks[ae_rows]
    )


def train_model(
    ds: TabularDataset,
    split: SplitAssignment,
    cfg: TrainConfig,
    kind: str,
    encoder: Sequence[DenseLayer] | None = None,
) -> tuple[NetworkParams, TrainHistory]:
    """One entry point for the three supported model kinds.

    A pretrained kind fine-tunes ``encoder`` when one is given (it is not
    modified), and otherwise pre-trains its own with ``pretrain_encoder``;
    the baseline has no encoder and ignores it.
    """
    if kind == "baseline":
        return train_baseline(ds, split, cfg)
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if encoder is None:
        encoder, _ = pretrain_encoder(ds, split, cfg)
    return finetune(encoder, ds, split, cfg, frozen=(kind == "pretrained-frozen"))


def predict(params: NetworkParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic dropout-free inference: (concentrations, probabilities)."""
    out, _ = nn_core.forward(params, np.asarray(X, dtype=np.float64), mode="infer")
    return out["cont"], out["bin"]
