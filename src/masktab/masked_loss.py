"""Masked losses for partially observed multi-response targets.

Both losses normalise per sample by the number of observed responses (plus a
small epsilon so fully masked samples contribute exactly zero) and then take
the arithmetic mean over the batch. Masked-out target entries never influence
the loss or its gradient, whatever value (including NaN) they hold.
"""

from dataclasses import dataclass

import numpy as np

EPSILON = 1e-7


@dataclass
class MaskedBatch:
    """Aligned targets, predictions, and observation mask for one batch.

    y may hold arbitrary values (NaN included) wherever m is zero. y_hat is
    (batch, responses) like y and m, or a stack (..., batch, responses) of
    predictions of the same targets, which only ``masked_loss`` scores.
    """

    y: np.ndarray
    y_hat: np.ndarray
    m: np.ndarray
    epsilon: float = EPSILON

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.y_hat = np.asarray(self.y_hat, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        if not (self.y.shape == self.y_hat.shape[-2:] == self.m.shape):
            raise ValueError(
                f"shape mismatch: y {self.y.shape}, y_hat {self.y_hat.shape}, m {self.m.shape}"
            )
        if self.y.ndim != 2:
            raise ValueError(f"expected 2-d (batch, responses) arrays, got ndim={self.y.ndim}")


def _mse_terms(batch: MaskedBatch):
    """The masked MSE of each prediction in the batch, plus the masked
    residuals and per-sample normalisers its gradient needs."""
    observed = batch.m != 0.0
    diff = batch.y_hat - np.where(observed, batch.y, 0.0)
    np.copyto(diff, 0.0, where=~observed)
    denom = batch.m.sum(axis=1) + batch.epsilon
    per_sample = np.square(diff).sum(axis=-1) / denom
    return per_sample.sum(axis=-1) / batch.y.shape[0], diff, denom


def _bce_terms(batch: MaskedBatch):
    """The masked BCE of each prediction in the batch, plus the observed
    targets, clipped predictions and per-sample normalisers its gradient
    needs. Raises on an observed target outside {0, 1}."""
    observed = batch.m != 0.0
    y = np.where(observed, batch.y, 0.0)
    bad = observed & (y != 0.0) & (y != 1.0)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"observed binary target not in {{0,1}} at ({i},{k}): {batch.y[i, k]!r}")
    eps = batch.epsilon
    p = np.clip(batch.y_hat, eps, 1.0 - eps)
    # one log per cell: y is 0 or 1, and both logs are finite and negative
    # inside the clip, so this equals y*log(p) + (1-y)*log(1-p) bit for bit
    ll = np.log(np.where(y == 1.0, p, 1.0 - p))
    denom = batch.m.sum(axis=1) + eps
    per_sample = -(np.where(observed, ll, 0.0)).sum(axis=-1) / denom
    return per_sample.sum(axis=-1) / batch.y.shape[0], y, p, denom


_TERMS = {"mse": _mse_terms, "bce": _bce_terms}


def masked_loss(kind: str, batch: MaskedBatch) -> np.ndarray:
    """The masked ``"mse"`` or ``"bce"`` of every prediction in ``batch``.

    With a stack of predictions (..., batch, responses) the result has the
    stack's leading shape, and each entry equals what ``masked_mse`` or
    ``masked_bce`` returns for that prediction alone, bit for bit: both run
    this code.
    """
    if kind not in _TERMS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {tuple(_TERMS)}")
    return _TERMS[kind](batch)[0]


def _one_prediction(batch: MaskedBatch) -> None:
    if batch.y_hat.ndim != 2:
        raise ValueError(f"expected one (batch, responses) prediction, got y_hat "
                         f"{batch.y_hat.shape}; masked_loss scores a stack")


def masked_mse(batch: MaskedBatch) -> tuple[float, np.ndarray]:
    """Squared error over observed entries, per-sample normalised.

    For each sample: sum_k m_k (y_k - yhat_k)^2 / (sum_k m_k + eps); the batch
    loss is the mean over samples. Returns the loss and its gradient with
    respect to y_hat (exactly zero at masked entries).
    """
    _one_prediction(batch)
    loss, diff, denom = _mse_terms(batch)
    grad = (2.0 * diff) / denom[:, None] / batch.y.shape[0]
    return float(loss), grad


def masked_bce(batch: MaskedBatch) -> tuple[float, np.ndarray]:
    """Binary cross-entropy over observed entries, per-sample normalised.

    Predictions are clipped to [eps, 1-eps] before the logarithms; the clip is
    treated as part of the function, so the gradient is zero wherever clipping
    is active (flat region) as well as at masked entries.
    """
    _one_prediction(batch)
    loss, y, p, denom = _bce_terms(batch)
    eps = batch.epsilon
    inside_clip = (batch.y_hat > eps) & (batch.y_hat < 1.0 - eps)
    dll = y / p - (1.0 - y) / (1.0 - p)
    observed = batch.m != 0.0
    grad = np.where(observed & inside_clip, -dll / denom[:, None], 0.0) / batch.y.shape[0]
    return float(loss), grad


def combined_loss(
    cont: MaskedBatch,
    binary: MaskedBatch,
    weights: tuple[float, float] = (1.0, 1.0),
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted sum of the two masked losses over the same rows.

    Returns (loss, gradient wrt continuous predictions, gradient wrt binary
    predictions); each gradient already carries its weight.
    """
    if cont.y.shape[0] != binary.y.shape[0]:
        raise ValueError(
            f"row-count mismatch: {cont.y.shape[0]} continuous vs {binary.y.shape[0]} binary"
        )
    w_mse, w_bce = weights
    loss_mse, grad_mse = masked_mse(cont)
    loss_bce, grad_bce = masked_bce(binary)
    total = w_mse * loss_mse + w_bce * loss_bce
    return total, w_mse * grad_mse, w_bce * grad_bce
