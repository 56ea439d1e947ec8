"""Finite-difference gradient checking helpers shared across test modules.

Central differences are only trustworthy away from relu kinks: an instance
whose pre-activations sit within the step size of zero produces a one-sided
slope. ``relu_margin`` measures the distance to the nearest kink so callers
can resample degenerate instances instead of loosening tolerances.
"""

import numpy as np

from masktab.nn_core import forward


def flatten(params):
    return np.concatenate([
        np.concatenate([layer.W.ravel(), layer.b.ravel()])
        for _, layer in params.named_layers()
    ])


def set_flat(params, vec):
    pos = 0
    for _, layer in params.named_layers():
        n = layer.W.size
        layer.W[:] = vec[pos : pos + n].reshape(layer.W.shape)
        pos += n
        n = layer.b.size
        layer.b[:] = vec[pos : pos + n].reshape(layer.b.shape)
        pos += n
    assert pos == vec.size


def relu_margin(params, x, rng_factory=None) -> float:
    """Smallest |pre-activation| over all relu layers for this input.

    Recomputes each layer's pre-activation from its input in the cache of a
    train-mode pass, the only mode that keeps one. Dropout masks come from
    ``rng_factory``; without it the network must be dropout-free, where train
    mode computes what infer mode does.
    """
    rng = rng_factory() if rng_factory is not None else None
    _, cache = forward(params, x, mode="train", rng=rng)
    stacks = [(params.backbone, cache.backbone)]
    stacks += [(params.heads[h], cache.heads[h]) for h in params.heads]
    margins = [
        float(np.min(np.abs(c.x @ layer.W.T + layer.b)))
        for layers, caches in stacks
        for layer, c in zip(layers, caches)
        if layer.spec.activation == "relu"
    ]
    return min(margins) if margins else np.inf


def central_diff_wrt_params(loss_fn, params, h=1e-5):
    """d loss_fn / d theta by central differences over every parameter."""
    theta = flatten(params)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        t = theta.copy()
        t[i] += h
        set_flat(params, t)
        up = loss_fn(params)
        t[i] -= 2 * h
        set_flat(params, t)
        down = loss_fn(params)
        fd[i] = (up - down) / (2 * h)
    set_flat(params, theta)
    return fd


def max_rel_err(a, b, floor=1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
