"""Minimal dense network engine: forward pass, reverse-mode gradients,
inverted dropout, and Adam.

The engine covers exactly the topologies this package trains: a stack of
fully connected backbone layers feeding one or more named heads (each head its
own stack). All parameters of a network live in one contiguous float64 vector
and every layer's W and b are views into it, so the optimiser, snapshots and
finite checks each work on one array. Everything is deterministic given an
explicit random generator.

Adam updates a network of at least ``2 * ADAM_BLOCK`` parameters on two
threads at once, the caller's and one worker thread, where the process may run
on two or more CPUs and numpy's BLAS runs at one thread (``blas.threads()``,
as every masktab command holds it). The update is elementwise, so the two
threads give the same bits as one serial pass. The worker is made on first
use, once per process; a forked child makes its own.
"""

import base64
import functools
import math
import os
import types
from collections import deque
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blas, jsonio
from .jsonio import setting

ACTIVATIONS = ("relu", "sigmoid", "linear")

CHECKPOINT_VERSION = 1

# Elements per block of the fused Adam update. Its two scratch blocks (256 KiB
# each) stay cache-resident, where full-length temporaries would stream
# through memory several times per step. An update of at least two blocks
# runs on two threads at once (see adam_step).
ADAM_BLOCK = 1 << 15

# Adam's moment decay rates and the denominator's guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class LayerSpec(jsonio.Document):
    """Shape and behaviour of one dense layer.

    Dropout (inverted, scale 1/(1-p)) is applied after the activation and only
    in train mode.
    """

    VERSION = None

    in_dim: int = setting("[1, inf)")
    out_dim: int = setting("[1, inf)")
    activation: str = setting(ACTIVATIONS, "relu")
    dropout_rate: float = setting("[0, 1)", 0.0)


@dataclass(frozen=True)
class DenseLayer:
    """Parameters of one layer: W is (out_dim, in_dim), b is (out_dim,)."""

    W: np.ndarray
    b: np.ndarray
    spec: LayerSpec


@dataclass(frozen=True, init=False, eq=False)
class NetworkParams:
    """Backbone layers plus named head stacks; the mutable state of training.

    Construction copies every given layer into one float64 vector, ``flat``,
    in ``named_layers()`` order with each layer's W (row-major) followed by
    its b, and the network holds its own layers, whose W and b are views of
    that vector. The structure is fixed from then on: the stacks are tuples,
    ``heads`` is a read-only mapping and a layer's arrays cannot be rebound,
    so the layers and ``flat`` always share memory.
    """

    backbone: tuple[DenseLayer, ...]
    heads: Mapping[str, tuple[DenseLayer, ...]]
    flat: np.ndarray

    def __init__(self, backbone: Sequence[DenseLayer],
                 heads: Mapping[str, Sequence[DenseLayer]]):
        layers = [*backbone, *(l for h in sorted(heads) for l in heads[h])]
        flat = np.empty(sum(l.W.size + l.b.size for l in layers))
        pos = 0

        def own(layer: DenseLayer) -> DenseLayer:
            nonlocal pos
            views = []
            for a in (layer.W, layer.b):
                view = flat[pos : pos + a.size].reshape(a.shape)
                view[...] = a
                views.append(view)
                pos += a.size
            return DenseLayer(*views, layer.spec)

        object.__setattr__(self, "backbone", tuple(own(l) for l in backbone))
        object.__setattr__(self, "heads", types.MappingProxyType(
            {h: tuple(own(l) for l in heads[h]) for h in sorted(heads)}))
        object.__setattr__(self, "flat", flat)

    @property
    def input_dim(self) -> int:
        return self.backbone[0].spec.in_dim if self.backbone else next(
            iter(self.heads.values())
        )[0].spec.in_dim

    def named_layers(self) -> list[tuple[str, DenseLayer]]:
        """Stable (path, layer) listing used by the optimiser and checkpoints."""
        out = [(f"backbone.{i}", layer) for i, layer in enumerate(self.backbone)]
        for head in sorted(self.heads):
            out.extend((f"{head}.{i}", layer) for i, layer in enumerate(self.heads[head]))
        return out

    def n_parameters(self) -> int:
        return self.flat.size

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.backbone, self.heads)

    def zeros_like(self) -> "NetworkParams":
        twin = self.copy()
        twin.flat[...] = 0.0
        return twin


def glorot_uniform(spec: LayerSpec, rng: np.random.Generator) -> DenseLayer:
    """Uniform Glorot weights, zero biases."""
    limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
    W = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
    return DenseLayer(W=W, b=np.zeros(spec.out_dim), spec=spec)


def init_network(
    backbone: list[LayerSpec],
    heads: dict[str, list[LayerSpec]],
    rng: np.random.Generator,
) -> NetworkParams:
    """Initialise backbone then heads (sorted by name) in a fixed draw order."""
    return NetworkParams(
        backbone=[glorot_uniform(s, rng) for s in backbone],
        heads={h: [glorot_uniform(s, rng) for s in heads[h]] for h in sorted(heads)},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def activate(z: np.ndarray, kind: str) -> np.ndarray:
    """A layer's activation function applied to its pre-activation z.

    The caller gives up z: ReLU runs in place, and the result may be z itself.
    """
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        return _sigmoid(z)
    return z


@dataclass
class _LayerCache:
    x: np.ndarray  # layer input
    a: np.ndarray  # post-activation (pre-dropout)
    drop: np.ndarray | None  # inverted dropout mask, train mode only


@dataclass
class ForwardCache:
    mode: str
    backbone: list[_LayerCache] = field(default_factory=list)
    heads: dict[str, list[_LayerCache]] = field(default_factory=dict)


def _run_stack(
    layers: Sequence[DenseLayer],
    x: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
    caches: list[_LayerCache] | None,
) -> np.ndarray:
    """Run one stack. Each layer's z is a fresh array, so x is never written;
    z is scratch, and ReLU overwrites it."""
    for layer in layers:
        if x.shape[1] != layer.spec.in_dim:
            raise ValueError(
                f"shape mismatch: input has {x.shape[1]} columns, layer expects {layer.spec.in_dim}"
            )
        z = x @ layer.W.T
        z += layer.b
        a = activate(z, layer.spec.activation)
        drop = None
        out = a
        if mode == "train" and layer.spec.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout requires an rng")
            keep = 1.0 - layer.spec.dropout_rate
            drop = (rng.random(a.shape) < keep).astype(np.float64) / keep
            out = a * drop
        if caches is not None:
            caches.append(_LayerCache(x=x, a=a, drop=drop))
        x = out
    return x


def forward(
    params: NetworkParams,
    X: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], ForwardCache]:
    """Run the network; returns per-head outputs and the backward cache.

    Infer mode is deterministic and dropout-free, and its cache holds no layer
    records, so it cannot be passed to ``backward``. Train mode applies
    inverted dropout with the supplied generator.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a batch matrix, got ndim={X.ndim}")
    cache = ForwardCache(mode=mode)
    train = mode == "train"
    outputs: dict[str, np.ndarray] = {}
    # divergence surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        trunk = _run_stack(params.backbone, X, mode, rng, cache.backbone if train else None)
        for head in sorted(params.heads):
            head_caches: list[_LayerCache] | None = [] if train else None
            outputs[head] = _run_stack(params.heads[head], trunk, mode, rng, head_caches)
            if train:
                cache.heads[head] = head_caches
    for head, out in outputs.items():
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite activations in head {head!r}")
    return outputs, cache


def encode(layers: Sequence[DenseLayer], X: np.ndarray,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """The output of a fixed stack, such as a frozen encoder, for the rows of
    X: in train mode (dropout drawn from ``rng``) when a generator is given,
    else in infer mode. No backward cache is kept."""
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_stack(layers, X, "infer" if rng is None else "train", rng, None)


def _backprop_stack(
    layers: Sequence[DenseLayer],
    caches: list[_LayerCache],
    delta: np.ndarray,
    grads: Sequence[DenseLayer],
    input_grad: bool,
) -> np.ndarray | None:
    """Propagate dL/d(stack output) back through the stack, writing each
    layer's grads; returns dL/d(stack input), or None unless ``input_grad``.

    The dropout and activation masks multiply in place once the delta is one
    this function made, so the caller's ``delta`` is never written."""
    owned = None  # the delta array this function made, once there is one
    for k in reversed(range(len(layers))):
        layer, c, g = layers[k], caches[k], grads[k]
        if delta.shape != c.a.shape:
            raise ValueError(
                f"upstream gradient shape {delta.shape} does not match activations {c.a.shape}"
            )
        masks = [] if c.drop is None else [c.drop]
        if layer.spec.activation == "relu":
            masks.append(c.a > 0)  # exactly where z > 0, NaN and -0.0 included
        elif layer.spec.activation == "sigmoid":
            masks.append(c.a * (1.0 - c.a))
        for mask in masks:
            delta = owned = np.multiply(delta, mask, out=owned)
        np.matmul(delta.T, c.x, out=g.W)
        np.sum(delta, axis=0, out=g.b)
        if k == 0 and not input_grad:
            return None
        delta = owned = delta @ layer.W
    return delta


def backward(
    params: NetworkParams,
    cache: ForwardCache,
    upstream: dict[str, np.ndarray],
    out: NetworkParams | None = None,
) -> NetworkParams:
    """Reverse-mode gradients for every parameter, as one flat vector.

    ``upstream`` maps head name to dLoss/d(head output); heads absent from it
    contribute nothing. Backbone gradients sum the contributions of all heads.

    ``out``, a buffer shaped like ``params`` (``params.zeros_like()``), is
    written and returned in place of a new one. Every slice is overwritten
    (zeros for a head absent from ``upstream``), so a training loop can pass
    the same buffer every step.
    """
    if cache.mode != "train":
        raise ValueError(
            f"backward needs the cache of a train-mode forward, got mode {cache.mode!r}"
        )
    for head in upstream:
        if head not in params.heads:
            raise KeyError(f"unknown head {head!r}")
    grads = params.zeros_like() if out is None else out
    if _layout(grads) != _layout(params):
        raise ValueError("gradient buffer structure does not match parameters")
    for head in params.heads.keys() - upstream.keys():
        for layer in grads.heads[head]:
            layer.W[...] = 0.0
            layer.b[...] = 0.0
    into_backbone = bool(params.backbone)
    if into_backbone:
        trunk_delta = np.zeros_like(cache.backbone[-1].a)
    for head, delta in upstream.items():
        head_delta = _backprop_stack(
            params.heads[head], cache.heads[head], np.asarray(delta, dtype=np.float64),
            grads.heads[head], input_grad=into_backbone,
        )
        if into_backbone:
            trunk_delta += head_delta
    if into_backbone:
        _backprop_stack(params.backbone, cache.backbone, trunk_delta, grads.backbone,
                        input_grad=False)
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, flat and aligned with NetworkParams.flat."""

    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params: NetworkParams, learning_rate: float = 1e-3) -> "AdamState":
        n = params.flat.size
        return cls(learning_rate=learning_rate, m=np.zeros(n), v=np.zeros(n))


def _layout(params: NetworkParams) -> list[tuple[str, tuple, tuple]]:
    return [(path, l.W.shape, l.b.shape) for path, l in params.named_layers()]


def _first_non_finite(grads: NetworkParams) -> str:
    """The first non-finite gradient in path order, as ``path.W`` or ``path.b``."""
    for path, layer in sorted(grads.named_layers(), key=lambda item: item[0]):
        for attr in ("W", "b"):
            if not np.isfinite(getattr(layer, attr)).all():
                return f"{path}.{attr}"
    raise AssertionError("no non-finite gradient found")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS has no sched_getaffinity


# The thread that shares the blocks of a large Adam update with the caller: one
# per process, made on first use where the process may run on two CPUs. A
# forked child inherits the executor but not its thread, so it clears the
# cache and makes its own. (Racing first calls from two threads may each make
# one; either serves, and the spare's thread exits once dropped.)
@functools.cache
def _adam_worker() -> ThreadPoolExecutor | None:
    """The process's Adam worker, or None on one CPU."""
    return ThreadPoolExecutor(1, thread_name_prefix="masktab-adam") if _cpus() >= 2 else None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_adam_worker.cache_clear)


def _adam_blocks(p: np.ndarray, g: np.ndarray, state: AdamState,
                 c1: float, c2: float, starts: deque) -> None:
    """The Adam update of the ``ADAM_BLOCK`` blocks of the flat vectors whose
    starts it takes from ``starts`` until none is left, through scratch rows
    of its own; numpy only."""
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, state.learning_rate
    scratch = np.empty((2, min(ADAM_BLOCK, p.size)))
    while True:
        try:
            start = starts.popleft()  # thread-safe: one taker per block
        except IndexError:
            return
        stop = min(start + ADAM_BLOCK, p.size)
        gb, mb, vb, pb = g[start:stop], state.m[start:stop], state.v[start:stop], p[start:stop]
        s, u = scratch[0, : stop - start], scratch[1, : stop - start]
        # m = b1*m + (1-b1)*g
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=s)
        np.add(mb, s, out=mb)
        # v = b2*v + ((1-b2)*g)*g
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, 1.0 - b2, out=s)
        np.multiply(s, gb, out=s)
        np.add(vb, s, out=vb)
        # p -= (lr*m_hat) / (sqrt(v_hat) + eps)
        np.divide(vb, c2, out=s)
        np.sqrt(s, out=s)
        np.add(s, ADAM_EPSILON, out=s)
        np.divide(mb, c1, out=u)
        np.multiply(u, lr, out=u)
        np.divide(u, s, out=u)
        np.subtract(pb, u, out=pb)


def adam_step(
    params: NetworkParams,
    grads: NetworkParams,
    state: AdamState,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update, in place; returns (params, state).

    The update runs over the flat vectors in blocks of ``ADAM_BLOCK``, with
    the per-element operation order of the textbook update, so results do
    not depend on the blocking. From ``2 * ADAM_BLOCK`` parameters on, where
    numpy's BLAS runs at one thread, the worker thread and the caller take
    blocks from one shared sequence until none is left, and the call returns
    only once both are done; so a slow worker delays the call by at most the
    block in hand. A non-finite gradient raises before anything changes.
    """
    if _layout(params) != _layout(grads):
        raise ValueError("gradient structure does not match parameters")
    p, g = params.flat, grads.flat
    if state.m.shape != p.shape or state.v.shape != p.shape:
        raise ValueError("Adam state does not match parameters")
    if not np.isfinite(g).all():
        raise FloatingPointError(f"non-finite gradient for {_first_non_finite(grads)}")
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    starts = deque(range(0, p.size, ADAM_BLOCK))
    # a threaded BLAS's idle threads spin on the other cores, where a worker
    # made a training step slower than none (README, "Training engine")
    worker = (_adam_worker() if p.size >= 2 * ADAM_BLOCK and blas.threads() == 1
              else None)
    if worker is None:
        _adam_blocks(p, g, state, c1, c2, starts)
        return params, state
    job = worker.submit(_adam_blocks, p, g, state, c1, c2, starts)
    try:
        _adam_blocks(p, g, state, c1, c2, starts)
    finally:
        if not job.cancel():  # a job not yet started has no block to finish
            job.result()
    return params, state


# ---------------------------------------------------------------------------
# Checkpoint format: JSON with a shape header and base64 float64 payloads.
# Little-endian C-order bytes; fully deterministic, so artifact hashes are
# stable across runs.
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")

def _decode_array(s: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    raw = base64.b64decode(s)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"checkpoint array {name} holds {len(raw)} bytes, "
                         f"shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)  # NetworkParams copies it


def save_checkpoint(params: NetworkParams, path, extra: dict | None = None) -> None:
    layers = []
    for full_path, layer in params.named_layers():
        layers.append({
            "path": full_path,
            **layer.spec.to_dict(),
            "W": _encode_array(layer.W),
            "b": _encode_array(layer.b),
        })
    doc = {"version": CHECKPOINT_VERSION, "layers": layers, "extra": extra or {}}
    jsonio.dump(doc, path)


def load_checkpoint(path) -> tuple[NetworkParams, dict]:
    doc = jsonio.load(path)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint is a JSON {type(doc).__name__}, not an object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    backbone: list[DenseLayer] = []
    heads: dict[str, list[DenseLayer]] = {}
    for rec in doc["layers"]:
        if not isinstance(rec["path"], str):
            raise ValueError(f"checkpoint layer path {rec['path']!r} is not a string")
        spec = LayerSpec.from_dict(
            {k: rec[k] for k in ("in_dim", "out_dim", "activation", "dropout_rate")}
        )
        layer = DenseLayer(
            W=_decode_array(rec["W"], (spec.out_dim, spec.in_dim), f"{rec['path']}.W"),
            b=_decode_array(rec["b"], (spec.out_dim,), f"{rec['path']}.b"),
            spec=spec,
        )
        group, _, _ = rec["path"].rpartition(".")
        if group == "backbone":
            backbone.append(layer)
        else:
            heads.setdefault(group, []).append(layer)
    _check_chain(backbone, heads)
    return NetworkParams(backbone=backbone, heads=heads), doc.get("extra", {})


def _check_chain(backbone: list[DenseLayer], heads: dict[str, list[DenseLayer]]) -> None:
    """Each layer must read the width the layer before it writes, and each
    head's first layer the backbone's output width (with no backbone, the
    input width every head reads)."""
    trunk = backbone[-1].spec.out_dim if backbone else None
    for stack, layers in [("backbone", backbone), *sorted(heads.items())]:
        width = None if stack == "backbone" else trunk
        for i, layer in enumerate(layers):
            if width is not None and layer.spec.in_dim != width:
                raise ValueError(f"checkpoint layer {stack}.{i} reads {layer.spec.in_dim} "
                                 f"inputs where {width} arrive")
            width = layer.spec.out_dim
        if trunk is None and layers:
            trunk = layers[0].spec.in_dim
