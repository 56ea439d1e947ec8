import dataclasses
import json
import os
import signal
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from gradcheck import central_diff_wrt_params, flatten, max_rel_err, relu_margin, set_flat
from masktab import blas, nn_core
from masktab.nn_core import (
    AdamState,
    DenseLayer,
    LayerSpec,
    NetworkParams,
    adam_step,
    backward,
    encode,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
)


def small_network(seed=0, dropout=0.0, in_dim=5, hidden=(4, 3), k=2):
    rng = np.random.default_rng(seed)
    dims = (in_dim,) + hidden
    backbone = [
        LayerSpec(dims[i], dims[i + 1], activation="relu", dropout_rate=dropout)
        for i in range(len(hidden))
    ]
    heads = {
        "cont": [LayerSpec(dims[-1], k, activation="relu")],
        "bin": [LayerSpec(dims[-1], k, activation="sigmoid")],
    }
    return init_network(backbone, heads, rng)


class TestForward:
    def test_zero_weights_sigmoid_head_is_half(self):
        params = small_network()
        set_flat(params, np.zeros(flatten(params).size))
        out, _ = forward(params, np.random.default_rng(0).standard_normal((4, 5)))
        assert np.all(out["bin"] == 0.5)
        assert np.all(out["cont"] == 0.0)

    def test_single_linear_layer_affine(self):
        layer = DenseLayer(W=np.array([[2.0]]), b=np.array([1.0]),
                           spec=LayerSpec(1, 1, activation="linear"))
        params = NetworkParams(backbone=[], heads={"out": [layer]})
        out, _ = forward(params, np.array([[3.0]]))
        assert out["out"][0, 0] == 7.0

    def test_no_dropout_train_equals_infer(self):
        params = small_network(dropout=0.0)
        x = np.random.default_rng(1).standard_normal((6, 5))
        out_train, _ = forward(params, x, mode="train", rng=np.random.default_rng(2))
        out_infer, _ = forward(params, x, mode="infer")
        for head in out_train:
            assert np.array_equal(out_train[head], out_infer[head])

    def test_dropout_requires_rng(self):
        params = small_network(dropout=0.3)
        with pytest.raises(ValueError, match="requires an rng"):
            forward(params, np.zeros((2, 5)), mode="train")

    def test_dropout_scaling_preserves_expectation(self):
        # single linear layer with dropout on its output
        spec = LayerSpec(1, 1, activation="linear", dropout_rate=0.4)
        layer = DenseLayer(W=np.array([[1.0]]), b=np.array([0.0]), spec=spec)
        head = DenseLayer(W=np.array([[1.0]]), b=np.array([0.0]), spec=LayerSpec(1, 1, "linear"))
        params = NetworkParams(backbone=[layer], heads={"out": [head]})
        rng = np.random.default_rng(3)
        x = np.ones((10_000, 1))
        out, _ = forward(params, x, mode="train", rng=rng)
        infer, _ = forward(params, x, mode="infer")
        assert abs(out["out"].mean() - infer["out"].mean()) < 0.02 * abs(infer["out"].mean())

    def test_shape_mismatch_raises(self):
        params = small_network()
        with pytest.raises(ValueError, match="shape mismatch"):
            forward(params, np.zeros((2, 7)))


class TestEncode:
    """encode runs a fixed stack as forward runs the backbone, with no cache."""

    def test_train_mode_matches_forward_trunk_and_draws(self):
        params = small_network(seed=4, dropout=0.3)
        x = np.random.default_rng(5).standard_normal((9, 5))
        rng_f, rng_e = np.random.default_rng(6), np.random.default_rng(6)
        _, cache = forward(params, x, mode="train", rng=rng_f)
        trunk = cache.heads["cont"][0].x  # the backbone's output after its dropout
        assert cache.backbone[-1].drop is not None
        got = encode(params.backbone, x, rng_e)
        assert np.array_equal(bits(got), bits(trunk))
        assert rng_e.bit_generator.state == rng_f.bit_generator.state

    def test_infer_mode_matches_forward(self):
        params = small_network(seed=4, dropout=0.3)
        x = np.random.default_rng(5).standard_normal((9, 5))
        want, _ = forward(params, x)
        heads = NetworkParams([], params.heads)
        got, _ = forward(heads, encode(params.backbone, x))
        for head in want:
            assert np.array_equal(bits(got[head]), bits(want[head]))
        trunk, _ = forward(NetworkParams([], {"trunk": params.backbone}), x)
        assert np.array_equal(bits(encode(params.backbone, x)), bits(trunk["trunk"]))

    def test_broken_chain_raises_like_forward(self):
        params = small_network()
        broken = [params.backbone[0], params.backbone[0]]  # 5 -> 4, then reads 5
        x = np.zeros((2, 5))
        with pytest.raises(ValueError, match="shape mismatch") as from_forward:
            forward(NetworkParams(broken, {}), x)
        with pytest.raises(ValueError, match="shape mismatch") as from_encode:
            encode(broken, x)
        assert str(from_encode.value) == str(from_forward.value)


def masked_sigmoid(z):
    """The earlier two-branch sigmoid built by boolean gathers and scatters."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_bit_identical_to_masked_version_on_normal_draws(self, scale):
        z = scale * np.random.default_rng(int(scale * 10)).standard_normal((63, 24))
        assert nn_core._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    def test_bit_identical_at_edges(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 746.0, -746.0])
        assert nn_core._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


# ---------------------------------------------------------------------------
# Oracle: the infer path as first written, one z = x @ W.T + b and one new
# activation array per layer. Infer-mode forward must match it bit for bit.
# ---------------------------------------------------------------------------

def oracle_activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return z


def oracle_infer(params, X):
    def run(layers, x):
        for layer in layers:
            with np.errstate(over="ignore", invalid="ignore"):
                x = oracle_activate(x @ layer.W.T + layer.b, layer.spec.activation)
        return x

    trunk = run(params.backbone, X)
    return {head: run(params.heads[head], trunk) for head in sorted(params.heads)}


def mixed_network(backbone_kinds, seed):
    """Backbone layers of the given activations, and two two-layer heads that
    use all three activations."""
    rng = np.random.default_rng(seed)
    dims = [11] + [9 - i for i in range(len(backbone_kinds))]
    backbone = [LayerSpec(dims[i], dims[i + 1], kind) for i, kind in enumerate(backbone_kinds)]
    heads = {
        "cont": [LayerSpec(dims[-1], 6, "sigmoid"), LayerSpec(6, 4, "linear")],
        "bin": [LayerSpec(dims[-1], 5, "relu"), LayerSpec(5, 4, "sigmoid")],
    }
    params = init_network(backbone, heads, rng)
    for _, layer in params.named_layers():  # non-zero biases, so b is tested too
        layer.b[...] = rng.standard_normal(layer.b.shape)
    return params


class TestInferForwardMatchesOracle:
    @pytest.mark.parametrize("backbone_kinds", [
        (), ("relu",), ("relu", "sigmoid", "linear"), ("linear", "relu"),
    ], ids=["empty-backbone", "relu", "relu-sigmoid-linear", "linear-relu"])
    @pytest.mark.parametrize("rows", [1, 7, 63])
    def test_bit_identical_and_input_untouched(self, backbone_kinds, rows):
        params = mixed_network(backbone_kinds, seed=rows)
        X = 3.0 * np.random.default_rng(rows).standard_normal((rows, 11))
        before = X.tobytes()
        out, cache = forward(params, X, mode="infer")
        want = oracle_infer(params, X)
        assert X.tobytes() == before
        assert sorted(out) == sorted(want) == ["bin", "cont"]
        for head in want:
            assert out[head].tobytes() == want[head].tobytes(), head
        assert cache.backbone == [] and cache.heads == {}

    def test_train_mode_without_dropout_matches_too(self):
        params = mixed_network(("relu", "sigmoid"), seed=3)
        X = np.random.default_rng(3).standard_normal((40, 11))
        before = X.tobytes()
        out, _ = forward(params, X, mode="train", rng=np.random.default_rng(0))
        assert X.tobytes() == before
        for head, want in oracle_infer(params, X).items():
            assert out[head].tobytes() == want.tobytes(), head


class TestBackward:
    def loss_of(self, params, x, targets):
        out, _ = forward(params, x)
        return 0.5 * float(((out["cont"] - targets) ** 2).sum()) + float(out["bin"].sum())

    def _instance(self, seed):
        """Random instance resampled until pre-activations clear the relu kinks."""
        for attempt in range(50):
            rng = np.random.default_rng((seed, attempt))
            params = small_network(seed=seed * 100 + attempt)
            x = rng.standard_normal((3, 5))
            targets = rng.standard_normal((3, 2))
            if relu_margin(params, x) > 1e-3:
                return params, x, targets
        raise AssertionError("no kink-free instance found")

    def test_gradient_matches_central_differences(self):
        checked = 0
        for seed in range(6):
            params, x, targets = self._instance(seed)
            out, cache = forward(params, x, mode="train")
            upstream = {"cont": out["cont"] - targets, "bin": np.ones_like(out["bin"])}
            grads = backward(params, cache, upstream)
            fd = central_diff_wrt_params(lambda p: self.loss_of(p, x, targets), params)
            assert max_rel_err(fd, flatten(grads)) < 1e-4
            checked += 1
        assert checked == 6

    def test_zero_upstream_zero_grads(self):
        params = small_network()
        x = np.random.default_rng(0).standard_normal((3, 5))
        out, cache = forward(params, x, mode="train")
        grads = backward(params, cache, {h: np.zeros_like(o) for h, o in out.items()})
        assert np.all(flatten(grads) == 0.0)

    def test_infer_cache_rejected(self):
        params = small_network()
        out, cache = forward(params, np.zeros((2, 5)), mode="infer")
        assert cache.backbone == [] and cache.heads == {}
        with pytest.raises(ValueError, match="train-mode forward"):
            backward(params, cache, {"cont": np.ones_like(out["cont"])})

    def test_backbone_grads_sum_over_heads(self):
        params = small_network(seed=1)
        x = np.random.default_rng(1).standard_normal((3, 5))
        out, cache = forward(params, x, mode="train")
        up_cont = {"cont": np.ones_like(out["cont"]), "bin": np.zeros_like(out["bin"])}
        up_bin = {"cont": np.zeros_like(out["cont"]), "bin": np.ones_like(out["bin"])}
        up_both = {"cont": np.ones_like(out["cont"]), "bin": np.ones_like(out["bin"])}
        g_cont = backward(params, cache, up_cont)
        g_bin = backward(params, cache, up_bin)
        g_both = backward(params, cache, up_both)
        for (_, a), (_, b), (_, c) in zip(
            g_cont.named_layers(), g_bin.named_layers(), g_both.named_layers()
        ):
            assert np.allclose(a.W + b.W, c.W, atol=1e-12)
        # zeroing one head reproduces the single-head backbone gradient exactly
        single = backward(params, cache, {"cont": np.ones_like(out["cont"])})
        for la, lb in zip(g_cont.backbone, single.backbone):
            assert np.array_equal(la.W, lb.W)

    def test_gradient_through_fixed_dropout_mask(self):
        # identical generator state for every evaluation => identical mask
        for attempt in range(50):
            params = small_network(seed=200 + attempt, dropout=0.3)
            x = np.random.default_rng((5, attempt)).standard_normal((4, 5))
            factory = lambda: np.random.default_rng(77)
            if relu_margin(params, x, rng_factory=factory) > 1e-3:
                break
        else:
            raise AssertionError("no kink-free instance found")
        targets = np.zeros((4, 2))

        def loss_with_mask(p):
            out, _ = forward(p, x, mode="train", rng=factory())
            return 0.5 * float(((out["cont"] - targets) ** 2).sum())

        out, cache = forward(params, x, mode="train", rng=factory())
        grads = backward(params, cache, {"cont": out["cont"] - targets})
        fd = central_diff_wrt_params(loss_with_mask, params)
        assert max_rel_err(fd, flatten(grads)) < 1e-4



def reference_backward(params, cache, upstream):
    """The allocating backward the in-place one replaced, as an oracle: each
    mask applied as a fresh product, and every gradient a fresh array."""
    grads = params.zeros_like()

    def stack(layers, caches, delta, out):
        for layer, c, g in reversed(list(zip(layers, caches, out))):
            if c.drop is not None:
                delta = delta * c.drop
            kind = layer.spec.activation
            delta = delta * ((c.z > 0).astype(np.float64) if kind == "relu"
                             else c.a * (1.0 - c.a) if kind == "sigmoid" else np.ones_like(c.z))
            g.W[...] = delta.T @ c.x
            g.b[...] = delta.sum(axis=0)
            delta = delta @ layer.W
        return delta

    trunk = np.zeros_like(cache.backbone[-1].a)
    for head, delta in upstream.items():
        trunk = trunk + stack(params.heads[head], cache.heads[head], delta, grads.heads[head])
    stack(params.backbone, cache.backbone, trunk, grads.backbone)
    return grads


def bits(a):
    return np.asarray(a).view(np.uint64)


class TestGradientBuffer:
    """backward(..., out=buffer) writes every slice of a reused buffer."""

    CASES = {"full": ("cont", "bin", "recon"), "head-missing": ("cont", "recon")}

    def instance(self):
        net = small_network(seed=3, dropout=0.25)
        recon = [LayerSpec(3, 4, activation="relu", dropout_rate=0.25),
                 LayerSpec(4, 5, activation="linear")]
        params = init_network([l.spec for l in net.backbone],
                              {**{h: [l.spec for l in ls] for h, ls in net.heads.items()},
                               "recon": recon}, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 5))
        out, cache = forward(params, x, mode="train", rng=np.random.default_rng(5))
        upstream = {h: rng.standard_normal(o.shape) for h, o in out.items()}
        upstream["cont"][0, 0] = -0.0
        return params, cache, upstream

    @pytest.mark.parametrize("case", list(CASES))
    def test_dirty_buffer_matches_fresh_backward_bit_for_bit(self, case):
        params, cache, upstream = self.instance()
        upstream = {h: upstream[h] for h in self.CASES[case]}
        given = {h: d.copy() for h, d in upstream.items()}
        fresh = backward(params, cache, upstream)
        buf = params.zeros_like()
        for fill in (np.nan, -0.0, 7.0):  # reused across steps with stale values
            buf.flat[:] = fill
            assert backward(params, cache, upstream, out=buf) is buf
            assert np.array_equal(bits(buf.flat), bits(fresh.flat))
        oracle = reference_backward(params, cache, upstream)
        assert np.array_equal(bits(fresh.flat), bits(oracle.flat))
        for h, d in upstream.items():  # the caller's upstream is never written
            assert np.array_equal(bits(d), bits(given[h]))

    def test_buffer_of_another_network_rejected(self):
        params, cache, upstream = self.instance()
        with pytest.raises(ValueError, match="gradient buffer structure"):
            backward(params, cache, upstream, out=small_network().zeros_like())

class TestAdam:
    def scalar_params(self, value=1.0):
        layer = DenseLayer(W=np.array([[value]]), b=np.array([0.0]),
                           spec=LayerSpec(1, 1, activation="linear"))
        return NetworkParams(backbone=[], heads={"out": [layer]})

    def test_first_step_magnitude(self):
        for g in (0.5, -2.0, 1e-3):
            params = self.scalar_params()
            grads = self.scalar_params(g)
            grads.heads["out"][0].b[:] = 0.0
            state = AdamState.for_params(params)
            adam_step(params, grads, state)
            expected = 1.0 - 1e-3 * g / (abs(g) + 1e-8)
            assert params.heads["out"][0].W[0, 0] == pytest.approx(expected, abs=1e-6)
            assert abs(params.heads["out"][0].W[0, 0] - 1.0) == pytest.approx(1e-3, rel=1e-4)
            assert state.step == 1

    def test_zero_gradient_keeps_params(self):
        params = self.scalar_params(3.25)
        before = params.heads["out"][0].W.copy()
        grads = self.scalar_params(0.0)
        grads.heads["out"][0].b[:] = 0.0
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        assert np.array_equal(params.heads["out"][0].W, before)
        assert state.step == 1

    def test_constant_positive_gradient_decreases_param(self):
        params = self.scalar_params(1.0)
        state = AdamState.for_params(params)
        values = [params.heads["out"][0].W[0, 0]]
        for _ in range(5):
            grads = self.scalar_params(1.0)
            grads.heads["out"][0].b[:] = 0.0
            adam_step(params, grads, state)
            values.append(params.heads["out"][0].W[0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_finite_gradient_raises(self):
        params = self.scalar_params()
        grads = self.scalar_params(np.nan)
        state = AdamState.for_params(params)
        with pytest.raises(FloatingPointError, match=r"for out\.0\.W$"):
            adam_step(params, grads, state)
        # names the first non-finite array in sorted path order ("aux.0"
        # before "backbone.0"), and leaves parameters and state untouched
        def unit():
            return DenseLayer(W=np.ones((1, 1)), b=np.ones(1), spec=LayerSpec(1, 1))

        params = NetworkParams(backbone=[unit()], heads={"aux": [unit()]})
        grads = params.zeros_like()
        grads.backbone[0].W[0, 0] = np.inf
        grads.heads["aux"][0].b[0] = np.nan
        state = AdamState.for_params(params)
        with pytest.raises(FloatingPointError, match=r"for aux\.0\.b$"):
            adam_step(params, grads, state)
        assert np.array_equal(params.flat, np.ones(4))
        assert state.step == 0 and not state.m.any() and not state.v.any()


def reference_adam_step(params, grads, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The per-key Adam loop that the flat fused update replaced, as an oracle.

    ``m`` and ``v`` map "<path>.<W|b>" to moment arrays; updates in place.
    """
    named_grads = dict(grads.named_layers())
    for path, layer in sorted(params.named_layers(), key=lambda item: item[0]):
        for attr in ("W", "b"):
            g = getattr(named_grads[path], attr)
            key = f"{path}.{attr}"
            m[key] *= b1
            m[key] += (1.0 - b1) * g
            v[key] *= b2
            v[key] += (1.0 - b2) * g * g
            m_hat = m[key] / (1.0 - b1**t)
            v_hat = v[key] / (1.0 - b2**t)
            target = getattr(layer, attr)
            target -= lr * m_hat / (np.sqrt(v_hat) + eps)


def flatten_moments(params, moments):
    return np.concatenate([
        np.concatenate([moments[f"{path}.W"].ravel(), moments[f"{path}.b"].ravel()])
        for path, _ in params.named_layers()
    ])


class TestFlatAdamMatchesReference:
    def train_pair(self, steps):
        """Train one network with adam_step and a twin with the oracle, each
        from its own forward/backward with identical dropout streams."""
        fused, oracle = small_network(seed=3, dropout=0.3), small_network(seed=3, dropout=0.3)
        state = AdamState.for_params(fused)
        m = {f"{p}.{a}": np.zeros_like(getattr(l, a)) for p, l in oracle.named_layers() for a in "Wb"}
        v = {k: np.zeros_like(a) for k, a in m.items()}
        rng_f, rng_o = np.random.default_rng(11), np.random.default_rng(11)
        x = np.random.default_rng(12).standard_normal((8, 5))
        target = np.random.default_rng(13).standard_normal((8, 2))
        for t in range(1, steps + 1):
            for params, rng in ((fused, rng_f), (oracle, rng_o)):
                out, cache = forward(params, x, mode="train", rng=rng)
                grads = backward(params, cache, {"cont": out["cont"] - target,
                                                 "bin": out["bin"] - 0.5})
                if params is fused:
                    adam_step(params, grads, state)
                else:
                    reference_adam_step(params, grads, m, v, t)
        return fused, oracle, state, m, v

    @pytest.mark.parametrize("block", [nn_core.ADAM_BLOCK, 7])
    def test_bit_identical_to_per_key_loop(self, block, monkeypatch):
        monkeypatch.setattr(nn_core, "ADAM_BLOCK", block)
        fused, oracle, state, m, v = self.train_pair(60)
        assert state.step == 60
        assert not np.array_equal(fused.flat, small_network(seed=3, dropout=0.3).flat)
        assert np.array_equal(fused.flat, flatten(oracle))
        assert np.array_equal(state.m, flatten_moments(oracle, m))
        assert np.array_equal(state.v, flatten_moments(oracle, v))


def vector_params(n, seed):
    """A network whose flat vector holds exactly n >= 1 random parameters:
    one layer with W of shape (1, n - 1) and a bias. Only adam_step reads it,
    so the spec need not match the shapes."""
    rng = np.random.default_rng(seed)
    layer = DenseLayer(W=rng.standard_normal((1, n - 1)), b=rng.standard_normal(1),
                       spec=LayerSpec(1, 1, activation="linear"))
    return NetworkParams(backbone=[], heads={"out": [layer]})


class RecordingWorker:
    """A worker of the test's own that counts the jobs it is given and runs
    each as ``mode`` says: "pool" on a real one-thread pool, "inline" to the
    end inside submit (the worker takes every block), or "never" (the caller
    takes every block and cancels the job)."""

    def __init__(self, pool, mode="pool"):
        self.pool, self.mode, self.jobs = pool, mode, 0

    def submit(self, fn, *args):
        self.jobs += 1
        if self.mode == "pool":
            return self.pool.submit(fn, *args)
        job = Future()
        if self.mode == "inline":
            fn(*args)
            job.set_result(None)
        else:  # never started: waiting on it would hang, so it fails instead
            job.result = lambda timeout=None: pytest.fail("waited on a job never started")
        return job


@pytest.fixture
def worker_pool():
    with ThreadPoolExecutor(1) as pool:
        yield pool


class TestSplitAdam:
    """adam_step's blocks shared with the worker, as on any machine with two
    CPUs and numpy's BLAS at one thread."""

    def steps(self, n, worker_of, steps=3, params=None, blas_threads=1):
        """Run adam_step with ``worker_of`` in place of nn_core._adam_worker
        and ``blas_threads`` as numpy's BLAS thread count."""
        params = vector_params(n, seed=n) if params is None else params
        state = AdamState.for_params(params)
        grads = params.zeros_like()
        rng = np.random.default_rng(n + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn_core, "_adam_worker", worker_of)
            mp.setattr(blas, "threads", lambda: blas_threads)
            for _ in range(steps):
                grads.flat[...] = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)
                adam_step(params, grads, state)
        return params, state

    @pytest.mark.parametrize("mode", ["pool", "inline", "never"])
    @pytest.mark.parametrize("n", [1, 4097, 2**15, 2**16 - 1, 2**16, 2**16 + 1,
                                   3 * 2**15 + 7, 343_984])
    def test_bit_identical_to_serial_path(self, n, mode, worker_pool):
        serial, serial_state = self.steps(n, lambda: None)
        worker = RecordingWorker(worker_pool, mode)
        split, split_state = self.steps(n, lambda: worker)
        assert worker.jobs == (3 if n >= 2 * nn_core.ADAM_BLOCK else 0)
        assert split_state.step == serial_state.step == 3
        for a, b in ((split.flat, serial.flat), (split_state.m, serial_state.m),
                     (split_state.v, serial_state.v)):
            assert np.array_equal(a, b)

    def test_each_block_taken_once_under_fast_thread_switching(self, worker_pool):
        serial, _ = self.steps(343_984, lambda: None, steps=20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split, _ = self.steps(343_984, lambda: worker_pool, steps=20)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(split.flat, serial.flat)

    @pytest.mark.parametrize("attr", ["W", "b"])
    def test_non_finite_in_worker_block_raises_before_any_write(self, attr, worker_pool):
        def head(width):
            return [DenseLayer(W=np.ones((1, width)), b=np.ones(1), spec=LayerSpec(width, 1))]

        # "lower" fills [0, 40001) and "upper" [40001, 80002); the inline
        # worker takes every block, the last one with upper.0.b among them
        params = NetworkParams(backbone=[], heads={"lower": head(40000), "upper": head(40000)})
        worker = RecordingWorker(worker_pool, "inline")
        params, state = self.steps(params.flat.size, lambda: worker, steps=1, params=params)
        before = [a.copy() for a in (params.flat, state.m, state.v)]
        grads = params.zeros_like()
        getattr(grads.heads["upper"][0], attr).flat[-1] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn_core, "_adam_worker", lambda: worker)
            mp.setattr(blas, "threads", lambda: 1)
            with pytest.raises(FloatingPointError, match=rf"for upper\.0\.{attr}$"):
                adam_step(params, grads, state)
        assert worker.jobs == 1  # the first step only
        assert state.step == 1
        for a, b in zip((params.flat, state.m, state.v), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cpus, blas_threads", [(1, 1), (2, 2), (2, None)],
                             ids=["one-cpu", "threaded-blas", "unknown-blas"])
    def test_runs_serially_and_starts_no_thread(self, monkeypatch, cpus, blas_threads):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        serial, _ = self.steps(343_984, lambda: None)
        nn_core._adam_worker.cache_clear()
        try:
            monkeypatch.setattr(nn_core, "_cpus", lambda: cpus)
            monkeypatch.setattr(threading.Thread, "start", refuse)
            params, _ = self.steps(343_984, nn_core._adam_worker, blas_threads=blas_threads)
            assert np.array_equal(params.flat, serial.flat)
            assert cpus >= 2 or nn_core._adam_worker() is None
        finally:
            nn_core._adam_worker.cache_clear()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_worker(self, monkeypatch):
        nn_core._adam_worker.cache_clear()
        monkeypatch.setattr(nn_core, "_cpus", lambda: 2)  # a worker on any machine
        monkeypatch.setattr(blas, "threads", lambda: 1)
        try:
            params = vector_params(343_984, seed=5)
            state = AdamState.for_params(params)
            grads = params.zeros_like()
            grads.flat[...] = np.random.default_rng(6).standard_normal(params.flat.size)
            adam_step(params, grads, state)
            parent_worker = nn_core._adam_worker()
            assert parent_worker is not None
            twin, twin_state = params.copy(), dataclasses.replace(
                state, m=state.m.copy(), v=state.v.copy())
            adam_step(twin, grads, twin_state)
            pid = os.fork()
            if pid == 0:  # child: a hang dies by the alarm, any error by exit code 1
                ok = False
                try:
                    signal.alarm(10)
                    adam_step(params, grads, state)
                    ok = (np.array_equal(params.flat, twin.flat)
                          and nn_core._adam_worker() not in (None, parent_worker))
                finally:
                    os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status), f"child ended by signal {os.WTERMSIG(status)}"
            assert os.WEXITSTATUS(status) == 0
        finally:
            nn_core._adam_worker.cache_clear()


class TestFlatStorage:
    def test_layers_are_views_of_one_vector(self):
        params = small_network(seed=2)
        values = flatten(params)
        flat = params.flat
        assert np.array_equal(flat, values)
        for _, layer in params.named_layers():
            assert np.shares_memory(layer.W, flat) and np.shares_memory(layer.b, flat)
        flat[0] = 42.0
        assert params.backbone[0].W[0, 0] == 42.0
        twin = params.copy()
        twin.flat[0] = -1.0
        assert params.backbone[0].W[0, 0] == 42.0
        # the backbone comes first, then the heads in sorted order
        n = sum(l.W.size + l.b.size for l in params.backbone)
        assert np.shares_memory(params.backbone[-1].b, flat[n - 1 : n])
        assert np.shares_memory(params.heads["bin"][0].W, flat[n : n + 1])

    def test_structure_is_fixed_and_construction_copies(self):
        params = small_network(seed=2)
        layer = params.heads["cont"][0]
        with pytest.raises(TypeError):
            params.heads["cont"] = (layer,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.W = np.zeros_like(layer.W)
        # vimp's case: a network built from another network's layers
        before = params.flat.copy()
        part = NetworkParams(params.backbone[1:], {"cont": params.heads["cont"]})
        part.flat[:] = np.nan
        assert np.array_equal(params.flat, before)
        assert np.array_equal(flatten(params), before)
        assert not np.shares_memory(part.flat, params.flat)
        for _, own in part.named_layers():
            assert np.shares_memory(own.W, part.flat) and np.shares_memory(own.b, part.flat)

    def test_hand_built_headless_backbone_trains(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3))
        y = x @ np.array([[1.0], [-2.0], [0.5]]) + 0.25
        layer = DenseLayer(W=np.zeros((1, 3)), b=np.zeros(1), spec=LayerSpec(3, 1, "linear"))
        params = NetworkParams(backbone=[], heads={"out": [layer]})
        state = AdamState.for_params(params, learning_rate=0.05)
        losses = []
        for _ in range(200):
            out, cache = forward(params, x, mode="train")
            diff = out["out"] - y
            losses.append(float((diff * diff).mean()))
            adam_step(params, backward(params, cache, {"out": 2.0 * diff / diff.size}), state)
        assert losses[-1] < 0.01 * losses[0]
        own = params.heads["out"][0]  # the network trained its own copy
        assert own is not layer and np.shares_memory(own.W, params.flat) and own.W.any()
        assert not layer.W.any() and not layer.b.any()  # the layer it copied kept its zeros


class TestDeterminismAndCheckpoint:
    def test_fixed_seed_identical_trajectory(self):
        def run():
            params = small_network(seed=9, dropout=0.2)
            rng = np.random.default_rng(10)
            state = AdamState.for_params(params)
            x = np.linspace(-1, 1, 20).reshape(4, 5)
            for _ in range(10):
                out, cache = forward(params, x, mode="train", rng=rng)
                grads = backward(params, cache, {"cont": out["cont"] - 1.0})
                adam_step(params, grads, state)
            return flatten(params)

        assert np.array_equal(run(), run())

    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        params = small_network(seed=4, dropout=0.2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, extra={"model": "baseline"})
        loaded, extra = load_checkpoint(path)
        assert extra["model"] == "baseline"
        assert np.array_equal(flatten(params), flatten(loaded))
        for (pa, la), (pb, lb) in zip(params.named_layers(), loaded.named_layers()):
            assert pa == pb
            assert la.spec == lb.spec

    @pytest.mark.parametrize("layer, array, keep", [(0, "W", 12), (2, "b", 8), (1, "W", 4)])
    def test_truncated_checkpoint_payload_named(self, tmp_path, layer, array, keep):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_network(seed=4), path)
        doc = json.loads(path.read_text())
        doc["layers"][layer][array] = doc["layers"][layer][array][:keep]
        path.write_text(json.dumps(doc))
        name = f"{doc['layers'][layer]['path']}.{array}"
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            load_checkpoint(path)

    @pytest.mark.parametrize("backbone, heads, name", [
        ([(5, 4), (3, 3)], {"cont": [(3, 2)], "bin": [(3, 2)]}, "backbone.1"),
        ([(5, 4), (4, 3)], {"cont": [(3, 2)], "bin": [(4, 2)]}, "bin.0"),
        ([(5, 4)], {"cont": [(4, 6), (5, 2)], "bin": [(4, 2)]}, "cont.1"),
        ([], {"cont": [(5, 2)], "bin": [(6, 2)]}, "cont.0"),
    ], ids=["backbone", "head-reads-backbone", "within-head", "heads-without-backbone"])
    def test_broken_layer_chain_named(self, tmp_path, backbone, heads, name):
        params = init_network(
            [LayerSpec(i, o) for i, o in backbone],
            {h: [LayerSpec(i, o) for i, o in dims] for h, dims in heads.items()},
            np.random.default_rng(0),
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            load_checkpoint(path)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        params = small_network(seed=4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 3)
        with pytest.raises(ValueError):
            LayerSpec(1, 1, activation="tanh")
        with pytest.raises(ValueError):
            LayerSpec(1, 1, dropout_rate=1.0)
