import math

import numpy as np
import pytest

from masktab.masked_loss import (
    EPSILON,
    MaskedBatch,
    _bce_terms,
    _mse_terms,
    combined_loss,
    masked_bce,
    masked_loss,
    masked_mse,
)


def finite_diff(loss_fn, y_hat, h=1e-5):
    """Central-difference gradient of loss_fn with respect to y_hat."""
    grad = np.zeros_like(y_hat)
    it = np.nditer(y_hat, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = y_hat.copy()
        plus[idx] += h
        minus = y_hat.copy()
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * h)
    return grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


class TestMaskedMse:
    def test_hand_value(self):
        # single sample, one masked response: (0 + 4) / (2 + 1e-7)
        batch = MaskedBatch(y=[[1.0, 2.0, 3.0]], y_hat=[[1.0, 2.0, 5.0]], m=[[1, 0, 1]])
        loss, _ = masked_mse(batch)
        assert loss == pytest.approx(4.0 / (2.0 + 1e-7), abs=1e-12)
        assert loss == pytest.approx(2.0, abs=1e-6)

    def test_perfect_prediction_zero_loss(self):
        y = np.array([[0.5, 1.5], [2.0, 0.0]])
        batch = MaskedBatch(y=y, y_hat=y.copy(), m=np.ones_like(y))
        loss, grad = masked_mse(batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_fully_masked_sample_contributes_zero(self):
        batch = MaskedBatch(y=[[9.0, 9.0]], y_hat=[[1.0, 2.0]], m=[[0, 0]])
        loss, grad = masked_mse(batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.standard_normal((4, 3))
            y_hat = rng.standard_normal((4, 3))
            m = (rng.random((4, 3)) > 0.4).astype(float)
            _, grad = masked_mse(MaskedBatch(y=y, y_hat=y_hat, m=m))
            fd = finite_diff(lambda p: masked_mse(MaskedBatch(y=y, y_hat=p, m=m))[0], y_hat)
            assert rel_err(grad, fd) < 1e-6

    def test_masked_entries_do_not_matter(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((5, 4))
        y_hat = rng.standard_normal((5, 4))
        m = (rng.random((5, 4)) > 0.5).astype(float)
        loss, grad = masked_mse(MaskedBatch(y=y, y_hat=y_hat, m=m))
        y2 = y.copy()
        y2[m == 0] = np.nan  # arbitrary junk, even NaN
        loss2, grad2 = masked_mse(MaskedBatch(y=y2, y_hat=y_hat, m=m))
        assert loss == loss2
        assert np.array_equal(grad, grad2)
        assert np.all(grad[m == 0] == 0.0)

    def test_full_mask_matches_plain_mse(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 5))
        y_hat = rng.standard_normal((6, 5))
        loss, _ = masked_mse(MaskedBatch(y=y, y_hat=y_hat, m=np.ones_like(y)))
        plain = np.mean((y - y_hat) ** 2)
        k = y.shape[1]
        assert loss == pytest.approx(plain * k / (k + EPSILON), rel=1e-12)
        assert loss == pytest.approx(plain, rel=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            MaskedBatch(y=np.zeros((2, 2)), y_hat=np.zeros((2, 3)), m=np.zeros((2, 2)))


class TestMaskedBce:
    def test_hand_value(self):
        batch = MaskedBatch(y=[[1.0]], y_hat=[[0.5]], m=[[1.0]])
        loss, _ = masked_bce(batch)
        assert loss == pytest.approx(-math.log(0.5) / (1.0 + 1e-7), abs=1e-12)
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)

    def test_clipping_prevents_infinities(self):
        batch = MaskedBatch(y=[[0.0]], y_hat=[[0.0]], m=[[1.0]])
        loss, grad = masked_bce(batch)
        assert loss == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-6)
        assert loss < 1e-6
        assert grad[0, 0] == 0.0  # clip boundary is a flat region

    def test_all_masked_zero(self):
        batch = MaskedBatch(y=[[1.0, 0.0]], y_hat=[[0.3, 0.9]], m=[[0, 0]])
        loss, grad = masked_bce(batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = (rng.random((4, 3)) > 0.5).astype(float)
            y_hat = rng.uniform(0.05, 0.95, size=(4, 3))
            m = (rng.random((4, 3)) > 0.4).astype(float)
            _, grad = masked_bce(MaskedBatch(y=y, y_hat=y_hat, m=m))
            fd = finite_diff(lambda p: masked_bce(MaskedBatch(y=y, y_hat=p, m=m))[0], y_hat)
            assert rel_err(grad, fd) < 1e-5

    def test_masked_targets_ignored_bitwise(self):
        y = np.array([[1.0, 0.0, 1.0]])
        y_hat = np.array([[0.8, 0.4, 0.6]])
        m = np.array([[1.0, 0.0, 1.0]])
        loss, grad = masked_bce(MaskedBatch(y=y, y_hat=y_hat, m=m))
        y2 = y.copy()
        y2[0, 1] = 7.5  # invalid value, but masked out
        loss2, grad2 = masked_bce(MaskedBatch(y=y2, y_hat=y_hat, m=m))
        assert loss == loss2
        assert np.array_equal(grad, grad2)

    def test_invalid_observed_target_raises(self):
        with pytest.raises(ValueError, match="binary target"):
            masked_bce(MaskedBatch(y=[[0.5]], y_hat=[[0.5]], m=[[1.0]]))

    def test_full_mask_matches_plain_bce(self):
        rng = np.random.default_rng(4)
        y = (rng.random((6, 5)) > 0.5).astype(float)
        p = rng.uniform(0.01, 0.99, size=(6, 5))
        loss, _ = masked_bce(MaskedBatch(y=y, y_hat=p, m=np.ones_like(y)))
        plain = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        k = y.shape[1]
        assert loss == pytest.approx(plain * k / (k + EPSILON), rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = (rng.random((3, 4)) > 0.5).astype(float)
            p = rng.random((3, 4))
            m = (rng.random((3, 4)) > 0.3).astype(float)
            loss, _ = masked_bce(MaskedBatch(y=y, y_hat=p, m=m))
            assert loss >= 0.0


class TestCombinedLoss:
    def _batches(self, seed=0):
        rng = np.random.default_rng(seed)
        yc = rng.standard_normal((4, 3))
        pc = rng.standard_normal((4, 3))
        yb = (rng.random((4, 3)) > 0.5).astype(float)
        pb = rng.uniform(0.1, 0.9, size=(4, 3))
        m = (rng.random((4, 3)) > 0.4).astype(float)
        return MaskedBatch(y=yc, y_hat=pc, m=m), MaskedBatch(y=yb, y_hat=pb, m=m)

    def test_weight_one_zero_matches_mse(self):
        cont, binary = self._batches()
        total, g_cont, g_bin = combined_loss(cont, binary, weights=(1.0, 0.0))
        loss, grad = masked_mse(cont)
        assert total == loss
        assert np.array_equal(g_cont, grad)
        assert np.all(g_bin == 0.0)

    def test_weight_zero_one_matches_bce(self):
        cont, binary = self._batches(1)
        total, g_cont, g_bin = combined_loss(cont, binary, weights=(0.0, 1.0))
        loss, grad = masked_bce(binary)
        assert total == loss
        assert np.array_equal(g_bin, grad)
        assert np.all(g_cont == 0.0)

    def test_additivity(self):
        cont, binary = self._batches(2)
        total, _, _ = combined_loss(cont, binary, weights=(1.0, 1.0))
        assert total == pytest.approx(masked_mse(cont)[0] + masked_bce(binary)[0], abs=1e-9)

    def test_row_mismatch_raises(self):
        cont, binary = self._batches(3)
        short = MaskedBatch(y=binary.y[:2], y_hat=binary.y_hat[:2], m=binary.m[:2])
        with pytest.raises(ValueError, match="row-count mismatch"):
            combined_loss(cont, short)


class TestStackedLoss:
    @staticmethod
    def stack(kind):
        rng = np.random.default_rng(7)
        n, k, r = 9, 4, 6
        m = (rng.random((n, k)) > 0.3).astype(float)
        m[0] = 0.0  # a fully masked sample
        if kind == "mse":
            y = rng.standard_normal((n, k))
            y_hat = rng.standard_normal((r, n, k))
        else:
            y = (rng.random((n, k)) > 0.5).astype(float)
            y_hat = rng.random((r, n, k))
            y_hat[0, 1, :2] = (0.0, 1.0)  # inside the clip region
        y[m == 0] = np.nan
        return y, y_hat, m

    @pytest.mark.parametrize("kind, single", [("mse", masked_mse), ("bce", masked_bce)])
    def test_each_entry_is_the_single_prediction_loss(self, kind, single):
        y, y_hat, m = self.stack(kind)
        losses = masked_loss(kind, MaskedBatch(y=y, y_hat=y_hat, m=m))
        expected = [single(MaskedBatch(y=y, y_hat=p, m=m))[0] for p in y_hat]
        assert losses.shape == (y_hat.shape[0],)
        assert np.array_equal(losses, expected)

    def test_single_prediction_losses_reject_a_stack(self):
        y, y_hat, m = self.stack("mse")
        with pytest.raises(ValueError, match="one .* prediction"):
            masked_mse(MaskedBatch(y=y, y_hat=y_hat, m=m))

    def test_stack_shape_mismatch_and_unknown_kind_raise(self):
        y, y_hat, m = self.stack("mse")
        with pytest.raises(ValueError, match="shape mismatch"):
            MaskedBatch(y=y, y_hat=y_hat[:, :-1], m=m)
        with pytest.raises(ValueError, match="unknown loss kind"):
            masked_loss("mae", MaskedBatch(y=y, y_hat=y_hat, m=m))


# ---------------------------------------------------------------------------
# Oracle: the loss terms as first written, two logs per BCE cell and masked
# residuals built by np.where. The kernels must match them bit for bit.
# ---------------------------------------------------------------------------

def oracle_mse_terms(batch):
    observed = batch.m != 0.0
    diff = np.where(observed, batch.y_hat - np.where(observed, batch.y, 0.0), 0.0)
    denom = batch.m.sum(axis=1) + EPSILON
    per_sample = (diff * diff).sum(axis=-1) / denom
    return per_sample.sum(axis=-1) / batch.y.shape[0], diff, denom


def oracle_bce_terms(batch):
    observed = batch.m != 0.0
    y = np.where(observed, batch.y, 0.0)
    eps = EPSILON
    p = np.clip(batch.y_hat, eps, 1.0 - eps)
    ll = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    denom = batch.m.sum(axis=1) + eps
    per_sample = -(np.where(observed, ll, 0.0)).sum(axis=-1) / denom
    return per_sample.sum(axis=-1) / batch.y.shape[0], y, p, denom


# clip boundaries and values beyond them, for the BCE predictions
CLIP_EDGES = (0.0, 1.0, EPSILON, 1.0 - EPSILON, 1e-9, 1.0 - 1e-9)


class TestLossTermsMatchOracle:
    @staticmethod
    def batch(kind, stack, seed):
        rng = np.random.default_rng(seed)
        n, k = 63, 24
        m = (rng.random((n, k)) > 0.4).astype(float)
        m[:3] = 0.0  # fully masked rows
        shape = (n, k) if stack is None else (stack, n, k)
        if kind == "mse":
            y = np.abs(rng.standard_normal((n, k)))
            y_hat = 2.0 * rng.standard_normal(shape)
        else:
            y = (rng.random((n, k)) > 0.5).astype(float)
            y_hat = rng.random(shape)
            # every clip edge, against both targets, in every prediction
            edges = np.resize(np.array(CLIP_EDGES), (2 * len(CLIP_EDGES),))
            y_hat[..., 3:3 + edges.size, 0] = edges
            y[3:3 + edges.size, 0] = np.repeat([0.0, 1.0], len(CLIP_EDGES))
            m[3:3 + edges.size, 0] = 1.0
        y[m == 0] = np.nan
        return MaskedBatch(y=y, y_hat=y_hat, m=m)

    @pytest.mark.parametrize("stack", [None, 1, 30], ids=["single", "stack-1", "stack-30"])
    @pytest.mark.parametrize("kind, terms, oracle", [
        ("mse", _mse_terms, oracle_mse_terms),
        ("bce", _bce_terms, oracle_bce_terms),
    ])
    def test_bit_identical(self, kind, terms, oracle, stack):
        for seed in range(3):
            batch = self.batch(kind, stack, seed)
            y_hat = batch.y_hat.copy()
            got, want = terms(batch), oracle(batch)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            assert batch.y_hat.tobytes() == y_hat.tobytes()  # the input is not written


# ---------------------------------------------------------------------------
# Masked targets are inert whatever they hold: NaN above, and here the
# infinities, the extremes and a signed zero. Seeds and cases are fixed.
# ---------------------------------------------------------------------------

MASKED_JUNK = (math.inf, -math.inf, 1e308, -1e308, -0.0)


class TestMaskedCellsAreInert:
    @staticmethod
    def batch(kind, shape, seed, fill):
        """Targets whose masked cells hold ``fill``; everything else depends
        on the seed alone."""
        rng = np.random.default_rng(seed)
        n, k = shape[-2:]
        m = (rng.random((n, k)) > 0.4).astype(float)
        m[0] = 0.0  # a fully masked sample
        if kind == "mse":
            y, y_hat = rng.standard_normal((n, k)), rng.standard_normal(shape)
        else:
            y, y_hat = (rng.random((n, k)) > 0.5).astype(float), rng.random(shape)
        y[m == 0] = fill
        return MaskedBatch(y=y, y_hat=y_hat, m=m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill", MASKED_JUNK)
    @pytest.mark.parametrize("kind, single", [("mse", masked_mse), ("bce", masked_bce)])
    def test_loss_and_gradient_keep_their_bits(self, kind, single, fill):
        for seed in range(3):
            want_loss, want_grad = single(self.batch(kind, (13, 5), seed, 0.0))
            batch = self.batch(kind, (13, 5), seed, fill)
            loss, grad = single(batch)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert not grad[batch.m == 0].any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill", MASKED_JUNK)
    @pytest.mark.parametrize("kind", ["mse", "bce"])
    def test_stacked_losses_keep_their_bits(self, kind, fill):
        for seed in range(3):
            want = masked_loss(kind, self.batch(kind, (7, 13, 5), seed, 0.0))
            got = masked_loss(kind, self.batch(kind, (7, 13, 5), seed, fill))
            assert got.shape == (7,) and got.tobytes() == want.tobytes()
