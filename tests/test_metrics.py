import numpy as np
import pytest

from masktab.metrics import (
    EvalReport,
    ResponseMetrics,
    auc_rank,
    classification_metrics,
    evaluate_predictions,
    regression_metrics,
    winner_ranking,
)


def brute_force_auc(labels, scores):
    """Concordant positive-negative pairs; ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        rmse, r2, flags = regression_metrics(y, y, np.ones(3))
        assert rmse == 0.0 and r2 == 1.0 and flags == []

    def test_mean_prediction_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        rmse, r2, _ = regression_metrics(y, np.full(4, y.mean()), np.ones(4))
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        y_hat = np.array([0.0, 1.0, 2.0, 7.0])
        rmse, r2, _ = regression_metrics(y, y_hat, np.ones(4))
        assert rmse == pytest.approx(2.0)          # sqrt(16/4)
        assert r2 == pytest.approx(-2.2)           # 1 - 16/5

    def test_only_observed_entries_count(self):
        y = np.array([0.0, 1.0, 99.0])
        y_hat = np.array([0.0, 1.0, -50.0])
        m = np.array([1.0, 1.0, 0.0])
        rmse, r2, _ = regression_metrics(y, y_hat, m)
        assert rmse == 0.0 and r2 == 1.0

    def test_zero_variance_flagged(self):
        y = np.full(4, 2.0)
        rmse, r2, flags = regression_metrics(y, y + 1.0, np.ones(4))
        assert r2 is None
        assert any("zero variance" in f for f in flags)
        assert rmse == pytest.approx(1.0)

    def test_single_observation_flagged(self):
        rmse, r2, flags = regression_metrics(np.array([2.0]), np.array([2.5]), np.array([1.0]))
        assert rmse == pytest.approx(0.5)
        assert r2 is None and any("fewer than 2" in f for f in flags)


class TestAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_rank(labels, scores) == 1.0

    def test_all_ties_half(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.full(4, 0.5)
        assert auc_rank(labels, scores) == 0.5

    def test_hand_value(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        assert auc_rank(labels, scores) == 0.75

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, size=n) / 5.0
            assert auc_rank(labels, scores) == brute_force_auc(labels, scores)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        scores = rng.random(30)
        a = auc_rank(labels, scores)
        b = auc_rank(labels, np.exp(3.0 * scores) + 7.0)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc_rank(np.ones(3), np.array([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # NaN scores have no tie run in the sorted scores, so no rank
        with pytest.raises(ValueError, match=f"AUC needs finite scores, got {bad}"):
            auc_rank(np.array([0, 1, 0, 1]), np.array([0.1, 0.4, bad, 0.2]))


class TestClassificationMetrics:
    def test_hand_values(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        p = np.array([0.9, 0.8, 0.7, 0.1])
        f1, auc, flags = classification_metrics(y, p, np.ones(4))
        assert auc == 0.75
        assert f1 == pytest.approx(0.8)  # precision 2/3, recall 1
        assert flags == []

    def test_single_class_flagged(self):
        y = np.ones(4)
        p = np.array([0.2, 0.4, 0.6, 0.8])
        f1, auc, flags = classification_metrics(y, p, np.ones(4))
        assert f1 is None and auc is None
        assert any("single outcome class" in f for f in flags)

    def test_mask_invariance(self):
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        p = np.array([0.9, 0.2, 0.8, 0.3, 0.6])
        m = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        base = classification_metrics(y, p, m)
        y2, p2 = y.copy(), p.copy()
        y2[4] = 0.0
        p2[4] = 0.999
        assert classification_metrics(y2, p2, m) == base

    def test_threshold_configurable(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.4, 0.2])
        f1_default, _, _ = classification_metrics(y, p, np.ones(2))
        f1_low, _, _ = classification_metrics(y, p, np.ones(2), threshold=0.3)
        assert f1_default == 0.0
        assert f1_low == 1.0

    def test_ranges(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n).astype(float)
            p = rng.random(n)
            f1, auc, _ = classification_metrics(y, p, np.ones(n))
            if f1 is not None:
                assert 0.0 <= f1 <= 1.0
                assert 0.0 <= auc <= 1.0


class TestEvaluatePredictions:
    def test_report_structure_and_averages(self):
        rng = np.random.default_rng(3)
        n, k = 30, 3
        y_cont = rng.gamma(2.0, 1.0, size=(n, k))
        y_bin = (y_cont > 1.5).astype(float)
        m = np.ones((n, k))
        m[:, 2] = 0.0
        m[0, 2] = 1.0  # single observation: r2 and classification undefined
        report = evaluate_predictions(
            y_cont, y_bin, m, y_cont + 0.1 * rng.standard_normal((n, k)),
            np.clip(y_bin * 0.8 + 0.1, 0.01, 0.99), tuple("abc"),
        )
        assert len(report.per_response) == 3
        avg = report.averages()
        assert avg["r2"] is not None
        assert report.per_response[2].r2 is None
        assert report.per_response[2].flags

    def test_unobserved_response_flagged_once(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        m = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        report = evaluate_predictions(y, (y > 0).astype(float), m, y, np.full((3, 2), 0.5),
                                      ("a", "b"))
        assert report.per_response[1].flags == ["no observed entries"]

    def test_json_roundtrip(self, tmp_path):
        rm = ResponseMetrics(name="a", n_observed=5, n_positive=2, rmse=0.5, r2=0.8,
                             f1=None, auc=None, flags=["single outcome class"])
        report = EvalReport(per_response=[rm])
        report.save(tmp_path / "report.json")
        loaded = EvalReport.load(tmp_path / "report.json")
        assert loaded.per_response[0] == rm
        assert loaded.averages()["f1"] is None


def report_from(values: dict[str, tuple]):
    per = []
    for name, (rmse, r2, f1, auc) in values.items():
        per.append(ResponseMetrics(name=name, n_observed=10, n_positive=5,
                                   rmse=rmse, r2=r2, f1=f1, auc=auc))
    return EvalReport(per_response=per)


class TestWinnerRanking:
    def test_sweep_winner_takes_all(self):
        a = report_from({"t1": (0.5, 0.9, 0.8, 0.95), "t2": (0.4, 0.8, 0.7, 0.9)})
        b = report_from({"t1": (0.9, 0.5, 0.5, 0.6), "t2": (0.8, 0.4, 0.4, 0.5)})
        out = winner_ranking({"alpha": a, "beta": b})
        assert out["wins"]["alpha"] == 8
        assert out["win_percentages"]["alpha"] == 100.0
        assert out["total_pairs"] == 8

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(4)
        reports = {}
        for name in ("m1", "m2", "m3"):
            reports[name] = report_from({
                f"t{k}": tuple(rng.random(4)) for k in range(6)
            })
        out = winner_ranking(reports)
        assert sum(out["win_percentages"].values()) == pytest.approx(100.0, abs=0.1)

    def test_tie_goes_to_lexicographic_first_and_flagged(self):
        a = report_from({"t1": (0.5, 0.9, 0.8, 0.95)})
        b = report_from({"t1": (0.5, 0.8, 0.7, 0.9)})
        out = winner_ranking({"zeta": a, "alpha": b})
        assert out["ties"] == [{"response": "t1", "metric": "rmse", "models": ["alpha", "zeta"]}]
        assert out["wins"]["alpha"] == 1  # the tied rmse pair
        assert out["wins"]["zeta"] == 3

    def test_undefined_metrics_skipped(self):
        a = report_from({"t1": (0.5, None, None, None)})
        b = report_from({"t1": (0.6, None, None, None)})
        out = winner_ranking({"a": a, "b": b})
        assert out["total_pairs"] == 1

    def test_single_model_wins_every_defined_pair(self):
        a = report_from({"t1": (0.5, 0.9, None, 0.95), "t2": (0.4, 0.8, 0.7, 0.9)})
        out = winner_ranking({"only": a})
        assert out["total_pairs"] == 7
        assert out["wins"] == {"only": 7}
        assert out["win_percentages"] == {"only": 100.0}
        assert out["ties"] == []

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            winner_ranking({})

    def test_misaligned_responses_rejected(self):
        a = report_from({"t1": (0.5, 0.9, 0.8, 0.95)})
        b = report_from({"t2": (0.5, 0.9, 0.8, 0.95)})
        with pytest.raises(ValueError, match="different response sets"):
            winner_ranking({"a": a, "b": b})
