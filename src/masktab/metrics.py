"""Per-response evaluation metrics and winner-takes-all model ranking.

Regression metrics (RMSE, R^2) are computed on the log(x+1) training scale;
the report records this so downstream consumers do not mistake the units.
Responses whose test observations cannot support a metric (no variance, a
single outcome class) are flagged and skipped by the averages rather than
imputed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jsonio

METRIC_NAMES = ("rmse", "r2", "f1", "auc")
HIGHER_IS_BETTER = {"rmse": False, "r2": True, "f1": True, "auc": True}

REGRESSION_SCALE_NOTE = "regression metrics are on the log(x+1) concentration scale"


@dataclass
class ResponseMetrics:
    name: str
    n_observed: int
    n_positive: int
    rmse: float | None = None
    r2: float | None = None
    f1: float | None = None
    auc: float | None = None
    flags: list[str] = field(default_factory=list)


@dataclass
class EvalReport(jsonio.Document):
    per_response: list[ResponseMetrics]
    scale_note: str = REGRESSION_SCALE_NOTE

    def averages(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for key in METRIC_NAMES:
            vals = [getattr(r, key) for r in self.per_response if getattr(r, key) is not None]
            out[key] = float(np.mean(vals)) if vals else None
        return out

    def to_dict(self) -> dict:
        """The document plus its derived ``averages``, which reading drops."""
        return {**super().to_dict(), "averages": self.averages()}

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        d = jsonio.decode(dict[str, object], d)  # a JSON object, or a ValueError
        return super().from_dict({k: v for k, v in d.items() if k != "averages"})


def regression_metrics(y, y_hat, m) -> tuple[float | None, float | None, list[str]]:
    """(rmse, r2, flags) over observed entries of one response.

    R^2 = 1 - SS_res/SS_tot about the observed mean; undefined (None + flag)
    when fewer than two observations or zero variance.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    obs = np.asarray(m, dtype=np.float64) == 1.0
    flags: list[str] = []
    n = int(obs.sum())
    if n == 0:
        return None, None, ["no observed entries"]
    yo, po = y[obs], y_hat[obs]
    rmse = float(np.sqrt(np.mean((yo - po) ** 2)))
    if n < 2:
        return rmse, None, ["r2 undefined: fewer than 2 observed entries"]
    ss_tot = float(((yo - yo.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return rmse, None, ["r2 undefined: zero variance in observed targets"]
    ss_res = float(((yo - po) ** 2).sum())
    return rmse, 1.0 - ss_res / ss_tot, flags


def auc_rank(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUC via the rank statistic; ties contribute 1/2.

    Equivalent to counting concordant positive-negative score pairs. A score
    ranks at the mean 1-based rank of its tie run; a non-finite one raises.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    if not np.isfinite(scores).all():
        raise ValueError(f"AUC needs finite scores, got {scores[~np.isfinite(scores)][0]}")
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, "left")
             + np.searchsorted(ordered, scores, "right") + 1) / 2.0
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def classification_metrics(
    y, p, m, threshold: float = 0.5
) -> tuple[float | None, float | None, list[str]]:
    """(f1, auc, flags) over observed entries of one response.

    Both metrics are undefined (and flagged) when the observed targets hold a
    single outcome class. AUC is invariant under strictly monotone transforms
    of the scores; F1 depends on the threshold and is not.
    """
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    obs = np.asarray(m, dtype=np.float64) == 1.0
    if not obs.any():
        return None, None, ["no observed entries"]
    yo, po = y[obs], p[obs]
    n_pos = int((yo == 1).sum())
    n_neg = int((yo == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None, None, ["single outcome class in observed targets"]
    pred = (po >= threshold).astype(np.float64)
    tp = float(((pred == 1) & (yo == 1)).sum())
    fp = float(((pred == 1) & (yo == 0)).sum())
    fn = float(((pred == 0) & (yo == 1)).sum())
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2.0 * tp + fp + fn) > 0 else 0.0
    return f1, auc_rank(yo, po), []


def evaluate_predictions(
    y_cont: np.ndarray,
    y_bin: np.ndarray,
    mask: np.ndarray,
    cont_hat: np.ndarray,
    bin_prob: np.ndarray,
    response_names,
    threshold: float = 0.5,
) -> EvalReport:
    """Assemble the per-response report for one model's predictions."""
    per_response = []
    for k, name in enumerate(response_names):
        obs = mask[:, k] == 1.0
        n_obs = int(obs.sum())
        n_pos = int(np.nansum(np.where(obs, y_bin[:, k], 0.0)))
        rmse, r2, r_flags = regression_metrics(y_cont[:, k], cont_hat[:, k], mask[:, k])
        f1, auc, c_flags = classification_metrics(
            y_bin[:, k], bin_prob[:, k], mask[:, k], threshold=threshold
        )
        per_response.append(
            ResponseMetrics(
                name=name,
                n_observed=n_obs,
                n_positive=n_pos,
                rmse=rmse,
                r2=r2,
                f1=f1,
                auc=auc,
                flags=list(dict.fromkeys(r_flags + c_flags)),  # each flag once
            )
        )
    return EvalReport(per_response=per_response)


def winner_ranking(reports: dict[str, EvalReport]) -> dict:
    """Winner-takes-all across (response, metric) pairs.

    For every pair with at least one defined value, the single best model
    (lowest RMSE, highest R^2/F1/AUC) scores a win; exact ties go to the
    lexicographically first model name and are flagged. A lone model wins
    every defined pair.
    """
    if not reports:
        raise ValueError("winner ranking needs at least 1 model")
    names = sorted(reports)
    response_sets = [tuple(r.name for r in reports[n].per_response) for n in names]
    if len(set(response_sets)) != 1:
        raise ValueError("models were evaluated on different response sets")
    responses = response_sets[0]

    wins = {n: 0 for n in names}
    ties = []
    total = 0
    for k, resp in enumerate(responses):
        for metric in METRIC_NAMES:
            scored = [(n, getattr(reports[n].per_response[k], metric)) for n in names
                      if getattr(reports[n].per_response[k], metric) is not None]
            if not scored:
                continue
            total += 1
            better = max if HIGHER_IS_BETTER[metric] else min
            best_val = better(v for _, v in scored)
            winners = [n for n, v in scored if v == best_val]
            wins[winners[0]] += 1
            if len(winners) > 1:
                ties.append({"response": resp, "metric": metric, "models": winners})
    if total == 0:
        raise ValueError("no defined (response, metric) pairs to rank")
    return {
        "version": 1,
        "total_pairs": total,
        "wins": wins,
        "win_percentages": {n: 100.0 * wins[n] / total for n in names},
        "ties": ties,
    }
