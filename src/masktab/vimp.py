"""Permutation variable importance under the masked losses.

Importance is the percent increase in masked loss when a predictor group is
shuffled across samples, breaking its association with the responses while
preserving its distribution. Indicator columns born from one categorical are
always permuted together with the same row permutation, so permuted one-hot
rows remain valid level assignments. Grouped mode additionally bundles the
daily lag columns of one weather variable (and the sin/cos pair of one date)
into a single feature history.

Each repeat does only the work its permutation changes. A task reads one
head, so only the task's layer chain (backbone plus that head) runs. The
first layer's pre-activation on the unpermuted rows is computed once per
task and shared by every group; a permutation of the group's columns changes
it by a rank-|group| update, written into a fresh array that the activation
then overwrites, and the rest of the chain runs from there in one forward.
The repeats' losses are scored together as one stack. The baseline loss
takes the same path from the unpermuted pre-activation.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data_model import FeatureSchema, TabularDataset
from .masked_loss import MaskedBatch, masked_loss
from .nn_core import DenseLayer, NetworkParams, activate, forward

TASKS = ("regression", "classification")
IMPORTANCE_MODES = ("grouped", "per-column")

_LAG_RE = re.compile(r"^(.+)_lag_\d+$")
_SINCOS_RE = re.compile(r"^(.+)_(sin|cos)$")


# task -> (network head it reads, masked loss that scores it)
_TASK_HEADS = {"regression": ("cont", "mse"), "classification": ("bin", "bce")}


def _task_head(task: str) -> tuple[str, str]:
    if task not in _TASK_HEADS:
        raise ValueError(f"unknown task {task!r}")
    return _TASK_HEADS[task]


def _task_losses(out: np.ndarray, ds: TabularDataset, rows, task: str) -> np.ndarray:
    """The task's masked loss of each prediction in ``out`` (..., rows, responses)."""
    head, kind = _task_head(task)
    y = ds.Y_cont[rows] if head == "cont" else ds.Y_bin[rows]
    return masked_loss(kind, MaskedBatch(y=y, y_hat=out, m=ds.M[rows]))


def _task_chain(params: NetworkParams, head: str) -> tuple[DenseLayer, NetworkParams]:
    """The first layer of the head's chain, and the rest of the chain as a
    network with only that head. With no backbone the head's first layer
    comes first."""
    layers = params.heads[head]
    if params.backbone:
        return params.backbone[0], NetworkParams(params.backbone[1:], {head: layers})
    return layers[0], NetworkParams((), {head: layers[1:]})


def per_column_groups(schema: FeatureSchema) -> dict[str, list[int]]:
    """Every encoded column as its own singleton group (dummy levels separate)."""
    return {e.column_name(): [e.column_index] for e in schema.entries}


def grouped_variable_groups(schema: FeatureSchema) -> dict[str, list[int]]:
    """Schema groups with lag families and date sin/cos pairs bundled.

    Columns named ``<var>_lag_<d>`` merge into ``<var>_history``; the two
    cyclical encodings of ``<var>`` merge back into ``<var>``. Categorical
    one-hot groups are kept whole as in the schema.
    """
    merged: dict[str, list[int]] = {}
    for gid, cols in schema.groups().items():
        var = schema.entries[cols[0]].original_variable
        m = _LAG_RE.match(var)
        if m and schema.entries[cols[0]].kind == "continuous":
            merged.setdefault(f"{m.group(1)}_history", []).extend(cols)
            continue
        m = _SINCOS_RE.match(var)
        if m and schema.entries[cols[0]].kind == "continuous":
            merged.setdefault(m.group(1), []).extend(cols)
            continue
        merged.setdefault(gid, []).extend(cols)
    return {g: sorted(cols) for g, cols in merged.items()}


@dataclass
class ImportanceEntry(jsonio.Document):
    VERSION = None

    group: str
    task: str
    baseline_loss: float
    permuted_loss_mean: float
    permuted_loss_sd: float
    importance_pct: float
    n_repeats: int
    seed: int


@dataclass
class ImportanceReport(jsonio.Document):
    entries: list[ImportanceEntry]
    groups: dict[str, list[int]]
    mode: str
    n_repeats: int
    seed: int
    rows_label: str = "test"

    def task_entries(self, task: str) -> list[ImportanceEntry]:
        return [e for e in self.entries if e.task == task]


@dataclass(frozen=True)
class _TaskRows:
    """What every group's repeats share within one task: the task's chain,
    its rows, the first layer's pre-activation on them and the baseline."""

    task: str
    ds: TabularDataset
    rows: np.ndarray
    X: np.ndarray  # ds.X[rows]
    first: DenseLayer
    rest: NetworkParams  # the rest of the chain, with the task's head only
    Z0: np.ndarray  # X @ first.W.T + first.b
    width: int  # responses the head predicts
    baseline_loss: float


def _task_rows(params: NetworkParams, ds: TabularDataset, rows, task: str,
               baseline_loss: float | None = None) -> _TaskRows:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty row set")
    X = ds.X[rows]
    head, _ = _task_head(task)
    first, rest = _task_chain(params, head)
    if X.shape[1] != first.spec.in_dim:
        raise ValueError(f"shape mismatch: input has {X.shape[1]} columns, "
                         f"layer expects {first.spec.in_dim}")
    # divergence surfaces as forward's non-finite check, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        Z0 = X @ first.W.T + first.b
    if baseline_loss is None:  # the repeats' path, on the unpermuted rows
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = forward(rest, activate(Z0.copy(), first.spec.activation))
        baseline_loss = _task_losses(out[head], ds, rows, task)
    width = params.heads[head][-1].spec.out_dim
    return _TaskRows(task, ds, rows, X, first, rest, Z0, width, float(baseline_loss))


def _group_entry(t: _TaskRows, group: str, columns: list[int], n_repeats: int,
                 seed: int) -> ImportanceEntry:
    """One group's entry: every repeat permutes the group's rows, updates the
    first layer's pre-activation by the change, and runs the rest once."""
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    if not columns:
        raise ValueError(f"unknown or empty group {group!r}")
    entry_seed = jsonio.derive_seed(seed, f"{t.task}:{group}")
    rng = np.random.default_rng(np.random.PCG64(entry_seed))
    (head,) = t.rest.heads
    n = t.rows.size
    Xc = t.X[:, columns]
    W1c = t.first.W[:, columns].T
    kind = t.first.spec.activation
    outs = np.empty((n_repeats, n, t.width))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(n_repeats):
            perm = rng.permutation(n)
            # np.dot, not @: matmul takes a slow path when the group has one column
            Z = np.dot(Xc[perm] - Xc, W1c)
            Z += t.Z0
            out, _ = forward(t.rest, activate(Z, kind), mode="infer")
            outs[r] = out[head]
    losses = _task_losses(outs, t.ds, t.rows, t.task)
    if losses.min() == losses.max():  # keep exact equality when repeats agree
        mean, sd = float(losses[0]), 0.0
    else:
        mean, sd = float(losses.mean()), float(losses.std())
    baseline_loss = t.baseline_loss
    if baseline_loss != 0.0:
        importance = 100.0 * (mean - baseline_loss) / baseline_loss
    else:
        importance = 0.0 if mean == 0.0 else float("inf")
    return ImportanceEntry(
        group=group,
        task=t.task,
        baseline_loss=baseline_loss,
        permuted_loss_mean=mean,
        permuted_loss_sd=sd,
        importance_pct=importance,
        n_repeats=n_repeats,
        seed=entry_seed,
    )


def permutation_importance(
    params: NetworkParams,
    ds: TabularDataset,
    rows,
    group: str,
    columns: list[int],
    task: str,
    n_repeats: int = 30,
    seed: int = 0,
    baseline_loss: float | None = None,
) -> ImportanceEntry:
    """Permute one predictor group and measure the masked-loss increase.

    Every column of the group is shuffled with the same row permutation per
    repeat. The entry's seed is derived from (seed, task, group), so a full
    report is reproducible whatever order its entries are computed in.
    """
    t = _task_rows(params, ds, rows, task, baseline_loss)
    return _group_entry(t, group, columns, n_repeats, seed)


def importance_report(
    params: NetworkParams,
    ds: TabularDataset,
    rows,
    mode: str = "grouped",
    n_repeats: int = 30,
    seed: int = 0,
    groups: dict[str, list[int]] | None = None,
    rows_label: str = "test",
) -> ImportanceReport:
    """Importance of every predictor group, for both tasks."""
    if groups is None:
        if mode == "grouped":
            groups = grouped_variable_groups(ds.schema)
        elif mode == "per-column":
            groups = per_column_groups(ds.schema)
        else:
            raise ValueError(f"unknown mode {mode!r}; expected one of {IMPORTANCE_MODES}")
    entries: list[ImportanceEntry] = []
    for task in TASKS:
        t = _task_rows(params, ds, rows, task)
        entries.extend(_group_entry(t, g, groups[g], n_repeats, seed) for g in sorted(groups))
    return ImportanceReport(
        entries=entries, groups=groups, mode=mode, n_repeats=n_repeats, seed=seed,
        rows_label=rows_label,
    )


def rank_importance(report: ImportanceReport, top_n: int = 10) -> dict:
    """Descending importance per task plus the overlap of the two top lists.

    Ties rank in schema order (a group's first column index).
    """
    first_col = {g: min(cols) for g, cols in report.groups.items()}
    out: dict = {"version": 1, "top_n": top_n}
    tops: dict[str, list[str]] = {}
    for task in TASKS:
        ranked = sorted(
            report.task_entries(task), key=lambda e: (-e.importance_pct, first_col[e.group])
        )
        out[task] = [
            {"group": e.group, "importance_pct": e.importance_pct} for e in ranked
        ]
        tops[task] = [e.group for e in ranked[:top_n]]
    inter = [g for g in tops["regression"] if g in set(tops["classification"])]
    out["intersection"] = inter
    return out
