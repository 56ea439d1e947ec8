"""Raw-table to model-ready pipeline: response transforms, cyclical date
encoding, Magnus relative humidity, one-hot encoding, training-only
normalisation, and block-aware splitting.

Nothing here ever learns from test rows: imputation values and normalisation
statistics come from training rows alone and are applied unchanged elsewhere.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .data_model import (
    FeatureSchema,
    RawTable,
    SchemaEntry,
    SplitAssignment,
    TabularDataset,
)
from .jsonio import setting

logger = logging.getLogger(__name__)

DAYS_PER_YEAR = 365.0  # fixed denominator, leap years included

# August-Roche-Magnus coefficients
_MAGNUS_A = 17.625
_MAGNUS_B = 243.04

SPARSE_THRESHOLD = 0.95


def encode_day_of_year(d):
    """Map day-of-year onto the unit circle: (sin(2*pi*d/365), cos(2*pi*d/365)).

    Keeps calendar adjacency across the year boundary. Accepts scalars or
    arrays; d must lie in [1, 366].
    """
    arr = np.asarray(d, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 1) or np.any(arr > 366):
        raise ValueError(f"day of year out of range [1, 366]: {d!r}")
    angle = 2.0 * np.pi * arr / DAYS_PER_YEAR
    s, c = np.sin(angle), np.cos(angle)
    if np.isscalar(d) or arr.ndim == 0:
        return float(s), float(c)
    return s, c


def relative_humidity(T, T_d):
    """Relative humidity (percent) from air and dew-point temperature in C.

    Uses the August-Roche-Magnus saturation-pressure ratio. Supersaturated
    inputs (dew point above air temperature) are clamped to 100 with a logged
    warning; reanalysis grids occasionally produce such cells.
    """
    t = np.asarray(T, dtype=np.float64)
    td = np.asarray(T_d, dtype=np.float64)
    if np.any(~np.isfinite(t)) or np.any(~np.isfinite(td)):
        raise ValueError("non-finite temperature input")
    if np.any(t <= -_MAGNUS_B) or np.any(td <= -_MAGNUS_B):
        raise ValueError(f"temperature at or below {-_MAGNUS_B} C")
    rh = 100.0 * np.exp(_MAGNUS_A * td / (_MAGNUS_B + td)) / np.exp(
        _MAGNUS_A * t / (_MAGNUS_B + t)
    )
    clamped = rh > 100.0
    n_clamped = int(np.count_nonzero(clamped))
    if n_clamped:
        logger.warning(
            "supersaturation: clamped %d relative-humidity value(s) to 100", n_clamped
        )
        rh = np.where(clamped, 100.0, rh)
    if np.isscalar(T) and np.isscalar(T_d):
        return float(rh)
    return rh


def transform_responses(raw, loq=None):
    """Raw concentrations to (Y_cont, Y_bin, M).

    Below-LOQ measurements become exact zeros before the log(x+1) transform;
    presence is coded as concentration strictly greater than zero. NaN cells
    are unmeasured: mask 0, sentinel NaN in both response matrices.
    """
    x = np.asarray(raw, dtype=np.float64)
    mask = (~np.isnan(x)).astype(np.float64)
    observed = mask == 1.0
    if np.any(observed & (x < 0)):
        i, k = np.argwhere(observed & (x < 0))[0]
        raise ValueError(f"negative concentration at ({i},{k}): {x[i, k]}")
    vals = np.where(observed, x, 0.0)
    if loq is not None:
        loq_arr = np.asarray(loq, dtype=np.float64)
        vals = np.where(vals < loq_arr, 0.0, vals)
    y_cont = np.where(observed, np.log1p(vals), np.nan)
    y_bin = np.where(observed, (vals > 0).astype(np.float64), np.nan)
    return y_cont, y_bin, mask


def soil_ph_midpoint(value):
    """Parse a pH reading; range strings like '6.5-7.1' collapse to midpoints."""
    if value is None:
        return math.nan
    if isinstance(value, (int, float, np.floating)):
        return float(value)
    text = str(value).strip()
    if not text:
        return math.nan
    for sep in ("-", "–"):
        if sep in text[1:]:  # skip a leading minus sign
            lo_s, hi_s = text[1:].split(sep, 1)
            lo = float(text[0] + lo_s)
            return (lo + float(hi_s)) / 2.0
    return float(text)


@dataclass
class PreprocessConfig(jsonio.Document):
    """The split fractions: the pipeline's ``preprocess`` section."""

    VERSION = None

    test_fraction: float = setting("(0, 1)", 0.2)
    val_fraction_of_train: float = setting("[0, 1)", 0.2)


@dataclass(frozen=True)
class NormStats:
    """Training-row mean and population standard deviation of one column."""

    mean: float
    stdev: float

    def __iter__(self):  # unpacks as (mean, stdev)
        return iter((self.mean, self.stdev))


@dataclass
class PreprocessReport(jsonio.Document):
    """What the pipeline dropped, imputed, and learned from training rows."""

    columns_dropped: dict[str, str] = field(default_factory=dict)
    imputation_counts: dict[str, int] = field(default_factory=dict)
    normalisation_stats: dict[str, NormStats] = field(default_factory=dict)


def _is_missing_obj(v) -> bool:
    if v is None:
        return True
    if isinstance(v, (float, np.floating)):
        return math.isnan(v)
    return str(v).strip() == ""


class _Builder:
    """Accumulates encoded columns and schema entries in a fixed order."""

    def __init__(self, n_rows: int, train_rows: np.ndarray, report: PreprocessReport):
        self.n = n_rows
        self.train_rows = train_rows
        self.report = report
        self.columns: list[np.ndarray] = []
        self.entries: list[SchemaEntry] = []

    def add_continuous(self, name: str, values: np.ndarray) -> None:
        """Impute with the training median, z-score with training statistics."""
        vals = np.asarray(values, dtype=np.float64)
        missing = np.isnan(vals)
        if missing.mean() > SPARSE_THRESHOLD:
            self.report.columns_dropped[name] = "sparse>95%"
            return
        train_vals = vals[self.train_rows]
        known = train_vals[~np.isnan(train_vals)]
        if known.size == 0:
            self.report.columns_dropped[name] = "unimputable"
            return
        if missing.any():
            vals = np.where(missing, float(np.median(known)), vals)
            self.report.imputation_counts[name] = int(missing.sum())
        mean = float(vals[self.train_rows].mean())
        std = float(vals[self.train_rows].std())  # population stdev
        if std == 0.0:
            self.report.columns_dropped[name] = "constant"
            return
        self.report.normalisation_stats[name] = NormStats(mean, std)
        idx = len(self.columns)
        self.columns.append((vals - mean) / std)
        self.entries.append(
            SchemaEntry(column_index=idx, original_variable=name, kind="continuous", group_id=name)
        )

    def add_categorical(self, name: str, values: np.ndarray) -> None:
        """Impute with the training mode, expand to one indicator per level."""
        vals = np.array(list(values), dtype=object)
        missing = np.array([_is_missing_obj(v) for v in vals])
        if missing.mean() > SPARSE_THRESHOLD:
            self.report.columns_dropped[name] = "sparse>95%"
            return
        train_vals = [v for v, miss in zip(vals[self.train_rows], missing[self.train_rows]) if not miss]
        if not train_vals:
            self.report.columns_dropped[name] = "unimputable"
            return
        if missing.any():
            levels_train, counts = np.unique(np.array(train_vals, dtype=object), return_counts=True)
            # deterministic mode: highest count, ties to the smallest label
            mode = sorted(zip(-counts, [str(l) for l in levels_train]))[0][1]
            vals = np.where(missing, mode, vals.astype(str)).astype(object)
            self.report.imputation_counts[name] = int(missing.sum())
        levels = sorted({str(v) for v in vals})
        for level in levels:
            indicator = (np.char.equal(vals.astype(str), level)).astype(np.float64)
            col_name = f"{name}={level}"
            if indicator.min() == indicator.max():
                self.report.columns_dropped[col_name] = "constant"
                continue
            idx = len(self.columns)
            self.columns.append(indicator)
            self.entries.append(
                SchemaEntry(
                    column_index=idx,
                    original_variable=name,
                    kind="one_hot_level",
                    group_id=name,
                    level_label=level,
                )
            )


def encode_and_normalise(
    raw: RawTable, train_rows
) -> tuple[TabularDataset, PreprocessReport]:
    """Run the full encoding pipeline and assemble the model-ready dataset.

    Training rows drive every learned statistic (medians, modes, z-scores);
    the same values are applied verbatim to the remaining rows.
    """
    train_rows = np.asarray(train_rows, dtype=np.int64)
    if train_rows.size == 0:
        raise ValueError("empty training-row set")
    meta = raw.meta
    report = PreprocessReport()
    b = _Builder(raw.n_samples, train_rows, report)

    for name in meta.continuous_columns:
        b.add_continuous(name, raw.columns[name])
    for name in meta.soil_ph_columns:
        parsed = np.array([soil_ph_midpoint(v) for v in raw.columns[name]], dtype=np.float64)
        b.add_continuous(name, parsed)
    for name in meta.day_of_year_columns:
        days = np.asarray(raw.columns[name], dtype=np.float64)
        missing = np.isnan(days)
        known = days[train_rows][~np.isnan(days[train_rows])]
        if known.size and missing.any():
            days = np.where(missing, float(np.median(known)), days)
            report.imputation_counts[name] = int(missing.sum())
        if np.isnan(days).all():
            report.columns_dropped[name] = "unimputable"
            continue
        s, c = encode_day_of_year(days)
        b.add_continuous(f"{name}_sin", s)
        b.add_continuous(f"{name}_cos", c)

    for name in meta.temperature_lag_columns:
        b.add_continuous(name, raw.columns[name])
    if meta.temperature_lag_columns and meta.dew_point_lag_columns:
        if len(meta.temperature_lag_columns) != len(meta.dew_point_lag_columns):
            raise ValueError("temperature and dew-point lag column counts differ")
        for i, (t_col, d_col) in enumerate(
            zip(meta.temperature_lag_columns, meta.dew_point_lag_columns), start=1
        ):
            rh = relative_humidity(raw.columns[t_col], raw.columns[d_col])
            b.add_continuous(f"{meta.humidity_prefix}_{i:02d}", rh)
    for name in meta.precipitation_lag_columns:
        b.add_continuous(name, raw.columns[name])

    for name in meta.categorical_columns:
        b.add_categorical(name, raw.columns[name])

    if not b.columns:
        raise ValueError("no surviving predictor columns after preprocessing")

    y_cont, y_bin, mask = transform_responses(raw.responses, raw.loq)
    ds = TabularDataset(
        X=np.column_stack(b.columns),
        Y_cont=y_cont,
        Y_bin=y_bin,
        M=mask,
        blocks=raw.block_labels(),
        schema=FeatureSchema(entries=tuple(b.entries)),
        response_names=raw.response_names,
    )
    return ds, report


# ---------------------------------------------------------------------------
# Block-aware splitting
# ---------------------------------------------------------------------------

def _divergence(sel_pos, sel_obs, rest_pos, rest_obs) -> float:
    """Mean absolute train/test gap in per-response positive rates."""
    both = (sel_obs > 0) & (rest_obs > 0)
    if not both.any():
        return 0.0
    gap = np.abs(sel_pos[both] / sel_obs[both] - rest_pos[both] / rest_obs[both])
    return float(gap.sum() / gap.size)


def _gap_objective(sp, so, tot_p, tot_o) -> np.ndarray:
    """max + 0.02*mean positive-rate gap for stacked candidate partitions.

    sp/so count the selected side's positive and observed cells per response
    and stack candidates on a leading axis (at most one); the rest side is
    total - selected. A side with no observed cells has no positives either,
    so its 0/0 rate is masked out with the response.
    """
    rp, ro = tot_p - sp, tot_o - so
    both = (so > 0) & (ro > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = np.abs(sp / so - rp / ro)
    gaps = np.where(both, gaps, 0.0)
    # max is exact in any order, and over the transposed copy it runs as
    # contiguous elementwise passes; the mean keeps its last-axis pairwise sum
    worst = np.ascontiguousarray(gaps.T).max(axis=0)
    return worst + 0.02 * (gaps.sum(axis=-1) / gaps.shape[-1])


# refinement stops once the worst per-response gap is this small (well inside
# the 0.15 stratification target)
_GAP_GOOD_ENOUGH = 0.04


def _refine_partition(
    sel: list[str],
    rest: list[str],
    block_rows: dict[str, np.ndarray],
    pos_of: dict[str, np.ndarray],
    obs_of: dict[str, np.ndarray],
    cap_sel: float,
    max_steps: int = 30,
) -> tuple[list[str], list[str]]:
    """Single-block moves and swaps that shrink the worst positive-rate gap.

    Candidates must keep the selected side within half the largest block of
    its capacity and may never empty a side. Deterministic: candidates are
    ranked in a fixed order and the first best improvement is applied.

    Every block's positive and observed entries count 0/1 cells, so each side
    total is an exact integer in float64 whatever the order of addition: the
    selected side is kept as running sums and the rest side is total - sel.
    """
    if not sel or not rest:
        return sel, rest
    labels = sorted(sel) + sorted(rest)
    sizes = np.array([len(block_rows[lab]) for lab in labels], dtype=np.float64)
    pos = np.vstack([pos_of[lab] for lab in labels])
    obs = np.vstack([obs_of[lab] for lab in labels])
    in_sel = np.arange(len(labels)) < len(sel)
    window = sizes.max() / 2.0
    tot_p, tot_o = pos.sum(axis=0), obs.sum(axis=0)
    sp, so = pos[in_sel].sum(axis=0), obs[in_sel].sum(axis=0)
    rows_sel = sizes[in_sel].sum()

    for _ in range(max_steps):
        base = _gap_objective(sp, so, tot_p, tot_o)
        if base <= _GAP_GOOD_ENOUGH:
            break
        si = np.flatnonzero(in_sel)
        ri = np.flatnonzero(~in_sel)

        # first-best over moves out, moves in, then swaps (fixed tie order);
        # only meaningful improvements are worth another vectorised sweep
        best_obj = base - 1e-4
        flips = None
        if si.size > 1:  # moves sel -> rest, keeping sel non-empty
            t = si[np.abs(rows_sel - sizes[si] - cap_sel) <= window]
            if t.size:
                objs = _gap_objective(sp - pos[t], so - obs[t], tot_p, tot_o)
                j = int(np.argmin(objs))
                if objs[j] < best_obj:
                    best_obj = objs[j]
                    flips = [(int(t[j]), False)]
        if ri.size > 1:  # moves rest -> sel, keeping rest non-empty
            u = ri[np.abs(rows_sel + sizes[ri] - cap_sel) <= window]
            if u.size:
                objs = _gap_objective(sp + pos[u], so + obs[u], tot_p, tot_o)
                j = int(np.argmin(objs))
                if objs[j] < best_obj:
                    best_obj = objs[j]
                    flips = [(int(u[j]), True)]
        if flips is None and si.size and ri.size:
            # pairwise swap scan is the expensive one; only when moves stall.
            # Only pairs that keep the window are scored, in row-major order,
            # so argmin breaks ties towards the first (sel, rest) pair.
            delta = rows_sel - sizes[si][:, None] + sizes[ri][None, :]
            a, b = np.nonzero(np.abs(delta - cap_sel) <= window)
            if a.size:
                t, u = si[a], ri[b]
                objs = _gap_objective(
                    sp - pos[t] + pos[u], so - obs[t] + obs[u], tot_p, tot_o
                )
                j = int(np.argmin(objs))
                if objs[j] < best_obj:
                    flips = [(int(t[j]), False), (int(u[j]), True)]
        if flips is None:
            break
        for idx, flag in flips:
            in_sel[idx] = flag
            sign = 1.0 if flag else -1.0
            sp = sp + sign * pos[idx]
            so = so + sign * obs[idx]
            rows_sel += sign * sizes[idx]

    new_sel = [labels[i] for i in np.flatnonzero(in_sel)]
    new_rest = [labels[i] for i in np.flatnonzero(~in_sel)]
    return new_sel, new_rest


def _partition_blocks(
    labels: list[str],
    block_rows: dict[str, np.ndarray],
    target_fraction: float,
    pos_of: dict[str, np.ndarray],
    obs_of: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> tuple[list[str], list[str]]:
    """Greedy largest-first assignment of whole blocks to two partitions.

    Each partition has a row-count capacity (its target share). While both
    sides can still take a block without overshooting their capacity by more
    than half the block, the side that keeps per-response positive rates
    closest wins; ties go to the side lagging furthest behind its target.
    Overshoot is therefore bounded by half the largest block. pos_of/obs_of
    hold each block's per-response positive and observed cell counts.
    """
    sizes = {lab: len(block_rows[lab]) for lab in labels}
    order = sorted(rng.permutation(np.array(labels, dtype=object)), key=lambda l: -sizes[l])
    total = sum(sizes.values())
    caps = {"sel": target_fraction * total, "rest": (1.0 - target_fraction) * total}

    k = len(pos_of[labels[0]])
    pos = {"sel": np.zeros(k), "rest": np.zeros(k)}
    obs = {"sel": np.zeros(k), "rest": np.zeros(k)}
    rows_in = {"sel": 0.0, "rest": 0.0}
    out = {"sel": [], "rest": []}

    for lab in order:
        s = sizes[lab]
        b_pos, b_obs = pos_of[lab], obs_of[lab]

        def divergence_if(side: str) -> float:
            if side == "sel":
                return _divergence(pos["sel"] + b_pos, obs["sel"] + b_obs, pos["rest"], obs["rest"])
            return _divergence(pos["sel"], obs["sel"], pos["rest"] + b_pos, obs["rest"] + b_obs)

        def relative_deficit(side: str) -> float:
            return (caps[side] - rows_in[side]) / caps[side] if caps[side] > 0 else -np.inf

        feasible = [
            side for side in ("sel", "rest")
            if caps[side] - rows_in[side] >= s / 2.0
        ]
        if len(feasible) == 1:
            choice = feasible[0]
        elif len(feasible) == 2:
            ranked = sorted(
                feasible,
                key=lambda side: (divergence_if(side), -relative_deficit(side), side != "rest"),
            )
            choice = ranked[0]
        else:
            # both full: overshoot the side with the most room left
            choice = max(("sel", "rest"), key=lambda side: (caps[side] - rows_in[side], side == "rest"))
        out[choice].append(lab)
        rows_in[choice] += s
        pos[choice] += b_pos
        obs[choice] += b_obs

    selected, rest = out["sel"], out["rest"]
    if target_fraction > 0.0 and not selected and rest:
        smallest = min(rest, key=lambda l: (sizes[l], l))
        rest.remove(smallest)
        selected.append(smallest)
    selected, rest = _refine_partition(
        selected, rest, block_rows, pos_of, obs_of, caps["sel"]
    )
    return selected, rest


def split_blocks(
    blocks: np.ndarray,
    y_bin: np.ndarray,
    mask: np.ndarray,
    test_fraction: float = 0.20,
    val_fraction_of_train: float = 0.20,
    seed: int = 0,
) -> SplitAssignment:
    """Assign whole location-year blocks to train/validation/test.

    Deterministic under seed; no block ever spans two partitions. The realised
    test fraction lands within one block of the target; a greedy pass keeps
    per-response positive rates similar across sides where the block structure
    allows it.
    """
    PreprocessConfig(test_fraction, val_fraction_of_train)  # checks both fractions
    blocks = np.asarray(blocks, dtype=object)
    block_rows: dict[str, np.ndarray] = {}
    for i, lab in enumerate(blocks):
        block_rows.setdefault(lab, []).append(i)
    block_rows = {lab: np.array(rows, dtype=np.int64) for lab, rows in block_rows.items()}
    labels = sorted(block_rows)
    if len(labels) < 3:
        raise ValueError(f"need at least 3 distinct blocks, got {len(labels)}")

    pos_of, obs_of = {}, {}
    for lab, rows in block_rows.items():
        obs_of[lab] = mask[rows].sum(axis=0)
        pos_of[lab] = np.where(mask[rows] == 1.0, y_bin[rows], 0.0).sum(axis=0)

    rng = np.random.default_rng(seed)
    test_labels, train_labels = _partition_blocks(
        labels, block_rows, test_fraction, pos_of, obs_of, rng
    )
    if not train_labels:
        raise ValueError("all blocks assigned to test; too few blocks")
    val_labels, fit_labels = _partition_blocks(
        train_labels, block_rows, val_fraction_of_train, pos_of, obs_of, rng
    )
    if val_fraction_of_train > 0.0 and (not fit_labels or not val_labels):
        raise ValueError("too few blocks to keep train, validation, and test non-empty")

    def rows_of(label_list):
        if not label_list:
            return np.array([], dtype=np.int64)
        return np.sort(np.concatenate([block_rows[lab] for lab in label_list]))

    return SplitAssignment(
        train_rows=rows_of(sorted(train_labels)),
        test_rows=rows_of(sorted(test_labels)),
        val_rows=rows_of(sorted(val_labels)),
    )


def block_split(
    ds: TabularDataset,
    test_fraction: float = 0.20,
    val_fraction_of_train: float = 0.20,
    seed: int = 0,
) -> SplitAssignment:
    """Block-aware split of a built dataset (see split_blocks)."""
    return split_blocks(
        ds.blocks, ds.Y_bin, ds.M,
        test_fraction=test_fraction,
        val_fraction_of_train=val_fraction_of_train,
        seed=seed,
    )


def preprocess_raw(
    raw: RawTable,
    test_fraction: float = 0.20,
    val_fraction_of_train: float = 0.20,
    seed: int = 0,
) -> tuple[TabularDataset, SplitAssignment, PreprocessReport]:
    """Full preprocessing entry point: split first, then encode leakage-free.

    The split is decided from block labels and response observations alone, so
    the encoder can learn its statistics from training rows only.
    """
    _, y_bin, mask = transform_responses(raw.responses, raw.loq)
    split = split_blocks(
        raw.block_labels(), y_bin, mask,
        test_fraction=test_fraction,
        val_fraction_of_train=val_fraction_of_train,
        seed=seed,
    )
    ds, report = encode_and_normalise(raw, split.train_rows)
    return ds, split, report
