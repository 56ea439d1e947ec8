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
    first_violation,
    validate,
)
from .jsonio import setting

logger = logging.getLogger(__name__)

DAYS_PER_YEAR = 365.0  # fixed denominator, leap years included

# August-Roche-Magnus coefficients
_MAGNUS_A = 17.625
_MAGNUS_B = 243.04

SPARSE_THRESHOLD = 0.95


def _where(a: np.ndarray, i: int) -> str:
    """Flat index ``i`` of ``a`` as an error's prefix: a row, a flat index, or none."""
    return f"row {i}: " if a.ndim == 1 else f"flat index {i}: " if a.ndim else ""


def encode_day_of_year(d):
    """Map day-of-year onto the unit circle: (sin(2*pi*d/365), cos(2*pi*d/365)).

    Keeps calendar adjacency across the year boundary. Accepts scalars or
    arrays; d must lie in [1, 366], and the error names the first day that
    does not (with its row in a 1-d array, its flat index in a larger one).
    """
    arr = np.asarray(d, dtype=np.float64)
    bad = ~((arr >= 1) & (arr <= 366))  # NaN fails both comparisons
    if bad.any():
        i = int(np.argmax(bad))
        day = float(arr.flat[i])
        raise ValueError(f"{_where(bad, i)}day of year {day!r} out of range [1, 366]")
    angle = 2.0 * np.pi * arr / DAYS_PER_YEAR
    s, c = np.sin(angle), np.cos(angle)
    if np.isscalar(d) or arr.ndim == 0:
        return float(s), float(c)
    return s, c


def relative_humidity(T, T_d):
    """Relative humidity (percent) from air and dew-point temperature in C.

    Uses the August-Roche-Magnus saturation-pressure ratio. Supersaturated
    inputs (dew point above air temperature) are clamped to 100 with a logged
    warning; reanalysis grids occasionally produce such cells. Any other pair
    without a finite humidity raises ValueError naming it (and a 1-d row).
    """
    t = np.asarray(T, dtype=np.float64)
    td = np.asarray(T_d, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        e_t, e_td = _MAGNUS_A * t / (_MAGNUS_B + t), _MAGNUS_A * td / (_MAGNUS_B + td)
        rh = 100.0 * np.exp(e_td) / np.exp(e_t)
    for bad, problem in [  # each mask broadcasts to rh's shape
        (~(np.isfinite(t) & np.isfinite(td)), "is not finite"),
        ((t <= -_MAGNUS_B) | (td <= -_MAGNUS_B), f"lies at or below {-_MAGNUS_B} C"),
        (np.isinf(e_t) | np.isinf(e_td) | np.isnan(rh), "has no finite Magnus humidity"),
    ]:
        if bad.any():
            i = int(np.argmax(bad))
            pair = [float(np.broadcast_to(a, bad.shape).flat[i]) for a in (t, td)]
            raise ValueError(f"{_where(bad, i)}temperature {pair[0]!r} with dew point "
                             f"{pair[1]!r} {problem}")
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
    """Parse a pH reading; range strings like '6.5-7.1' collapse to midpoints.

    None, a blank and NaN read as missing (NaN). Anything else must be a
    finite number or a range of two, else ValueError.
    """
    if value is None:
        return math.nan
    if isinstance(value, (int, float, np.floating)):
        ends = [float(value)]
    else:
        text = str(value).strip()
        lo, sep, hi = text[1:].replace("–", "-").partition("-")  # skip a leading minus sign
        ends = [float(text[0] + lo), float(hi)] if sep else [float(text or "nan")]
    if len(ends) == 1 and math.isnan(ends[0]):
        return math.nan
    if not all(map(math.isfinite, ends)):
        raise ValueError(f"{value!r} is not a finite pH reading")
    return ends[0] if len(ends) == 1 else (ends[0] + ends[1]) / 2.0


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


def _mode(labels: np.ndarray):
    """The most frequent label; np.unique sorts, so ties go to the smallest."""
    levels, counts = np.unique(labels, return_counts=True)
    return levels[np.argmax(counts)]


class _Builder:
    """Accumulates encoded columns and schema entries in a fixed order."""

    def __init__(self, train_rows: np.ndarray, report: PreprocessReport):
        self.train_rows = train_rows
        self.report = report
        self.columns: list[np.ndarray] = []
        self.entries: list[SchemaEntry] = []

    def impute(self, name: str, values: np.ndarray, missing: np.ndarray, fill):
        """values with every missing cell set to fill(known training values),
        or None once name is recorded as dropped: more than 95% missing, or
        missing on every training row."""
        if missing.mean() > SPARSE_THRESHOLD:
            self.report.columns_dropped[name] = "sparse>95%"
            return None
        known = values[self.train_rows][~missing[self.train_rows]]
        if not known.size:
            self.report.columns_dropped[name] = "unimputable"
            return None
        if missing.any():
            values = np.where(missing, fill(known), values)
            self.report.imputation_counts[name] = int(missing.sum())
        return values

    def _add(self, column: np.ndarray, name: str, kind: str, level: str | None = None) -> None:
        self.entries.append(SchemaEntry(column_index=len(self.columns), original_variable=name,
                                        kind=kind, group_id=name, level_label=level))
        self.columns.append(column)

    def add_continuous(self, name: str, values: np.ndarray) -> None:
        """Impute with the training median, z-score with training statistics;
        cells too large for these sums raise ValueError naming the column."""
        vals = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            vals = self.impute(name, vals, np.isnan(vals), np.median)
            if vals is None:
                return
            mean = float(vals[self.train_rows].mean())
            std = float(vals[self.train_rows].std())  # population stdev
            if std == 0.0:
                self.report.columns_dropped[name] = "constant"
                return
            z = (vals - mean) / std
        if not (math.isfinite(std) and np.isfinite(z).all()):  # an infinite std gives zeros
            raise ValueError(f"column {name!r}: z-scores are not finite (training mean "
                             f"{mean!r}, standard deviation {std!r})")
        self.report.normalisation_stats[name] = NormStats(mean, std)
        self._add(z, name, "continuous")

    def add_categorical(self, name: str, values) -> None:
        """Impute with the training mode, expand to one indicator per level.

        A value is its str: levels sort and compare as text."""
        values = list(values)
        labels = self.impute(name, np.array([str(v) for v in values], dtype=object),
                             np.array([_is_missing_obj(v) for v in values]), _mode)
        if labels is None:
            return
        levels, level_of = np.unique(labels, return_inverse=True)
        for i, level in enumerate(levels.tolist()):
            indicator = (level_of == i).astype(np.float64)
            if indicator.min() == indicator.max():
                self.report.columns_dropped[f"{name}={level}"] = "constant"
                continue
            self._add(indicator, name, "one_hot_level", level)


def _reject_infinite(raw: RawTable) -> None:
    """Raise ValueError naming the row and column of the first +-inf cell of
    a numeric column or of the responses; a NaN cell is missing, and passes."""
    names = [*raw.meta.numeric_columns, *raw.response_names]
    cells = np.column_stack([*(np.asarray(raw.columns[n], dtype=np.float64)
                               for n in raw.meta.numeric_columns), raw.responses])
    bad = np.argwhere(np.isinf(cells))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"row {i}, column {names[j]!r}: {cells[i, j]} is not finite")


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
    _reject_infinite(raw)
    meta = raw.meta
    report = PreprocessReport()
    b = _Builder(train_rows, report)

    for name in meta.continuous_columns:
        b.add_continuous(name, raw.columns[name])
    for name in meta.soil_ph_columns:
        parsed = np.empty(len(raw.columns[name]))
        for i, cell in enumerate(raw.columns[name]):
            try:
                parsed[i] = soil_ph_midpoint(cell)
            except ValueError as exc:
                raise ValueError(f"row {i}, column {name!r}: {exc}") from None
        b.add_continuous(name, parsed)
    for name in meta.day_of_year_columns:
        days = np.asarray(raw.columns[name], dtype=np.float64)
        days = b.impute(name, days, np.isnan(days), np.median)
        if days is not None:
            try:
                s, c = encode_day_of_year(days)
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
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
            # humidity where both lags are known; add_continuous imputes the
            # rest. A missing pair passes 0 C for both (100%), so that an
            # error names the raw row
            t, d = (np.asarray(raw.columns[c], dtype=np.float64) for c in (t_col, d_col))
            missing = np.isnan(t) | np.isnan(d)
            try:
                rh = relative_humidity(np.where(missing, 0.0, t), np.where(missing, 0.0, d))
            except ValueError as exc:
                raise ValueError(f"columns {t_col!r} and {d_col!r}, {exc}") from None
            rh[missing] = np.nan
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


def _rate_gaps(sp, so, tot_p, tot_o) -> np.ndarray:
    """Elementwise positive-rate gap between the selected side (sp/so
    positive and observed counts) and the rest (total - selected).

    A side with no observed cells has no positives either, so its 0/0 rate
    is masked out to a gap of 0.
    """
    rp, ro = tot_p - sp, tot_o - so
    both = (so > 0) & (ro > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = np.abs(sp / so - rp / ro)
    return np.where(both, gaps, 0.0)


def _gap_objective(sp, so, tot_p, tot_o) -> np.ndarray:
    """max + 0.02*mean positive-rate gap for stacked candidate partitions.

    sp/so count the selected side's positive and observed cells per response
    and stack candidates on a leading axis (at most one).
    """
    gaps = _rate_gaps(sp, so, tot_p, tot_o)
    # max is exact in any order, and over the transposed copy it runs as
    # contiguous elementwise passes; the mean keeps its last-axis pairwise sum
    worst = np.ascontiguousarray(gaps.T).max(axis=0)
    return worst + 0.02 * (gaps.sum(axis=-1) / gaps.shape[-1])


# refinement stops once the worst per-response gap is this small (well inside
# the 0.15 stratification target)
_GAP_GOOD_ENOUGH = 0.04

# the swap scan scores its pairs in chunks whose (pairs x responses) float64
# arrays stay within this many bytes. Scoring one chunk holds about seven such
# arrays at once; kept this small they are reused heap memory from chunk to
# chunk, where one stack of every pair (about 750 KB on the default survey)
# passes glibc's 128 KiB mmap and heap-trim thresholds and is faulted in
# afresh at every scan
_SCAN_BYTES = 32 * 1024


# the swap scan screens its pairs on this many of the base partition's worst
# responses. Default-survey draws on a 2-core Xeon, ms per draw against 20.6
# unscreened: 1 -> 17.6, 3 -> 13.8, 5 -> 12.4, 8 -> 12.9, 24 -> 19.7. Past
# about five, another pass over the pair grid costs more than it saves
_SCREEN_RESPONSES = 5


def _screen_swaps(fits, si, ri, sp, so, pos, obs, tot_p, tot_o, best_obj):
    """Row-major (a, b) positions of the swap pairs (si[a] sel -> rest,
    ri[b] rest -> sel) in the boolean grid fits that can still beat best_obj.

    A pair's objective fl(worst + 0.02*mean) is at least its worst gap, so at
    least its gap on any one response, and that gap is the same float
    _gap_objective computes from the same exact integer counts. A pair whose
    gap on one screened response is already >= best_obj can never be
    strictly better, so it is dropped.
    """
    worst = np.argsort(-_rate_gaps(sp, so, tot_p, tot_o), kind="stable")
    for k in worst[:_SCREEN_RESPONSES]:
        fits = fits & (_rate_gaps(sp[k] - pos[si, k][:, None] + pos[ri, k],
                                  so[k] - obs[si, k][:, None] + obs[ri, k],
                                  tot_p[k], tot_o[k]) < best_obj)
    return np.nonzero(fits)


def _first_best(t, u, sp, so, pos, obs, tot_p, tot_o, best_obj):
    """The first candidate (t[j] sel -> rest, u[j] rest -> sel) of least
    objective, if that is below best_obj, as (t[j], u[j]); else None.

    Scored in consecutive chunks of at most _SCAN_BYTES per stacked array. A
    chunk's best replaces the running best only when strictly smaller, so a
    tie goes to the first candidate and each objective is the float one stack
    of every candidate gives.
    """
    best = None
    chunk = max(1, _SCAN_BYTES // (8 * pos.shape[1]))
    for lo in range(0, t.size, chunk):
        tc, uc = t[lo:lo + chunk], u[lo:lo + chunk]
        objs = _gap_objective(sp - pos[tc] + pos[uc], so - obs[tc] + obs[uc], tot_p, tot_o)
        j = int(np.argmin(objs))
        if objs[j] < best_obj:
            best_obj, best = objs[j], (int(tc[j]), int(uc[j]))
    return best


def _refine_partition(
    sel: np.ndarray, rest: np.ndarray, sizes: np.ndarray, pos: np.ndarray, obs: np.ndarray,
    cap_sel: float, max_steps: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-block moves and swaps that shrink the worst positive-rate gap.

    sel and rest hold block indices into sizes and the (blocks x responses)
    pos/obs tallies. Candidates must keep the selected side within half the
    largest block of its capacity and may never empty a side. Deterministic:
    blocks are ranked sorted sel then sorted rest, and the first best
    improvement is applied. Both sides come back in that ranking's order.

    Every block's tallies count 0/1 cells, so each side total is an exact
    integer in float64 whatever the order of addition: the selected side is
    kept as running sums and the rest side is total - sel. A move is a swap
    with a null block of no rows, appended last and on neither side, so moves
    and swaps are scored by one scan (_first_best). Swap pairs are screened
    first (_screen_swaps).
    """
    if not sel.size or not rest.size:
        return sel, rest
    ix = np.concatenate([np.sort(sel), np.sort(rest)])
    null = ix.size  # row of the null block, which is zeroed
    sizes, pos, obs = (a[np.append(ix, 0)] for a in (sizes, pos, obs))
    sizes[null], pos[null], obs[null] = 0, 0.0, 0.0
    in_sel = np.arange(null + 1) < sel.size
    window = sizes.max() / 2.0
    tot_p, tot_o = pos.sum(axis=0), obs.sum(axis=0)
    sp, so = pos[in_sel].sum(axis=0), obs[in_sel].sum(axis=0)
    rows_sel = sizes[in_sel].sum()

    for _ in range(max_steps):
        base = _gap_objective(sp, so, tot_p, tot_o)
        if base <= _GAP_GOOD_ENOUGH:
            break
        si, ri = np.flatnonzero(in_sel), np.flatnonzero(~in_sel[:null])
        # only meaningful improvements are worth another step
        scan = (sp, so, pos, obs, tot_p, tot_o, base - 1e-4)
        # moves out, then moves in, so a tie goes to the move out; a move may
        # not empty its side
        out, into = (s if s.size > 1 else s[:0] for s in (si, ri))
        t = np.concatenate([out, np.full(into.size, null)])
        u = np.concatenate([np.full(out.size, null), into])
        fits = np.abs(rows_sel - sizes[t] + sizes[u] - cap_sel) <= window
        best = _first_best(t[fits], u[fits], *scan)
        if best is None and si.size and ri.size:
            # the pairwise swap scan is the expensive one; only when moves
            # stall. Only pairs that keep the window and pass the screen are
            # scored, in row-major order. best_obj only falls during the
            # scan, so no screened-out pair could have won
            delta = rows_sel - sizes[si][:, None] + sizes[ri][None, :]
            a, b = _screen_swaps(np.abs(delta - cap_sel) <= window, si, ri, *scan)
            best = _first_best(si[a], ri[b], *scan)
        if best is None:
            break
        t, u = best
        sp, so = sp - pos[t] + pos[u], so - obs[t] + obs[u]
        rows_sel += sizes[u] - sizes[t]
        in_sel[t], in_sel[u], in_sel[null] = False, True, False

    return ix[in_sel[:null]], ix[~in_sel[:null]]


def _partition_blocks(
    blocks: np.ndarray, sizes: np.ndarray, target_fraction: float, pos: np.ndarray,
    obs: np.ndarray, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy largest-first assignment of whole blocks to two partitions.

    blocks holds block indices into sizes and the (blocks x responses) pos/obs
    tallies of positive and observed cells. Each partition has a row-count
    capacity (its target share). While both sides can still take a block
    without overshooting their capacity by more than half the block, the side
    that keeps per-response positive rates closest wins; ties go to the side
    lagging furthest behind its target, then to rest. Overshoot is therefore
    bounded by half the largest block. Returns (selected, rest) index arrays.
    """
    perm = rng.permutation(blocks)
    order = perm[np.argsort(-sizes[perm], kind="stable")]
    caps = np.array([target_fraction, 1.0 - target_fraction]) * sizes[blocks].sum()

    # rows 0 and 1 are the selected and rest sides
    side_pos = np.zeros((2, pos.shape[1]))
    side_obs = np.zeros_like(side_pos)
    rows_in = np.zeros(2)
    side_of = np.empty(order.size, dtype=np.int64)

    for i, blk in enumerate(order):
        room = caps - rows_in
        fits = room >= sizes[blk] / 2.0
        if fits.all():
            keys = [
                (_divergence(side_pos[0] + pos[blk], side_obs[0] + obs[blk],
                             side_pos[1], side_obs[1]), -room[0] / caps[0]),
                (_divergence(side_pos[0], side_obs[0],
                             side_pos[1] + pos[blk], side_obs[1] + obs[blk]),
                 -room[1] / caps[1]),
            ]
            choice = 0 if keys[0] < keys[1] else 1  # equal keys go to rest
        else:
            # the side with more room, which is the side that fits: the rooms
            # sum to the rows not yet placed, this block's included, so one
            # side fits but for rounding, where rest takes a tie
            choice = 0 if room[0] > room[1] else 1
        side_of[i] = choice
        rows_in[choice] += sizes[blk]
        side_pos[choice] += pos[blk]
        side_obs[choice] += obs[blk]

    selected, rest = order[side_of == 0], order[side_of == 1]
    if target_fraction > 0.0 and not selected.size:
        # the smallest block, the lowest index among equals
        by_index = np.sort(rest)
        smallest = by_index[np.argmin(sizes[by_index])]
        selected, rest = np.array([smallest]), rest[rest != smallest]
    return _refine_partition(selected, rest, sizes, pos, obs, caps[0])


def _check_split_inputs(blocks: np.ndarray, y_bin: np.ndarray, mask: np.ndarray) -> None:
    """One block label and one row of 0/1 cells per sample; y_bin matters only
    where mask is 1. A count outside {0, 1}, NaN included, would corrupt the
    tallies the refinement ranks candidates by."""
    if blocks.ndim != 1 or y_bin.ndim != 2 or mask.ndim != 2:
        raise ValueError(
            f"blocks must be 1-D and y_bin, mask 2-D; got shapes "
            f"{blocks.shape}, {y_bin.shape} and {mask.shape}"
        )
    if not len(blocks) == len(y_bin) == len(mask):
        raise ValueError(
            f"blocks, y_bin and mask row counts differ: "
            f"{len(blocks)}, {len(y_bin)} and {len(mask)}"
        )
    if y_bin.shape != mask.shape:
        raise ValueError(f"y_bin and mask shapes differ: {y_bin.shape} and {mask.shape}")
    if not mask.shape[1]:
        raise ValueError(f"y_bin and mask have no response columns: shape {mask.shape}")
    for name, bad, cells in (
        ("mask", (mask != 0.0) & (mask != 1.0), mask),
        ("observed y_bin", (mask == 1.0) & (y_bin != 0.0) & (y_bin != 1.0), y_bin),
    ):
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ValueError(f"{name} cell ({i},{k}) is {cells[i, k]}, not 0 or 1")


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
    y_bin = np.asarray(y_bin, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    _check_split_inputs(blocks, y_bin, mask)
    # np.unique sorts, so block index order is label order
    labels, block_of = np.unique(blocks, return_inverse=True)
    if labels.size < 3:
        raise ValueError(f"need at least 3 distinct blocks, got {labels.size}")

    # each block's row count and its positive and observed tallies: sums of
    # 0/1 cells, so exact integers in any order
    sizes = np.bincount(block_of)
    pos = np.zeros((labels.size, mask.shape[1]))
    obs = np.zeros_like(pos)
    np.add.at(pos, block_of, np.where(mask == 1.0, y_bin, 0.0))
    np.add.at(obs, block_of, mask)

    rng = np.random.default_rng(seed)
    test, train = _partition_blocks(np.arange(labels.size), sizes, test_fraction, pos, obs, rng)
    if not train.size:
        raise ValueError("all blocks assigned to test; too few blocks")
    # the validation draw permutes train in the order the test call returned it
    val, fit = _partition_blocks(train, sizes, val_fraction_of_train, pos, obs, rng)
    if val_fraction_of_train > 0.0 and (not fit.size or not val.size):
        raise ValueError("too few blocks to keep train, validation, and test non-empty")
    return SplitAssignment(
        train_rows=np.flatnonzero(np.isin(block_of, train)),
        test_rows=np.flatnonzero(np.isin(block_of, test)),
        val_rows=np.flatnonzero(np.isin(block_of, val)),
    )


def preprocess_raw(
    raw: RawTable,
    test_fraction: float = 0.20,
    val_fraction_of_train: float = 0.20,
    seed: int = 0,
) -> tuple[TabularDataset, SplitAssignment, PreprocessReport]:
    """Full preprocessing entry point: split first, then encode leakage-free.

    The split is decided from block labels and response observations alone, so
    the encoder can learn its statistics from training rows only. A dataset
    that breaks an invariant of ``validate`` raises its first violation.
    """
    _, y_bin, mask = transform_responses(raw.responses, raw.loq)
    split = split_blocks(
        raw.block_labels(), y_bin, mask,
        test_fraction=test_fraction,
        val_fraction_of_train=val_fraction_of_train,
        seed=seed,
    )
    ds, report = encode_and_normalise(raw, split.train_rows)
    bad = validate(ds)
    if bad:
        raise ValueError(f"preprocessed dataset is invalid: {first_violation(bad)}")
    return ds, split, report
