"""Dataset containers shared by every other module.

A model-ready dataset couples an encoded feature matrix with two response
matrices (log-scale concentrations and presence indicators), an observation
mask that is the single source of truth for which response cells exist, block
labels used for leakage-free splitting, and a feature schema that maps encoded
columns back to their original variables.

Missing responses are carried as ``NaN`` in the response matrices *and* a zero
in the mask; the mask is authoritative, the NaN is only an interchange
sentinel.
"""

import csv
import math
import numbers
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsonio

COLUMN_KINDS = ("continuous", "one_hot_level")

FEATURES_FILE = "features.csv"
RESPONSES_CONT_FILE = "responses_cont.csv"
RESPONSES_BIN_FILE = "responses_bin.csv"
MASK_FILE = "mask.csv"
BLOCKS_FILE = "blocks.csv"
SCHEMA_FILE = "schema.json"
DATASET_FILES = (FEATURES_FILE, RESPONSES_CONT_FILE, RESPONSES_BIN_FILE, MASK_FILE, BLOCKS_FILE,
                 SCHEMA_FILE)


def block_label(site: str, year) -> str:
    """Canonical block key: one location-year combination per label."""
    return f"{site}|{year}"


@dataclass(frozen=True)
class SchemaEntry:
    """One encoded feature column."""

    column_index: int
    original_variable: str
    kind: str  # "continuous" or "one_hot_level"
    group_id: str
    level_label: str | None = None

    def column_name(self) -> str:
        if self.kind == "one_hot_level":
            return f"{self.original_variable}={self.level_label}"
        return self.original_variable


@dataclass(frozen=True)
class FeatureSchema(jsonio.Document):
    """Ordered column descriptions; group_ids partition the column set.

    Continuous columns form singleton groups; all indicator columns derived
    from one categorical variable share that variable's group_id.
    """

    entries: tuple[SchemaEntry, ...]

    @property
    def n_columns(self) -> int:
        return len(self.entries)

    def column_names(self) -> list[str]:
        return [e.column_name() for e in self.entries]

    def groups(self) -> dict[str, list[int]]:
        """group_id -> column indices, in first-appearance order."""
        out: dict[str, list[int]] = {}
        for e in self.entries:
            out.setdefault(e.group_id, []).append(e.column_index)
        return out

    def validate(self) -> list[str]:
        violations = []
        idx = [e.column_index for e in self.entries]
        if idx != list(range(len(self.entries))):
            violations.append("schema column indices are not 0..P-1 in order")
        for e in self.entries:
            if e.kind not in COLUMN_KINDS:
                violations.append(f"schema column {e.column_index}: unknown kind {e.kind!r}")
            if e.kind == "one_hot_level" and e.level_label is None:
                violations.append(f"schema column {e.column_index}: one_hot_level without level_label")
        for gid, cols in self.groups().items():
            kinds = {self.entries[c].kind for c in cols}
            if len(kinds) > 1:
                violations.append(f"schema group {gid!r} mixes column kinds")
            elif kinds == {"one_hot_level"} and len(cols) < 2:
                violations.append(f"schema group {gid!r}: one-hot group has no sibling columns")
            elif kinds == {"continuous"} and len(cols) != 1:
                violations.append(f"schema group {gid!r}: continuous group is not a singleton")
        return violations


@dataclass
class TabularDataset:
    """Encoded predictors plus dual masked response matrices.

    X       : (N, P) float64, fully observed after preprocessing.
    Y_cont  : (N, K) float64, log(x+1) concentrations; NaN where masked.
    Y_bin   : (N, K) float64 in {0, 1}; NaN where masked.
    M       : (N, K) float64 in {0, 1}; 1 = response observed.
    blocks  : (N,) location-year labels.
    """

    X: np.ndarray
    Y_cont: np.ndarray
    Y_bin: np.ndarray
    M: np.ndarray
    blocks: np.ndarray
    schema: FeatureSchema
    response_names: tuple[str, ...]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y_cont = np.asarray(self.Y_cont, dtype=np.float64)
        self.Y_bin = np.asarray(self.Y_bin, dtype=np.float64)
        self.M = np.asarray(self.M, dtype=np.float64)
        self.blocks = np.asarray(self.blocks, dtype=object)
        self.response_names = tuple(self.response_names)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_responses(self) -> int:
        return self.Y_cont.shape[1]


def validate(ds: TabularDataset) -> list[str]:
    """Check every dataset invariant; returns one descriptor per violation.

    An empty list means the dataset is consistent. Violations are data, not
    exceptions: callers decide whether to abort.
    """
    v: list[str] = []
    n, p = ds.X.shape

    if ds.Y_cont.shape != ds.Y_bin.shape or ds.Y_cont.shape != ds.M.shape:
        v.append(f"response/mask shape mismatch: {ds.Y_cont.shape} vs {ds.Y_bin.shape} vs {ds.M.shape}")
        return v
    if ds.Y_cont.shape[0] != n:
        v.append(f"row count mismatch: X has {n} rows, responses have {ds.Y_cont.shape[0]}")
    if len(ds.blocks) != n:
        v.append(f"block labels: expected {n}, got {len(ds.blocks)}")
    if len(ds.response_names) != ds.Y_cont.shape[1]:
        v.append(f"response names: expected {ds.Y_cont.shape[1]}, got {len(ds.response_names)}")
    if ds.schema.n_columns != p:
        v.append(f"schema covers {ds.schema.n_columns} columns, X has {p}")
    v.extend(ds.schema.validate())

    names = ds.schema.column_names()
    if not np.isfinite(ds.X).all():
        i, j = np.argwhere(~np.isfinite(ds.X))[0]
        v.append(f"non-finite predictor at ({i},{j}), column {names[j] if j < len(names) else j!r}")
    if not np.isin(ds.M, (0.0, 1.0)).all():
        bad = np.argwhere(~np.isin(ds.M, (0.0, 1.0)))[0]
        v.append(f"mask entry not in {{0,1}} at ({bad[0]},{bad[1]})")

    observed = ds.M == 1.0
    for i, k in np.argwhere(observed & ~np.isfinite(ds.Y_cont)):
        v.append(f"observed Y_cont not finite at ({i},{k})")
    for i, k in np.argwhere(observed & (ds.Y_cont < 0)):
        v.append(f"negative Y_cont at ({i},{k})")
    with np.errstate(invalid="ignore"):
        bin_ok = np.isin(ds.Y_bin, (0.0, 1.0))
    for i, k in np.argwhere(observed & ~bin_ok):
        v.append(f"observed Y_bin not in {{0,1}} at ({i},{k})")
    consistent = bin_ok & (ds.Y_bin == (ds.Y_cont > 0))
    for i, k in np.argwhere(observed & bin_ok & ~consistent):
        v.append(f"bin/cont inconsistency at ({i},{k})")
    for i, k in np.argwhere(~observed & ~(np.isnan(ds.Y_cont) & np.isnan(ds.Y_bin))):
        v.append(f"masked entry not sentinel at ({i},{k})")

    for j in range(p):
        col = ds.X[:, j]
        if n > 0 and (col == col[0]).all():
            v.append(f"constant column {names[j] if j < len(names) else j!r}")
    return v


def first_violation(violations: list[str]) -> str:
    """The first of ``violations``, and the number of the rest, on one line."""
    rest = len(violations) - 1
    return violations[0] + (f" (and {rest} more)" if rest else "")


def _row_indices(name: str, rows) -> np.ndarray:
    """rows as an int64 array, refusing any row that is not an integer: a
    cast would read 12.5 as row 12, "12" as 12 and true as 1."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        return rows.astype(np.int64, copy=False)  # a built split: no per-row walk
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{name} must be a list of integer row indices, got {rows!r}")
    for r in rows:
        if isinstance(r, bool) or not isinstance(r, numbers.Integral):
            raise ValueError(f"{name} holds {r!r}, which is not an integer row index")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} holds a row index past the int64 range") from None


@dataclass
class SplitAssignment(jsonio.Document):
    """Row partition; validation rows are a subset of training rows."""

    train_rows: np.ndarray
    test_rows: np.ndarray
    val_rows: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        self.train_rows = _row_indices("train_rows", self.train_rows)
        self.test_rows = _row_indices("test_rows", self.test_rows)
        self.val_rows = _row_indices("val_rows", self.val_rows)

    @property
    def fit_rows(self) -> np.ndarray:
        """Training rows excluding the validation holdout."""
        return np.setdiff1d(self.train_rows, self.val_rows)

    def violations(self, blocks: np.ndarray | None = None) -> list[str]:
        v = []
        for name in ("train_rows", "test_rows", "val_rows"):
            rows = getattr(self, name)
            _, first = np.unique(rows, return_index=True)
            if first.size < rows.size:  # the first position that is no first occurrence
                repeat = np.ones(rows.size, dtype=bool)
                repeat[first] = False
                v.append(f"{name} repeats row {rows[np.argmax(repeat)]}")
        train = set(self.train_rows.tolist())
        test = set(self.test_rows.tolist())
        val = set(self.val_rows.tolist())
        if train & test:
            v.append("train and test rows overlap")
        if not val <= train:
            v.append("validation rows are not a subset of training rows")
        if blocks is not None:
            n = len(blocks)
            outside = sorted(r for r in train | test | val if not 0 <= r < n)
            if outside:  # such a row has no block to check
                v.append(f"row {outside[0]} lies outside the dataset's {n} rows")
                return v
            if train | test != set(range(n)):
                v.append("train and test do not cover all rows")
            seen: dict[str, str] = {}
            for part, rows in (("train", train - val), ("val", val), ("test", test)):
                for r in sorted(rows):
                    label = blocks[r]
                    if seen.get(label, part) != part:
                        v.append(f"block {label!r} spans {seen[label]} and {part}")
                    seen[label] = part  # report each leaking block once
        return v


# ---------------------------------------------------------------------------
# Raw (pre-encoding) table: what the generator emits and preprocessing eats.
# ---------------------------------------------------------------------------

@dataclass
class RawMeta(jsonio.Document):
    """Column roles of a raw table; drives the encoding pipeline."""

    site_column: str
    year_column: str
    categorical_columns: tuple[str, ...]
    continuous_columns: tuple[str, ...]
    day_of_year_columns: tuple[str, ...] = ()
    soil_ph_columns: tuple[str, ...] = ()
    temperature_lag_columns: tuple[str, ...] = ()
    dew_point_lag_columns: tuple[str, ...] = ()
    precipitation_lag_columns: tuple[str, ...] = ()
    humidity_prefix: str = "humidity_lag"

    @property
    def numeric_columns(self) -> tuple[str, ...]:
        """The columns read as float64, where a blank cell is NaN."""
        return (*self.continuous_columns, *self.day_of_year_columns,
                *self.temperature_lag_columns, *self.dew_point_lag_columns,
                *self.precipitation_lag_columns)


@dataclass
class RawTable:
    """Pre-encoding table: predictors as named columns, raw responses in ug/kg.

    Response cells are NaN where a compound was not measured for a sample.
    ``loq`` holds, per response, the lowest reliably quantifiable
    concentration; anything measured below it is treated as zero downstream.
    """

    columns: dict[str, np.ndarray]
    meta: RawMeta
    responses: np.ndarray  # (N, K) raw concentrations, NaN = not measured
    response_names: tuple[str, ...]
    loq: np.ndarray  # (K,)

    @property
    def n_samples(self) -> int:
        return self.responses.shape[0]

    def block_labels(self) -> np.ndarray:
        site = self.columns[self.meta.site_column]
        year = self.columns[self.meta.year_column]
        return np.array([block_label(s, y) for s, y in zip(site, year)], dtype=object)


# ---------------------------------------------------------------------------
# CSV helpers (deterministic formatting, '.' decimal separator, UTF-8)
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return ""
        return jsonio.format_float(float(value))
    return str(value)


# writerow returns what the file's write returns, and this "file" writes
# nothing and returns the line. The csv module quotes a cell holding a
# character of the line terminator, so "\r\n" makes it quote both \r and \n.
_crlf_line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\r\n").writerow


def csv_line(cells) -> str:
    """The CSV line of a row of string cells, ending in one newline."""
    return _crlf_line(cells)[:-2] + "\n"


def _quoted(cell: str) -> str:
    """One cell as csv.writer writes it amid other cells: quoted only when it
    needs to be, and an empty cell bare (a row's lone empty cell is ``""``)."""
    return csv_line([cell, ""])[:-2]


def write_csv(path, header: list[str], lines) -> None:
    """Write ``header`` and the body ``lines`` (each ending in a newline)
    through one atomic write. In a one-column file an empty line is written
    as csv.writer writes a lone empty cell, ``""``."""
    blank = '""\n' if len(header) == 1 else "\n"
    with jsonio.atomic_write(path) as fh:
        fh.write(csv_line(header))
        for line in lines:
            fh.write(blank if line == "\n" else line)


# A finite "%.17g" token holds neither "n" nor "i", so in a line of numbers
# these replacements touch only the non-finite cells, and give what _cell
# gives for them ("nan" -> "", "inf" -> "Infinity", "-inf" -> "-Infinity").
_NONFINITE = (("nan", ""), ("inf", "Infinity"))


def csv_rows(columns):
    """The CSV lines of a table given as its columns (a matrix ``m`` as ``m.T``),
    each cell as ``_cell`` writes it. Float cells fill the "%.17g" slots of one
    row template ("%.17g" % x is format(x, ".17g")); their non-finite tokens are
    fixed before the other cells, quoted beforehand, fill the "%s" slots."""
    columns = [np.asarray(c) for c in columns]
    floats = [c.dtype.kind == "f" for c in columns]
    template = ",".join("%.17g" if f else "%%s" for f in floats) + "\n"
    n = len(columns[0])
    matrix = np.column_stack([c for c, f in zip(columns, floats) if f] or [np.empty((n, 0))])
    others = [[_quoted(_cell(v)) for v in c] for c, f in zip(columns, floats) if not f]
    finite = np.isfinite(matrix).all(axis=1).tolist()
    for row, ok, cells in zip(matrix.tolist(), finite, zip(*others) if others else [()] * n):
        line = template % tuple(row)
        if not ok:
            for token, cell in _NONFINITE:
                line = line.replace(token, cell)
        yield line % cells


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and a (rows, width) object array of string cells. A missing
    header, a row whose cell count differs from the header's, a field the csv
    module rejects and text that is not UTF-8 raise ValueError naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r, [])
            if not header:
                raise ValueError(f"{path} line 1: no header")
            rows = []
            for row in r:
                if len(row) != len(header):
                    raise ValueError(f"{path} line {r.line_num}: {len(row)} cells, "
                                     f"the header has {len(header)}")
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path} line {r.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # text is decoded a block at a time: no line to name
            raise ValueError(f"{path}: {exc}") from None
        return header, np.array(rows, dtype=object).reshape(len(rows), len(header))


def _floats(path, header: list[str], cells: np.ndarray) -> np.ndarray:
    """The (rows, width) string cells of the CSV at ``path`` as float64: an
    empty cell is NaN, any other reads as ``float`` reads it (the object cast
    calls ``float`` on each cell). A cell it does not read is rejected naming
    the file, the first such row (from 0 after the header), then column."""
    try:
        return np.where(cells == "", "nan", cells).astype(np.float64)
    except ValueError:
        for i, row in enumerate(cells):
            for name, cell in zip(header, row):
                try:
                    float(cell or "nan")
                except ValueError:
                    raise ValueError(f"{path} row {i}, column {name!r}: {cell!r} "
                                     "is not a number") from None
        raise


def _read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a numeric CSV; an empty cell reads as NaN."""
    header, cells = _read_csv(path)
    return header, _floats(path, header, cells)


# ---------------------------------------------------------------------------
# Dataset interchange directory
# ---------------------------------------------------------------------------

def save_dataset(ds: TabularDataset, out_dir) -> None:
    """Write the interchange directory; row order is shared across files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(ds.response_names)
    write_csv(out / FEATURES_FILE, ds.schema.column_names(), csv_rows(ds.X.T))
    write_csv(out / RESPONSES_CONT_FILE, names, csv_rows(ds.Y_cont.T))
    write_csv(out / RESPONSES_BIN_FILE, names, csv_rows(ds.Y_bin.T))
    write_csv(out / MASK_FILE, names, csv_rows(ds.M.T))  # 0.0 and 1.0 write as 0 and 1
    write_csv(out / BLOCKS_FILE, ["block"], csv_rows([ds.blocks]))
    ds.schema.save(out / SCHEMA_FILE)


def load_dataset(in_dir) -> TabularDataset:
    src = Path(in_dir)
    schema = FeatureSchema.load(src / SCHEMA_FILE)
    _, X = _read_matrix(src / FEATURES_FILE)
    cont_header, Y_cont = _read_matrix(src / RESPONSES_CONT_FILE)
    _, Y_bin = _read_matrix(src / RESPONSES_BIN_FILE)
    _, M = _read_matrix(src / MASK_FILE)
    _, block_cells = _read_csv(src / BLOCKS_FILE)
    return TabularDataset(
        X=X,
        Y_cont=Y_cont,
        Y_bin=Y_bin,
        M=M,
        blocks=block_cells[:, 0],
        schema=schema,
        response_names=tuple(cont_header),
    )


# ---------------------------------------------------------------------------
# Raw table directory (generator output / preprocessing input)
# ---------------------------------------------------------------------------

RAW_FILE = "raw.csv"
RAW_RESPONSES_FILE = "responses.csv"
RAW_LOQ_FILE = "loq.json"
RAW_META_FILE = "meta.json"
RAW_FILES = (RAW_FILE, RAW_RESPONSES_FILE, RAW_LOQ_FILE, RAW_META_FILE)


def save_raw_table(raw: RawTable, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / RAW_FILE, list(raw.columns), csv_rows(raw.columns.values()))
    write_csv(out / RAW_RESPONSES_FILE, list(raw.response_names), csv_rows(raw.responses.T))
    jsonio.dump({n: float(q) for n, q in zip(raw.response_names, raw.loq)}, out / RAW_LOQ_FILE)
    raw.meta.save(out / RAW_META_FILE)


def load_raw_table(in_dir) -> RawTable:
    src = Path(in_dir)
    meta = RawMeta.load(src / RAW_META_FILE)
    header, cells = _read_csv(src / RAW_FILE)
    numeric = set(meta.numeric_columns)
    named = {meta.site_column, meta.year_column, *meta.categorical_columns,
             *meta.soil_ph_columns, *numeric}
    absent = sorted(named - set(header))
    if absent:
        raise ValueError(f"{src / RAW_FILE} has no column {absent[0]!r}, which "
                         f"{RAW_META_FILE} names")
    numbers = [j for j, name in enumerate(header) if name in numeric]
    # one cast of the numeric columns, each then a contiguous row of its transpose
    block = _floats(src / RAW_FILE, [header[j] for j in numbers], cells[:, numbers])
    floats = dict(zip([header[j] for j in numbers], np.ascontiguousarray(block.T)))
    columns = {name: floats[name] if name in numeric else np.where(col == "", None, col)
               for name, col in zip(header, cells.T)}
    resp_header, responses = _read_matrix(src / RAW_RESPONSES_FILE)
    if len(responses) != len(cells):
        raise ValueError(f"{src / RAW_RESPONSES_FILE} has {len(responses)} rows, "
                         f"{RAW_FILE} has {len(cells)}")
    loq = jsonio.decode(dict[str, float], jsonio.load(src / RAW_LOQ_FILE))
    lacking = [n for n in resp_header if n not in loq]
    if lacking:
        raise ValueError(f"{src / RAW_RESPONSES_FILE} has column {lacking[0]!r}, which "
                         f"{RAW_LOQ_FILE} lacks")
    return RawTable(
        columns=columns,
        meta=meta,
        responses=responses,
        response_names=tuple(resp_header),
        loq=np.array([loq[n] for n in resp_header], dtype=np.float64),
    )
