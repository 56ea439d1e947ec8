import builtins
import csv
import errno
import io
import math

import numpy as np
import pytest

from conftest import make_dataset
from masktab import jsonio
from masktab.data_model import (
    RawMeta,
    RawTable,
    SplitAssignment,
    _read_matrix,
    csv_rows,
    load_dataset,
    load_raw_table,
    save_dataset,
    save_raw_table,
    validate,
    write_csv,
)


class TestValidate:
    def test_consistent_dataset_is_clean(self, small_dataset):
        assert validate(small_dataset) == []

    def test_bin_cont_inconsistency_reported(self, small_dataset):
        ds = small_dataset
        i, k = 3, 1
        ds.M[i, k] = 1.0
        ds.Y_cont[i, k] = 2.0
        ds.Y_bin[i, k] = 0.0
        violations = validate(ds)
        assert violations == [f"bin/cont inconsistency at ({i},{k})"]

    def test_constant_column_reported(self, small_dataset):
        ds = small_dataset
        ds.X[:, 1] = 4.2
        violations = validate(ds)
        assert len(violations) == 1
        assert "constant column" in violations[0]
        assert "x1" in violations[0]

    def test_masked_entry_with_value_reported(self, small_dataset):
        ds = small_dataset
        ds.M[0, 0] = 0.0
        ds.Y_cont[0, 0] = 1.0
        ds.Y_bin[0, 0] = 1.0
        violations = validate(ds)
        assert violations == ["masked entry not sentinel at (0,0)"]

    def test_negative_concentration_reported(self, small_dataset):
        ds = small_dataset
        obs = np.argwhere(ds.M == 1.0)[0]
        ds.Y_cont[obs[0], obs[1]] = -0.5
        ds.Y_bin[obs[0], obs[1]] = 0.0
        violations = validate(ds)
        assert any("negative Y_cont" in v for v in violations)


class TestInterchange:
    def test_roundtrip_bit_identical(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert np.array_equal(small_dataset.X, loaded.X)
        assert np.array_equal(small_dataset.Y_cont, loaded.Y_cont, equal_nan=True)
        assert np.array_equal(small_dataset.Y_bin, loaded.Y_bin, equal_nan=True)
        assert np.array_equal(small_dataset.M, loaded.M)
        assert list(small_dataset.blocks) == list(loaded.blocks)
        assert small_dataset.schema == loaded.schema
        assert small_dataset.response_names == loaded.response_names

    def test_roundtrip_with_extreme_floats(self, small_dataset, tmp_path):
        ds = small_dataset
        ds.X[0, 0] = 1.0 / 3.0
        ds.X[1, 0] = 1e-300
        ds.X[2, 0] = 1.2345678901234567e17
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert np.array_equal(ds.X, loaded.X)

    def test_written_files_are_deterministic(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "a")
        save_dataset(small_dataset, tmp_path / "b")
        for name in ("features.csv", "responses_cont.csv", "responses_bin.csv",
                     "mask.csv", "blocks.csv", "schema.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_validate_after_roundtrip(self, tmp_path):
        ds = make_dataset(seed=5)
        assert validate(ds) == []
        save_dataset(ds, tmp_path / "ds")
        assert validate(load_dataset(tmp_path / "ds")) == []


class TestSplitAssignment:
    def test_violations_detect_leakage(self):
        blocks = np.array(["a", "a", "b", "b", "c", "c"], dtype=object)
        split = SplitAssignment(train_rows=[0, 1, 2], test_rows=[3, 4, 5], val_rows=[2])
        v = split.violations(blocks)
        assert any("spans" in s for s in v)

    def test_clean_split_passes(self):
        blocks = np.array(["a", "a", "b", "b", "c", "c"], dtype=object)
        split = SplitAssignment(train_rows=[0, 1, 2, 3], test_rows=[4, 5], val_rows=[2, 3])
        assert split.violations(blocks) == []

    @pytest.mark.parametrize("row", [6, 10000, -1], ids=["at-the-end", "far-past", "negative"])
    def test_row_outside_the_dataset_is_a_violation(self, row):
        blocks = np.array(["a", "a", "b", "b", "c", "c"], dtype=object)
        split = SplitAssignment(train_rows=[0, 1, 2, 3], test_rows=[4, 5, row], val_rows=[2, 3])
        assert split.violations(blocks) == [f"row {row} lies outside the dataset's 6 rows"]

    @pytest.mark.parametrize("rows", ["train_rows", "test_rows", "val_rows"])
    def test_repeated_row_is_a_violation(self, rows):
        blocks = np.array(["a", "a", "b", "b", "c", "c"], dtype=object)
        parts = {"train_rows": [0, 1, 2, 3], "test_rows": [4, 5], "val_rows": [2, 3]}
        parts[rows] = parts[rows] + parts[rows][::-1]  # the last row repeats first
        split = SplitAssignment(**parts)
        want = f"{rows} repeats row {parts[rows][len(parts[rows]) // 2]}"
        assert split.violations(blocks) == [want]
        assert split.violations() == [want]

    @pytest.mark.parametrize("row", [True, 12.5, 12.0, "12", None, [12]],
                             ids=["bool", "float", "whole-float", "string", "null", "list"])
    @pytest.mark.parametrize("rows", ["train_rows", "test_rows", "val_rows"])
    def test_non_integer_row_is_rejected(self, rows, row):
        parts = {"train_rows": [0, 1, 2, 3], "test_rows": [4, 5], "val_rows": [2, 3]}
        parts[rows] = parts[rows] + [row]
        with pytest.raises(ValueError, match=f"^{rows} holds "):
            SplitAssignment(**parts)

    @pytest.mark.parametrize("rows", [np.array([0.0, 1.0]), np.array([True, False]),
                                      np.array(["0", "1"]), "01", 3],
                             ids=["float-array", "bool-array", "string-array", "string", "int"])
    def test_rows_that_are_no_list_of_integers_are_rejected(self, rows):
        with pytest.raises(ValueError, match="^test_rows "):
            SplitAssignment(train_rows=[2, 3], test_rows=rows)

    def test_integer_rows_are_kept_without_a_copy(self):
        train = np.arange(4, dtype=np.int64)
        split = SplitAssignment(train_rows=train, test_rows=np.arange(4, 6, dtype=np.int32))
        assert split.train_rows is train
        assert split.test_rows.dtype == np.int64 and split.test_rows.tolist() == [4, 5]
        assert split.val_rows.dtype == np.int64 and split.val_rows.size == 0

    def test_row_past_int64_is_rejected(self):
        with pytest.raises(ValueError, match="^test_rows holds a row index past"):
            SplitAssignment(train_rows=[0], test_rows=[2**70])

    def test_val_must_be_subset(self):
        split = SplitAssignment(train_rows=[0, 1], test_rows=[2], val_rows=[2])
        assert any("subset" in s for s in split.violations())

    def test_json_roundtrip(self, tmp_path):
        split = SplitAssignment(train_rows=[0, 2, 4], test_rows=[1, 3], val_rows=[4])
        split.save(tmp_path / "split.json")
        loaded = SplitAssignment.load(tmp_path / "split.json")
        assert np.array_equal(split.train_rows, loaded.train_rows)
        assert np.array_equal(split.test_rows, loaded.test_rows)
        assert np.array_equal(split.val_rows, loaded.val_rows)

    def test_fit_rows_excludes_validation(self):
        split = SplitAssignment(train_rows=[0, 1, 2, 3], test_rows=[4], val_rows=[1, 3])
        assert split.fit_rows.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# The CSV row writer against the per-cell writer it replaces
# ---------------------------------------------------------------------------

def _oracle_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return ""
        return jsonio.format_float(float(value))
    return str(value)


def _oracle_csv(header, rows) -> bytes:
    """What one csv.writer row per row, each cell through _oracle_cell, writes."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_oracle_cell(x) for x in row])
    return fh.getvalue().encode("utf-8")


EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2 / 3,
               1.0, 2.0, -7.0, 1e16, 1e17, 123456789.0, 0.1, 1e-300]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCsvOracle:
    @pytest.mark.parametrize("with_nan", [True, False], ids=["nan", "no-nan"])
    @pytest.mark.parametrize("shape", [(19, 1), (1, 19), (7, 11)])
    def test_float_matrix_matches_oracle_and_reloads_bit_identical(self, tmp_path, shape,
                                                                   with_nan):
        values = [v for v in EDGE_VALUES if with_nan or not math.isnan(v)]
        m = np.random.default_rng(3).choice(np.array(values), size=shape)
        m.flat[:len(values)] = values[:m.size]
        header = [f"c{j}" for j in range(shape[1])]
        path = tmp_path / "m.csv"
        write_csv(path, header, csv_rows(m.T))
        assert path.read_bytes() == _oracle_csv(header, m)
        got_header, back = _read_matrix(path)
        assert got_header == header
        assert np.array_equal(_bits(back), _bits(m))

    def test_lone_empty_cell_is_quoted_as_csv_writes_it(self, tmp_path):
        m = np.array([[math.nan], [1.0], [math.nan]])
        write_csv(tmp_path / "m.csv", ["only"], csv_rows(m.T))
        assert (tmp_path / "m.csv").read_bytes() == _oracle_csv(["only"], m) == b'only\n""\n1\n""\n'
        assert np.array_equal(_bits(_read_matrix(tmp_path / "m.csv")[1]), _bits(m))

    def test_int_mask_matches_oracle(self, tmp_path):
        mask = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int64)
        write_csv(tmp_path / "mask.csv", ["a", "b", "c"], csv_rows(mask.T))
        assert (tmp_path / "mask.csv").read_bytes() == _oracle_csv(["a", "b", "c"], mask)
        assert np.array_equal(_read_matrix(tmp_path / "mask.csv")[1], mask)

    def test_dataset_files_match_oracle(self, tmp_path):
        ds = make_dataset(n=30, seed=2)
        ds.X[0, :3] = [1 / 3, -0.0, 5e-324]
        ds.X[1, :3] = [2.0, 1.7976931348623157e308, -1e-300]
        save_dataset(ds, tmp_path)
        names = list(ds.response_names)
        for file, header, rows in [
            ("features.csv", ds.schema.column_names(), ds.X),
            ("responses_cont.csv", names, ds.Y_cont),
            ("responses_bin.csv", names, ds.Y_bin),
            ("mask.csv", names, ds.M.astype(np.int64)),
            ("blocks.csv", ["block"], [[b] for b in ds.blocks]),
        ]:
            assert (tmp_path / file).read_bytes() == _oracle_csv(header, rows), file
        back = load_dataset(tmp_path)
        for a, b in [(ds.X, back.X), (ds.Y_cont, back.Y_cont), (ds.Y_bin, back.Y_bin),
                     (ds.M, back.M)]:
            assert np.array_equal(_bits(a), _bits(b))

    def test_raw_table_matches_oracle_and_reloads(self, tmp_path):
        cats = np.array(["plain", None, "a,b", 'say "hi"', "two\nlines", "", "nan",
                         "inf"], dtype=object)
        n = len(cats)
        floats = np.array([1 / 3, math.nan, -0.0, math.inf, 5e-324, -math.inf, 2.0,
                           1.7976931348623157e308])
        raw = RawTable(
            columns={
                "site": np.array([f"s{i}" for i in range(n)], dtype=object),
                "year": np.array(["2022"] * n, dtype=object),
                "moisture": floats,
                "crop": cats,
                "rate": floats[::-1].copy(),
            },
            meta=RawMeta(site_column="site", year_column="year", categorical_columns=("crop",),
                         continuous_columns=("moisture", "rate")),
            responses=np.array([[v, 1.0] for v in floats]),
            response_names=("tox_a", "tox_b"),
            loq=np.array([0.5, 1.0]),
        )
        save_raw_table(raw, tmp_path)
        names = list(raw.columns)
        assert (tmp_path / "raw.csv").read_bytes() == _oracle_csv(
            names, zip(*(raw.columns[c] for c in names)))
        assert (tmp_path / "responses.csv").read_bytes() == _oracle_csv(
            ["tox_a", "tox_b"], raw.responses)
        back = load_raw_table(tmp_path)
        assert list(back.columns["crop"]) == [None if c in (None, "") else c for c in cats]
        for name in ("moisture", "rate"):
            assert np.array_equal(_bits(back.columns[name]), _bits(raw.columns[name]))
        assert np.array_equal(_bits(back.responses), _bits(raw.responses))

    def test_carriage_return_category_is_quoted_and_reads_back(self, tmp_path):
        cats = np.array(["c\rr", "a\r\nb", "plain", "\r"], dtype=object)
        n = len(cats)
        raw = RawTable(
            columns={
                "site": np.array([f"s{i}" for i in range(n)], dtype=object),
                "year": np.array(["2022"] * n, dtype=object),
                "crop": cats,
                "moisture": np.arange(n, dtype=np.float64),
            },
            meta=RawMeta(site_column="site", year_column="year", categorical_columns=("crop",),
                         continuous_columns=("moisture",)),
            responses=np.ones((n, 1)),
            response_names=("tox_a",),
            loq=np.array([0.5]),
        )
        save_raw_table(raw, tmp_path)
        back = load_raw_table(tmp_path)
        assert list(back.columns["crop"]) == list(cats)
        assert list(back.columns["site"]) == list(raw.columns["site"])
        assert np.array_equal(back.columns["moisture"], raw.columns["moisture"])

    @pytest.mark.parametrize("loq, named", [
        ({"tox_a": "0.5"}, "tox_a must be a number, got '0.5'"),
        ([0.5], r"must be a JSON object, got \[0.5\]"),
    ], ids=["string-value", "list"])
    def test_ill_typed_loq_is_rejected_naming_it(self, tmp_path, loq, named):
        raw = RawTable(
            columns={"site": np.array(["s0", "s1"], dtype=object),
                     "year": np.array(["2022"] * 2, dtype=object),
                     "moisture": np.arange(2.0)},
            meta=RawMeta(site_column="site", year_column="year", categorical_columns=(),
                         continuous_columns=("moisture",)),
            responses=np.ones((2, 1)),
            response_names=("tox_a",),
            loq=np.array([0.5]),
        )
        save_raw_table(raw, tmp_path)
        jsonio.dump(loq, tmp_path / "loq.json")
        with pytest.raises(ValueError, match=named):
            load_raw_table(tmp_path)

    @pytest.mark.parametrize("column", [
        np.array(["x", "", None, "y,z"], dtype=object),
        np.array([1.5, math.nan, -math.inf, 0.0]),
    ], ids=["categorical", "float"])
    def test_one_column_raw_table_matches_oracle(self, tmp_path, column):
        write_csv(tmp_path / "raw.csv", ["only"], csv_rows([column]))
        assert (tmp_path / "raw.csv").read_bytes() == _oracle_csv(["only"], [[v] for v in column])


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class _DiskFullFile:
    """A text file that takes ``budget`` characters, then fails as a full disk does."""

    def __init__(self, fh, budget: int):
        self._fh, self._left = fh, budget

    def write(self, text: str) -> int:
        if len(text) > self._left:
            self._fh.write(text[:self._left])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def disk_full_halfway(monkeypatch):
    """Make every file opened for writing fail after ``budget[0]`` characters."""
    budget, real_open = [0], builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFullFile(fh, budget[0]) if mode[0] in "wxa" else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    return budget


class TestAtomicWrite:
    @pytest.mark.parametrize("artifact", ["csv", "json"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, disk_full_halfway,
                                                  artifact):
        old, new = make_dataset(n=40, seed=1), make_dataset(n=40, seed=2)
        if artifact == "csv":
            target = tmp_path / "features.csv"
            def write(ds): return save_dataset(ds, tmp_path)
        else:
            target = tmp_path / "doc.json"
            def write(ds): return jsonio.dump({"X": ds.X}, target)
        disk_full_halfway[0] = 1 << 30
        write(old)
        before = target.read_bytes()
        disk_full_halfway[0] = len(before) // 2
        with pytest.raises(OSError, match="No space left"):
            write(new)
        assert target.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_write_replaces_the_whole_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("x" * 10_000)
        jsonio.dump({"a": 1}, target)
        assert target.read_text() == '{\n  "a": 1\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_rename_onto_a_directory_fails_without_a_temp_file(self, tmp_path):
        (tmp_path / "doc.json").mkdir()
        with pytest.raises(OSError):
            jsonio.dump({"a": 1}, tmp_path / "doc.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_error_names_the_target_not_the_temp_file(self, tmp_path):
        target = tmp_path / "missing" / "doc.json"
        with pytest.raises(FileNotFoundError) as info:
            jsonio.dump({"a": 1}, target)
        assert info.value.filename == str(target)
