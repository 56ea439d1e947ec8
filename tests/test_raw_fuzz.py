"""Seeded raw-table fuzz: damaged cells, columns and headers of a raw table.

Each case damages a small generated raw table in ``raw.csv`` or
``responses.csv``: a few cells set to a blank, whitespace, ``nan``, ``±inf``,
``Infinity``, ``±1e308``, text, an out-of-range day or a negative value; a
column left mostly blank; or a damaged header cell. It runs
``masktab preprocess`` in process, which must exit 0 or 3, raise nothing and
emit no Python warning. On exit 0, the dataset and split it wrote must pass
``validate`` and ``SplitAssignment.violations``. The seed and the case count
are fixed; never cut them.
"""

import csv
import shutil
import warnings

import numpy as np
import pytest

from masktab.cli import EXIT_DATA, EXIT_OK, main
from masktab.data_model import SplitAssignment, load_dataset, save_raw_table, validate
from masktab.synthgen import SynthConfig, generate

SEED = 20261020
N_CASES = 240  # each (file, damage) pair 40 times

SYNTH = SynthConfig(n_samples=60, n_sites=18, n_responses=4, weather_lag_days=4, seed=0)
FILES = ("raw.csv", "responses.csv")
VALUES = ["", " ", "nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e308", "-1e308",
          "1.7976931348623157e308", "abc", "1,5", "0", "367", "400", "-1", "-5.5", "-250"]


def _cells(rows, rng):
    """One to three body cells set to values from VALUES."""
    for _ in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(1, len(rows))), int(rng.integers(len(rows[0])))
        rows[i][j] = VALUES[int(rng.integers(len(VALUES)))]


def _mostly_blank(rows, rng):
    """One column blank on a share of its rows, from half to all of them."""
    j = int(rng.integers(len(rows[0])))
    share = (0.5, 0.9, 0.95, 0.97, 1.0)[int(rng.integers(5))]
    for i in range(1, len(rows)):
        if rng.random() < share:
            rows[i][j] = ""


def _header(rows, rng):
    """One header cell renamed, blanked, or a copy of another's name."""
    j = int(rng.integers(len(rows[0])))
    other = rows[0][int(rng.integers(len(rows[0])))]
    rows[0][j] = (rows[0][j] + "_x", "", other)[int(rng.integers(3))]


DAMAGES = {"cells": _cells, "mostly-blank": _mostly_blank, "header": _header}
CASES = [(FILES[i % len(FILES)], list(DAMAGES)[i // len(FILES) % len(DAMAGES)])
         for i in range(N_CASES)]


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("raw_fuzz") / "raw"
    save_raw_table(generate(SYNTH), out)
    return out


@pytest.mark.parametrize("case", range(N_CASES))
def test_damaged_raw_table_is_preprocessed_or_rejected(raw_dir, tmp_path, capsys, case):
    name, damage = CASES[case]
    raw = tmp_path / "raw"
    shutil.copytree(raw_dir, raw)
    with open(raw / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    DAMAGES[damage](rows, np.random.default_rng([SEED, case]))
    with open(raw / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    out = tmp_path / "dataset"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["preprocess", "--in", str(raw), "--out", str(out)])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == [], (name, damage)
    assert code in (EXIT_OK, EXIT_DATA), (name, damage, err)
    if code == EXIT_OK:
        ds = load_dataset(out)
        assert validate(ds) == [], (name, damage)
        assert SplitAssignment.load(out / "split.json").violations(ds.blocks) == []
    else:
        assert err.count("\n") == 1 and not out.exists(), (name, damage, err)
