"""Seeded artifact fuzz: damaged dataset and raw-table CSVs.

Each case damages one CSV of a small pipeline's output (truncate mid-line,
drop a row, empty a cell, flip a byte, rename a header cell, quote a number,
insert ``#``, or CRLF line endings) and runs the command that reads it. The
exit code must be one of the documented ones, with no traceback. Each damaged
numeric matrix is also read both ways: numpy's C parser, where it takes the
file, must give the csv path's bits, and where that path fails, the same
error. The seed and the case count are fixed; never cut them.
"""

import csv
import io
import shutil

import numpy as np
import pytest

from masktab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main, run_pipeline
from masktab.data_model import _floats, _parse_body, _read_csv, _read_matrix

SEED = 20261019
N_CASES = 224  # each (file, damage) pair 4 times

PIPELINE = {
    "seed": 3,
    "synth": {"n_samples": 60, "n_sites": 18, "n_responses": 3, "weather_lag_days": 4,
              "seed": 0},
    "train": {"hidden_dims": [8], "max_epochs": 2, "patience": 2},
    "models": ["baseline"],
    "importance": {"mode": "grouped", "repeats": 1},
}
# file -> whether it is a numeric matrix (read by _read_matrix)
FILES = {
    "dataset/features.csv": True,
    "dataset/responses_cont.csv": True,
    "dataset/responses_bin.csv": True,
    "dataset/mask.csv": True,
    "dataset/blocks.csv": False,
    "raw/raw.csv": False,
    "raw/responses.csv": True,
}


def _line_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each line, its newline included."""
    spans, start = [], 0
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end + 1
        spans.append((start, end))
        start = end
    return spans


def _body_line(data: bytes, rng) -> tuple[int, int]:
    spans = _line_spans(data)
    return spans[int(rng.integers(1, len(spans)))] if len(spans) > 1 else spans[0]


def _with_cell(data: bytes, rng, edit, line=None) -> bytes:
    start, end = line or _body_line(data, rng)
    cells = data[start:end].rstrip(b"\n").split(b",")
    j = int(rng.integers(len(cells)))
    cells[j] = edit(cells[j])
    return data[:start] + b",".join(cells) + b"\n" + data[end:]


def _truncate(data, rng):
    start, end = _body_line(data, rng)
    return data[:int(rng.integers(start + 1, end))]


def _drop_row(data, rng):
    start, end = _body_line(data, rng)
    return data[:start] + data[end:]


def _flip_byte(data, rng):
    i = int(rng.integers(len(data)))
    return data[:i] + bytes([data[i] ^ int(rng.integers(1, 256))]) + data[i + 1:]


def _rename_header(data, rng):
    return _with_cell(data, rng, lambda c: b"renamed_" + c, line=_line_spans(data)[0])


def _insert_hash(data, rng):
    start, end = _body_line(data, rng)
    i = int(rng.integers(start, end))
    return data[:i] + b"#" + data[i:]


DAMAGES = {
    "truncate": _truncate,
    "drop-row": _drop_row,
    "empty-cell": lambda data, rng: _with_cell(data, rng, lambda c: b""),
    "flip-byte": _flip_byte,
    "rename-header": _rename_header,
    "quote-number": lambda data, rng: _with_cell(data, rng, lambda c: b'"' + c + b'"'),
    "insert-hash": _insert_hash,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
}
CASES = [(list(FILES)[i % len(FILES)], list(DAMAGES)[i // len(FILES) % len(DAMAGES)])
         for i in range(N_CASES)]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "art"
    run_pipeline(PIPELINE, out)
    return out


def _csv_path(path):
    header, cells = _read_csv(path)
    return header, _floats(cells)


def _outcome(read, path):
    """What ``read`` gives for a numeric CSV: its header and matrix bits, or its error."""
    try:
        header, m = read(path)
    except Exception as exc:  # compared, not judged: the CLI maps these to exit 3
        return "error", type(exc).__name__, str(exc)
    return "ok", header, m.shape, m.tobytes()


@pytest.mark.parametrize("case", range(N_CASES))
def test_damaged_artifact_is_read_or_rejected(artifacts, tmp_path, capsys, case):
    name, damage = CASES[case]
    art = tmp_path / "art"
    for part in ("raw", "dataset"):
        shutil.copytree(artifacts / part, art / part)
    path = art / name
    path.write_bytes(DAMAGES[damage](path.read_bytes(), np.random.default_rng([SEED, case])))

    if name.startswith("raw/"):
        argv = ["preprocess", "--in", str(art / "raw"), "--out", str(tmp_path / "dataset")]
    else:
        argv = ["evaluate", "--dataset", str(art / "dataset"),
                "--split", str(art / "dataset" / "split.json"),
                "--ckpt", str(artifacts / "ckpt_baseline.json"), "--out", str(tmp_path / "e.json")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), (name, damage, captured.err)
    assert "Traceback" not in captured.out + captured.err

    if FILES[name]:
        assert _outcome(_read_matrix, path) == _outcome(_csv_path, path), (name, damage)


def test_c_parser_reads_some_damaged_matrices(artifacts):
    """The equality above means something only if numpy's parser takes some
    of the damaged files; it must take the ones whose body stays numeric."""
    taken = []
    for case, (name, damage) in enumerate(CASES):
        if name not in ("dataset/features.csv", "dataset/mask.csv"):
            continue
        data = DAMAGES[damage]((artifacts / name).read_bytes(), np.random.default_rng([SEED, case]))
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
            try:
                width = len(next(csv.reader(fh)))
            except (StopIteration, ValueError):
                continue
            if _parse_body(fh, width) is not None:
                taken.append(damage)
    assert {"crlf", "drop-row", "rename-header"} <= set(taken)
