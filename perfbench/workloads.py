"""The benchmark's three workloads, their set-up and their output checks.

Each workload is a closed loop: one process, one caller, each operation
starting after the previous one ends. The library is driven through
`masktab.cli.main`, or through `preprocess.split_blocks` for the split sweep,
and sees only inputs generated from the workload seed.

An operation is one `masktab pipeline` run, one `masktab importance` command,
or one sweep of consecutive split seeds. Untraced runs repeat the operation
until at least `min_ops` have run and `seconds` have passed. A
`speed.SpeedProbe` samples the machine's speed through the whole untraced
run, and every time it reports, set-up included, is scaled to the probe's
reference speed. Traced runs run at least three operations, trace every second
one, and keep wall times, so the same run also measures the tracing overhead.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from masktab import cli, data_model, preprocess, synthgen
import speed
from speed import SpeedProbe
from tracing import Tracer, cross_check, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


# The amount of training must not depend on the seed, or runs at different
# seeds cannot be compared. With the default early stopping, one pipeline took
# from 23 s to 49 s over seeds 1-5, so every model trains a fixed number of
# epochs (patience equal to the epoch limit never stops early). With batches
# of 32, the ~192 training rows straddle a batch boundary, and batches per
# epoch flip between 6 and 7 with the seed. Batches of 40 give 5 for every
# seed from 0 to 11. Everything else is the default configuration.
FIXED_WORK = {"max_epochs": 45, "patience": 45, "batch_size": 40,
              "ae": {"max_epochs": 15, "patience": 15, "batch_size": 40}}


@dataclass(frozen=True)
class Size:
    """How big the inputs and how many repetitions; FULL is the benchmark."""

    synth: dict = field(default_factory=dict)  # SynthConfig overrides
    train: dict = field(default_factory=lambda: FIXED_WORK)  # TrainConfig overrides
    repeats: int = 30  # permutation repeats, both importance modes
    draws: int = 200  # consecutive split seeds per sweep
    setups: int = 3  # set-up repetitions; setup_s is their median
    imports: int = 5  # fresh-interpreter imports timed for setup_s


FULL = Size()

# Small enough for the self-tests to run every workload in seconds.
TINY = Size(
    synth={"n_samples": 70, "n_sites": 20, "n_responses": 4, "weather_lag_days": 6},
    train={"hidden_dims": [24, 12], "max_epochs": 15, "patience": 15,
           "ae": {"encoder_dims": [24, 12], "max_epochs": 6, "patience": 6}},
    repeats=3, draws=5, setups=2, imports=1,
)


@dataclass
class Outcome:
    """What one run measured and how many of its operations failed a check."""

    metrics: dict = field(default_factory=dict)  # end-to-end, untraced ops only
    layers: dict = field(default_factory=dict)  # per-layer, traced runs only
    table: dict = field(default_factory=dict)  # the workload's own names, for people
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one checked operation; it failed if any check did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _call_cli(argv: list[str]) -> int:
    # the commands' progress lines would bury the result line
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _probe(tracer: Tracer | None, reference: speed.Reference):
    """The speed probe of an untraced run; a traced run keeps wall times."""
    return SpeedProbe(reference) if tracer is None else contextlib.nullcontext()


def _elapsed(probe: SpeedProbe | None, start: float, end: float) -> float:
    """Seconds this process spent from start to end, at reference speed
    when probed."""
    return end - start if probe is None else probe.scale(start, end)


def median_import_s(root: Path, n: int, probe: SpeedProbe | None) -> float:
    """Median time to import masktab in a fresh interpreter.

    The child reads the same monotonic clock as this process, which probes
    while it waits, so the probe scales the child's time too.
    """
    code = ("import time; t = time.perf_counter(); import masktab.cli; "
            "print(t, time.perf_counter())")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        start, end = map(float, done.stdout.split()[-2:])
        times.append((end - start) * (1.0 if probe is None else probe.factor(start, end)))
    return statistics.median(times)


def default_survey(size: Size):
    """The survey of the default synthesis config (seed 0), at this size."""
    return synthgen.generate(synthgen.SynthConfig.from_dict(size.synth))


def _timed_ops(op, seconds: float, min_ops: int, tracer: Tracer | None,
               probe: SpeedProbe | None):
    """Run op(index, tracer_or_None) in a closed loop.

    Each op returns the (start, end) clock readings of the items it timed.
    Returns the item times of the untraced and of the traced ops, one list
    per op, and the untraced items' wall times.
    """
    untraced, traced, wall = [], [], []
    if tracer is not None:
        min_ops = max(min_ops, 3)  # untraced, traced, untraced
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None and i % 2 == 1:
            traced.append([b - a for a, b in op(i, tracer)])
        else:
            spans = op(i, None)
            untraced.append([_elapsed(probe, a, b) for a, b in spans])
            wall += [b - a for a, b in spans]
        i += 1
    return untraced, traced, wall


def _traced(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def _finish(out: Outcome, untraced, traced, wall, probe: SpeedProbe | None,
            tracer: Tracer | None, setup_s: float) -> Outcome:
    """Add the metrics every workload reports, from the untraced item times."""
    items = [t for op in untraced for t in op]
    out.metrics["op_p50_ms"] = 1e3 * statistics.median(items)
    out.metrics["op_p95_ms"] = 1e3 * float(np.percentile(items, 95))
    out.metrics["ops_per_s"] = len(items) / sum(items)
    out.metrics["setup_s"] = setup_s
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.table["wall_p50_ms"] = 1e3 * statistics.median(wall)
    if probe is not None:
        out.table["machine_speed"] = probe.speed()
        out.table["speed_probes"] = len(probe.samples)
    if tracer is not None:
        out.record(cross_check(tracer))
        out.layers = layer_metrics(tracer)
        base = statistics.median(sum(op) for op in untraced)
        overhead = statistics.median(sum(op) for op in traced) - base
        out.layers["trace.overhead_s"] = overhead
        out.layers["trace.overhead_pct"] = 100.0 * overhead / base
    return out


# ---------------------------------------------------------------------------
# pipeline-default
# ---------------------------------------------------------------------------

DETERMINISM_GLOBS = ("ckpt_*.json", "importance.json", "report.json")


def winner_averages(out_dir: Path) -> dict:
    """The winning model's test-row averages from report.json (cli's rule)."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    pct = report["ranking"]["win_percentages"]
    best = max(sorted(pct), key=lambda m: pct[m])
    row = next(r for r in report["models"] if r["model"] == best)
    return {"test_r2": row["r2"], "test_auc": row["auc"]}


def _artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for pattern in DETERMINISM_GLOBS for p in sorted(out_dir.glob(pattern))}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def accuracy_problems(seed: int, size: Size, values: dict) -> list[str]:
    """Compare the winner's averages with the reference recorded for the seed.

    Seeds without a recorded reference, and reduced sizes, only get a range
    check.
    """
    problems = []
    for name, v in values.items():
        if v is None or not math.isfinite(v) or not -1e9 < v <= 1.0:
            problems.append(f"{name} is {v!r}, not a finite value <= 1")
    ref = load_reference()
    recorded = ref["seeds"].get(str(seed)) if size == FULL else None
    if recorded is not None and not problems:
        for name, v in values.items():
            if abs(v - recorded[name]) > ref["tolerance"]:
                problems.append(f"{name} {v:.6f} differs from the reference "
                                f"{recorded[name]:.6f} for seed {seed} by more than "
                                f"{ref['tolerance']}")
    return problems


def pipeline_config(seed: int, size: Size) -> dict:
    return {"seed": seed, "synth": size.synth, "train": size.train,
            "importance": {"mode": "grouped", "repeats": size.repeats}}


def pipeline_default(seed: int, seconds: float, work: Path, root: Path,
                     size: Size = FULL, tracer: Tracer | None = None) -> Outcome:
    """`masktab pipeline` with the default config and the workload seed."""
    with _probe(tracer, speed.TRAIN_STEP) as probe:
        return _pipeline_default(seed, seconds, work, root, size, tracer, probe)


def _pipeline_default(seed, seconds, work, root, size, tracer, probe) -> Outcome:
    import_s = median_import_s(root, size.imports, probe)
    cfg_path = _write_json(work / "pipeline.json", pipeline_config(seed, size))
    out = Outcome()
    first: dict[str, bytes] = {}

    def op(i: int, tr: Tracer | None) -> list[tuple[float, float]]:
        out_dir = work / f"run{i}"
        t0 = time.perf_counter()
        with _traced(tr):
            rc = _call_cli(["pipeline", "--config", str(cfg_path), "--out", str(out_dir)])
        t1 = time.perf_counter()
        out.record(_pipeline_problems(i, rc, out_dir, seed, size, out, first))
        shutil.rmtree(out_dir, ignore_errors=True)
        return [(t0, t1)]

    # The first pipeline in a process is a warm-up, timed as set-up: it
    # faulted in 262k pages where later ones faulted in 12k, and the probe
    # during it read 10% off the later runs. Later runs are checked against it.
    [(t0, t1)] = op(0, None)
    setup_s = import_s + _elapsed(probe, t0, t1)
    untraced, traced, wall = _timed_ops(lambda i, tr: op(i + 1, tr), seconds, 2, tracer, probe)
    out = _finish(out, untraced, traced, wall, probe, tracer, setup_s)
    out.table["pipeline_s"] = out.metrics["op_p50_ms"] / 1e3
    return out


def _pipeline_problems(i, rc, out_dir, seed, size, out, first) -> list[str]:
    if rc != 0:
        return [f"pipeline run {i} exited with {rc}"]
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["completed"] != list(cli.PIPELINE_STAGES):
        problems.append(f"run {i} completed only {manifest['completed']}")
    ds_dir = out_dir / "dataset"
    blocks = data_model.load_dataset(ds_dir).blocks
    problems += data_model.SplitAssignment.load(ds_dir / "split.json").violations(blocks)
    values = winner_averages(out_dir)
    problems += accuracy_problems(seed, size, values)
    artifacts = _artifact_bytes(out_dir)
    if i == 0:
        first.update(artifacts)
        out.table.update(values)
    elif artifacts != first:
        differing = sorted(k for k in first.keys() | artifacts.keys()
                           if first.get(k) != artifacts.get(k))
        problems.append(f"run {i} artifacts differ from run 0: {differing}")
    return problems


# ---------------------------------------------------------------------------
# importance-per-column
# ---------------------------------------------------------------------------

# The importance workload's split seed. The work of one importance command
# grows with the test rows, and split seeds 0-11 give from 57 to 63 of them on
# the default survey, so the split stays fixed (63 test rows) and the
# workload seed varies only the trained weights and the permutations.
IMPORTANCE_SPLIT_SEED = 0


def _importance_setup(seed: int, size: Size, d: Path) -> dict:
    """generate -> preprocess -> train baseline -> checkpoint, through the CLI.

    The survey and its split are the default ones; the workload seed sets
    the training seed.
    """
    d.mkdir(parents=True)
    synth = _write_json(d / "synth.json", size.synth)
    train = _write_json(d / "train.json", {**size.train, "seed": seed})
    paths = {"dataset": d / "dataset", "split": d / "dataset" / "split.json",
             "ckpt": d / "ckpt_baseline.json"}
    for argv in (
        ["generate", "--config", str(synth), "--out", str(d / "raw")],
        ["preprocess", "--in", str(d / "raw"), "--out", str(paths["dataset"]),
         "--seed", str(IMPORTANCE_SPLIT_SEED)],
        ["train", "--dataset", str(paths["dataset"]), "--split", str(paths["split"]),
         "--model", "baseline", "--config", str(train), "--out", str(paths["ckpt"])],
    ):
        rc = _call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited with {rc}")
    return paths


def importance_per_column(seed: int, seconds: float, work: Path, root: Path,
                          size: Size = FULL, tracer: Tracer | None = None) -> Outcome:
    """`masktab importance --mode per-column`, permutation seed = workload seed,
    on a baseline trained in set-up."""
    with _probe(tracer, speed.SMALL) as probe:
        return _importance_per_column(seed, seconds, work, root, size, tracer, probe)


def _importance_per_column(seed, seconds, work, root, size, tracer, probe) -> Outcome:
    import_s = median_import_s(root, size.imports, probe)
    prep = []
    for k in range(size.setups):
        t0 = time.perf_counter()
        with _traced(tracer if k == size.setups - 1 else None):
            paths = _importance_setup(seed, size, work / f"setup{k}")
        prep.append(_elapsed(probe, t0, time.perf_counter()))
    n_features = data_model.load_dataset(paths["dataset"]).n_features
    out = Outcome()
    first: list[bytes] = []

    def op(i: int, tr: Tracer | None) -> list[tuple[float, float]]:
        out_file = work / f"importance{i}.json"
        argv = ["importance", "--ckpt", str(paths["ckpt"]), "--dataset", str(paths["dataset"]),
                "--split", str(paths["split"]), "--mode", "per-column",
                "--repeats", str(size.repeats), "--seed", str(seed), "--out", str(out_file)]
        t0 = time.perf_counter()
        with _traced(tr):
            rc = _call_cli(argv)
        t1 = time.perf_counter()
        out.record(_importance_problems(i, rc, out_file, n_features, first))
        return [(t0, t1)]

    untraced, traced, wall = _timed_ops(op, seconds, 3, tracer, probe)
    out = _finish(out, untraced, traced, wall, probe, tracer,
                  import_s + statistics.median(prep))
    out.table["importance_s"] = out.metrics["op_p50_ms"] / 1e3
    return out


def _importance_problems(i, rc, out_file, n_features, first) -> list[str]:
    if rc != 0:
        return [f"importance command {i} exited with {rc}"]
    data = out_file.read_bytes()
    entries = json.loads(data)["entries"]
    problems = []
    if len(entries) != 2 * n_features:
        problems.append(f"{len(entries)} importance entries, expected 2 x {n_features}")
    fields = ("baseline_loss", "permuted_loss_mean", "permuted_loss_sd", "importance_pct")
    bad = [e["group"] for e in entries if not all(math.isfinite(e[f]) for f in fields)]
    if bad:
        problems.append(f"{len(bad)} importance entries are not finite, first {bad[0]!r}")
    if not first:
        first.append(data)
    elif data != first[0]:
        problems.append(f"importance command {i} wrote other bytes than command 0")
    return problems


# ---------------------------------------------------------------------------
# split-sweep
# ---------------------------------------------------------------------------

def _split_inputs(size: Size):
    raw = default_survey(size)
    _, y_bin, mask = preprocess.transform_responses(raw.responses, raw.loq)
    return raw.block_labels(), y_bin, mask


def split_sweep(seed: int, seconds: float, work: Path, root: Path,
                size: Size = FULL, tracer: Tracer | None = None) -> Outcome:
    """`split_blocks` on the default survey, over consecutive split seeds
    starting at the workload seed."""
    with _probe(tracer, speed.SMALL) as probe:
        return _split_sweep(seed, seconds, work, root, size, tracer, probe)


def _split_sweep(seed, seconds, work, root, size, tracer, probe) -> Outcome:
    import_s = median_import_s(root, size.imports, probe)
    prep = []
    for k in range(size.setups):
        t0 = time.perf_counter()
        with _traced(tracer if k == size.setups - 1 else None):
            blocks, y_bin, mask = _split_inputs(size)
        prep.append(_elapsed(probe, t0, time.perf_counter()))
    n = len(blocks)
    _, counts = np.unique(blocks.astype(str), return_counts=True)
    one_block = counts.max() / n + 1e-12
    out = Outcome()

    def op(i: int, tr: Tracer | None) -> list[tuple[float, float]]:
        spans = []
        with _traced(tr):
            for s in range(seed, seed + size.draws):
                t0 = time.perf_counter()
                split = preprocess.split_blocks(blocks, y_bin, mask, test_fraction=0.20, seed=s)
                spans.append((t0, time.perf_counter()))
                problems = split.violations(blocks)
                frac = len(split.test_rows) / n
                if abs(frac - 0.20) > one_block:
                    problems.append(f"split seed {s}: test fraction {frac:.4f} is more than "
                                    f"one block from 0.20")
                out.record(problems)
        return spans

    untraced, traced, wall = _timed_ops(op, seconds, 1, tracer, probe)
    if tracer is not None:
        calls = sum(1 for s in tracer.spans if s.name == "preprocess.split_blocks")
        expected = size.draws * len(traced)
        out.record([] if calls == expected else
                   [f"traced split_blocks ran {calls} times, the sweeps drew {expected}"])
    out = _finish(out, untraced, traced, wall, probe, tracer,
                  import_s + statistics.median(prep))
    out.table["splits_per_s"] = out.metrics["ops_per_s"]
    out.table["split_p95_ms"] = out.metrics["op_p95_ms"]
    return out


# Units of the workload-specific names the readable table adds.
TABLE_UNITS = {"pipeline_s": "s", "importance_s": "s", "splits_per_s": "1/s",
               "split_p95_ms": "ms", "test_r2": "1", "test_auc": "1",
               "wall_p50_ms": "ms", "machine_speed": "1", "speed_probes": "count"}

WORKLOADS = {
    "pipeline-default": pipeline_default,
    "importance-per-column": importance_per_column,
    "split-sweep": split_sweep,
}
