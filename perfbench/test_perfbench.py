"""Self-tests of the benchmark: every workload at a tiny size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from masktab import data_model, nn_core, preprocess  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(name, tmp_path, trace, seed=3):
    tracer = tracing.Tracer() if trace else None
    outcome = workloads.WORKLOADS[name](seed, 0.0, tmp_path, ROOT, size=workloads.TINY,
                                        tracer=tracer)
    return outcome, run.result(outcome, run.metric_units(trace), trace)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace, tmp_path):
    outcome, res = _run(name, tmp_path, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, outcome.problems
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    json.dumps(res)


def test_names_and_units_are_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    for name in {**tracing.PER_LAYER_UNITS, **workloads.TABLE_UNITS}:
        assert NAME.match(name), name


def test_seed_changes_generated_inputs(tmp_path):
    def inputs(seed, name):
        paths = workloads._importance_setup(seed, workloads.TINY, tmp_path / name)
        return paths["split"].read_bytes(), paths["ckpt"].read_bytes()

    assert inputs(1, "a") == inputs(1, "b")
    split1, ckpt1 = inputs(1, "c")
    split2, ckpt2 = inputs(2, "d")
    assert ckpt1 != ckpt2
    assert split1 == split2  # fixed on purpose: the test rows set the work
    assert workloads.pipeline_config(1, workloads.FULL) != workloads.pipeline_config(
        2, workloads.FULL)


def test_failed_check_raises_failed_frac(tmp_path, monkeypatch):
    honest = preprocess.split_blocks

    def leaky(*args, **kwargs):
        split = honest(*args, **kwargs)
        return data_model.SplitAssignment(
            train_rows=np.union1d(split.train_rows, split.test_rows[:1]),
            test_rows=split.test_rows, val_rows=split.val_rows)

    monkeypatch.setattr(preprocess, "split_blocks", leaky)
    outcome, res = _run("split-sweep", tmp_path, trace=0)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0
    assert any("overlap" in p for p in outcome.problems)


def test_accuracy_is_checked_against_the_recorded_reference(monkeypatch):
    monkeypatch.setattr(workloads, "load_reference", lambda: {
        "tolerance": 0.02, "seeds": {"5": {"test_r2": 0.6, "test_auc": 0.9}}})
    close = {"test_r2": 0.61, "test_auc": 0.9}
    assert workloads.accuracy_problems(5, workloads.FULL, close) == []
    assert len(workloads.accuracy_problems(5, workloads.FULL, {**close, "test_r2": 0.5})) == 1
    assert workloads.accuracy_problems(6, workloads.FULL, {**close, "test_r2": 0.5}) == []
    assert workloads.accuracy_problems(6, workloads.FULL, {**close, "test_auc": None})


def test_recorded_reference_is_well_formed():
    ref = workloads.load_reference()
    assert 0 < ref["tolerance"] < 0.1
    for seed, values in ref["seeds"].items():
        assert int(seed) >= 0 and set(values) == {"test_r2", "test_auc"}


def test_speed_probe_samples_while_work_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    fast = speed.Reference(speed.small_kernels, speed.SMALL.nominal_s, interval_s=0.01)
    with speed.SpeedProbe(fast) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert len(probe.samples) > 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.speed() > 0


def test_speed_probe_removes_its_own_time_and_scales_to_nominal_speed():
    probe = speed.SpeedProbe(speed.SMALL)
    slow = 2 * speed.SMALL.nominal_s  # the machine at half the nominal speed
    probe.samples = [(10.2, slow), (10.6, slow), (20.0, 5 * slow)]
    # both samples inside the item are removed from it; the far one is ignored
    assert probe.scale(10.0, 11.0) == pytest.approx((1.0 - 2 * slow) / 2)
    assert probe.speed() == pytest.approx(0.5)


def test_cross_check_catches_an_untraced_call_site(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        nn_core.adam_step = nn_core.adam_step.__wrapped__  # a call site the tracer missed
        paths = workloads._importance_setup(4, workloads.TINY, tmp_path / "setup")
    assert paths["ckpt"].is_file()
    problems = tracing.cross_check(tracer)
    assert any(p.startswith("nn_core.adam_step ran 0 times") for p in problems)


def test_tracer_restores_the_library(tmp_path):
    import masktab
    from masktab import trainer, vimp

    before = (vimp.forward, trainer.masked_mse, masktab.cli.generate, masktab.cli._stage_scope)
    _run("pipeline-default", tmp_path, trace=1)
    assert (vimp.forward, trainer.masked_mse, masktab.cli.generate,
            masktab.cli._stage_scope) == before
    assert vimp.forward is nn_core.forward


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
