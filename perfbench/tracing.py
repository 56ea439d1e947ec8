"""Span tracing around masktab's public functions, from outside the library.

A `Tracer` replaces each traced function with a wrapper in every loaded
masktab module that holds it, because modules import functions by name
(`vimp` holds `forward`, `trainer` holds `masked_mse` and `split_blocks`,
`cli` holds the stage functions). Patching only the defining module would
miss those call sites. Spans (name, start, end, parent) are kept in memory
and turned into per-layer metrics when the traced run ends.

Self time is a span's duration minus the time its child spans cover. The
process is single-threaded and closed-loop, so children never overlap and
their durations simply add.
"""

import contextlib
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

# Functions traced, by defining module. Each span is named "<module>.<fn>".
TRACED = {
    "cli": ("main", "run_pipeline", "sha256_file"),
    "synthgen": ("generate",),
    "preprocess": ("preprocess_raw", "transform_responses", "encode_and_normalise", "split_blocks"),
    "data_model": ("save_dataset", "load_dataset", "save_raw_table", "load_raw_table"),
    "jsonio": ("dump", "load"),
    "trainer": ("train_model", "train_baseline", "pretrain_autoencoder", "finetune", "predict"),
    "nn_core": ("forward", "backward", "adam_step", "save_checkpoint", "load_checkpoint"),
    "masked_loss": ("masked_mse", "masked_bce", "combined_loss"),
    "metrics": ("evaluate_predictions", "winner_ranking"),
    "vimp": ("importance_report", "permutation_importance"),
}

MODEL_KINDS = ("baseline", "pretrained-frozen", "pretrained-unfrozen")
STAGES = ("generate", "preprocess", "train", "evaluate", "importance", "report")

_SELF_TIMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
               if (mod, fn) not in {("nn_core", "forward"), ("trainer", "train_model")}]
_COUNTED = ("nn_core.backward", "nn_core.adam_step", "masked_loss.masked_mse",
            "masked_loss.masked_bce", "masked_loss.combined_loss",
            "vimp.permutation_importance", "preprocess.split_blocks")

# name -> unit of every per-layer metric a traced run reports, on every
# workload; a layer the workload does not exercise reads 0.
PER_LAYER_UNITS = {
    **{f"stage.{s}_s": "s" for s in STAGES},
    "cli.sha256_bytes": "B",
    **{f"trainer.train_model.{k}_s": "s" for k in MODEL_KINDS},
    **{f"trainer.epochs.{k}": "count" for k in (*MODEL_KINDS, "autoencoder")},
    **{f"trainer.epoch_ms.{k}": "ms" for k in (*MODEL_KINDS, "autoencoder")},
    "nn_core.forward.train_s": "s",
    "nn_core.forward.train_calls": "count",
    "nn_core.forward.infer_s": "s",
    "nn_core.forward.infer_calls": "count",
    "nn_core.forward.gflops_per_s": "GFLOP/s",
    "nn_core.backward.gflops_per_s": "GFLOP/s",
    "nn_core.adam_step.params_per_s": "1/s",
    "nn_core.checkpoint_bytes": "B",
    "masked_loss.observed_frac": "1",
    "vimp.forwards": "count",
    "vimp.repeat_ms": "ms",
    "vimp.group_p50_ms": "ms",
    "vimp.group_p95_ms": "ms",
    **{f"{name}_s": "s" for name in _SELF_TIMES},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dense_flops(params, rows: int) -> int:
    """2 * rows * in * out summed over every dense layer: one GEMM's worth."""
    return sum(2 * rows * layer.spec.in_dim * layer.spec.out_dim
               for _, layer in params.named_layers())


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _forward_info(args, kwargs, result):
    params, X = args[0], _arg(args, kwargs, 1, "X")
    rows = np.shape(X)[0]
    return {"flops": _dense_flops(params, rows)}


def _backward_info(args, kwargs, result):
    params, cache = args[0], _arg(args, kwargs, 1, "cache")
    first = cache.backbone[0] if cache.backbone else next(iter(cache.heads.values()))[0]
    # dW and dX are each one GEMM per layer
    return {"flops": 2 * _dense_flops(params, first.x.shape[0])}


def _adam_info(args, kwargs, result):
    return {"params": args[0].n_parameters()}


def _loss_info(args, kwargs, result):
    m = args[0].m
    return {"observed": int(np.count_nonzero(m)), "cells": int(m.size)}


def _sha_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _ckpt_info(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _train_model_info(args, kwargs, result):
    split, cfg = _arg(args, kwargs, 1, "split"), _arg(args, kwargs, 2, "cfg")
    return {"fit_rows": int(split.fit_rows.size), "batch_size": cfg.batch_size,
            "epochs": len(result[1].val_combined)}


def _pretrain_info(args, kwargs, result):
    X, cfg = args[0], _arg(args, kwargs, 1, "cfg")
    return {"rows": int(np.shape(X)[0]), "batch_size": cfg.batch_size,
            "holdout_fraction": cfg.holdout_fraction,
            "epochs": len(result[1].val_combined)}


def _split_info(args, kwargs, result):
    return {"test_rows": int(result.test_rows.size)}


def _importance_info(args, kwargs, result):
    return {"groups": len(result.groups), "repeats": result.n_repeats}


def _permutation_info(args, kwargs, result):
    return {"repeats": result.n_repeats}


# Extra facts recorded on a span after its call returns; kept outside the
# span's timed interval.
_INFO = {
    "nn_core.forward": _forward_info,
    "nn_core.backward": _backward_info,
    "nn_core.adam_step": _adam_info,
    "nn_core.save_checkpoint": _ckpt_info,
    "masked_loss.masked_mse": _loss_info,
    "masked_loss.masked_bce": _loss_info,
    "cli.sha256_file": _sha_info,
    "trainer.train_model": _train_model_info,
    "trainer.pretrain_autoencoder": _pretrain_info,
    "preprocess.split_blocks": _split_info,
    "vimp.importance_report": _importance_info,
    "vimp.permutation_importance": _permutation_info,
}


def _span_name(name: str, args, kwargs) -> str:
    if name == "nn_core.forward":
        return f"{name}.{_arg(args, kwargs, 2, 'mode', 'infer')}"
    if name == "trainer.train_model":
        return f"{name}.{_arg(args, kwargs, 3, 'kind')}"
    return name


class Tracer:
    """Records spans around masktab's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        info_of = _INFO.get(name)

        def traced(*args, **kwargs):
            with self.span(_span_name(name, args, kwargs)) as span:
                result = fn(*args, **kwargs)
            if info_of is not None:
                span.info = info_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_stage_scope(self, fn):
        @contextlib.contextmanager
        def traced_scope(stage: str):
            with self.span(f"stage.{stage}"), fn(stage):
                yield

        return traced_scope

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Patch every masktab module attribute bound to a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "masktab" or n.startswith("masktab.")]
        originals = {}  # id -> (span name, function); the dict keeps the ids alive
        for mod, fns in TRACED.items():
            for fn in fns:
                value = getattr(sys.modules[f"masktab.{mod}"], fn)
                originals[id(value)] = (f"{mod}.{fn}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrap(originals[id(value)][0], value))
        cli = sys.modules["masktab.cli"]
        stage_scope = cli._stage_scope  # every pipeline stage runs inside it
        self._restore.append((cli, "_stage_scope", stage_scope))
        cli._stage_scope = self._wrap_stage_scope(stage_scope)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def has_ancestor(self, i: int, prefix: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name.startswith(prefix):
                return True
            p = self.spans[p].parent
        return False

    def children(self, i: int) -> list[Span]:
        return [s for s in self.spans if s.parent == i]


def autoencoder_fit_rows(tracer: Tracer, i: int) -> int:
    """Rows an autoencoder pre-training span fitted on.

    The holdout is the test side of the block split run inside the span, or
    a random share of rows when no block split ran.
    """
    info = tracer.spans[i].info
    holdout = [c.info["test_rows"] for c in tracer.children(i)
               if c.name == "preprocess.split_blocks"]
    n_val = holdout[0] if holdout else max(1, int(round(info["holdout_fraction"] * info["rows"])))
    return info["rows"] - n_val


def expected_optimizer_steps(tracer: Tracer) -> int:
    """Sum over trained networks of batches per epoch times epochs run."""
    steps = 0
    for i, s in enumerate(tracer.spans):
        if s.name.startswith("trainer.train_model."):
            steps += math.ceil(s.info["fit_rows"] / s.info["batch_size"]) * s.info["epochs"]
        elif s.name == "trainer.pretrain_autoencoder":
            rows = autoencoder_fit_rows(tracer, i)
            steps += math.ceil(rows / s.info["batch_size"]) * s.info["epochs"]
    return steps


def vimp_forwards(tracer: Tracer) -> int:
    return sum(1 for i, s in enumerate(tracer.spans)
               if s.name.startswith("nn_core.forward.") and tracer.has_ancestor(i, "vimp."))


def cross_check(tracer: Tracer) -> list[str]:
    """Call counts the trace must agree with; each mismatch is a message."""
    count = Counter(s.name for s in tracer.spans)
    problems = []
    steps = expected_optimizer_steps(tracer)
    for name in ("nn_core.adam_step", "nn_core.backward", "nn_core.forward.train"):
        if count[name] != steps:
            problems.append(f"{name} ran {count[name]} times, "
                            f"batches x epochs of the trained networks is {steps}")
    expected = sum(2 * (s.info["groups"] * s.info["repeats"] + 1)
                   for s in tracer.spans if s.name == "vimp.importance_report")
    forwards = vimp_forwards(tracer)
    if forwards != expected:
        problems.append(f"vimp ran {forwards} forwards, 2 x (groups x repeats + 1) is {expected}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric named in PER_LAYER_UNITS, from the spans."""
    spans = tracer.spans
    self_s, total, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, t in zip(spans, tracer.self_times()):
        self_s[s.name] += t
        total[s.name] += s.duration
        calls[s.name] += 1

    def info_sum(name: str, key: str) -> float:
        return sum(s.info[key] for s in spans if s.name == name)

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update({f"{name}_s": self_s[name] for name in _SELF_TIMES})
    out.update({f"stage.{stage}_s": total[f"stage.{stage}"] for stage in STAGES})
    out.update({f"{name}.calls": calls[name] for name in _COUNTED})
    out["cli.sha256_bytes"] = info_sum("cli.sha256_file", "bytes")
    out["nn_core.checkpoint_bytes"] = info_sum("nn_core.save_checkpoint", "bytes")

    # epoch_ms of a pretrained kind leaves out its autoencoder pre-training,
    # which has its own epoch_ms
    pretrain_in = defaultdict(float)
    for i, s in enumerate(spans):
        if s.name == "trainer.pretrain_autoencoder":
            p = s.parent
            while p >= 0 and not spans[p].name.startswith("trainer.train_model."):
                p = spans[p].parent
            pretrain_in[spans[p].name if p >= 0 else ""] += s.duration
    for kind in MODEL_KINDS:
        name = f"trainer.train_model.{kind}"
        epochs = info_sum(name, "epochs")
        out[f"{name}_s"] = total[name]
        out[f"trainer.epochs.{kind}"] = epochs
        out[f"trainer.epoch_ms.{kind}"] = 1e3 * _ratio(total[name] - pretrain_in[name], epochs)
    ae_epochs = info_sum("trainer.pretrain_autoencoder", "epochs")
    out["trainer.epochs.autoencoder"] = ae_epochs
    out["trainer.epoch_ms.autoencoder"] = 1e3 * _ratio(total["trainer.pretrain_autoencoder"],
                                                       ae_epochs)

    modes = ("nn_core.forward.train", "nn_core.forward.infer")
    for name in modes:
        out[f"{name}_s"] = self_s[name]
        out[f"{name}_calls"] = calls[name]
    fwd_flops = sum(info_sum(name, "flops") for name in modes)
    out["nn_core.forward.gflops_per_s"] = _ratio(fwd_flops, sum(self_s[n] for n in modes)) / 1e9
    out["nn_core.backward.gflops_per_s"] = _ratio(
        info_sum("nn_core.backward", "flops"), self_s["nn_core.backward"]) / 1e9
    out["nn_core.adam_step.params_per_s"] = _ratio(
        info_sum("nn_core.adam_step", "params"), self_s["nn_core.adam_step"])
    losses = ("masked_loss.masked_mse", "masked_loss.masked_bce")
    out["masked_loss.observed_frac"] = _ratio(sum(info_sum(n, "observed") for n in losses),
                                              sum(info_sum(n, "cells") for n in losses))

    out["vimp.forwards"] = vimp_forwards(tracer)
    group_ms = [1e3 * s.duration for s in spans if s.name == "vimp.permutation_importance"]
    out["vimp.repeat_ms"] = _ratio(sum(group_ms),
                                   info_sum("vimp.permutation_importance", "repeats"))
    out["vimp.group_p50_ms"] = float(np.percentile(group_ms, 50)) if group_ms else 0.0
    out["vimp.group_p95_ms"] = float(np.percentile(group_ms, 95)) if group_ms else 0.0
    out["trace.spans"] = len(spans)
    return out
