"""Seeded fuzz of the pipeline config.

Each case breaks one setting of an otherwise valid config: a value of the wrong
type, a non-integral number where an integer belongs, a value outside the
declared range, or a "nan"/"Infinity" string. Every case must be a config
error (exit 2) that names the setting's dotted path, with no traceback and
before any stage writes the split.
"""

import dataclasses
import math
import types
import typing

import numpy as np

from masktab import jsonio
from masktab.cli import EXIT_CONFIG, PipelineConfig, main

FUZZ_SEED = 20261018
N_CASES = 300

BASE = {
    "seed": 7,
    "synth": {
        "n_samples": 70, "n_sites": 20, "n_responses": 4, "weather_lag_days": 6, "seed": 0,
        "missingness_profile": [0.1, 0.2, 0.3, 0.0],
        "occurrence_profile": [0.3, 0.4, 0.5, 0.6],
        "planted_effects": [{"variable": "seed_moisture", "response": 1, "size": 2.5}],
    },
    "preprocess": {"test_fraction": 0.2, "val_fraction_of_train": 0.2},
    "train": {"hidden_dims": [24, 12], "max_epochs": 15, "patience": 15,
              "loss_weights": [1.0, 1.0],
              "ae": {"encoder_dims": [24, 12], "max_epochs": 6, "patience": 6}},
    "models": ["baseline", "pretrained-frozen"],
    "importance": {"mode": "grouped", "repeats": 3},
    "threshold": 0.5,
}

WRONG_TYPES = {"string": "x", "bool": True, "null": None, "list": [1], "object": {"a": 1}}


def _slots(cls, prefix=()):
    """(path, kind, allowed values, optional) for every setting under ``cls``.

    A path is a tuple of keys and list indices; kind is "object", "list" or
    the scalar type. A tuple setting yields itself and its first element.
    """
    for name, tp in typing.get_type_hints(cls).items():
        if name == "VERSION":
            continue
        path = prefix + (name,)
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
        tp = args[0] if optional else tp
        allowed = jsonio.declared(cls).get(name)
        if dataclasses.is_dataclass(tp):
            yield path, "object", None, optional
            yield from _slots(tp, path)
        elif typing.get_origin(tp) is tuple:
            yield path, "list", None, optional
            item = typing.get_args(tp)[0]
            if dataclasses.is_dataclass(item):
                yield from _slots(item, path + (0,))
            else:
                yield path + (0,), item, allowed, False
        else:
            yield path, tp, allowed, optional


def _out_of_range(kind, allowed) -> list:
    if isinstance(allowed, tuple):
        return ["bogus"]
    if allowed is None:
        return []
    lo, hi = (float(bound) for bound in allowed[1:-1].split(","))
    step = 1 if kind is int else 0.5
    values = [] if kind is int else [math.nan, math.inf, -math.inf]
    if lo > -math.inf:
        values.append(lo if allowed[0] == "(" else lo - step)
    if hi < math.inf:
        values.append(hi if allowed[-1] == ")" else hi + step)
    return [int(v) if kind is int else v for v in values]


def _faults(kind, allowed, optional) -> list:
    right = {"object": "object", "list": "list", str: "string", bool: "bool"}.get(kind)
    faults = [v for name, v in WRONG_TYPES.items()
              if name != right and not (name == "null" and optional)]
    if kind in (int, float):
        faults += ["nan", "Infinity"]
    if kind is int:
        faults += [2.5, -0.5]
    if kind is bool:
        faults += [1, 0.0]
    return faults + _out_of_range(kind, allowed)


def _dotted(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _with(config, path, value):
    config = jsonio.loads(jsonio.dumps(config))  # a deep copy
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def test_base_config_is_valid():
    PipelineConfig.from_dict(BASE)


def test_every_injected_fault_is_a_named_config_error(tmp_path, capsys):
    slots = list(_slots(PipelineConfig))
    rng = np.random.default_rng(FUZZ_SEED)
    cfg_path, out = tmp_path / "pipeline.json", tmp_path / "art"
    failures, fuzzed = [], set()
    for case in range(N_CASES):
        path, kind, allowed, optional = slots[rng.integers(len(slots))]
        faults = _faults(kind, allowed, optional)
        value = faults[rng.integers(len(faults))]
        fuzzed.update(_dotted(path[:n]) for n in (1, 2))
        jsonio.dump(_with(BASE, path, value), cfg_path)
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        if (code != EXIT_CONFIG or _dotted(path) not in err or "Traceback" in err
                or (out / "dataset" / "split.json").exists()):
            failures.append(f"case {case}: {_dotted(path)} = {value!r} -> exit {code}: {err}")
    assert failures == []
    assert {"synth", "train", "train.ae", "preprocess", "importance", "models",
            "threshold"} <= fuzzed
