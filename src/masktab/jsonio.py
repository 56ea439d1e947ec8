"""Deterministic JSON serialisation and the one codec for config and artifact
documents, and the one rule that derives a seed from a seed and a label.

Every numeric artifact is written with 17 significant digits so that a float64
round-trips exactly and repeated runs produce byte-identical files. Keys are
sorted, so a document's field order never reaches the bytes. A config setting
declares its allowed values once, on its field (``setting``).

Every JSON document masktab reads back is read by its type hints (``decode``),
naming the key or value at fault; a ``version``, where present, must be its own.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import types
import typing
from pathlib import Path


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact float64 round-trip)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _encode(obj, level: int) -> str:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # "-0" would read back as the integer 0 and lose the sign
        return "-0.0" if obj == 0.0 and math.copysign(1.0, obj) < 0 else format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad + s for s in items) + "\n" + close_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            items.append(pad + json.dumps(key, ensure_ascii=False) + ": "
                         + _encode(obj[key], level + 1))
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    # numpy scalars and arrays arrive via .item() / .tolist() upstream; anything
    # else here is a bug in the caller.
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return _encode(obj.item(), level)
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), level)
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, fixed floats, trailing newline."""
    return _encode(obj, 0) + "\n"


@contextlib.contextmanager
def atomic_write(path):
    """A UTF-8 text file (no newline translation) that replaces ``path`` whole.

    The text goes to ``.<name>.<random>.tmp`` in the target's directory, which
    is renamed over ``path`` (``os.replace``) when the block ends. On any
    exception the temporary file is removed and the exception re-raised, so a
    failed or killed write leaves the previous file, or none, under ``path``.
    There is no fsync: this guards against a dying process, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def dump(obj, path) -> None:
    with atomic_write(path) as fh:
        fh.write(dumps(obj))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def loads(text: str):
    return json.loads(text)


def derive_seed(global_seed: int, label: str) -> int:
    """One stream's seed: the first 8 bytes of sha256("<seed>:<label>"), mod 2^63."""
    digest = hashlib.sha256(f"{global_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# ---------------------------------------------------------------------------
# Dataclass documents
# ---------------------------------------------------------------------------

def _plain(obj):
    """Plain JSON data for a document value: dataclasses become objects
    keyed by field, tuples and arrays become lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


class SettingError(ValueError):
    """A value its field does not allow, named by the field's dotted path."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path} {problem}")
        self.path, self.problem = path, problem


def setting(allowed, default=dataclasses.MISSING):
    """A dataclass field whose value (each value, for a tuple) must lie in
    ``allowed``: an interval such as "[0, 1)" (inf: no bound), or a tuple of strings."""
    return dataclasses.field(default=default, metadata={"allowed": allowed})


def _allows(allowed, x) -> bool:
    if not isinstance(allowed, str):
        return x in allowed
    lo, hi = (float(bound) for bound in allowed[1:-1].split(","))  # NaN lies in no interval
    above = lo <= x if allowed[0] == "[" else lo < x
    return above and (x <= hi if allowed[-1] == "]" else x < hi)


@functools.cache
def declared(cls) -> dict:
    """Field name -> allowed values, for each field of ``cls`` that declares them."""
    return {f.name: f.metadata["allowed"] for f in dataclasses.fields(cls)
            if "allowed" in f.metadata}


def _check_declared(doc) -> None:
    for name, allowed in declared(type(doc)).items():
        value = getattr(doc, name)
        for i, x in enumerate(value) if isinstance(value, (list, tuple)) else [(None, value)]:
            if x is not None and not _allows(allowed, x):
                rule = f"lie in {allowed}" if isinstance(allowed, str) else f"be one of {allowed}"
                raise SettingError(name if i is None else f"{name}[{i}]", f"must {rule}, got {x!r}")


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"must be a JSON object, got {value!r}")
    return value


def _within(path: str, tp, value):
    """decode(tp, value), with a rejected value named under ``path``."""
    try:
        return decode(tp, value)
    except SettingError as exc:
        sep = "" if exc.path.startswith("[") else "."
        raise SettingError(f"{path}{sep}{exc.path}", exc.problem) from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int past float
        raise SettingError(path, str(exc)) from None


def _decode(cls, d):
    """Build a dataclass ``cls`` from its JSON object.

    Each value is converted by its field's type hint; a missing key takes the
    field's default. A key that is not a field is rejected, except
    ``"version"`` on a versioned document, which must be its ``VERSION``.
    """
    types_ = _field_types(cls)
    version = getattr(cls, "VERSION", None)
    allowed = {"version"} if version is not None else set()
    unknown = sorted(set(_object(d)) - set(types_) - allowed)
    if unknown:
        raise SettingError(unknown[0], f"is an unknown {cls.__name__} key")
    if version is not None and _within("version", int, d.get("version", version)) != version:
        raise SettingError("version", f"must be {version}, got {d['version']!r}")
    return cls(**{k: _within(k, types_[k], v) for k, v in d.items() if k in types_})


def decode(tp, value):
    """``value`` as type ``tp``. Numbers are strict: an int field takes no
    bool, string or non-integral number; a float field takes no bool or
    string, but takes an integer, which is how a whole float is written."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, value)
    if dataclasses.is_dataclass(tp):
        return _decode(tp, value)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ValueError(f"must hold {len(args)} values, got {value!r}")
        return origin(_within(f"[{i}]", a, v) for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        return {k: _within(k, args[1], v) for k, v in _object(value).items()}
    if tp is bool and not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    if tp is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                      and not (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"must be an integer, got {value!r}")
    if tp is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"must be a number, got {value!r}")
    if tp is str and not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return tp(value) if tp in (int, float) else value  # an ndarray field converts itself


class Document:
    """Mixin that gives a dataclass ``to_dict``/``from_dict``/``save``/``load``.

    Fields are written by name (nested dataclasses as objects, tuples and
    arrays as lists) and read back by their type hints; reading rejects
    unknown keys. A top-level document writes ``"version": VERSION`` and
    reads no other; a nested one sets ``VERSION = None`` and writes
    none. Every construction checks the values each field declares with
    ``setting``, then the document's own ``check``.
    """

    VERSION: typing.ClassVar[int | None] = 1

    def __post_init__(self):
        _check_declared(self)
        self.check()

    def check(self) -> None:
        """Rules across fields; raise SettingError naming the field at fault."""

    def to_dict(self) -> dict:
        d = _plain(self)
        return d if self.VERSION is None else {"version": self.VERSION, **d}

    @classmethod
    def from_dict(cls, d: dict):
        return _decode(cls, d)

    def save(self, path) -> None:
        dump(self.to_dict(), path)

    @classmethod
    def load(cls, path):
        return cls.from_dict(load(path))
