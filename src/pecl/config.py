"""Flat JSON run configuration: parsing, validation, and serialization.

The dataclasses are the schema: every scalar field of ``RunConfig`` and of
its nested ``SensitivityConfig``, ``PrivacyConfig`` and ``SculptConfig`` is a
key of the flat file, with the field's type and default.  The one key spelled
differently from its field is ``sigma_variant``
(``PrivacyConfig.sensitivity_variant``).  Missing keys take the dataclass
defaults.  Unknown keys and invariant violations are rejected with the
offending key named in the message.
"""

from __future__ import annotations

import sys
from dataclasses import fields, is_dataclass
from functools import reduce
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .corpus import load_stopwords
from .errors import DataError, load_json, reading, shown
from .trainer import RunConfig

_FILE_NAMES = {"sensitivity_variant": "sigma_variant"}  # the published spelling


def _typed_fields(cls) -> list[tuple[str, type]]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def _schema(cls, path: tuple[str, ...] = ()):
    for name, tp in _typed_fields(cls):
        if is_dataclass(tp):
            yield from _schema(tp, path + (name,))
        elif get_origin(tp) is not frozenset:  # stopword sets are derived, not keys
            yield _FILE_NAMES.get(name, name), (path + (name,), tp)


# file key -> (attribute path from RunConfig, field type)
SCHEMA: dict[str, tuple[tuple[str, ...], type]] = dict(_schema(RunConfig))


def _coerce(key: str, tp, value):
    args = get_args(tp)
    if type(None) in args:  # Optional: null is allowed
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"config key {key!r} must be an integer, got {shown(value)}")
        if not -2**63 <= value < 2**63:  # numpy sizes, shapes and seeds are int64
            raise DataError(f"config key {key!r} must fit in 64 bits, got {shown(value)}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"config key {key!r} must be a number, got {shown(value)}")
        if not abs(value) <= sys.float_info.max:  # NaN and Infinity are valid JSON here
            raise DataError(f"config key {key!r} must be a finite number, got {shown(value)}")
        return float(value)
    if tp is str:
        if not isinstance(value, str):
            raise DataError(f"config key {key!r} must be a string, got {shown(value)}")
        return value
    if tp == list[int]:
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            raise DataError(f"config key {key!r} must be a list of integers, got {shown(value)}")
        return list(value)
    raise TypeError(f"config key {key!r} has a field type the file format cannot hold: {tp}")


def _build(cls, given: dict, path: tuple[str, ...] = ()):
    """``cls`` from the given values at ``path``, nested dataclasses built first."""
    nested = {name: _build(tp, given, path + (name,))
              for name, tp in _typed_fields(cls) if is_dataclass(tp)}
    return cls(**given.get(path, {}), **nested)


def config_from_dict(obj: dict) -> RunConfig:
    """Build a validated RunConfig from a flat key-value object."""
    if not isinstance(obj, dict):
        raise DataError("config must be a JSON object")
    given: dict[tuple[str, ...], dict] = {}  # dataclass path -> field values from the file
    for key, raw in obj.items():
        if key not in SCHEMA:
            raise DataError(f"unknown config key {shown(key)}")
        (*owner, name), tp = SCHEMA[key]
        given.setdefault(tuple(owner), {})[name] = _coerce(key, tp, raw)

    stopword_file = given.get((), {}).get("stopword_file")
    if stopword_file:
        given.setdefault(("sensitivity",), {})["stopwords"] = load_stopwords(stopword_file)
    try:
        return _build(RunConfig, given)
    except ValueError as exc:
        raise DataError(f"invalid config: {exc}") from exc


def parse_config(path: str | Path | None) -> RunConfig:
    """Read a JSON config file; None means all defaults."""
    if path is None:
        return config_from_dict({})
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    with reading(p):
        text = p.read_text("utf-8")
    return config_from_dict(load_json(text, f"{p}: malformed JSON"))


def config_to_dict(config: RunConfig) -> dict:
    """Flatten a RunConfig back to the file format (replayable)."""
    return {key: reduce(getattr, path, config) for key, (path, _) in SCHEMA.items()}
