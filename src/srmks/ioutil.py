"""Serialization shared by the CSV/JSON writers: float formatting and the JSON codec.

All floating-point output uses 17 significant digits, which is enough to
round-trip IEEE doubles exactly, and infinities are written as the string
"inf" so CSV and JSON files stay portable. Every JSON document is written
by json_text: two-space indent, one trailing newline.

The config and report dataclasses derive from JsonRecord, whose one codec
walks the dataclass fields:

- keys come in field order; a field's key is its name unless its
  metadata names another (``field(metadata={"key": "min"})``);
- floats go through json_float, enums are written by value, tuples become
  lists, None stays null, and nested JsonRecords are coded recursively;
- on read, a key is optional only when its field has a default, and an
  unknown key is an error, so a misspelt key cannot fall back to a default;
- floats are read with float(), so "inf" round-trips; ints pass through
  unchanged to the classes' own require_int checks; bools must be JSON
  booleans;
- a non-object where an object is expected, or a non-list where a tuple
  is expected, raises InvalidInputError.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import types
import typing

from .errors import InvalidInputError


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits; infinities become 'inf'."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def json_float(x: float):
    """Value for embedding in a JSON document: plain float, or 'inf'/'nan' strings."""
    return x if math.isfinite(x) else fmt_float(x)


def json_text(doc) -> str:
    """The JSON document `doc` as the package writes every JSON file."""
    return json.dumps(doc, indent=2) + "\n"


def csv_row(fields) -> str:
    """Comma-separated fields: floats as fmt_float writes them, the rest as str()."""
    return ",".join([fmt_float(f) if isinstance(f, float) else str(f) for f in fields])


def _same(value):
    return value


def _read_bool(value) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError(f"expected a JSON boolean, got {value!r}")
    return value


def _codec(tp) -> tuple:
    """(encode, decode) of one field type."""
    if tp is float:
        return json_float, float
    if tp is int:
        return _same, _same
    if tp is bool:
        return _same, _read_bool
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        encode, decode = _codec(next(a for a in args if a is not type(None)))
        return (
            lambda v: None if v is None else encode(v),
            lambda v: None if v is None else decode(v),
        )
    if typing.get_origin(tp) is tuple:
        encode, decode = _codec(args[0])  # homogeneous: tuple[X, ...] or tuple[X, X]

        def read_tuple(value):
            if not isinstance(value, list):
                raise InvalidInputError(f"expected a JSON list, got {value!r}")
            return tuple(map(decode, value))

        return lambda v: [encode(x) for x in v], read_tuple
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return lambda v: v.value, tp
    if isinstance(tp, type) and issubclass(tp, JsonRecord):
        return tp.to_json_dict, tp.from_json_dict
    raise TypeError(f"no JSON codec for {tp!r}")


@functools.cache
def _fields(cls) -> tuple:
    """(name, key, encode, decode, required) per dataclass field of `cls`, in order.

    An identity coder is None, so that writing a field skips the call.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            *(None if coder is _same else coder for coder in _codec(hints[f.name])),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


class JsonRecord:
    """Base of the dataclasses that are written to and read from JSON objects."""

    def to_json_dict(self) -> dict:
        doc = {}
        for name, key, encode, _, _ in _fields(type(self)):
            value = getattr(self, name)
            doc[key] = value if encode is None else encode(value)
        return doc

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise InvalidInputError(f"{cls.__name__} must be a JSON object, got {d!r}")
        fields = _fields(cls)
        unknown = d.keys() - {key for _, key, _, _, _ in fields}
        if unknown:
            raise InvalidInputError(f"unknown {cls.__name__} key {min(unknown)!r}")
        kwargs = {}
        for name, key, _, decode, required in fields:
            if key in d:
                kwargs[name] = d[key] if decode is None else decode(d[key])
            elif required:
                raise InvalidInputError(f"{cls.__name__} needs the key {key!r}")
        return cls(**kwargs)
