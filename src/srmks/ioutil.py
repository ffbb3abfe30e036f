"""The one place that encodes and decodes files: CSV tables, JSON documents, floats.

CSV fields and stdout write floats with 17 significant digits, JSON with
float.__repr__ (the shortest text that reads back, 0.5961296844730606): both
round-trip IEEE doubles, and write "inf", "-inf" and "nan" for the
non-finite ones, so the files stay portable. json_text writes every JSON
document (two-space indent, one trailing newline), json_rows_text its bytes
for a document with a list of entries drawn from float and bool columns, and
lines_text every file of lines. csv_text writes a CSV table from its
columns, each float array formatted in one call and bools as true/false;
csv_table reads one, skipping blank lines and checking the header, that a
data row follows and that every row has the header's field count.

The config, report and kernel-spec dataclasses and the training.json sidecar
derive from JsonRecord, whose one codec walks the dataclass fields in order.
A field's key is its name unless its metadata names another
(``field(metadata={"key": "min"})``); enums go by value, tuples become
lists, None stays null and nested JsonRecords recurse, or, under the key
None, sit inline: their keys beside their parent's. On read, only a field
with a default may be missing and an unknown key is an error, so a misspelt
key cannot fall back to a default. Floats are read by float_from_json (a
JSON number that is not a boolean, or a string that json_float writes),
bools must be JSON booleans, and ints pass through to the classes' own
require_int checks. Every reader raises only ValueError: InvalidInputError,
or the JSONDecodeError of malformed JSON.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import types
import typing

import numpy as np

from .errors import InvalidInputError


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits; the non-finite ones as 'inf', '-inf', 'nan'."""
    return f"{x:.17g}"


def fmt_floats(values) -> list[str]:
    """fmt_float of every value of a float array, formatted in one call."""
    return (("%.17g," * values.size) % tuple(values.tolist())).split(",")[:-1]


def json_float(x: float):
    """Value for embedding in a JSON document: plain float, or 'inf'/'nan' strings."""
    return x if math.isfinite(x) else fmt_float(x)


def json_text(doc) -> str:
    """The JSON document `doc` as the package writes every JSON file."""
    return json.dumps(doc, indent=2) + "\n"


def _json_leaves(column) -> list[str]:
    """json_text's text of every value of a float or bool array."""
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    texts = repr(column.tolist())[1:-1].split(", ")  # float.__repr__, as json.dumps writes floats
    for i in np.flatnonzero(~np.isfinite(column)):
        texts[i] = json.dumps(json_float(column[i]))
    return texts


def json_rows_text(doc: dict, key: str, entry: dict) -> str:
    """json_text of `doc` with doc[key] the list of `entry` written once per row.

    The numpy-array leaves of `entry` are its columns, one float or bool per
    row, at least one of each; its other leaves are the same in every row.
    The document and the entry are written once each, with a hole for every
    column, and the holes of each row are filled from the formatted columns.
    """
    columns, hole = [], "\x00"  # the hole is written as the JSON string "\u0000"

    def punch(node):
        if isinstance(node, np.ndarray):
            columns.append(_json_leaves(node))
            return hole
        return {k: punch(v) for k, v in node.items()} if isinstance(node, dict) else node

    head, tail = json_text({**doc, key: [hole]}).split(json.dumps(hole))
    indent = head[head.rindex("\n"):]  # a newline, then the depth of the entries
    pieces = json_text(punch(entry))[:-1].replace("\n", indent).split(json.dumps(hole))
    row = "%s".join(piece.replace("%", "%%") for piece in pieces)
    return head + ("," + indent).join(map(row.__mod__, zip(*columns))) + tail


def float_from_json(value) -> float:
    """The float of a JSON number or of a string that json_float writes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise InvalidInputError(f"integer {value} is outside the float range") from None
    if value in ("inf", "-inf", "nan"):
        return float(value)
    raise InvalidInputError(f"expected a JSON number, got {value!r}")


def lines_text(lines) -> str:
    """The lines joined into text, each ending in a newline."""
    return "\n".join(lines) + "\n"


def _csv_fields(column):
    """The fields of one CSV column: a float array by one fmt_floats call, any other
    array as JSON writes it (bools as true/false), any other iterable, endless ones too, by str()."""
    if isinstance(column, np.ndarray):
        return fmt_floats(column) if column.dtype.kind == "f" else _json_leaves(column)
    return map(str, column)


def csv_text(header: str, columns) -> str:
    """CSV text: the header line, then one line of comma-separated fields per row.

    The table comes as its columns, one per header field; the rows end with
    the shortest. Floats go in float arrays: str() of a float is not
    fmt_float's text.
    """
    return lines_text([header, *map(",".join, zip(*map(_csv_fields, columns)))])


def csv_table(text: str, header: str, name: str) -> list[list[str]]:
    """The field lists of the data rows of `text`, a CSV table `name` under `header`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != header:
        raise InvalidInputError(f"{name} CSV must start with header '{header}'")
    if len(lines) < 2:
        raise InvalidInputError(f"{name} CSV holds zero records")
    width = header.count(",") + 1
    rows = [ln.split(",") for ln in lines[1:]]
    for ln, row in zip(lines[1:], rows):
        if len(row) != width:
            raise InvalidInputError(f"malformed {name} row: {ln!r}")
    return rows


def _same(value):
    return value


def _read_bool(value) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError(f"expected a JSON boolean, got {value!r}")
    return value


def _codec(tp) -> tuple:
    """(encode, decode) of one field type."""
    if tp is float:
        return json_float, float_from_json
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

    An identity coder is None, so that writing a field skips the call. An
    inline field's key is the tuple of its record's keys.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            f.metadata.get("key", f.name) or _keys(hints[f.name]),
            *(None if coder is _same else coder for coder in _codec(hints[f.name])),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _keys(cls) -> tuple:
    """Every key of a `cls` object, in field order."""
    return sum((key if isinstance(key, tuple) else (key,) for _, key, *_ in _fields(cls)), ())


class JsonRecord:
    """Base of the dataclasses that are written to and read from JSON objects."""

    def to_json_dict(self) -> dict:
        doc = {}
        for name, key, encode, _, _ in _fields(type(self)):
            value = getattr(self, name)
            value = value if encode is None else encode(value)
            doc.update(value if isinstance(key, tuple) else {key: value})
        return doc

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise InvalidInputError(f"{cls.__name__} must be a JSON object, got {d!r}")
        keys = _keys(cls)
        unknown = d.keys() - keys
        if unknown:
            raise InvalidInputError(f"unknown {cls.__name__} key {min(unknown)!r}, not in {keys}")
        kwargs = {}
        for name, key, _, decode, required in _fields(cls):
            if isinstance(key, tuple):
                kwargs[name] = decode({k: d[k] for k in key if k in d})
            elif key in d:
                kwargs[name] = d[key] if decode is None else decode(d[key])
            elif required:
                raise InvalidInputError(f"{cls.__name__} needs the key {key!r}")
        return cls(**kwargs)

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))
