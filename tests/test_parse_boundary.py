"""Fuzz the CLI's input boundary: every mutated input file parses or exits 3.

Each test starts from a valid document, replaces one value at any path (or
the whole document) with an arbitrary JSON value, or one CSV field with
arbitrary text, and calls the CLI's parse entry point directly. The entry
point must return or raise cli._FileError (exit 3); anything else would
escape as a traceback or map to the wrong exit code. main is never called:
a mutated but valid config could start a huge study.
"""
import json
import math
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from srmks import cli
from srmks.oscillator import (
    OscillatorParams,
    SamplingPlan,
    generate_training_set,
    training_set_to_csv,
    training_set_to_json,
)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), math.inf, -math.inf, math.nan, 2.5, -1, 0]),
    st.floats(),
    st.text(max_size=20),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=10), inner, max_size=3),
    ),
    max_leaves=6,
)

_SE_KERNEL = {"family": "se", "sigma_f": 0.002, "length_scale": 0.01}
_SDOF_KERNEL = {"family": "sdof", "sigma_f": 500.0, "m": 1.0, "c": 20.0, "k": 1e6}
_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _paths(doc, prefix=()):
    """Every path into a JSON document, the empty path (the root) first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def _mutations(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    return _replaced(doc, path, draw(_JSON))


@st.composite
def _csv_mutations(draw, text):
    """`text` with one field of one data row replaced by arbitrary text."""
    lines = text.splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split(",")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.text(max_size=20))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _training_files():
    plan = SamplingPlan(
        t_start=0.0, t_end=0.3, base_points=1001, decimation=16, snr=10.0, seed=0
    )
    data = generate_training_set(OscillatorParams(m=1.0, c=20.0, k=1e6), plan)
    return training_set_to_csv(data), training_set_to_json(data, plan)


_TRAINING_CSV, _TRAINING_JSON = _training_files()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write_training(scratch: Path, csv_text: str, json_text: str) -> Path:
    (scratch / "training.csv").write_text(csv_text, encoding="utf-8")
    (scratch / "training.json").write_text(json_text, encoding="utf-8")
    return scratch


_GOLDEN = Path(__file__).resolve().parent / "golden"
_CONFIG = json.loads((_GOLDEN / "config_ref.json").read_text())
_RECORDS = (_GOLDEN / "records_ref.csv").read_text()


@_SETTINGS
@given(doc=_mutations(_CONFIG))
@example(doc=_replaced(_CONFIG, ("grids",), [1]))
@example(doc=_replaced(_CONFIG, ("bound",), [1]))
@example(doc=_replaced(_CONFIG, ("repetitions",), 10**400))
def test_config(scratch, doc):
    path = scratch / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with suppress(cli._FileError):
        cli._parse_config(path)


@_SETTINGS
@given(doc=_mutations(json.loads(_TRAINING_JSON)))
@example(doc=[1])
@example(doc=_replaced(json.loads(_TRAINING_JSON), ("plan",), 5))
def test_training_json(scratch, doc):
    data = _write_training(scratch, _TRAINING_CSV, json.dumps(doc))
    with suppress(cli._FileError):
        cli._load_training(data)


@_SETTINGS
@given(text=_csv_mutations(_TRAINING_CSV))
def test_training_csv(scratch, text):
    data = _write_training(scratch, text, _TRAINING_JSON)
    with suppress(cli._FileError):
        cli._load_training(data)


@_SETTINGS
@given(doc=st.one_of(_mutations(_SE_KERNEL), _mutations(_SDOF_KERNEL)))
@example(doc=[1])
def test_inline_kernel(doc):
    with suppress(cli._FileError):
        cli._parse_kernel(json.dumps(doc))


@_SETTINGS
@given(text=_csv_mutations(_RECORDS))
def test_records_csv(scratch, text):
    path = scratch / "records.csv"
    path.write_text(text, encoding="utf-8")
    with suppress(cli._FileError):
        cli._load_records(path)
