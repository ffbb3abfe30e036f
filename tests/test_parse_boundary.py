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
import re
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
# plans whose base grid would not fit in memory fail on the sample count
@example(doc=_replaced(json.loads(_TRAINING_JSON), ("plan", "base_points"), 1_059_077_255))
@example(doc=_replaced(
    _replaced(json.loads(_TRAINING_JSON), ("plan", "decimation"), 10**15),
    ("plan", "base_points"), 62 * 10**15 + 1,
))
def test_training_json(scratch, doc):
    data = _write_training(scratch, _TRAINING_CSV, json.dumps(doc))
    with suppress(cli._FileError):
        cli._load_training(data)


def _with_y(text: str, field: str) -> str:
    """`text` with the y field of its first data row replaced by `field`."""
    lines = text.splitlines()
    t, _, true_h = lines[1].split(",")
    lines[1] = ",".join([t, field, true_h])
    return "\n".join(lines) + "\n"


@_SETTINGS
@given(text=_csv_mutations(_TRAINING_CSV))
@example(text=_with_y(_TRAINING_CSV, "1_5"))
@example(text=_with_y(_TRAINING_CSV, " 1.5"))
@example(text=_with_y(_TRAINING_CSV, "nan"))
@example(text=_with_y(_TRAINING_CSV, "0x10"))
@example(text=_with_y(_TRAINING_CSV, ""))
@example(text=_with_y(_TRAINING_CSV, "1,5"))
def test_training_csv(scratch, text):
    data = _write_training(scratch, text, _TRAINING_JSON)
    with suppress(cli._FileError):
        cli._load_training(data)


# training.csv fields parse as Python's float() parses them: underscores and
# surrounding blanks pass, hexadecimal and empty text fail with float()'s
# message, a nan passes the parse and fails the finiteness rule, and a comma
# makes a fourth field
@pytest.mark.parametrize("field, outcome", [
    ("1_5", 15.0),
    (" 1.5", 1.5),
    ("nan", "t, y and true_h must be finite"),
    ("0x10", "could not convert string to float: '0x10'"),
    ("", "could not convert string to float: ''"),
    ("1,5", "malformed training row"),
])
def test_training_csv_fields_parse_as_float_does(scratch, field, outcome):
    data = _write_training(scratch, _with_y(_TRAINING_CSV, field), _TRAINING_JSON)
    if isinstance(outcome, float):
        assert cli._load_training(data)[0].y[0] == outcome
    else:
        with pytest.raises(cli._FileError, match=re.escape(outcome)):
            cli._load_training(data)


def test_unparsable_training_field_exits_3(scratch, tmp_path, capsys):
    # the parse fails before any kernel is fitted
    data = _write_training(scratch, _with_y(_TRAINING_CSV, "0x10"), _TRAINING_JSON)
    argv = ["fit", "--data", str(data), "--kernel", json.dumps(_SE_KERNEL), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "could not convert string to float: '0x10'" in capsys.readouterr().err


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
