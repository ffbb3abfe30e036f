"""The file codecs of ioutil: the JSON codec of the dataclasses (JsonRecord) and the CSV pair."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmks.errors import InvalidInputError
from srmks.experiment import BoxStats, ExperimentConfig, default_config
from srmks.ioutil import (
    JsonRecord,
    csv_table,
    csv_text,
    float_from_json,
    fmt_float,
    fmt_floats,
    json_float,
    json_rows_text,
    json_text,
)
from srmks.kernels import SDOFKernel
from srmks.oscillator import OscillatorParams, SamplingPlan, TrainingMeta
from srmks.risk import BoundConfig, DeltaRule, RiskReport
from srmks.srm import GridSettings

_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_ANY_FLOAT = st.floats(allow_nan=False)  # NaN != NaN, so equality cannot check it
_COUNTS = st.integers(min_value=1, max_value=50)


@st.composite
def _oscillators(draw, min_zeta=0.0):
    m, k = draw(_POSITIVE), draw(_POSITIVE)
    zeta = draw(st.floats(min_value=min_zeta, max_value=0.99))
    return OscillatorParams(m=m, c=zeta * 2.0 * math.sqrt(k * m), k=k)


@st.composite
def _plans(draw, snr=st.one_of(_POSITIVE, st.just(math.inf)), min_samples=2):
    # a valid plan starts at t = 0 or later and keeps at least two samples,
    # a study plan at least three
    t_start = draw(st.floats(min_value=0.0, max_value=10.0))
    decimation = draw(_COUNTS)
    return SamplingPlan(
        t_start=t_start,
        t_end=t_start + draw(_POSITIVE),
        base_points=draw(
            st.integers(min_value=(min_samples - 1) * decimation + 1, max_value=5000)
        ),
        decimation=decimation,
        snr=draw(snr),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
    )


@st.composite
def _grids(draw):
    lo = draw(_POSITIVE)
    return GridSettings(
        se_sigma_count=draw(_COUNTS),
        se_length_count=draw(_COUNTS),
        sdof_sigma_count=draw(_COUNTS),
        amplitude_factors=(lo, lo * draw(st.floats(min_value=1.5, max_value=1e3))),
    )


_BOUNDS = st.one_of(
    st.builds(BoundConfig, a1=_POSITIVE, a2=_POSITIVE, c=_POSITIVE),  # delta None, 4/sqrt(n)
    st.builds(
        BoundConfig, a1=_POSITIVE, a2=_POSITIVE, c=_POSITIVE,
        delta=st.floats(min_value=1e-9, max_value=0.999), delta_rule=st.just(DeltaRule.FIXED),
    ),
)


@st.composite
def _configs(draw):
    plans = draw(st.lists(_plans(snr=_POSITIVE, min_samples=3), min_size=1, max_size=3))
    unique = tuple({plan.n_samples: plan for plan in plans}.values())
    return ExperimentConfig(
        params=draw(_oscillators(min_zeta=1e-3)),  # the SDOF kernel needs damping
        plans=unique,
        repetitions=draw(_COUNTS),
        base_seed=draw(st.integers(min_value=0, max_value=2**40)),
        grids=draw(_grids()),
        bound_config=draw(_BOUNDS),
    )


_REPORTS = st.builds(
    RiskReport,
    empirical_risk=_ANY_FLOAT, h=_ANY_FLOAT, n=st.integers(min_value=1),
    p=_ANY_FLOAT, delta=_ANY_FLOAT, bound=st.one_of(_ANY_FLOAT, st.just(math.inf)),
    clipped=st.booleans(), eta_negative=st.booleans(),
)
_OPTIONAL = st.one_of(st.none(), _ANY_FLOAT)
_BOX_STATS = st.builds(
    BoxStats,
    minimum=_OPTIONAL, q1=_OPTIONAL, median=_OPTIONAL, q3=_OPTIONAL, maximum=_OPTIONAL,
    mean=_OPTIONAL, count=st.integers(min_value=0), infinite_count=st.integers(min_value=0),
)
_TRAINING_METAS = st.builds(
    TrainingMeta, sigma_n=_ANY_FLOAT, seed=st.integers(min_value=0),
    n=st.integers(min_value=1), plan=_plans(),
)
_RECORDS = st.one_of(
    _oscillators(), _plans(), _grids(), _BOUNDS, _configs(), _REPORTS, _BOX_STATS,
    _TRAINING_METAS,
)


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
def test_round_trip(record):
    doc = json.loads(json_text(record.to_json_dict()))
    assert type(record).from_json_dict(doc) == record


def test_renamed_keys():
    assert list(default_config().to_json_dict()) == [
        "oscillator", "plans", "repetitions", "base_seed", "grids", "bound",
    ]
    stats = BoxStats(1.0, 2.0, 3.0, 4.0, 5.0, 3.0, 5, 0)
    assert list(stats.to_json_dict()) == [
        "min", "q1", "median", "q3", "max", "mean", "count", "infinite_count",
    ]


def test_infinite_floats_are_strings():
    doc = BoxStats(None, 1.0, 2.0, 3.0, math.inf, 2.0, 4, 1).to_json_dict()
    assert doc["min"] is None and doc["max"] == "inf"


def test_optional_keys_take_the_field_defaults():
    assert BoundConfig.from_json_dict({}) == BoundConfig()
    assert GridSettings.from_json_dict({"se_sigma_count": 3}) == GridSettings(se_sigma_count=3)


@pytest.mark.parametrize(
    "cls,doc,match",
    [
        (BoundConfig, {"delta_rul": "fixed"}, "unknown BoundConfig key 'delta_rul'"),
        (OscillatorParams, {"m": 1.0, "c": 2.0, "k": 3.0, "family": "sdof"}, "'family'"),
        (OscillatorParams, {"m": 1.0, "c": 2.0}, "needs the key 'k'"),
        (ExperimentConfig, [1], "must be a JSON object"),
        (GridSettings, {"amplitude_factors": 0.1}, "expected a JSON list"),
        (GridSettings, {"amplitude_factors": [0.1, "x"]}, "expected a JSON number"),
        (OscillatorParams, {"m": True, "c": 2.0, "k": 3.0}, "expected a JSON number, got True"),
        (OscillatorParams, {"m": "1.0", "c": 2.0, "k": 3.0}, "expected a JSON number"),
        (OscillatorParams, {"m": 10**400, "c": 2.0, "k": 3.0}, "outside the float range"),
    ],
)
def test_malformed_documents_are_rejected(cls, doc, match):
    with pytest.raises(ValueError, match=match):
        cls.from_json_dict(doc)


_SDOF_SPEC = SDOFKernel(sigma_f=0.5, params=OscillatorParams(m=1.0, c=20.0, k=1e6))


def test_an_inline_record_writes_its_keys_beside_its_parents():
    assert issubclass(SDOFKernel, JsonRecord)
    doc = _SDOF_SPEC.to_json_dict()
    assert doc == {"sigma_f": 0.5, "m": 1.0, "c": 20.0, "k": 1e6}
    assert list(doc) == ["sigma_f", "m", "c", "k"]
    assert SDOFKernel.from_json_dict(json.loads(json_text(doc))) == _SDOF_SPEC


def test_an_unknown_key_beside_an_inline_record_names_the_parent_and_its_keys():
    doc = {**_SDOF_SPEC.to_json_dict(), "bogus": 1.0}
    with pytest.raises(InvalidInputError) as caught:
        SDOFKernel.from_json_dict(doc)
    message = str(caught.value)
    assert "unknown SDOFKernel key 'bogus'" in message
    assert "('sigma_f', 'm', 'c', 'k')" in message


@pytest.mark.parametrize("key", ["m", "c", "k"])
def test_a_missing_key_of_an_inline_record_is_named(key):
    doc = _SDOF_SPEC.to_json_dict()
    del doc[key]
    with pytest.raises(InvalidInputError, match=f"needs the key '{key}'"):
        SDOFKernel.from_json_dict(doc)


def test_booleans_must_be_json_booleans():
    doc = RiskReport(0.1, 2.0, 10, 0.2, 0.5, 0.3, False).to_json_dict()
    doc["clipped"] = 0
    with pytest.raises(InvalidInputError, match="boolean"):
        RiskReport.from_json_dict(doc)


def test_floats_are_json_numbers_or_the_strings_json_float_writes():
    assert [float_from_json(v) for v in (2, 2.5, "inf", "-inf")] == [2.0, 2.5, math.inf, -math.inf]
    assert math.isnan(float_from_json("nan"))
    for value in ("Infinity", None, [1.0], {}):
        with pytest.raises(InvalidInputError, match="expected a JSON number"):
            float_from_json(value)


@settings(max_examples=100)
@given(st.lists(st.floats(), max_size=20))
def test_fmt_floats_formats_like_fmt_float(values):
    assert fmt_floats(np.array(values, dtype=float)) == [fmt_float(v) for v in values]


def test_fmt_float_keeps_its_non_finite_strings():
    special = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 5e-324, 0.1]
    expected = ["inf", "-inf", "nan", "nan", "-0", "4.9406564584124654e-324", "0.10000000000000001"]
    assert [fmt_float(x) for x in special] == expected
    assert fmt_floats(np.array(special)) == expected


def _row(node, i):
    """The JSON value of row i of an entry whose numpy-array leaves are columns."""
    if isinstance(node, dict):
        return {key: _row(value, i) for key, value in node.items()}
    if isinstance(node, np.ndarray):
        value = node[i].item()
        return value if isinstance(value, bool) else json_float(value)
    return node


@settings(max_examples=100)
@given(rows=st.integers(1, 6), data=st.data())
def test_json_rows_text_writes_the_bytes_of_json_text(rows, data):
    def column(elements):
        return np.array(data.draw(st.lists(elements, min_size=rows, max_size=rows)))

    # "%" in the fixed text must survive the row template
    doc = {"name": "100% \"quoted\"", "scale": data.draw(st.floats(allow_nan=False)), "n": 3}
    entry = {
        "spec": {"family": "s%d", "x": column(st.floats()), "m": 2.5},
        "report": {"flag": column(st.booleans()), "y": column(st.floats()), "n": 7, "z": None},
    }
    expected = json_text({**doc, "rows": [_row(entry, i) for i in range(rows)]})
    assert json_rows_text(doc, "rows", entry) == expected


def test_csv_round_trip():
    text = csv_text("a,b,c,d", [
        [1, "x"], np.array([0.1, math.inf]), np.array([True, False]), ["", "y"],
    ])
    assert text == "a,b,c,d\n1,0.10000000000000001,true,\nx,inf,false,y\n"
    # blank lines anywhere are skipped
    assert csv_table("\n" + text.replace("\nx", "\n\nx") + "\n", "a,b,c,d", "test") == [
        ["1", "0.10000000000000001", "true", ""], ["x", "inf", "false", "y"],
    ]


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "test CSV must start with header 'a,b'"),
        ("b,a\n1,2\n", "test CSV must start with header 'a,b'"),
        ("a,b\n\n", "test CSV holds zero records"),
        ("a,b\n1,2\n1,2,3\n", "malformed test row: '1,2,3'"),
        ("a,b\n1\n", "malformed test row: '1'"),
    ],
    ids=["empty", "wrong-header", "header-only", "extra-field", "missing-field"],
)
def test_malformed_csv_tables_are_rejected(text, match):
    with pytest.raises(InvalidInputError, match=match):
        csv_table(text, "a,b", "test")
