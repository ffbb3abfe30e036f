import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmks.errors import InvalidInputError
from srmks.risk import (
    EPS_CLIP,
    BoundConfig,
    DeltaRule,
    RiskReport,
    empirical_risk,
    realized_confidence,
    vc_bound_general,
    vc_bound_reduced,
    vc_bounds,
)


def _g(p: float, n: int) -> float:
    # recomputed locally so the tests do not lean on the module internals
    plogp = 0.0 if p == 0.0 else p * math.log(p)
    return p - plogp + math.log(n) / (2.0 * n)


class TestEmpiricalRisk:
    def test_basic_mse(self):
        assert empirical_risk([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_zero_for_perfect_fit(self):
        y = np.linspace(0, 1, 9)
        assert empirical_risk(y, y) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical_risk([1.0, 2.0], [1.0])
        with pytest.raises(InvalidInputError):
            empirical_risk([], [])


class TestReducedBound:
    def test_frozen_reference_case(self):
        # worked by hand for (mse=1, h=10, n=100), p = 0.1:
        #   g = 0.1 - 0.1 ln 0.1 + ln(100)/200 = 0.35328436022934506
        #   bound = 1 / (1 - sqrt(g)) = 2.465345183774974
        report = vc_bound_reduced(1.0, 10.0, 100)
        assert report.p == pytest.approx(0.1, rel=1e-15)
        assert report.delta == pytest.approx(0.4, rel=1e-15)
        g = _g(0.1, 100)
        assert g == pytest.approx(0.35328436022934506, rel=1e-15)
        assert report.bound == pytest.approx(2.465345183774974, rel=1e-12)
        assert not report.clipped

    def test_zero_capacity_keeps_sample_term(self):
        # h = 0 leaves g = ln(n)/(2n)
        report = vc_bound_reduced(2.0, 0.0, 50)
        g = math.log(50) / 100.0
        assert report.bound == pytest.approx(2.0 / (1.0 - math.sqrt(g)), rel=1e-14)

    def test_zero_mse_gives_zero_bound_when_unclipped(self):
        report = vc_bound_reduced(0.0, 5.0, 100)
        assert report.bound == 0.0
        assert not report.clipped

    @given(
        mse=st.floats(min_value=1e-12, max_value=1e3),
        h=st.floats(min_value=0.0, max_value=400.0),
        n=st.integers(min_value=2, max_value=100000),
    )
    @settings(max_examples=300, deadline=None)
    def test_clip_exactly_at_denominator_threshold(self, mse, h, n):
        report = vc_bound_reduced(mse, h, n)
        p = h / n
        if p >= 1.0:
            expected_clip = True
        else:
            expected_clip = 1.0 - math.sqrt(_g(p, n)) <= EPS_CLIP
        assert report.clipped == expected_clip
        assert math.isinf(report.bound) == expected_clip

    @given(
        mse=st.floats(min_value=1e-9, max_value=1e3),
        h=st.floats(min_value=0.0, max_value=400.0),
        n=st.integers(min_value=2, max_value=100000),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_dominates_empirical_risk(self, mse, h, n):
        # g > 0 always, so the denominator is < 1 and the bound exceeds mse
        report = vc_bound_reduced(mse, h, n)
        assert report.bound >= mse

    def test_capacity_at_sample_size_clips(self):
        assert vc_bound_reduced(1.0, 100.0, 100).clipped
        assert vc_bound_reduced(1.0, 250.0, 100).clipped

    def test_monotone_in_capacity_below_clip(self):
        bounds = [vc_bound_reduced(1.0, h, 200).bound for h in (0.0, 5.0, 20.0, 60.0, 120.0)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            vc_bound_reduced(-1.0, 1.0, 100)
        with pytest.raises(InvalidInputError):
            vc_bound_reduced(1.0, -1.0, 100)
        with pytest.raises(InvalidInputError):
            vc_bound_reduced(1.0, 1.0, 0)


class TestGeneralBound:
    @given(
        mse=st.floats(min_value=1e-9, max_value=1e3),
        h=st.floats(min_value=0.0, max_value=400.0),
        n=st.integers(min_value=17, max_value=100000),
    )
    @settings(max_examples=300, deadline=None)
    def test_reduces_to_reduced_form(self, mse, h, n):
        cfg = BoundConfig()  # a1 = a2 = c = 1, delta = 4/sqrt(n)
        general = vc_bound_general(mse, h, n, cfg)
        reduced = vc_bound_reduced(mse, h, n)
        if reduced.clipped or general.clipped:
            assert reduced.clipped == general.clipped or h >= n
        else:
            assert general.bound == pytest.approx(reduced.bound, rel=1e-10)

    @given(
        mse=st.floats(min_value=0.0, max_value=1e3),
        ratio=st.floats(min_value=1.0, max_value=3.0),
        n=st.integers(min_value=1, max_value=100000),
    )
    @settings(max_examples=300, deadline=None)
    def test_defaults_clip_where_the_reduced_form_does(self, mse, ratio, n):
        # h in [n, 3n]: the reduced form clips, and so must the general one
        h = ratio * n
        assert vc_bound_reduced(mse, h, n).clipped
        general = vc_bound_general(mse, h, n, BoundConfig())
        assert general.clipped
        assert math.isinf(general.bound)

    def test_fixed_delta_changes_bound(self):
        loose = vc_bound_general(1.0, 10.0, 100, BoundConfig(delta=0.5, delta_rule=DeltaRule.FIXED))
        tight = vc_bound_general(1.0, 10.0, 100, BoundConfig(delta=0.01, delta_rule=DeltaRule.FIXED))
        assert tight.bound > loose.bound  # higher confidence costs a wider bound

    def test_eta_negative_flagged(self):
        cfg = BoundConfig(a2=1e-12, delta=0.5, delta_rule=DeltaRule.FIXED)
        report = vc_bound_general(1.0, 50.0, 100, cfg)
        assert report.eta_negative
        assert report.clipped
        assert math.isinf(report.bound)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            BoundConfig(a1=0.0)
        with pytest.raises(InvalidInputError):
            BoundConfig(delta_rule=DeltaRule.FIXED)  # missing delta
        with pytest.raises(InvalidInputError):
            BoundConfig(delta=1.5, delta_rule=DeltaRule.FIXED)
        for name in ("a1", "a2", "c"):
            with pytest.raises(InvalidInputError, match="finite"):
                BoundConfig(**{name: math.inf})
        with pytest.raises(InvalidInputError, match="fixed"):
            BoundConfig(delta=0.05)  # the default rule never reads delta

    def test_config_round_trip(self):
        cfg = BoundConfig(a1=2.0, a2=0.5, c=1.5, delta=0.25, delta_rule=DeltaRule.FIXED)
        back = BoundConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg


def _scalar_bound(mse, h, n, cfg):
    """(bound, clipped, eta_negative, denominator) by the docstring formulas,
    one candidate at a time with math.log; the denominator is None where a
    rule clips before it is formed."""
    if cfg is None:
        if h / n >= 1.0:
            return math.inf, True, False, None
        denom = 1.0 - math.sqrt(_g(h / n, n))
    else:
        capacity = 0.0 if h == 0.0 else h * (math.log(cfg.a2) + math.log(n) - math.log(h) + 1.0)
        eta = cfg.a1 * (capacity - math.log(cfg.realized_delta(n) / 4.0)) / n
        if eta < 0.0:
            return math.inf, True, True, None
        if h / n >= 1.0:
            return math.inf, True, False, None
        denom = 1.0 - cfg.c * math.sqrt(eta)
    if denom <= EPS_CLIP:
        return math.inf, True, False, denom
    return mse / denom, False, False, denom


_FIXED = BoundConfig(a1=0.5, a2=2.0, c=0.8, delta=0.05, delta_rule=DeltaRule.FIXED)
_ETA_NEGATIVE = BoundConfig(a2=1e-12, delta=0.5, delta_rule=DeltaRule.FIXED)


@st.composite
def _bound_batches(draw):
    n = draw(st.integers(1, 5000))
    h = st.one_of(
        st.sampled_from([0.0, 0.999 * n, float(n), 2.0 * n]),
        st.floats(0.0, 1.5 * n),
    )
    pairs = draw(st.lists(st.tuples(st.floats(0.0, 1e3), h), min_size=1, max_size=20))
    cfg = draw(st.sampled_from([None, BoundConfig(), _FIXED, _ETA_NEGATIVE]))
    return [m for m, _ in pairs], [hh for _, hh in pairs], n, cfg


class TestArrayBound:
    @settings(max_examples=300, deadline=None)
    @given(_bound_batches())
    @example(([1.0], [0.0], 100, None))  # p = 0
    @example(([1.0], [0.0], 100, _FIXED))  # h = 0 in the general form
    @example(([1.0, 2.0], [100.0, 250.0], 100, None))  # p >= 1
    @example(([1.0], [150.0], 100, BoundConfig()))  # p >= 1 in the general form
    @example(([1.0], [99.0], 100, None))  # p < 1 but denominator <= EPS_CLIP
    @example(([1.0], [50.0], 100, _ETA_NEGATIVE))  # eta < 0 under DeltaRule.FIXED
    def test_matches_scalar_formula(self, batch):
        mse, h, n, cfg = batch
        bounds = vc_bounds(np.array(mse), np.array(h), n, cfg)
        assert len(bounds.bound) == len(mse)
        delta = 4.0 / math.sqrt(n) if cfg is None else cfg.realized_delta(n)
        for i, (m, hh) in enumerate(zip(mse, h)):
            report = bounds.report(i)
            bound, clipped, eta_negative, denom = _scalar_bound(m, hh, n, cfg)
            assert (report.empirical_risk, report.h, report.n) == (m, hh, n)
            assert report.p == hh / n
            assert report.delta == delta
            # np.log and math.log may differ by an ulp, which moves the
            # denominator by about 1e-16: flags are compared away from the
            # thresholds, bounds where that error is below rel 1e-12
            if denom is None or abs(denom - EPS_CLIP) > 1e-9:
                assert report.clipped == clipped
                assert report.eta_negative == eta_negative
            if clipped and report.clipped:
                assert math.isinf(report.bound)
            elif denom is not None and denom > 1e-3:
                assert report.bound == pytest.approx(bound, rel=1e-12, abs=0.0)

    def test_scalar_forms_are_the_array_form(self):
        cfg = BoundConfig(a1=2.0, a2=0.5, c=0.5, delta=0.1, delta_rule=DeltaRule.FIXED)
        assert vc_bound_reduced(0.3, 12.0, 200) == vc_bounds([0.3], [12.0], 200).report(0)
        assert vc_bound_general(0.3, 12.0, 200, cfg) == vc_bounds([0.3], [12.0], 200, cfg).report(0)

    def test_array_inputs_validated(self):
        with pytest.raises(InvalidInputError):
            vc_bounds([1.0, 1.0], [1.0, -1.0], 100)
        with pytest.raises(InvalidInputError):
            vc_bounds([1.0, -1.0], [1.0, 1.0], 100)
        with pytest.raises(InvalidInputError):
            vc_bounds([1.0], [1.0], 0)


class TestConfidence:
    @pytest.mark.parametrize("n,expected", [(63, 0.496), (126, 0.644), (251, 0.748)])
    def test_reference_confidences(self, n, expected):
        assert abs(realized_confidence(n) - expected) < 5e-4

    def test_formula(self):
        assert realized_confidence(400) == pytest.approx(1.0 - 4.0 / 20.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_small_samples_rejected(self, n):
        with pytest.raises(InvalidInputError):
            realized_confidence(n)


class TestReportSerialization:
    def test_round_trip_finite(self):
        report = vc_bound_reduced(0.25, 12.5, 200)
        back = RiskReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
        assert back == report

    def test_round_trip_infinite(self):
        report = vc_bound_reduced(0.25, 200.0, 200)
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["bound"] == "inf"
        back = RiskReport.from_json_dict(doc)
        assert math.isinf(back.bound)
        assert back == report
