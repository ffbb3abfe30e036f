import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rk4_impulse_response
from srmks.errors import InvalidInputError
from srmks.oscillator import (
    OscillatorParams,
    SamplingPlan,
    TrainingSet,
    generate_training_set,
    impulse_response,
    training_set_from_files,
    training_set_to_csv,
    training_set_to_json,
)


def _plan(decimation=16, snr=10.0, seed=0, base_points=1001, t_end=0.3):
    return SamplingPlan(
        t_start=0.0, t_end=t_end, base_points=base_points,
        decimation=decimation, snr=snr, seed=seed,
    )


class TestParams:
    def test_reference_derived_quantities(self, paper_params):
        assert paper_params.omega_n == pytest.approx(1000.0, rel=1e-15)
        assert paper_params.zeta == pytest.approx(0.01, rel=1e-15)
        assert paper_params.omega_d == pytest.approx(999.9499987499375, rel=1e-15)

    @pytest.mark.parametrize("m,c,k", [(1.0, 2000.0, 1e6), (1.0, 3000.0, 1e6)])
    def test_rejects_non_underdamped(self, m, c, k):
        # c = 2000 gives zeta = 1 exactly (critical damping)
        with pytest.raises(InvalidInputError):
            OscillatorParams(m=m, c=c, k=k)

    @pytest.mark.parametrize(
        "m,c,k",
        [
            (0.0, 20.0, 1e6),
            (1.0, -1.0, 1e6),
            (1.0, 20.0, 0.0),
            (1e-200, 20.0, 1e-200),  # k * m underflows to 0
            (1e-200, 0.0, 1e200),  # k / m overflows
            (math.nan, 20.0, 1e6),
            (1.0, math.inf, 1e6),
            (1.0, 20.0, math.inf),
        ],
    )
    def test_rejects_invalid_coefficients(self, m, c, k):
        with pytest.raises(InvalidInputError):
            OscillatorParams(m=m, c=c, k=k)


class TestImpulseResponse:
    def test_initial_conditions(self, paper_params):
        assert impulse_response(paper_params, 0.0) == 0.0
        # initial velocity 1/m via a forward difference at vanishing dt
        dt = 1e-9
        vel = impulse_response(paper_params, dt) / dt
        assert vel == pytest.approx(1.0 / paper_params.m, rel=1e-5)

    def test_matches_rk4_integration(self, paper_params):
        t = np.linspace(0.0, 0.3, 200)
        closed = impulse_response(paper_params, t)
        ode = np.array(
            rk4_impulse_response(paper_params.m, paper_params.c, paper_params.k, t)
        )
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) / scale < 1e-6

    def test_matches_rk4_on_irregular_times(self):
        params = OscillatorParams(m=2.0, c=12.0, k=5e4)
        rng = np.random.default_rng(42)
        t = np.sort(rng.uniform(0.0, 0.1, size=40))
        closed = impulse_response(params, t)
        ode = np.array(rk4_impulse_response(params.m, params.c, params.k, t))
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ode)) / scale < 1e-6

    def test_rejects_non_finite_times(self, paper_params):
        with pytest.raises(InvalidInputError):
            impulse_response(paper_params, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("t", [-0.3, np.array([-1e-300, 0.0, 0.1])])
    def test_rejects_negative_times(self, paper_params, t):
        # before the impulse the closed form grows instead of being zero
        with pytest.raises(InvalidInputError, match="time values must be nonnegative"):
            impulse_response(paper_params, t)

    def test_decay_envelope(self, paper_params):
        # |h(t)| <= exp(-zeta omega_n t) / (m omega_d)
        t = np.linspace(0.0, 0.3, 500)
        h = np.abs(impulse_response(paper_params, t))
        envelope = np.exp(-paper_params.zeta * paper_params.omega_n * t) / (
            paper_params.m * paper_params.omega_d
        )
        assert np.all(h <= envelope * (1 + 1e-12))


class TestSamplingPlan:
    @pytest.mark.parametrize("decimation,expected_n", [(16, 63), (8, 126), (4, 251)])
    def test_reference_sample_sizes(self, decimation, expected_n):
        assert _plan(decimation=decimation).n_samples == expected_n

    @given(
        base_points=st.integers(min_value=2, max_value=2000),
        decimation=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_count_arithmetic(self, base_points, decimation):
        expected = (base_points - 1) // decimation + 1
        if expected < 2:
            with pytest.raises(InvalidInputError, match="must keep at least 2 samples"):
                _plan(base_points=base_points, decimation=decimation, t_end=1.0)
            return
        plan = _plan(base_points=base_points, decimation=decimation, t_end=1.0)
        assert plan.n_samples == expected
        assert plan.n_samples == plan.base_grid()[::decimation].size

    @given(
        t_start=st.floats(min_value=0.0, max_value=10.0),
        span=st.floats(min_value=1e-300, max_value=10.0),
        base_points=st.integers(min_value=2, max_value=2000),
        decimation=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_times_are_the_kept_base_grid_points(
        self, t_start, span, base_points, decimation
    ):
        t_end = t_start + span
        if t_end == t_start or (base_points - 1) // decimation < 1:
            return
        plan = SamplingPlan(t_start=t_start, t_end=t_end, base_points=base_points,
                            decimation=decimation, snr=10.0, seed=0)
        assert np.array_equal(plan.sample_times(), plan.base_grid()[::decimation])

    def test_sample_times_cost_the_kept_points_only(self):
        # a billion base points would take 8 GB as a base grid
        plan = _plan(base_points=10**9 + 1, decimation=10**8)
        times = plan.sample_times()
        assert times.size == plan.n_samples == 11
        assert times[0] == 0.0 and times[-1] == 0.3

    def test_rejects_a_plan_that_keeps_one_sample(self):
        with pytest.raises(InvalidInputError, match="must keep at least 2 samples, got 1"):
            _plan(decimation=5000)

    def test_rejects_a_negative_start_time(self):
        # the closed form grows as exp(zeta omega_n |t|) before the impulse
        with pytest.raises(InvalidInputError, match="t_start must be >= 0"):
            SamplingPlan(t_start=-0.3, t_end=0.3, base_points=1001,
                         decimation=16, snr=10.0, seed=0)

    @pytest.mark.parametrize("t_start,t_end", [(0.0, math.inf), (math.nan, 0.3), (0.0, math.nan)])
    def test_rejects_a_time_range_that_is_not_finite(self, t_start, t_end):
        with pytest.raises(InvalidInputError, match="time range must be finite"):
            SamplingPlan(t_start=t_start, t_end=t_end, base_points=1001,
                         decimation=16, snr=10.0, seed=0)

    def test_base_grid_endpoints(self):
        grid = _plan().base_grid()
        assert grid.size == 1001
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.3, abs=1e-15)

    def test_rejects_bad_plan_values(self):
        with pytest.raises(InvalidInputError):
            _plan(decimation=0)
        with pytest.raises(InvalidInputError):
            _plan(snr=0.0)
        with pytest.raises(InvalidInputError):
            SamplingPlan(t_start=0.3, t_end=0.0, base_points=1001,
                         decimation=16, snr=10.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            _plan(seed=seed)

    @pytest.mark.parametrize(
        "field,value",
        [("base_points", 1001.0), ("base_points", 1), ("decimation", 2.5), ("decimation", True)],
    )
    def test_rejects_count_that_is_not_an_integer(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            _plan(**{field: value})


class TestTrainingSet:
    @pytest.mark.parametrize(
        "t,y,sigma_n,match",
        [
            (np.zeros((2, 2)), np.zeros((2, 2)), 0.1, "1-d"),
            (np.array([0.0, 0.1, 0.2]), np.zeros(2), 0.1, "equal lengths"),
            (np.array([0.0, 0.2, 0.1]), np.zeros(3), 0.1, "strictly increasing"),
            (np.array([0.0, 0.1, 0.1]), np.zeros(3), 0.1, "strictly increasing"),
            (np.array([0.0, 0.1]), np.zeros(2), -0.1, "sigma_n must be nonnegative"),
            (np.array([0.0, 0.1]), np.zeros(2), 1e160, "finite square"),
        ],
        ids=[
            "2-d", "unequal-lengths", "decreasing", "repeated", "negative-noise", "noise-overflows",
        ],
    )
    def test_rejects_malformed_sets(self, t, y, sigma_n, match):
        with pytest.raises(InvalidInputError, match=match):
            TrainingSet(t=t, y=y, sigma_n=sigma_n, true_h=np.zeros_like(y), seed=0)


class TestGenerateTrainingSet:
    def test_noise_level_from_snr(self, paper_params):
        plan = _plan(seed=3)
        data = generate_training_set(paper_params, plan)
        rms = math.sqrt(float(np.mean(data.true_h**2)))
        assert data.sigma_n == pytest.approx(rms / math.sqrt(10.0), rel=1e-14)

    def test_vanishing_noise_at_huge_snr(self, paper_params):
        # snr 1e12 scales sigma_n down by 1e6, so y agrees to ~1e-6 signal units
        data = generate_training_set(paper_params, _plan(snr=1e12))
        assert np.allclose(data.y, data.true_h, atol=1e-4 * np.max(np.abs(data.true_h)))

    def test_seed_determinism(self, paper_params):
        a = generate_training_set(paper_params, _plan(seed=11))
        b = generate_training_set(paper_params, _plan(seed=11))
        c = generate_training_set(paper_params, _plan(seed=12))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_clean_signal_independent_of_seed(self, paper_params):
        a = generate_training_set(paper_params, _plan(seed=11))
        b = generate_training_set(paper_params, _plan(seed=999))
        assert np.array_equal(a.true_h, b.true_h)
        assert np.array_equal(a.t, b.t)

    def test_residual_scale_matches_sigma(self, paper_params):
        # one long draw: the realised noise RMS should sit near sigma_n
        plan = _plan(decimation=1, seed=5)
        data = generate_training_set(paper_params, plan)
        resid = data.y - data.true_h
        realised = float(np.sqrt(np.mean(resid**2)))
        assert realised == pytest.approx(data.sigma_n, rel=0.1)

    def test_too_coarse_decimation_rejected(self, paper_params):
        with pytest.raises(InvalidInputError):
            generate_training_set(paper_params, _plan(decimation=5000))


class TestSerialization:
    def test_round_trip_is_exact(self, paper_params):
        plan = _plan(seed=21)
        data = generate_training_set(paper_params, plan)
        csv_text = training_set_to_csv(data)
        json_text = training_set_to_json(data, plan)
        back, plan_back = training_set_from_files(csv_text, json_text)
        assert np.array_equal(back.t, data.t)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.true_h, data.true_h)
        assert back.sigma_n == data.sigma_n
        assert plan_back == plan

    def test_csv_shape(self, paper_params):
        data = generate_training_set(paper_params, _plan())
        lines = training_set_to_csv(data).strip().split("\n")
        assert lines[0] == "t,y,true_h"
        assert len(lines) == data.n + 1

    def test_sidecar_fields(self, paper_params):
        plan = _plan(seed=21)
        data = generate_training_set(paper_params, plan)
        doc = json.loads(training_set_to_json(data, plan))
        assert doc["n"] == data.n
        assert doc["seed"] == 21

    @pytest.mark.parametrize("seed", [21.0, -1])
    def test_sidecar_seed_must_be_a_nonnegative_integer(self, paper_params, seed):
        plan = _plan(seed=21)
        data = generate_training_set(paper_params, plan)
        doc = json.loads(training_set_to_json(data, plan))
        doc["seed"] = seed
        with pytest.raises(InvalidInputError, match="seed"):
            training_set_from_files(training_set_to_csv(data), json.dumps(doc))

    @pytest.mark.parametrize(
        "edit,match",
        [
            ({"n": 5}, "gives n = 5, but training.csv holds 63 rows"),
            ({"n": 63.0}, "n must be an integer"),
            ({"extra": 1}, "unknown TrainingMeta key 'extra'"),
        ],
        ids=["n-disagrees", "fractional-n", "unknown-key"],
    )
    def test_sidecar_keys_and_n_are_checked(self, paper_params, edit, match):
        plan = _plan(seed=21)
        data = generate_training_set(paper_params, plan)
        doc = json.loads(training_set_to_json(data, plan))
        doc.update(edit)
        with pytest.raises(InvalidInputError, match=match):
            training_set_from_files(training_set_to_csv(data), json.dumps(doc))
