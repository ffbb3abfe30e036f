import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmks.errors import InvalidInputError
from srmks.ioutil import JsonRecord, json_text
from srmks.kernels import (
    KERNELS,
    SDOFKernel,
    SEKernel,
    gram,
    kernel_eval,
    kernel_from_json_dict,
    kernel_to_json_dict,
)
from srmks.oscillator import OscillatorParams, SamplingPlan
from srmks.smoother import decimated_cross_kernel
from srmks.srm import FAMILIES

# dyadic rationals: exact binary fractions make shift arithmetic lossless,
# so stationarity k(t+s, t'+s) == k(t, t') can be asserted with ==
dyadic = st.integers(min_value=-2048, max_value=2048).map(lambda i: i / 1024.0)


def _se(sigma_f=1.0, length_scale=0.05):
    return SEKernel(sigma_f=sigma_f, length_scale=length_scale)


def _sdof(sigma_f=1.0, params=None):
    if params is None:
        params = OscillatorParams(m=1.0, c=20.0, k=1e6)
    return SDOFKernel(sigma_f=sigma_f, params=params)


class TestValidation:
    def test_se_rejects_nonpositive_hyperparameters(self):
        with pytest.raises(InvalidInputError):
            SEKernel(sigma_f=0.0, length_scale=0.1)
        with pytest.raises(InvalidInputError):
            SEKernel(sigma_f=1.0, length_scale=-0.1)

    @pytest.mark.parametrize("length_scale", [1e-300, 1e-170])
    def test_se_rejects_length_scale_whose_square_underflows(self, length_scale):
        # kernel_eval divides by 2 l^2, which would be 0
        with pytest.raises(InvalidInputError, match="square"):
            SEKernel(sigma_f=1.0, length_scale=length_scale)

    def test_se_rejects_length_scale_whose_square_overflows(self):
        with pytest.raises(InvalidInputError, match="square"):
            SEKernel(sigma_f=1.0, length_scale=1e200)

    def test_sdof_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            _sdof(sigma_f=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SEKernel(sigma_f=1e200, length_scale=0.01),
            lambda: SDOFKernel(sigma_f=1e154, params=OscillatorParams(m=1.0, c=0.02, k=1.0)),
            lambda: SEKernel(sigma_f=float("inf"), length_scale=0.01),
            lambda: _sdof(sigma_f=float("nan")),
        ],
        ids=["se-square-overflows", "sdof-variance-overflows", "se-infinite", "sdof-nan"],
    )
    def test_rejects_sigma_whose_variance_is_not_finite(self, make):
        # k(0) = sigma_f^2 * unit_diagonal would overflow in kernel_eval
        with pytest.raises(InvalidInputError, match="finite kernel variance"):
            make()

    @pytest.mark.parametrize(
        "m,c,k,match",
        [(1.0, 0.0, 1e6, "damping"), (1e160, 20.0, 1e140, "variance")],
        ids=["undamped", "m-squared-overflows"],
    )
    def test_sdof_rejects_coefficients_without_a_finite_variance(self, m, c, k, match):
        with pytest.raises(InvalidInputError, match=match):
            SDOFKernel(sigma_f=1.0, params=OscillatorParams(m=m, c=c, k=k))

    @pytest.mark.parametrize(
        "use", [lambda spec: kernel_eval(spec, 0.0, 0.0), kernel_to_json_dict], ids=["eval", "json"]
    )
    def test_rejects_an_unknown_kernel_spec(self, use):
        with pytest.raises(InvalidInputError, match="unknown kernel spec"):
            use({"family": "se", "sigma_f": 1.0, "length_scale": 0.05})


class TestPointwiseValues:
    def test_se_diagonal_is_signal_variance(self):
        k = _se(sigma_f=3.0)
        assert kernel_eval(k, 0.17, 0.17) == 9.0

    def test_se_known_value(self):
        # sigma_f=1, l=1: k(0, 1) = exp(-1/2)
        k = _se(sigma_f=1.0, length_scale=1.0)
        assert kernel_eval(k, 0.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_sdof_diagonal_closed_form(self, paper_params):
        # sigma_f^2 / (4 m^2 zeta omega_n^3) = 2.5e-8 for the reference system
        k = _sdof(sigma_f=1.0, params=paper_params)
        assert kernel_eval(k, 0.123, 0.123) == pytest.approx(2.5e-8, rel=1e-12)

    def test_sdof_off_diagonal_closed_form(self, paper_params):
        k = _sdof(sigma_f=2.0, params=paper_params)
        tau = 0.004
        zwn = paper_params.zeta * paper_params.omega_n
        wd = paper_params.omega_d
        expected = (
            4.0
            / (4 * paper_params.m**2 * paper_params.zeta * paper_params.omega_n**3)
            * np.exp(-zwn * tau)
            * (np.cos(wd * tau) + zwn / wd * np.sin(wd * tau))
        )
        assert kernel_eval(k, 0.01, 0.014) == pytest.approx(expected, rel=1e-14)

    def test_sdof_decays_with_lag(self, paper_params):
        k = _sdof(params=paper_params)
        lags = np.linspace(0.0, 0.3, 400)
        values = kernel_eval(k, lags, np.zeros_like(lags))
        envelope = kernel_eval(k, 0.0, 0.0) * np.exp(
            -paper_params.zeta * paper_params.omega_n * lags
        ) * (1 + paper_params.zeta * paper_params.omega_n / paper_params.omega_d)
        assert np.all(np.abs(values) <= envelope * (1 + 1e-12))


class TestKernelProperties:
    @given(t=dyadic, u=dyadic, s=dyadic)
    @settings(max_examples=200, deadline=None)
    def test_se_stationarity_exact_on_dyadics(self, t, u, s):
        k = _se(sigma_f=1.5, length_scale=0.25)
        assert kernel_eval(k, t + s, u + s) == kernel_eval(k, t, u)

    @given(t=dyadic, u=dyadic, s=st.integers(min_value=0, max_value=2048).map(lambda i: i / 1024.0))
    @settings(max_examples=200, deadline=None)
    def test_sdof_stationarity_exact_on_dyadics(self, t, u, s):
        k = _sdof()
        assert kernel_eval(k, t + s, u + s) == kernel_eval(k, t, u)

    @given(t=dyadic, u=dyadic)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, t, u):
        for k in (_se(), _sdof()):
            assert kernel_eval(k, t, u) == kernel_eval(k, u, t)

    @given(t=dyadic, u=dyadic)
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_sigma_scaling_exact(self, t, u):
        for base, scaled in ((_se(1.0), _se(2.0)), (_sdof(1.0), _sdof(2.0))):
            assert kernel_eval(scaled, t, u) == 4.0 * kernel_eval(base, t, u)

    @given(
        t=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=12),
        sigma_f=st.floats(1e-3, 1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_sigma_scaling_of_the_base_kernel_is_exact(self, t, sigma_f):
        # kernel_eval(spec) == sigma_f^2 * kernel_eval(base) bit for bit, the
        # identity that lets winners on one base kernel share its matrices
        t = np.array(t)
        for base in (_se(1.0), _sdof(1.0)):
            spec = replace(base, sigma_f=sigma_f)
            got = kernel_eval(spec, t[:, None], t)
            assert np.array_equal(got, sigma_f**2 * kernel_eval(base, t[:, None], t))

    def test_diagonal_dominates(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 0.3, size=60)
        for k in (_se(), _sdof()):
            values = kernel_eval(k, t, np.roll(t, 7))
            diag = kernel_eval(k, t, t)
            assert np.all(np.abs(values) <= diag * (1 + 1e-12))

    @pytest.mark.parametrize("family", ["se", "sdof"])
    def test_positive_semidefinite_random_sets(self, family):
        # 100 random input sets; eigenvalues above a -tol*scale floor
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            t = np.sort(rng.uniform(0.0, 0.4, size=n))
            sigma_f = float(rng.uniform(0.2, 5.0))
            if family == "se":
                k = _se(sigma_f=sigma_f, length_scale=float(rng.uniform(5e-4, 0.5)))
            else:
                k = _sdof(sigma_f=sigma_f)
            K = gram(k, t)
            eigs = np.linalg.eigvalsh(K)
            scale = float(np.max(np.abs(eigs))) or 1.0
            assert eigs.min() >= -1e-10 * scale


class TestGram:
    def test_gram_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 0.3, size=40))
        for k in (_se(), _sdof()):
            K = gram(k, t)
            assert np.array_equal(K, K.T)

    def test_gram_matches_pointwise(self):
        t = np.array([0.0, 0.01, 0.05, 0.2])
        for k in (_se(), _sdof()):
            K = gram(k, t)
            for i, ti in enumerate(t):
                for j, tj in enumerate(t):
                    assert K[i, j] == pytest.approx(kernel_eval(k, ti, tj), rel=1e-15)

    def test_cross_vector_matches_gram_column(self):
        t = np.array([0.0, 0.01, 0.05, 0.2])
        for k in (_se(), _sdof()):
            K = gram(k, t)
            col = kernel_eval(k, t, t[2])
            assert np.allclose(col, K[:, 2], rtol=1e-15, atol=0.0)

    def test_gram_rejects_empty_inputs(self):
        with pytest.raises(InvalidInputError):
            gram(_se(), np.array([]))

    @pytest.mark.parametrize("family,temporaries", [("se", 0), ("sdof", 2)])
    def test_gram_takes_few_temporaries(self, family, temporaries):
        # the result is 8.0 MB; SDOF needs its envelope, phase and oscillation at once
        t = np.linspace(0.0, 0.3, 1001)
        spec = _se(length_scale=0.01) if family == "se" else _sdof()
        gram(spec, t)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            K = gram(spec, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 + temporaries + 0.05) * K.nbytes


def _formula_values(spec, t, t_prime):
    """The kernel's formulas as plain numpy expressions, one new array per step."""
    tau = np.subtract(t, t_prime)
    if isinstance(spec, SEKernel):
        return spec.sigma_f**2 * np.exp(-(tau**2) / (2.0 * spec.length_scale**2))
    p = spec.params
    zw, wd, atau = p.zeta * p.omega_n, p.omega_d, np.abs(tau)
    oscillation = np.cos(wd * atau) + (zw / wd) * np.sin(wd * atau)
    return spec.sigma_f**2 * (spec.unit_diagonal * np.exp(-zw * atau) * oscillation)


class TestInPlaceEvaluation:
    _SPECS = [
        _se(), _se(3.7, 0.2), _sdof(), _sdof(123.0, OscillatorParams(m=2.0, c=3.0, k=5e5)),
    ]

    @pytest.mark.parametrize("spec", _SPECS, ids=["se", "se-long", "sdof", "sdof-light"])
    @pytest.mark.parametrize("n", [1, 2, 7, 63, 1001])
    def test_arrays_match_the_formulas_bit_for_bit(self, spec, n):
        t = np.sort(np.random.default_rng(n).uniform(-5.0, 5.0, n))
        for args in [(t[:, None], t[None, :]), (t - t[0], 0.0), (0.1, t), (t[:, None], t[::3])]:
            got, want = kernel_eval(spec, *args), _formula_values(spec, *args)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(gram(spec, t), _formula_values(spec, t[:, None], t[None, :]))

    @pytest.mark.parametrize("spec", _SPECS, ids=["se", "se-long", "sdof", "sdof-light"])
    def test_scalars_stay_scalars(self, spec):
        for tau in (0.0, 0.5, -0.3, 1e-9):
            got, want = kernel_eval(spec, tau, 0.0), _formula_values(spec, tau, 0.0)
            assert type(got) is type(want) is np.float64 and got == want


class TestDecimatedCrossKernel:
    @pytest.mark.parametrize("family", ["se", "sdof"])
    @pytest.mark.parametrize("decimation", [1, 4, 16])
    @pytest.mark.parametrize("t_start", [0.0, 10.0])
    def test_matches_pairwise_evaluation(self, t_start, decimation, family):
        plan = SamplingPlan(
            t_start=t_start, t_end=t_start + 0.3, base_points=1001,
            decimation=decimation, snr=10.0, seed=0,
        )
        grid = plan.base_grid()
        spec = _se(length_scale=0.01) if family == "se" else _sdof()
        got = decimated_cross_kernel(spec, grid, decimation)
        want = kernel_eval(spec, grid[:, None], grid[::decimation])
        assert got.shape == (1001, plan.n_samples) and got.flags.c_contiguous
        # both sides take the lag from rounded times, each within about
        # 2 eps max|t| of the exact grid, so they may differ by the kernel's
        # largest slope times 8 eps max|t|: SE 1 / (l sqrt(e)), SDOF
        # omega_n^2 / omega_d, each times k(0)
        if family == "se":
            slope = 1.0 / (spec.length_scale * np.sqrt(np.e))
        else:
            slope = spec.params.omega_n**2 / spec.params.omega_d
        lag_error = 8.0 * np.finfo(float).eps * np.max(np.abs(grid))
        k0 = kernel_eval(spec, 0.0, 0.0)
        assert np.max(np.abs(got - want)) <= (1e-12 + slope * lag_error) * k0


class TestSerialization:
    def test_se_round_trip(self):
        k = _se(sigma_f=2.5, length_scale=0.037)
        back = kernel_from_json_dict(kernel_to_json_dict(k))
        assert back == k

    def test_sdof_round_trip(self, paper_params):
        k = _sdof(sigma_f=0.75, params=paper_params)
        back = kernel_from_json_dict(kernel_to_json_dict(k))
        assert back == k

    # one spec per entry of KERNELS, so that a new family needs an example here
    _EXAMPLES = {"se": _se(sigma_f=2.5, length_scale=0.037), "sdof": _sdof(sigma_f=0.75)}

    def test_every_family_has_an_example(self):
        assert self._EXAMPLES.keys() == KERNELS.keys()

    @pytest.mark.parametrize("family", list(KERNELS))
    def test_every_family_is_a_json_record_that_round_trips(self, family):
        cls, spec = KERNELS[family], self._EXAMPLES[family]
        assert issubclass(cls, JsonRecord) and type(spec) is cls
        assert cls.family == family
        doc = json.loads(json_text(kernel_to_json_dict(spec)))
        assert doc == {"family": family, **spec.to_json_dict()}
        assert kernel_from_json_dict(doc) == spec

    def test_the_search_families_are_the_kernel_table(self):
        assert FAMILIES == tuple(KERNELS)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidInputError):
            kernel_from_json_dict({"family": "matern", "sigma_f": 1.0})

    def test_reads_the_strings_json_float_writes(self):
        doc = {"family": "se", "sigma_f": "inf", "length_scale": 0.01}
        with pytest.raises(InvalidInputError, match="finite kernel variance"):
            kernel_from_json_dict(doc)

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({"family": "se", "sigma_f": True, "length_scale": 0.01}, "JSON number"),
            ({"family": "se", "sigma_f": "0.002", "length_scale": 0.01}, "JSON number"),
            ({"family": "sdof", "sigma_f": 1.0, "m": None, "c": 20.0, "k": 1e6}, "JSON number"),
            (
                {"family": "se", "sigma_f": 0.002, "length_scale": 0.01, "bogus": 1},
                "unknown SEKernel key 'bogus'",
            ),
            ({"family": "sdof", "sigma_f": 1.0, "m": 1.0, "c": 20.0}, "needs the key 'k'"),
            ({"family": ["se"], "sigma_f": 1.0, "length_scale": 0.01}, "family"),
            ({"sigma_f": 1.0, "length_scale": 0.01}, "family"),
            ([1], "family"),
        ],
        ids=[
            "boolean", "string-number", "null-number", "unknown-key", "missing-key",
            "unhashable-family", "no-family", "not-an-object",
        ],
    )
    def test_rejects_malformed_specs(self, doc, match):
        with pytest.raises(InvalidInputError, match=match):
            kernel_from_json_dict(doc)
