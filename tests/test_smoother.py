import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import edf_trace, exact_residual, solve_dense
from strategies import sample_times
from srmks.errors import InvalidInputError, SingularSystemError
from srmks.experiment import default_config
from srmks.kernels import SDOFKernel, SEKernel, gram, kernel_eval
from srmks.oscillator import OscillatorParams, SamplingPlan, TrainingSet, generate_training_set
from srmks import smoother
from srmks.smoother import decompose, fit, predict, rounding_level, spectral_weights

_PAPER = OscillatorParams(m=1.0, c=20.0, k=1e6)
_EPS = np.finfo(float).eps


def _random_instance(rng, n_max=8):
    """Small random training set plus a random kernel of either family."""
    n = int(rng.integers(2, n_max + 1))
    t = np.sort(rng.uniform(0.0, 0.3, size=n))
    while np.any(np.diff(t) <= 0):
        t = np.sort(rng.uniform(0.0, 0.3, size=n))
    y = rng.normal(0.0, 1.0, size=n)
    sigma_n = float(rng.uniform(0.05, 0.5))
    if rng.integers(2) == 0:
        kernel = SEKernel(
            sigma_f=float(rng.uniform(0.3, 3.0)),
            length_scale=float(rng.uniform(0.005, 0.2)),
        )
    else:
        kernel = SDOFKernel(
            sigma_f=float(rng.uniform(100.0, 5000.0)),
            params=OscillatorParams(m=1.0, c=20.0, k=1e6),
        )
    data = TrainingSet(t=t, y=y, sigma_n=sigma_n, true_h=np.zeros(n), seed=0)
    return kernel, data, sigma_n


# squared spacing: irregular times, which fit solves by Cholesky
_IRREGULAR_5 = 0.3 * np.linspace(0.0, 1.0, 5) ** 2
_IRREGULAR_10 = 0.3 * np.linspace(0.0, 1.0, 10) ** 2


def _gamma(k):
    """k u / (1 - k u), u = eps / 2: the relative rounding bound of k floating-point operations."""
    return k * _EPS / 2 / (1 - k * _EPS / 2)


def _make_data(t, y, sigma_n=0.1):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return TrainingSet(t=t, y=y, sigma_n=sigma_n, true_h=np.zeros_like(y), seed=0)


class TestAgainstDenseOracle:
    def test_weights_and_predictions_match_gaussian_elimination(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            kernel, data, sigma_n = _random_instance(rng)
            model = fit(kernel, data, sigma_n)
            K = gram(kernel, data.t)
            A = (K + sigma_n**2 * np.eye(data.n)).tolist()
            ref_w = np.array(solve_dense(A, data.y.tolist()))
            scale = float(np.max(np.abs(ref_w))) or 1.0
            assert np.max(np.abs(model.weights - ref_w)) / scale < 1e-8

            # predictions recomputed pointwise with the oracle weights
            t_query = np.linspace(-0.05, 0.35, 9)
            pred = np.asarray(predict(model, t_query))
            pred_scale = float(np.max(np.abs(pred))) or 1.0
            for tq, p in zip(t_query, pred):
                cross = np.array(
                    [kernel_eval(kernel, float(ti), float(tq)) for ti in data.t]
                )
                ref_p = float(cross @ ref_w)
                assert abs(p - ref_p) / pred_scale < 1e-8

    def test_edf_matches_trace_identity(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            kernel, data, sigma_n = _random_instance(rng)
            model = fit(kernel, data, sigma_n)
            ref = edf_trace(gram(kernel, data.t).tolist(), sigma_n)
            assert abs(model.edf - ref) < 1e-8


class TestEdfBehaviour:
    def test_edf_within_bounds(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            kernel, data, sigma_n = _random_instance(rng)
            model = fit(kernel, data, sigma_n)
            assert 0.0 <= model.edf <= data.n + 1e-12

    def test_edf_decreases_with_noise(self):
        t = np.linspace(0.0, 0.3, 25)
        y = np.sin(40 * t)
        kernel = SEKernel(sigma_f=1.0, length_scale=0.02)
        sigmas = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        edfs = [fit(kernel, _make_data(t, y, s), s).edf for s in sigmas]
        assert all(a > b for a, b in zip(edfs, edfs[1:]))

    def test_edf_grows_as_length_scale_shrinks(self):
        t = np.linspace(0.0, 0.3, 25)
        y = np.sin(40 * t)
        sigma_n = 0.05
        lengths = [0.3, 0.1, 0.03, 0.01, 0.003]
        edfs = [
            fit(SEKernel(sigma_f=1.0, length_scale=l), _make_data(t, y, sigma_n), sigma_n).edf
            for l in lengths
        ]
        assert all(a <= b + 1e-12 for a, b in zip(edfs, edfs[1:]))

    def test_zero_noise_full_rank_is_rejected(self):
        # K is the identity to 1.5e-8: at sigma_n = 0 the edf would be n, and
        # just above fit's rounding level it is n to rounding
        t = np.linspace(0.0, 0.3, 6)
        data = _make_data(t, np.sin(40 * t), 0.0)
        kernel = SEKernel(sigma_f=1.0, length_scale=0.01)
        with pytest.raises(InvalidInputError, match="rounding level"):
            fit(kernel, data, 0.0)
        sigma_n = math.sqrt(2.0 * rounding_level(6, 6 * kernel_eval(kernel, 0.0, 0.0)))
        assert fit(kernel, data, sigma_n).edf == pytest.approx(6.0, rel=0.0, abs=1e-12)


class TestPredictionBehaviour:
    def test_scalar_and_array_queries_agree(self):
        t = np.linspace(0.0, 0.3, 12)
        model = fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t), 0.1), 0.1)
        queries = np.array([0.0, 0.11, 0.29])
        batch = predict(model, queries)
        for q, b in zip(queries, batch):
            assert predict(model, float(q)) == pytest.approx(b, rel=1e-14)

    def test_linearity_in_targets(self):
        t = np.linspace(0.0, 0.3, 15)
        y = np.sin(30 * t)
        kernel = SEKernel(1.0, 0.05)
        a = fit(kernel, _make_data(t, y, 0.1), 0.1)
        b = fit(kernel, _make_data(t, 3.0 * y, 0.1), 0.1)
        q = np.linspace(0.0, 0.3, 7)
        assert np.allclose(predict(b, q), 3.0 * np.asarray(predict(a, q)), rtol=1e-10)

    def test_fitted_equals_prediction_at_training_inputs(self):
        # fitted is y - sigma_n^2 w, bit for bit, on both routes. predict
        # forms K* w, K* = kernel_eval(t, t). Exactly, K* w = y - sigma_n^2 w
        # + r with r = (K* + sigma_n^2 I) w - y, the residual of the weights
        # in predict's matrix, so the two differ by at most |r| plus the
        # rounding of the product, gamma_n sum_j |K*_ij w_j|, and of fitted's
        # two operations, gamma_2 (|y| + sigma_n^2 |w|), with gamma_k = k u /
        # (1 - k u), u = eps / 2 (Higham, Accuracy and Stability, sec. 3.1).
        rng = np.random.default_rng(80)
        routes = set()
        for _ in range(30):
            kernel, data, sigma_n = _random_instance(rng)
            uniform = _make_data(np.linspace(data.t[0], data.t[-1], data.n), data.y, sigma_n)
            for d in (data, uniform):
                model = fit(kernel, d, sigma_n)
                noise, w = sigma_n**2, model.weights
                assert np.array_equal(model.fitted, d.y - noise * w)
                cross = kernel_eval(kernel, d.t[:, None], d.t)
                residual = np.array(exact_residual(cross.tolist(), w.tolist(), d.y.tolist(), noise))
                bound = (
                    residual + _gamma(d.n) * (np.abs(cross) @ np.abs(w))
                    + _gamma(2) * (np.abs(d.y) + noise * np.abs(w))
                )
                assert np.all(np.abs(predict(model, d.t) - model.fitted) <= bound)
                routes.add(smoother._uniform(d.t))
        assert routes == {False, True}

    def test_near_interpolation_at_small_noise(self):
        t = np.linspace(0.0, 0.3, 8)
        y = np.cos(20 * t)
        model = fit(SEKernel(1.0, 0.03), _make_data(t, y, 1e-6), 1e-6)
        pred = np.asarray(predict(model, t))
        assert np.max(np.abs(pred - y)) < 1e-6


class TestRobustness:
    def test_rejects_negative_noise(self):
        t = np.linspace(0.0, 0.3, 5)
        with pytest.raises(InvalidInputError):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(t)), -0.1)

    def test_rejects_infinite_noise(self):
        t = np.linspace(0.0, 0.3, 5)
        with pytest.raises(InvalidInputError):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(t)), float("inf"))

    def test_non_finite_gram_raises(self, monkeypatch):
        t = _IRREGULAR_5
        data = _make_data(t, np.sin(t))
        kernel = SEKernel(0.001, 0.01)
        monkeypatch.setattr(
            smoother, "gram", lambda spec, t: np.full((t.size, t.size), np.nan)
        )
        with pytest.raises(SingularSystemError):
            fit(kernel, data, 0.1)

    def test_exhausted_retries_raise(self, monkeypatch):
        # fit makes a single factorisation attempt and no jitter retries, so
        # the first failure already exhausts it
        t = _IRREGULAR_10
        data = _make_data(t, np.sin(30 * t), 0.1)
        calls = {"count": 0}

        def broken(a, **kw):
            calls["count"] += 1
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(scipy.linalg, "cholesky", broken)
        with pytest.raises(SingularSystemError):
            fit(SEKernel(1.0, 0.05), data, 0.1)
        assert calls["count"] == 1

    @pytest.mark.parametrize("inverse,message", [
        (None, "cannot solve the 10x10 smoother system"),
        (np.inf, "the 10x10 smoother system gave no finite edf"),
    ], ids=["info", "overflow"])
    def test_failed_triangular_inverse_raises(self, monkeypatch, inverse, message):
        # solve_triangular raises LinAlgError on a zero diagonal of the
        # factor; an inverse too large to square gives a non-finite edf
        t = _IRREGULAR_10
        data = _make_data(t, np.sin(30 * t), 0.1)

        def solve_triangular(a, b, **kw):
            if inverse is None:
                raise np.linalg.LinAlgError("singular matrix: resolution failed at diagonal 3")
            return np.full_like(b, inverse)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", solve_triangular)
        with pytest.raises(SingularSystemError, match=message):
            fit(SEKernel(1.0, 0.05), data, 0.1)

    @pytest.mark.parametrize("t,order", [
        (np.linspace(0.0, 0.3, 10), 5), (_IRREGULAR_10, 10),
    ], ids=["fold", "full"])
    def test_failed_eigendecomposition_raises(self, monkeypatch, t, order):
        # numpy raises LinAlgError when LAPACK's divide and conquer does not
        # converge, here on the fold's first block and on a whole Gram matrix
        def broken(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        message = rf"^the {order}x{order} eigendecomposition did not converge$"
        with pytest.raises(SingularSystemError, match=message):
            decompose([SEKernel(1.0, 0.05)], t)

    def test_non_finite_lag_column_raises(self, monkeypatch):
        # k(0) stays finite, so the noise rule passes and the column is checked
        t = np.linspace(0.0, 0.3, 5)
        finite = smoother.kernel_eval
        monkeypatch.setattr(
            smoother,
            "kernel_eval",
            lambda spec, a, b: np.full(np.shape(a), np.nan) if np.ndim(a) else finite(spec, a, b),
        )
        with pytest.raises(SingularSystemError, match="non-finite entries"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(t)), 0.1)

    def test_failed_levinson_solve_raises(self, monkeypatch):
        t = np.linspace(0.0, 0.3, 10)
        calls = {"count": 0}

        def broken(c, b, **kw):
            calls["count"] += 1
            raise np.linalg.LinAlgError("synthetic singular principal minor")

        monkeypatch.setattr(scipy.linalg, "solve_toeplitz", broken)
        with pytest.raises(SingularSystemError, match="Toeplitz"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t)), 0.1)
        assert calls["count"] == 1

    @pytest.mark.parametrize("fill", [np.nan, -1.0], ids=["non-finite", "negative-x0"])
    def test_bad_levinson_solution_raises(self, monkeypatch, fill):
        # a non-finite solution, or a first entry (T^-1)_00 <= 0, which no
        # positive definite T has
        t = np.linspace(0.0, 0.3, 10)
        monkeypatch.setattr(
            scipy.linalg, "solve_toeplitz", lambda c, b, **kw: np.full_like(b, fill)
        )
        with pytest.raises(SingularSystemError, match="Toeplitz"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t)), 0.1)

    def test_levinson_edf_out_of_range_raises(self, monkeypatch):
        # a finite positive solution with sum_k (n - 2k) x_k^2 = 1e307, which
        # sigma_n^2 = 100 scales past the float range
        t = np.linspace(0.0, 0.3, 10)
        monkeypatch.setattr(
            scipy.linalg, "solve_toeplitz", lambda c, b, **kw: np.full_like(b, 1e153)
        )
        with pytest.raises(SingularSystemError, match="Toeplitz system gave no finite edf"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t)), 10.0)

    def test_levinson_edf_overflow_raises_without_a_warning(self, monkeypatch):
        # sum_k (n - 2k) x_k^2 overflows here; the suite turns a RuntimeWarning
        # into an error, so this passes only if the overflow stays silent
        t = np.linspace(0.0, 0.3, 10)
        monkeypatch.setattr(
            scipy.linalg, "solve_toeplitz", lambda c, b, **kw: np.full_like(b, 1e200)
        )
        with pytest.raises(SingularSystemError, match="Toeplitz system gave no finite edf"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t)), 10.0)

    def test_non_finite_cholesky_weights_raise(self, monkeypatch):
        t = _IRREGULAR_10
        monkeypatch.setattr(scipy.linalg, "cho_solve", lambda c, b, **kw: np.full_like(b, np.nan))
        with pytest.raises(SingularSystemError, match="non-finite weights"):
            fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(30 * t)), 0.1)

    def test_zero_noise_rank_deficient_gram_raises(self):
        # l = 100 over a 0.3 s span makes K numerically rank one; without
        # noise (K + sigma_n^2 I) is singular, and fit rejects the noise level
        # instead of returning weights of order 1e12
        t = np.linspace(0.0, 0.3, 8)
        with pytest.raises(InvalidInputError, match="rounding level"):
            fit(SEKernel(1.0, 100.0), _make_data(t, np.sin(30 * t), 0.0), 0.0)

    def test_noise_threshold_is_the_rounding_level_of_the_trace(self):
        # fit's level takes tr K = n * k(0) as its bound on lambda_max
        t = np.linspace(0.0, 0.3, 20)
        kernel = SEKernel(2.0, 0.05)
        level = rounding_level(20, 20 * kernel_eval(kernel, 0.0, 0.0))

        def at(noise):
            sigma_n = math.sqrt(noise)
            return fit(kernel, _make_data(t, np.sin(30 * t), sigma_n), sigma_n)

        at(2.0 * level)
        with pytest.raises(InvalidInputError, match="rounding level"):
            at(0.5 * level)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-150, 1e150), st.sampled_from(["se", "sdof"]))
    def test_noise_rule_takes_n_k0_bit_for_bit(self, sigma_f, family):
        # fit's top n * k(0), from sigma_f^2 * unit_diagonal, is kernel_eval's k(0) times n
        spec = SEKernel(sigma_f, 0.05) if family == "se" else SDOFKernel(sigma_f, _PAPER)
        t = np.linspace(0.0, 0.3, 12)
        tops = []

        def record(sigma_n, n, top):
            tops.append(top)
            raise InvalidInputError("recorded")

        with mock.patch.object(smoother, "require_determined_noise", record):
            with pytest.raises(InvalidInputError, match="recorded"):
                fit(spec, _make_data(t, np.sin(30 * t)), 0.1)
        assert tops == [12 * float(kernel_eval(spec, 0.0, 0.0))]


# targets are 0 or at least 1e-3 in magnitude: the check is relative to each
# curve's max |value|, and all-tiny targets would drive it into subnormals
_NONZERO = st.floats(0.001, 2.0)
_TARGETS = st.one_of(st.just(0.0), _NONZERO, _NONZERO.map(lambda v: -v))


@st.composite
def _spectral_refits(draw):
    """1-4 training sets on shared times, each with a winner of an SE or the SDOF base."""
    t = draw(sample_times(2))
    n = t.size
    bases = [SEKernel(1.0, draw(st.floats(0.005, 0.2))), SDOFKernel(1.0, _PAPER)]
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        y = np.array(draw(st.lists(_TARGETS, min_size=n, max_size=n)))
        data = TrainingSet(t=t, y=y, sigma_n=draw(st.floats(0.05, 0.5)), true_h=np.zeros(n), seed=0)
        base = draw(st.sampled_from(bases))
        scales = st.floats(0.3, 3.0) if base.family == "se" else st.floats(100.0, 5000.0)
        cells.append((base, draw(scales), data))
    return t, cells


# SE l = 0.005859375 on six uniform times with y = e_6: the curve peaks at
# 1.8e-11 while cross-kernel entries of 0.4 meet weights of 0.8, so the
# weights' rounding moves it by 3e-16, far above rel 1e-9 of the curve
_TINY_CURVE_T = 0.296875 + 0.048828125 * np.arange(6)
_TINY_CURVE = (_TINY_CURVE_T, [(SEKernel(1.0, 0.005859375), 1.0, TrainingSet(
    t=_TINY_CURVE_T, y=np.eye(6)[5], sigma_n=0.5, true_h=np.zeros(6), seed=0,
))])


class TestSpectralRefit:
    @settings(max_examples=200, deadline=None)
    @given(_spectral_refits())
    @example(_TINY_CURVE)
    def test_matches_dense_solve(self, problem):
        # the eigen-form prediction against (s^2 K_0 + sigma_n^2 I) w = y
        # solved by Gaussian elimination, with one decomposition per base;
        # rel 1e-9 of the curve plus the rounding of the weights, n eps max|w|,
        # carried through each row of the cross-kernel
        t, cells = problem
        t_star = np.linspace(-0.05, 0.5, 37)
        spectra = {base: decompose([base], t)[0] for base, _, _ in cells}
        for base, sigma_f, data in cells:
            cross = kernel_eval(base, t_star[:, None], t)
            z = spectra[base].project(data.y)
            rho = (sigma_f / data.sigma_n) ** 2
            got = cross @ spectral_weights(spectra[base], rho, data.y, z)
            scale = sigma_f**2
            A = scale * gram(base, t) + data.sigma_n**2 * np.eye(t.size)
            weights = np.array(solve_dense(A.tolist(), data.y.tolist()))
            want = (scale * cross) @ weights
            carried = t.size * _EPS * np.max(np.sum(np.abs(scale * cross), axis=1))
            assert np.max(np.abs(got - want)) <= (
                1e-9 * np.max(np.abs(want)) + carried * np.max(np.abs(weights))
            )


@st.composite
def _stacked_targets(draw):
    """An SE or SDOF base on any sample times, n = 1 to 10, with 1-4 target rows."""
    t = draw(sample_times(1))
    se = SEKernel(1.0, draw(st.floats(0.005, 0.2)))
    base = draw(st.sampled_from([se, SDOFKernel(1.0, _PAPER)]))
    rows = st.lists(_TARGETS, min_size=t.size, max_size=t.size)
    return base, t, np.array(draw(st.lists(rows, min_size=1, max_size=4)))


class TestSpectrumBlocks:
    @settings(max_examples=200, deadline=None)
    @given(_stacked_targets())
    def test_project_and_expand_match_a_dense_eigh(self, problem):
        base, t, y = problem
        n = t.size
        spectrum = decompose([base], t)[0]
        folded = smoother._uniform(t)
        assert [v.shape[0] for v in spectrum.blocks] == ([n - n // 2, n // 2] if folded else [n])
        K = _lag_toeplitz(base, t) if folded else gram(base, t)
        # the oracle is QR iteration (dsyev): MRRR's vectors lose orthogonality
        # on the near-identity K of short length-scales, 48 rounding levels below
        lam, vectors = scipy.linalg.eigh(K, driver="ev")
        slack = 4.0  # the fold's property test's allowance at n <= 16
        top = lam[-1]
        # the kept pairs against as many of the oracle's largest
        got = np.sort(spectrum.eigenvalues)
        assert np.max(np.abs(got - lam[n - got.size:])) <= slack * rounding_level(n, top)
        _assert_spectrum_of(spectrum, K, slack)
        z = spectrum.project(y)
        # every set's z has the same bits alone as stacked with the others
        assert all(np.array_equal(z[r], spectrum.project(y[r])) for r in range(len(y)))
        # and so does its part along the dropped pairs, y - U z
        rest = y - spectrum.expand(z)
        assert all(np.array_equal(rest[r], y[r] - spectrum.expand(z[r])) for r in range(len(y)))
        # U (z / (lambda + mu)) plus the dropped pairs' part / mu = (K + mu I)^-1 y,
        # whatever basis each side picked for its eigenvectors; over 10,000 draws the
        # oracle reached 1.5 rounding levels
        mu = top
        solved = spectrum.expand(z / (spectrum.eigenvalues + mu)) + rest / mu
        want = (y @ vectors / (np.maximum(lam, 0.0) + mu)) @ vectors.T
        level = rounding_level(n, np.max(np.abs(y)) / mu)
        assert np.max(np.abs(solved - want)) <= slack * level


def _plan_times() -> dict[str, np.ndarray]:
    """The sample times of the default plans and of a simulated set like select's."""
    plans = {f"plan{plan.n_samples}": plan for plan in default_config().plans}
    # a base grid that runs 11 points past the last sample kept by decimation 16
    plans["extra"] = SamplingPlan(
        t_start=0.0, t_end=0.27, base_points=62 * 16 + 12, decimation=16, snr=10.0, seed=0
    )
    # far from 0 the times carry rounding relative to |t|, which broke a
    # fold gated on the centrosymmetry of the Gram matrix
    for start in (1.0, 10.0):
        plans[f"start{start:g}s"] = SamplingPlan(
            t_start=start, t_end=start + 0.3, base_points=1001, decimation=16, snr=10.0, seed=0
        )
    return {name: plan.sample_times() for name, plan in plans.items()}


_PLAN_TIMES = _plan_times()
_BASES = {
    "se-shortest": lambda t: SEKernel(1.0, float(np.min(np.diff(t)))),
    "se-longest": lambda t: SEKernel(1.0, float(t[-1] - t[0])),
    "sdof": lambda t: SDOFKernel(1.0, _PAPER),
}


def _decompose_counting_eigh(monkeypatch, base, t):
    """decompose(base, t) and the order of each block it passed to smoother._eigh."""
    sizes, eigh = [], smoother._eigh

    def counted(matrix):
        sizes.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(smoother, "_eigh", counted)
    return decompose([base], t)[0], sizes


def _lag_toeplitz(base, t):
    """toeplitz(k(t - t[0])), the matrix decompose folds on uniform times."""
    return scipy.linalg.toeplitz(kernel_eval(base, t - t[0], 0.0))


def _vectors(spectrum):
    """U, built through the spectrum's own expand, one kept pair per column."""
    return spectrum.expand(np.eye(spectrum.eigenvalues.size)).T


def _assert_spectrum_of(spectrum, K, slack=1.0):
    """The kept pairs lie above the rounding level and are eigenpairs of K to `slack` levels."""
    n, lam, vectors = K.shape[0], spectrum.eigenvalues, _vectors(spectrum)
    assert lam.size + spectrum.dropped == n
    assert lam.min() > rounding_level(n, lam.max())
    blocks = np.split(lam, [spectrum.blocks[0].shape[1]])
    assert all(np.all(np.diff(block) >= 0.0) for block in blocks)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(lam.size))) <= slack * rounding_level(n, 1.0)
    assert np.max(np.abs(K @ vectors - vectors * lam)) <= slack * rounding_level(n, lam.max())


def _no_gram(spec, t):
    raise AssertionError("decompose built the n x n Gram matrix on uniform times")


def _assert_even_or_odd(vectors):
    for j in range(vectors.shape[1]):
        column, mirrored = vectors[:, j], vectors[::-1, j]
        assert np.array_equal(mirrored, column) or np.array_equal(mirrored, -column)


@st.composite
def _uniform_decompositions(draw):
    """An SE or SDOF base on t0 + gap * arange(n), n = 1 to 16, t0 = 0 to 10 s."""
    n = draw(st.integers(1, 16))
    t = draw(st.floats(0.0, 10.0)) + draw(st.floats(0.002, 0.05)) * np.arange(n)
    se = SEKernel(1.0, 10 ** draw(st.floats(-2.5, 0.0)))
    return draw(st.sampled_from([se, SDOFKernel(1.0, _PAPER)])), t


class TestFoldedDecomposition:
    @settings(max_examples=200, deadline=None)
    @given(_uniform_decompositions())
    def test_lag_built_fold_matches_the_toeplitz_oracles(self, problem):
        base, t = problem
        assert smoother._uniform(t)
        with mock.patch.object(smoother, "gram", _no_gram):
            spectrum = decompose([base], t)[0]
        A = _lag_toeplitz(base, t)
        want = np.maximum(scipy.linalg.eigh(A, eigvals_only=True), 0.0)
        # at n <= 16 LAPACK's errors carry a constant above 1: over 40,000 such
        # draws the fold reached 1.5 rounding levels in its eigenvalues, 1.6 n eps
        # in U^T U - I and 1.4 levels in U diag(lambda) U^T - A, and a full eigh
        # of A itself 2.5 n eps and 2.9 levels (LAPACK's own tests allow 30)
        slack = 4.0
        got = np.sort(spectrum.eigenvalues)  # the kept pairs against the oracle's largest
        assert np.max(np.abs(got - want[t.size - got.size:])) <= slack * rounding_level(
            t.size, want[-1]
        )
        _assert_spectrum_of(spectrum, A, slack)
        _assert_even_or_odd(_vectors(spectrum))

    @pytest.mark.parametrize("base_name", sorted(_BASES))
    @pytest.mark.parametrize("plan_name", sorted(_PLAN_TIMES))
    def test_plan_grams_take_the_fold(self, monkeypatch, plan_name, base_name):
        t = _PLAN_TIMES[plan_name]
        n = t.size
        base = _BASES[base_name](t)
        monkeypatch.setattr(smoother, "gram", _no_gram)
        spectrum, sizes = _decompose_counting_eigh(monkeypatch, base, t)
        assert sizes == [n - n // 2, n // 2]
        _assert_even_or_odd(_vectors(spectrum))
        _assert_spectrum_of(spectrum, _lag_toeplitz(base, t))

    @pytest.mark.parametrize("t", [_PLAN_TIMES["plan63"], _IRREGULAR_10], ids=["fold", "full"])
    def test_blocks_are_fortran_ordered(self, t):
        # project's products on F-ordered blocks give the study's records.csv;
        # the same vectors in C order move its true_mse by up to rel 1.5e-13
        spectra = decompose([base(t) for base in _BASES.values()], t)
        assert all(block.flags.f_contiguous for s in spectra for block in s.blocks)

    @pytest.mark.parametrize("base_name", sorted(_BASES))
    def test_a_nudged_grid_takes_the_full_eigh(self, monkeypatch, base_name):
        t = _PLAN_TIMES["plan63"].copy()
        t[20] *= 1.0 + 1e-6
        base = _BASES[base_name](t)
        spectrum, sizes = _decompose_counting_eigh(monkeypatch, base, t)
        assert sizes == [63]
        _assert_spectrum_of(spectrum, gram(base, t))



def _edf_tolerance(lam: np.ndarray, noise: float) -> float:
    """rel 1e-9 of the spectral edf plus the rounding the edf itself carries.

    Each eigenvalue is known only to about eps * lambda_max, which moves
    lambda / (lambda + noise) by noise / (lambda + noise)^2 times as much:
    at sigma_n^2 near the rounding level that is of order one per
    eigenvalue, and the eigenvalues-only and trace-identity references
    disagree by up to rel 6e-8 at sigma_n / sigma_f = 1e-4. The trace
    identity n - sigma_n^2 tr(A^-1) also loses about n * eps to
    cancellation, which dominates when sigma_n >> sigma_f.
    """
    edf = float(np.sum(lam / (lam + noise)))
    # past sigma_n^2 = 1e154 the squares overflow, and the term is 0 to the float range
    with np.errstate(over="ignore"):
        perturbation = _EPS * lam[-1] * float(np.sum(noise / (lam + noise) ** 2))
    return 1e-9 * edf + perturbation + 4 * lam.size * _EPS


@st.composite
def _noise_ratio_fits(draw):
    """An SE or SDOF kernel on 2-16 times, with sigma_n / sqrt(k(0)) from 1e-4 to 1e3."""
    n = draw(st.integers(2, 16))
    gaps = draw(st.lists(st.floats(0.002, 0.05), min_size=n - 1, max_size=n - 1))
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    se = SEKernel(draw(st.floats(0.3, 3.0)), 10 ** draw(st.floats(-2.5, 1.0)))
    spec = draw(st.sampled_from([se, SDOFKernel(draw(st.floats(100.0, 5000.0)), _PAPER)]))
    amplitude = math.sqrt(kernel_eval(spec, 0.0, 0.0))
    return spec, t, amplitude * 10 ** draw(st.floats(-4.0, 3.0))


# l = 100 s over 0.3 s: K is numerically rank one, and sigma_n^2 sits just
# above the rounding level n * eps * lambda_max
_RANK_ONE_T = np.linspace(0.0, 0.3, 20)
_RANK_ONE_TOP = scipy.linalg.eigh(gram(SEKernel(1.0, 100.0), _RANK_ONE_T), eigvals_only=True)[-1]
_RANK_ONE = (SEKernel(1.0, 100.0), _RANK_ONE_T, math.sqrt(1.5 * rounding_level(20, _RANK_ONE_TOP)))
# sigma_n = 1e8 sigma_f: n - sigma_n^2 tr(A^-1) rounds to -1.8e-15 before the clamp
_NOISE_DOMINATED = (SEKernel(1.0, 0.05), np.linspace(0.0, 0.3, 12), 1e8)
# sigma_n = 1e-4 sigma_f on four irregular times: eigh's eigenvalues put the
# spectral edf 1.0e-7 off a 60-digit edf, above _edf_tolerance's 9.1e-8,
# while this path and the trace oracle are within 3.1e-9 of it
_IRREGULAR_LOW_NOISE = (
    SEKernel(0.38635803058377816, 1.2180726915639863),
    np.array([0.0, 0.008576638058349944, 0.05446631234587926, 0.0843169391155142]),
    3.863580305837782e-05,
)


class TestEdfFromCholeskyFactor:
    @settings(max_examples=200, deadline=None)
    @given(_noise_ratio_fits())
    @example(_RANK_ONE)
    @example(_NOISE_DOMINATED)
    @example(_IRREGULAR_LOW_NOISE)
    def test_matches_spectral_and_trace_oracles(self, problem):
        # every time grid here, the two linspace examples too, is solved by
        # Cholesky, the path this class covers
        spec, t, sigma_n = problem
        n, noise = t.size, sigma_n**2
        with mock.patch.object(smoother, "_uniform", lambda t: False):
            edf = fit(spec, _make_data(t, np.sin(30 * t), sigma_n), sigma_n).edf
        assert 0.0 <= edf <= n
        K = gram(spec, t)
        lam = np.maximum(scipy.linalg.eigh(K, eigvals_only=True), 0.0)
        tolerance = _edf_tolerance(lam, noise)
        # the spectral reference gets eigh's n eps lambda_max error on top,
        # as in TestLevinsonFit: of 40,000 random draws over these ranges,
        # half at sigma_n / sqrt(k(0)) = 1e-4, 2 put it beyond _edf_tolerance
        # (as _IRREGULAR_LOW_NOISE does) and none beyond this sum
        eigh_error = n * _EPS * lam[-1] * float(np.sum(noise / (lam + noise) ** 2))
        assert abs(edf - float(np.sum(lam / (lam + noise)))) <= tolerance + eigh_error
        assert abs(edf - edf_trace(K.tolist(), sigma_n)) <= tolerance


@st.composite
def _uniform_fits(draw):
    """An SE or SDOF kernel on 1-16 times t0 + gap * arange(n), t0 in [0, 10],
    with sigma_n / sqrt(k(0)) from 1e-4 to 1e3."""
    n = draw(st.integers(1, 16))
    t = draw(st.floats(0.0, 10.0)) + draw(st.floats(0.002, 0.05)) * np.arange(n)
    se = SEKernel(draw(st.floats(0.3, 3.0)), 10 ** draw(st.floats(-2.5, 1.0)))
    spec = draw(st.sampled_from([se, SDOFKernel(draw(st.floats(100.0, 5000.0)), _PAPER)]))
    amplitude = math.sqrt(kernel_eval(spec, 0.0, 0.0))
    return spec, t, amplitude * 10 ** draw(st.floats(-4.0, 3.0))


# SDOF 10 s after the impulse, with sigma_n^2 at 1.5 times fit's rounding
# level rounding_level(n, n * k(0))
_SDOF = SDOFKernel(1000.0, _PAPER)
_SDOF_LEVEL = rounding_level(16, 16 * kernel_eval(_SDOF, 0.0, 0.0))
_SDOF_AT_LEVEL = (_SDOF, 10.0 + 0.02 * np.arange(16), math.sqrt(1.5 * _SDOF_LEVEL))
# sigma_n = 1e8 sigma_f: the Gohberg-Semencul n - sigma_n^2 tr(A^-1) rounds
# to -1.8e-15 before the clamp (on _NOISE_DOMINATED's 12 times it is exactly 0)
_NOISE_DOMINATED_10 = (SEKernel(1.0, 0.05), np.linspace(0.0, 0.3, 10), 1e8)
# sigma_n = 1e100 sqrt(k(0)): x ~ 1 / sigma_n^2, whose squares underflow, so a
# Gohberg-Semencul sum over x_k^2 gives edf = n where the edf is below 1e-180
_HEAVY_NOISE_SE = (SEKernel(1.0, 0.01), np.linspace(0.0, 0.3, 16), 1e100)
_HEAVY_NOISE_SDOF = (
    _SDOF, 10.0 + 0.02 * np.arange(16), 1e100 * math.sqrt(kernel_eval(_SDOF, 0.0, 0.0))
)


class TestLevinsonFit:
    @settings(max_examples=200, deadline=None)
    @given(_uniform_fits())
    @example(_RANK_ONE)
    @example(_SDOF_AT_LEVEL)
    @example(_NOISE_DOMINATED_10)
    @example(_HEAVY_NOISE_SE)
    @example(_HEAVY_NOISE_SDOF)
    def test_matches_dense_oracles(self, problem):
        # The references solve the matrix the uniform path solves, A = T +
        # sigma_n^2 I with T = toeplitz(k(t - t[0])). The weights get rel 1e-8
        # plus the first-order forward error kappa * n * eps of a
        # kappa-conditioned solve; near the noise limit that bound is vacuous,
        # and the backward error ||y - A w|| / (||A||_F ||w||) <= 2 n eps
        # binds instead (the worst over 24,000 draws was 0.85 n eps, the
        # rounding of the residual itself included). At sigma_n / sqrt(k(0))
        # = 1e-4 even Cholesky misses plain rel 1e-8 in the weights on about
        # 1 draw in 300.
        spec, t, sigma_n = problem
        n, noise = t.size, sigma_n**2
        y = np.sin(30 * t)
        assert smoother._uniform(t)
        model = fit(spec, _make_data(t, y, sigma_n), sigma_n)
        assert 0.0 <= model.edf <= n
        T = scipy.linalg.toeplitz(kernel_eval(spec, t - t[0], 0.0))
        A = T + noise * np.eye(n)
        w = model.weights
        # BLAS nrm2 scales its sum: at sigma_n = 1e100 ||A||^2 overflows and ||w||^2 underflows
        norm_a, norm_w = scipy.linalg.norm(A.ravel()), scipy.linalg.norm(w)
        assert np.linalg.norm(y - A @ w) <= 2 * n * _EPS * norm_a * norm_w
        lam = np.maximum(scipy.linalg.eigh(T, eigvals_only=True), 0.0)
        kappa = (lam[-1] + noise) / (lam[0] + noise)
        ref_w = np.array(solve_dense(A.tolist(), y.tolist()))
        scale = float(np.max(np.abs(ref_w))) or 1.0
        assert np.max(np.abs(w - ref_w)) / scale <= 1e-8 + kappa * n * _EPS
        tolerance = _edf_tolerance(lam, noise)
        assert abs(model.edf - edf_trace(T.tolist(), sigma_n)) <= tolerance
        # eigh returns T's eigenvalues to about n eps lambda_max, not the eps
        # lambda_max _edf_tolerance allows: on 2 of 24,000 draws (n = 14, 15)
        # the spectral edf missed a 60-digit edf of T by 1.9 and 1.5 times
        # _edf_tolerance, and this path by 0.02 times, so the spectral
        # reference gets n times the eigenvalue term on top
        with np.errstate(over="ignore"):
            eigh_error = n * _EPS * lam[-1] * float(np.sum(noise / (lam + noise) ** 2))
        assert abs(model.edf - float(np.sum(lam / (lam + noise)))) <= tolerance + eigh_error


# a uniform n = 1001 fit, the largest of the fit-large-n workload
_LARGE_PLAN = SamplingPlan(t_start=0.0, t_end=0.3, base_points=1001, decimation=1, snr=10.0, seed=5)
_LARGE_SPEC = SEKernel(0.002, 0.01)


class TestLargeUniformFit:
    @pytest.fixture(scope="class")
    def large(self):
        return generate_training_set(_PAPER, _LARGE_PLAN)

    def test_fitted_matches_prediction(self, large):
        model = fit(_LARGE_SPEC, large, large.sigma_n)
        # predict evaluates k(t_i - t_j) from the rounded times, the Levinson
        # solve k(t_|i-j| - t_0), and fitted = y - sigma_n^2 w; at this fit
        # they differ by 1.2e-11 max|fitted|
        scale = float(np.max(np.abs(model.fitted)))
        assert np.max(np.abs(model.fitted - predict(model, large.t))) <= 1e-10 * scale

    def test_fit_takes_linear_memory(self, large):
        fit(_LARGE_SPEC, large, large.sigma_n)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            fit(_LARGE_SPEC, large, large.sigma_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense 1001 x 1001 matrix would take 8.0 MB
        assert peak < 2e6


def _counting_cholesky(monkeypatch):
    calls, cholesky = [], scipy.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", counted)
    return calls


@st.composite
def _plans(draw):
    """A SamplingPlan with t_start 0 or from 1e-6 to 1e7 s, a span from 1e-8 to 1e4 s,
    2 to 4,000 base points and any decimation that keeps two samples."""
    t_start = draw(st.one_of(st.just(0.0), st.floats(-6.0, 7.0).map(lambda e: 10**e)))
    t_end = t_start + 10 ** draw(st.floats(-8.0, 4.0))
    assume(t_end > t_start)
    base_points = draw(st.integers(2, 4000))
    decimation = draw(st.integers(1, base_points - 1))
    return SamplingPlan(
        t_start=t_start, t_end=t_end, base_points=base_points, decimation=decimation,
        snr=10.0, seed=0,
    )


class TestFitDispatch:
    @settings(max_examples=300, deadline=None)
    @given(_plans())
    def test_every_plan_takes_levinson(self, plan):
        # every valid plan's times pass the gate, so every CLI input and
        # benchmark fit takes Levinson; only hand-built times take Cholesky
        t = plan.sample_times()
        assume(np.all(np.diff(t) > 0))
        assert smoother._uniform(t)

    @pytest.mark.parametrize("family", ["se", "sdof"])
    @pytest.mark.parametrize("decimation", [1, 4, 16])
    @pytest.mark.parametrize("t_start", [0.0, 10.0])
    def test_plan_times_take_levinson(self, monkeypatch, t_start, decimation, family):
        plan = SamplingPlan(
            t_start=t_start, t_end=t_start + 0.3, base_points=1001,
            decimation=decimation, snr=10.0, seed=3,
        )
        data = generate_training_set(_PAPER, plan)
        rms = float(np.sqrt(np.mean(data.y**2)))
        if family == "se":
            spec = SEKernel(rms, 0.01)
        else:
            spec = SDOFKernel(rms * math.sqrt(SDOFKernel(1.0, _PAPER).variance_scale), _PAPER)
        nudged_t = data.t.copy()
        nudged_t[data.n // 3] *= 1.0 + 1e-6
        nudged = TrainingSet(t=nudged_t, y=data.y, sigma_n=data.sigma_n, true_h=data.true_h, seed=0)
        calls = _counting_cholesky(monkeypatch)
        levinson = fit(spec, data, data.sigma_n)
        assert calls == []
        fit(spec, nudged, data.sigma_n)
        assert calls == [data.n]
        # the nudge moves these weights by 3e-7 to 1e-2, so the two paths are
        # compared on the plan's own times
        monkeypatch.setattr(smoother, "_uniform", lambda t: False)
        cholesky = fit(spec, data, data.sigma_n)
        scale = float(np.max(np.abs(cholesky.weights)))
        assert np.max(np.abs(levinson.weights - cholesky.weights)) <= 1e-8 * scale

    def test_drifting_gaps_take_cholesky(self, monkeypatch):
        # every gap of this cumsum grid is within 0.3 eps max|t| of the mean
        # step, but its rounding adds up one way: t_i strays 7 eps max|t|
        # from t[0] + i * step, so t_i - t_j is not t_{i-j} - t_0
        t = np.cumsum(np.full(100, 0.03))
        step = (t[-1] - t[0]) / (t.size - 1)
        assert np.max(np.abs(np.diff(t) - step)) <= 4.0 * _EPS * np.max(np.abs(t))
        calls = _counting_cholesky(monkeypatch)
        fit(SEKernel(1.0, 0.05), _make_data(t, np.sin(t)), 0.1)
        assert calls == [t.size]
