import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import srmks.smoother as smoother_module
import srmks.srm as srm_module
from oracles import edf_trace, solve_dense
from strategies import sample_times
from srmks.errors import InvalidInputError
from srmks.experiment import default_config
from srmks.ioutil import fmt_float, lines_text
from srmks.kernels import SDOFKernel, SEKernel, gram, kernel_to_json_dict
from srmks.oscillator import OscillatorParams, SamplingPlan, TrainingSet, generate_training_set
from srmks.risk import (
    BoundConfig,
    Bounds,
    DeltaRule,
    vc_bound_general,
    vc_bound_reduced,
    vc_bounds,
)
from srmks.smoother import decompose, fit, rounding_level
from srmks.srm import (
    FAMILIES,
    GridSettings,
    SelectionResult,
    StructureGrid,
    build_sdof_grid,
    build_se_grid,
    compare_structures,
    selection_to_json,
    srm_select,
    srm_select_batch,
    trace_to_csv,
)


def _dataset(paper_params, decimation=16, seed=0, snr=10.0):
    plan = SamplingPlan(
        t_start=0.0, t_end=0.3, base_points=1001,
        decimation=decimation, snr=snr, seed=seed,
    )
    return generate_training_set(paper_params, plan)


def _bounds(h, bound, n=100):
    """Bounds of candidates with training MSE 0.1, clipped where bound is +inf."""
    h, bound = np.asarray(h, dtype=float), np.asarray(bound, dtype=float)
    return Bounds(
        np.full(h.shape, 0.1), h, h / n, bound, np.isinf(bound), np.zeros(h.shape, bool), n, 0.4
    )


def _result(bound, h, family="se"):
    spec = SEKernel(sigma_f=1.0, length_scale=0.05)
    scores = _bounds([h], [bound])
    return SelectionResult(
        family=family, best_spec=spec, best_report=scores.report(0),
        degenerate=bool(scores.clipped[0]),
        grid=StructureGrid(family="se", bases=(spec,), sigma_fs=(1.0,)), scores=scores,
        base=spec, weights=np.zeros(1),
    )


class TestGridConstruction:
    def test_se_length_scales_descend_by_decade(self):
        grid = build_se_grid((1.0, 1.0 + 1e-12), (1e-3, 1e-1), 1, 3)
        lengths = [c.length_scale for c in grid.candidates]
        assert np.allclose(lengths, [1e-1, 1e-2, 1e-3], rtol=1e-12)
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_se_grid_size_is_cartesian_product(self):
        grid = build_se_grid((0.1, 1.0), (1e-3, 1e-1), 4, 7)
        assert grid.size == 28

    def test_se_sigma_ascends_within_each_length(self):
        grid = build_se_grid((0.1, 1.0), (1e-3, 1e-1), 3, 2)
        sigmas = [c.sigma_f for c in grid.candidates[:3]]
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
        assert len({c.length_scale for c in grid.candidates[:3]}) == 1

    def test_sdof_single_candidate(self, paper_params):
        grid = build_sdof_grid(paper_params, (1.0, 2.0), 1)
        assert grid.size == 1
        assert grid.candidates[0].sigma_f == 1.0

    def test_sdof_coefficients_fixed_and_sigma_increasing(self, paper_params):
        grid = build_sdof_grid(paper_params, (0.5, 50.0), 8)
        assert all(c.params == paper_params for c in grid.candidates)
        sigmas = [c.sigma_f for c in grid.candidates]
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    def test_invalid_ranges_rejected(self, paper_params):
        with pytest.raises(InvalidInputError):
            build_se_grid((1.0, 0.5), (1e-3, 1e-1), 2, 2)
        with pytest.raises(InvalidInputError):
            build_sdof_grid(paper_params, (0.0, 1.0), 3)
        with pytest.raises(InvalidInputError):
            build_sdof_grid(paper_params, (1.0, 2.0), 0)

    def test_candidate_indexes_the_candidates(self, paper_params):
        for grid in (
            build_se_grid((0.1, 1.0), (1e-3, 1e-1), 3, 4),
            build_sdof_grid(paper_params, (0.5, 50.0), 5),
        ):
            assert tuple(grid.candidate(i) for i in range(grid.size)) == grid.candidates

    def test_structure_rejects_family_mismatch(self, paper_params):
        with pytest.raises(InvalidInputError):
            StructureGrid(
                family="se",
                bases=(SDOFKernel(sigma_f=1.0, params=paper_params),),
                sigma_fs=(1.0,),
            )

    @pytest.mark.parametrize(
        "bases, sigma_fs", [((), (1.0,)), ((SEKernel(1.0, 0.02),), ())], ids=["no-base", "no-scale"]
    )
    def test_structure_needs_a_base_and_a_scale(self, bases, sigma_fs):
        with pytest.raises(InvalidInputError, match="at least one base kernel and signal scale"):
            StructureGrid(family="se", bases=bases, sigma_fs=sigma_fs)

    @pytest.mark.parametrize("family, sigma_fs", [
        ("se", (1e-3, 0.05, -0.05)),
        ("se", (1e-3, math.nan, 0.05)),
        ("se", (1e-3, 0.0, 0.05)),
        ("se", (1e-3, 0.05, 1e200)),  # sigma_f^2 overflows
        ("sdof", (1.0, 1e154)),  # sigma_f^2 is finite, k(0) = 2.5 sigma_f^2 is not
    ], ids=["negative", "nan", "zero", "se-square-overflows", "sdof-variance-overflows"])
    def test_structure_rejects_a_scale_the_kernels_reject(self, family, sigma_fs):
        if family == "se":
            base = SEKernel(sigma_f=1.0, length_scale=0.02)
        else:
            base = SDOFKernel(sigma_f=1.0, params=OscillatorParams(m=1.0, c=0.2, k=1.0))
        with pytest.raises(InvalidInputError, match="sigma_f must be positive"):
            StructureGrid(family=family, bases=(base,), sigma_fs=sigma_fs)

    def test_default_grids_bracket_data_amplitude(self, paper_params):
        data = _dataset(paper_params)
        rms = float(np.sqrt(np.mean(data.y**2)))
        se = GridSettings().family_grid("se", data, paper_params)
        assert se.size == 300
        se_sigmas = sorted({c.sigma_f for c in se.candidates})
        assert se_sigmas[0] == pytest.approx(0.1 * rms, rel=1e-12)
        assert se_sigmas[-1] == pytest.approx(10.0 * rms, rel=1e-12)
        lengths = sorted({c.length_scale for c in se.candidates})
        assert lengths[0] == pytest.approx(float(np.min(np.diff(data.t))), rel=1e-12)
        assert lengths[-1] == pytest.approx(float(data.t[-1] - data.t[0]), rel=1e-12)

        # the oscillator kernel's sigma_f is rescaled so sqrt(k(0)) spans the
        # same output amplitudes as the SE grid
        sdof = GridSettings().family_grid("sdof", data, paper_params)
        assert sdof.size == 30
        amp = math.sqrt(
            4.0 * paper_params.m**2 * paper_params.zeta * paper_params.omega_n**3
        )
        sdof_sigmas = sorted(c.sigma_f for c in sdof.candidates)
        assert sdof_sigmas[0] == pytest.approx(0.1 * rms * amp, rel=1e-12)
        assert sdof_sigmas[-1] == pytest.approx(10.0 * rms * amp, rel=1e-12)

    @pytest.mark.parametrize("family", ["SE", "sdof ", "xyz", ""])
    def test_family_grid_rejects_a_family_outside_families(self, paper_params, family):
        with pytest.raises(InvalidInputError, match="unknown family"):
            GridSettings().family_grid(family, _dataset(paper_params), paper_params)

    def test_nesting_faithfulness_edf_nondecreasing(self, paper_params):
        # along the descending-l ordering at fixed sigma_f, capacity never drops
        data = _dataset(paper_params)
        grid = build_se_grid((1.0, 1.0 + 1e-12), (5e-3, 0.3), 1, 8)
        edfs = [fit(c, data, data.sigma_n).edf for c in grid.candidates]
        assert all(a <= b + 1e-10 for a, b in zip(edfs, edfs[1:]))


class TestSelection:
    def test_single_candidate_returned(self, paper_params):
        data = _dataset(paper_params)
        grid = build_sdof_grid(paper_params, (100.0, 200.0), 1)
        result = srm_select(grid, data)
        assert result.best_spec == grid.candidates[0]
        assert len(result.trace) == 1

    def test_trace_is_exhaustive_and_ordered(self, paper_params):
        data = _dataset(paper_params)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 3)
        result = srm_select(grid, data)
        assert len(result.trace) == grid.size
        assert tuple(spec for spec, _ in result.trace) == grid.candidates

    def test_winner_dominance(self, paper_params):
        data = _dataset(paper_params)
        grid = GridSettings(se_sigma_count=4, se_length_count=10).family_grid(
            "se", data, paper_params
        )
        result = srm_select(grid, data)
        finite = [r.bound for _, r in result.trace if not r.clipped]
        assert result.best_report.bound <= min(finite)

    def test_winner_bound_dominates_its_mse(self, paper_params):
        data = _dataset(paper_params, decimation=16)
        grid = GridSettings(se_sigma_count=4, se_length_count=10).family_grid(
            "se", data, paper_params
        )
        result = srm_select(grid, data)
        assert result.best_report.bound >= result.best_report.empirical_risk

    def test_bound_ties_break_to_smaller_capacity(self, paper_params, monkeypatch):
        # force identical bounds so only h differentiates candidates
        data = _dataset(paper_params)

        def fake_bounds(mse, h, n, cfg=None):
            return _bounds(h, np.ones_like(h), n)

        monkeypatch.setattr(srm_module, "vc_bounds", fake_bounds)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 4)
        result = srm_select(grid, data)
        min_h = min(r.h for _, r in result.trace)
        assert result.best_report.h == min_h

    def test_full_ties_break_to_grid_order(self, paper_params, monkeypatch):
        data = _dataset(paper_params)

        def fake_bounds(mse, h, n, cfg=None):
            return _bounds(np.full_like(h, 2.0), np.ones_like(h), n)

        monkeypatch.setattr(srm_module, "vc_bounds", fake_bounds)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 4)
        result = srm_select(grid, data)
        assert result.best_spec == grid.candidates[0]

    @settings(max_examples=100, deadline=None)
    @given(values=st.data())
    def test_winner_is_the_min_of_bound_h_and_index(self, paper_params, values):
        # scores drawn from a few values force ties in bound and h and grids
        # whose every bound is +inf
        data = _dataset(paper_params)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 3, 2)
        draw = values.draw
        bound = draw(st.lists(st.sampled_from([0.5, 1.0, math.inf]), min_size=6, max_size=6))
        h = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=6, max_size=6))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(srm_module, "vc_bounds", lambda mse, _, n, cfg=None: _bounds(h, bound, n))
            result = srm_select(grid, data)
        best = min(range(grid.size), key=lambda i: (bound[i], h[i], i))
        assert result.best_spec == grid.candidates[best]
        assert result.best_report == result.scores.report(best)
        assert result.degenerate == all(math.isinf(b) for b in bound)

    def test_degenerate_all_clipped(self):
        # tiny sample, near-diagonal gram: every candidate's capacity fills
        # the sample and every bound clips
        t = np.linspace(0.0, 0.3, 8)
        y = np.sin(40 * t)
        data = TrainingSet(t=t, y=y, sigma_n=1e-6, true_h=np.zeros(8), seed=0)
        grid = build_se_grid((0.5, 2.0), (1e-5, 1e-4), 3, 2)
        result = srm_select(grid, data)
        assert result.degenerate
        assert all(r.clipped for _, r in result.trace)
        assert math.isinf(result.best_report.bound)
        assert result.best_report.h == min(r.h for _, r in result.trace)

    def test_selection_determinism(self, paper_params):
        data = _dataset(paper_params, seed=9)
        grid = GridSettings(se_sigma_count=3, se_length_count=8).family_grid(
            "se", data, paper_params
        )
        a = selection_to_json(srm_select(grid, data))
        b = selection_to_json(srm_select(grid, data))
        assert a == b

    def test_reference_pipeline_sdof_wins_at_largest_n(self, paper_params):
        # full two-structure comparison on one n=251 realisation
        data = _dataset(paper_params, decimation=4, seed=0)
        se = srm_select(GridSettings().family_grid("se", data, paper_params), data)
        sdof = srm_select(GridSettings().family_grid("sdof", data, paper_params), data)
        winner = compare_structures([se, sdof])
        assert winner.family == "sdof"
        assert winner.best_report.bound < se.best_report.bound

    def test_zero_noise_with_zero_clamped_eigenvalue_raises(self):
        # l = 100 over a 0.3 s span leaves K numerically rank one; SRM needs
        # sigma_n > 0, so the selection rejects the set before any scoring
        t = np.linspace(0.0, 0.3, 8)
        data = TrainingSet(t=t, y=np.sin(30 * t), sigma_n=0.0, true_h=np.zeros(8), seed=0)
        grid = build_se_grid((0.5, 2.0), (50.0, 100.0), 2, 2)
        base = SEKernel(sigma_f=1.0, length_scale=grid.candidates[0].length_scale)
        assert scipy.linalg.eigh(gram(base, t), eigvals_only=True).min() < 0.0
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            srm_select(grid, data)

    def test_zero_noise_near_singular_gram_raises_in_selection_and_fit(self):
        # l = 1000 over a 0.3 s span: the decomposition with vectors returns
        # only positive eigenvalues, but six of the eight sit at rounding
        # level (below 1e-15); the selection and fit reject the noise-free
        # set by the same rule
        t = np.linspace(0.0, 0.3, 8)
        data = TrainingSet(t=t, y=np.sin(30 * t), sigma_n=0.0, true_h=np.zeros(8), seed=0)
        spec = SEKernel(sigma_f=1.0, length_scale=1000.0)
        grid = StructureGrid(family="se", bases=(spec,), sigma_fs=(1.0,))
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            srm_select(grid, data)
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            fit(spec, data, 0.0)

    def test_zero_noise_full_rank_set_is_rejected(self, paper_params):
        # K is full rank, but every candidate would interpolate the set, with
        # h = n and an infinite bound: fit and the selection reject it alike
        noisy = _dataset(paper_params, decimation=16, seed=0)
        data = TrainingSet(t=noisy.t, y=noisy.y, sigma_n=0.0, true_h=noisy.true_h, seed=0)
        grid = GridSettings().family_grid("sdof", data, paper_params)
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            fit(grid.candidate(0), data, 0.0)
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            srm_select(grid, data)
        with pytest.raises(InvalidInputError, match="sigma_n > 0"):
            srm_select_batch([grid, grid], [noisy, data])

    def test_negligible_noise_is_rejected(self, paper_params):
        # snr = 1e308 gives a subnormal sigma_n^2; scored against spectra of
        # order s_max^2 lambda_max it is no noise at all
        data = _dataset(paper_params, snr=1e308)
        assert 0.0 < data.sigma_n**2 < 1e-300
        for family in ("se", "sdof"):
            grid = GridSettings().family_grid(family, data, paper_params)
            with pytest.raises(InvalidInputError, match="rounding level"):
                srm_select(grid, data)

    def test_noise_threshold_is_the_rounding_level_of_the_scaled_spectra(self, paper_params):
        noisy = _dataset(paper_params)
        grid = GridSettings().family_grid("se", noisy, paper_params)
        top = max(decompose([base], noisy.t)[0].eigenvalues.max() for base in grid.bases)
        level = rounding_level(noisy.n, grid.sigma_fs[-1] ** 2 * top)

        def at(noise):
            return TrainingSet(noisy.t, noisy.y, math.sqrt(noise), noisy.true_h, 0)

        srm_select(grid, at(2.0 * level))
        with pytest.raises(InvalidInputError, match="rounding level"):
            srm_select(grid, at(0.5 * level))

    @pytest.mark.parametrize("ratio,accepted", [(10.0, False), (1000.0, True)])
    def test_noise_verdict_reads_the_largest_scale_in_any_order(self, ratio, accepted):
        # sigma_n^2 is `ratio` times the level at s = 1, hence 1/10 or 10 times
        # the level at s = 10; the order of sigma_fs must not change the verdict
        t = np.linspace(0.0, 0.3, 40)
        base = SEKernel(sigma_f=1.0, length_scale=0.05)
        level = rounding_level(40, decompose([base], t)[0].eigenvalues.max())
        data = TrainingSet(t, np.sin(30 * t), math.sqrt(ratio * level), np.zeros(40), 0)
        for sigma_fs in [(1.0, 10.0), (10.0, 1.0)]:
            grid = StructureGrid(family="se", bases=(base,), sigma_fs=sigma_fs)
            if accepted:
                assert srm_select(grid, data).best_report.h < 40
            else:
                with pytest.raises(InvalidInputError, match="rounding level"):
                    srm_select(grid, data)


class TestSubnormalSquares:
    def test_select_is_exact_on_data_scaled_by_powers_of_two(self, paper_params):
        # from about k = 507 the squares of y * 2^-k are subnormal; the search
        # divides y by a power of two first, so the winner stays put until
        # sigma_n^2 drops below the rounding level at k = 525
        data = _dataset(paper_params, seed=3)

        def winner(k):
            s = 2.0**-k
            scaled = TrainingSet(data.t, data.y * s, data.sigma_n * s, data.true_h * s, data.seed)
            results = [
                srm_select(GridSettings().family_grid(family, scaled, paper_params), scaled)
                for family in FAMILIES
            ]
            best = compare_structures(results)
            return best.family, best.best_spec.sigma_f / s, best.best_report.h

        family, sigma_f, h = winner(0)
        for k in range(490, 525):
            scaled_family, scaled_sigma_f, scaled_h = winner(k)
            assert scaled_family == family, k
            assert scaled_sigma_f == pytest.approx(sigma_f, rel=1e-12), k
            assert scaled_h == pytest.approx(h, rel=1e-12), k
        with pytest.raises(InvalidInputError, match="rounding level"):
            winner(525)


_PAPER = OscillatorParams(m=1.0, c=20.0, k=1e6)
_GENERAL = BoundConfig(a1=0.5, a2=2.0, c=0.8, delta=0.05, delta_rule=DeltaRule.FIXED)


@st.composite
def _selection_problems(draw):
    """Small random training set, a grid of either family and a bound form."""
    t = draw(sample_times(3))
    n = t.size
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    data = TrainingSet(
        t=t, y=y, sigma_n=draw(st.floats(0.05, 0.5)), true_h=np.zeros(n), seed=0
    )
    if draw(st.sampled_from(["se", "sdof"])) == "se":
        sf_lo = draw(st.floats(0.3, 1.0))
        l_lo = draw(st.floats(0.005, 0.05))
        grid = build_se_grid(
            (sf_lo, sf_lo * draw(st.floats(2.0, 10.0))),
            (l_lo, l_lo * draw(st.floats(2.0, 20.0))),
            draw(st.integers(1, 4)),
            draw(st.integers(1, 4)),
        )
    else:
        sf_lo = draw(st.floats(100.0, 1000.0))
        grid = build_sdof_grid(
            _PAPER, (sf_lo, sf_lo * draw(st.floats(2.0, 5.0))), draw(st.integers(1, 6))
        )
    bound_config = draw(st.sampled_from([None, _GENERAL]))
    return grid, data, bound_config


def _bound(mse, h, n, bound_config):
    if bound_config is None:
        return vc_bound_reduced(mse, h, n)
    return vc_bound_general(mse, h, n, bound_config)


def _brute_force_report(spec, data, bound_config):
    """Score one candidate by dense Gaussian elimination and the trace identity."""
    n = data.n
    K = gram(spec, data.t)
    A = (K + data.sigma_n**2 * np.eye(n)).tolist()
    weights = np.array(solve_dense(A, data.y.tolist()))
    mse = float(np.mean((data.y - K @ weights) ** 2))
    return _bound(mse, edf_trace(K.tolist(), data.sigma_n), n, bound_config)


# K is nearly the identity here; eigenvectors that lose orthogonality on
# such a clustered spectrum miss the dense solve's training MSE by rel 8e-9
_CLUSTERED_SPECTRUM = (
    StructureGrid("se", (SEKernel(1.0, 0.005),), (1.0,)),
    TrainingSet(
        t=np.array([0.0, 0.0390625, 0.06640625, 0.09765625, 0.13671875]),
        y=np.array([1.0, 1.0, 0.0, 0.0, 0.0]), sigma_n=0.5, true_h=np.zeros(5), seed=0,
    ),
    None,
)
# the same near-identity K on a uniform grid, where decompose takes the fold
_CLUSTERED_UNIFORM = (
    _CLUSTERED_SPECTRUM[0],
    TrainingSet(
        t=0.0341796875 * np.arange(5), y=_CLUSTERED_SPECTRUM[1].y, sigma_n=0.5,
        true_h=np.zeros(5), seed=0,
    ),
    None,
)


# the last two candidates' bounds tie to rel 1e-15 (h = 3.2 each), so rounding
# orders them one way in the brute force and the other in the spectral scores
_NEAR_TIE = (
    build_se_grid((1.0, 2.0), (0.005, 0.01), 1, 3),
    TrainingSet(
        t=0.04296875 * np.arange(4), y=np.array([0.0, 0.0, 0.0, 1.0]), sigma_n=0.5,
        true_h=np.zeros(4), seed=0,
    ),
    _GENERAL,
)


class TestSpectralSelectionAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(_selection_problems())
    @example(_CLUSTERED_SPECTRUM)
    @example(_CLUSTERED_UNIFORM)
    @example(_NEAR_TIE)
    def test_matches_per_candidate_dense_solve(self, problem):
        grid, data, bound_config = problem
        result = srm_select(grid, data, bound_config)
        brute = [_brute_force_report(spec, data, bound_config) for spec in grid.candidates]
        best = min(range(grid.size), key=lambda i: (brute[i].bound, brute[i].h, i))

        assert [spec for spec, _ in result.trace] == list(grid.candidates)
        bounds = [r.bound for r in brute]
        tie = 1e-12 * abs(bounds[best])
        if any(bounds[best] < bound <= bounds[best] + tie for bound in bounds):
            # a near-tie: either candidate may win, at a bound within rel 1e-12 of the least
            assert bounds[grid.candidates.index(result.best_spec)] <= bounds[best] + tie
        else:
            assert result.best_spec == grid.candidates[best]
        assert result.degenerate == all(r.clipped for r in brute)
        for (_, got), want in zip(result.trace, brute):
            assert got.h == pytest.approx(want.h, rel=1e-9, abs=0.0)
            assert got.empirical_risk == pytest.approx(want.empirical_risk, rel=1e-9, abs=0.0)
            # clip flags and bounds are compared only where a relative change
            # of 1e-6 in h cannot move the bound across the clip threshold
            below = _bound(want.empirical_risk, want.h * (1.0 - 1e-6), data.n, bound_config)
            above = _bound(want.empirical_risk, want.h * (1.0 + 1e-6), data.n, bound_config)
            if below.clipped == above.clipped:
                assert got.clipped == want.clipped
                assert got.bound == pytest.approx(want.bound, rel=1e-9, abs=0.0)


@st.composite
def _batch_problems(draw):
    """1-4 training sets on shared sample times, each with its own grid.

    The grids share one family, one set of base kernels and one number of
    signal scales, as the grids of one sampling plan do; the scale values
    differ from set to set.
    """
    t = draw(sample_times(3))
    n = t.size
    family = draw(st.sampled_from(["se", "sdof"]))
    l_lo = draw(st.floats(0.005, 0.05))
    l_range = (l_lo, l_lo * draw(st.floats(2.0, 20.0)))
    n_l = draw(st.integers(1, 4))
    n_sigma = draw(st.integers(1, 4) if family == "se" else st.integers(1, 6))
    grids, datasets = [], []
    for _ in range(draw(st.integers(1, 4))):
        y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        datasets.append(
            TrainingSet(t=t, y=y, sigma_n=draw(st.floats(0.05, 0.5)), true_h=np.zeros(n), seed=0)
        )
        if family == "se":
            sf_lo = draw(st.floats(0.3, 1.0))
            grids.append(build_se_grid(
                (sf_lo, sf_lo * draw(st.floats(2.0, 10.0))), l_range, n_sigma, n_l,
            ))
        else:
            sf_lo = draw(st.floats(100.0, 1000.0))
            grids.append(build_sdof_grid(
                _PAPER, (sf_lo, sf_lo * draw(st.floats(2.0, 5.0))), n_sigma
            ))
    return grids, datasets, draw(st.sampled_from([None, _GENERAL]))


@st.composite
def _amplitude_rows(draw):
    """A family, 1-5 sets on shared times with RMS(y) from about 1e-100 to 1e100, amplitude
    factors lo < hi, and a sigma_f count."""
    n = draw(st.integers(3, 10))
    t = np.linspace(0.0, 0.3, n)
    values = st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-3)
    datasets = []
    for scale in draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5)):
        y = 10**scale * np.array(draw(st.lists(values, min_size=n, max_size=n)))
        datasets.append(TrainingSet(t=t, y=y, sigma_n=1.0, true_h=np.zeros(n), seed=0))
    lo = 10 ** draw(st.floats(-3.0, 1.0))
    hi = lo * draw(st.floats(1.0, 1e3))
    assume(lo < hi)
    return draw(st.sampled_from(FAMILIES)), datasets, (lo, hi), draw(st.integers(1, 40))


# log10 of lo and of the next float up coincide: stacked with another row, a
# plain np.geomspace takes linspace's zero-step branch for every row
_LOG_EQUAL = (1.5031848598255995e82, float(np.nextafter(1.5031848598255995e82, np.inf)))
_BRACKETS = st.tuples(st.floats(1e-300, 1e300), st.floats(1.0, 1e6)).map(
    lambda pair: (pair[0], pair[0] * pair[1])
)


# amplitude factors one ulp apart whose products with RMS(y) = 0.782... round
# to one float: the bracket is empty, which _require_bracket rejects
_ROUNDED_AWAY = ("se", [TrainingSet(
    t=np.linspace(0.0, 0.3, 7), y=np.array([1.0, 1.125, 1.03125, 0.5, 0.5, 0.625, 0.25]),
    sigma_n=1.0, true_h=np.zeros(7), seed=0,
)], (0.04531583637600818, 0.04531583637600819), 1)


class TestSigmaRows:
    """family_grids' sigma_f rows, one np.geomspace for all sets, are each set's own."""

    @settings(max_examples=100, deadline=None)
    @given(_amplitude_rows())
    @example(_ROUNDED_AWAY)
    def test_family_grids_match_per_set_geomspace(self, problem):
        family, datasets, factors, count = problem
        grid_settings = GridSettings(
            se_sigma_count=count, se_length_count=2, sdof_sigma_count=count,
            amplitude_factors=factors,
        )
        scale = 1.0 if family == "se" else np.sqrt(SDOFKernel(1.0, _PAPER).variance_scale)
        # the bracket of each set alone, as the per-set loop formed it
        brackets = []
        for data in datasets:
            rms = float(np.sqrt(np.mean(data.y**2)))
            brackets.append(tuple(factor * rms * scale for factor in factors))
        try:
            grids = grid_settings.family_grids(family, datasets, _PAPER)
        except InvalidInputError as exc:
            if any(lo >= hi for lo, hi in brackets):
                assert "0 < lo < hi" in str(exc)
                return
            assert "same log10" in str(exc) and count > 1
            assert any(np.log10(lo) == np.log10(hi) for lo, hi in brackets)
            return
        for grid, (lo, hi) in zip(grids, brackets, strict=True):
            assert grid.sigma_fs == tuple(np.geomspace(lo, hi, count).tolist())
            assert grid.bases == grids[0].bases

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_BRACKETS, min_size=1, max_size=6), st.integers(1, 40))
    @example([_LOG_EQUAL, (0.1, 10.0)], 10)
    @example([_LOG_EQUAL, (0.1, 10.0)], 1)  # one value needs no step: the bracket only places it
    def test_stacked_rows_match_per_row_geomspace(self, brackets, count):
        assume(all(lo < hi < np.inf for lo, hi in brackets))
        try:
            rows = srm_module._log_spaced("sigma_f", brackets, count)
        except InvalidInputError as exc:
            assert "same log10" in str(exc) and count > 1
            assert any(np.log10(lo) == np.log10(hi) for lo, hi in brackets)
            return
        assert rows == [tuple(np.geomspace(lo, hi, count).tolist()) for lo, hi in brackets]


class TestBatchSelection:
    @settings(max_examples=100, deadline=None)
    @given(_batch_problems())
    def test_equals_separate_selections_bit_for_bit(self, problem):
        grids, datasets, bound_config = problem
        batch = srm_select_batch(grids, datasets, bound_config)
        separate = [srm_select(g, d, bound_config) for g, d in zip(grids, datasets)]
        # dataclass equality compares every float of the winner exactly, and
        # the trace every float of every candidate
        assert batch == separate
        assert [r.trace for r in batch] == [r.trace for r in separate]
        assert all(np.array_equal(b.weights, s.weights) for b, s in zip(batch, separate))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_projection_per_base(self, monkeypatch, family):
        # the stacked targets are projected once per base kernel; the refits reuse those rows
        cfg = default_config(repetitions=3)
        datasets = [cfg.training_set(cfg.plans[0], i) for i in range(3)]
        grids = cfg.grids.family_grids(family, datasets, cfg.params)
        calls, project = [], smoother_module.Spectrum.project

        def counted(spectrum, y):
            calls.append(y.shape)
            return project(spectrum, y)

        monkeypatch.setattr(smoother_module.Spectrum, "project", counted)
        results = srm_select_batch(grids, datasets, cfg.bound_config)
        assert calls == [(3, datasets[0].n)] * len(grids[0].bases)
        for result in results:
            assert result.base == replace(result.best_spec, sigma_f=1.0)
            assert result.base in result.grid.bases

    def test_one_uniform_verdict_per_batch(self, paper_params, monkeypatch):
        # the grid's bases share their sample times, so one verdict serves all
        data = _dataset(paper_params)
        grid = GridSettings().family_grid("se", data, paper_params)
        assert len(grid.bases) == 30
        calls, uniform = [], smoother_module._uniform

        def counted(t):
            calls.append(t.size)
            return uniform(t)

        monkeypatch.setattr(smoother_module, "_uniform", counted)
        srm_select(grid, data)
        assert calls == [data.n]

    def test_an_empty_batch_selects_nothing(self):
        assert srm_select_batch([], []) == []

    def test_rejects_sets_with_different_sample_times(self, paper_params):
        first = _dataset(paper_params, decimation=16, seed=0)
        shifted = TrainingSet(
            t=first.t + 1e-3, y=first.y, sigma_n=first.sigma_n, true_h=first.true_h, seed=0
        )
        grid = build_sdof_grid(paper_params, (100.0, 1000.0), 3)
        with pytest.raises(InvalidInputError):
            srm_select_batch([grid, grid], [first, shifted])
        other_n = _dataset(paper_params, decimation=8, seed=0)
        with pytest.raises(InvalidInputError):
            srm_select_batch([grid, grid], [first, other_n])
        with pytest.raises(InvalidInputError):
            srm_select_batch([grid], [first, first])

    def test_rejects_grids_with_different_bases(self, paper_params):
        data = _dataset(paper_params, decimation=16, seed=0)
        se = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 3)
        sdof = build_sdof_grid(paper_params, (100.0, 1000.0), 2)
        other_lengths = build_se_grid((1e-4, 1e-3), (0.01, 0.3), 2, 3)
        for grids in ([se, sdof], [sdof, se], [se, other_lengths]):
            with pytest.raises(InvalidInputError, match="base kernels"):
                srm_select_batch(grids, [data, data])
        # same bases, other scale count: the sets' scores no longer stack
        more_scales = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 3, 3)
        with pytest.raises(InvalidInputError, match="number of signal scales"):
            srm_select_batch([se, more_scales], [data, data])


_RHO_CONFIG = default_config(repetitions=3)


def _selections_scaled_by(c, plan, family):
    """A family's selections on the plan's first sets, with sigma_n and every sigma_f times c."""
    cfg = _RHO_CONFIG
    datasets = [cfg.training_set(plan, i) for i in range(cfg.repetitions)]
    grids = cfg.grids.family_grids(family, datasets, cfg.params)
    return srm_select_batch(
        [replace(grid, sigma_fs=tuple(c * s for s in grid.sigma_fs)) for grid in grids],
        [replace(data, sigma_n=c * data.sigma_n) for data in datasets],
        cfg.bound_config,
    )


class TestRhoInvariance:
    """The search reads sigma_f and sigma_n only through rho = sigma_f^2 / sigma_n^2."""

    @pytest.mark.parametrize("family", ["se", "sdof"])
    @pytest.mark.parametrize("plan", _RHO_CONFIG.plans, ids=lambda plan: f"n{plan.n_samples}")
    def test_scaling_both_keeps_the_selection(self, plan, family):
        reference = _selections_scaled_by(1.0, plan, family)
        for c in (2.0, 0.25, 3.0):
            for got, want in zip(_selections_scaled_by(c, plan, family), reference):
                assert got.best_spec == replace(want.best_spec, sigma_f=c * want.best_spec.sigma_f)
                if c == 3.0:  # rho rounds differently
                    np.testing.assert_allclose(got.scores.bound, want.scores.bound, rtol=1e-12)
                    continue
                # a power of two leaves every rho, and so every score, bit-identical
                for f in fields(Bounds):
                    bits = [np.asarray(getattr(r.scores, f.name)).tobytes() for r in (got, want)]
                    assert bits[0] == bits[1], f.name
                assert got.weights.tobytes() == want.weights.tobytes()


class TestCompareStructures:
    def test_single_result_returned(self):
        r = _result(2.0, 5.0)
        assert compare_structures([r]) is r

    def test_smaller_bound_wins(self):
        first, second = _result(2.0, 5.0), _result(1.5, 9.0)
        assert compare_structures([first, second]) is second

    def test_tie_goes_to_smaller_capacity(self):
        first, second = _result(2.0, 5.0), _result(2.0, 3.0)
        assert compare_structures([first, second]) is second

    def test_full_tie_goes_to_list_order(self):
        first, second = _result(2.0, 5.0), _result(2.0, 5.0)
        assert compare_structures([first, second]) is first

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            compare_structures([])


def _selection_json_oracle(result):
    """selection_to_json as json.dumps of one spec and report dict per trace entry."""
    doc = {
        "family": result.family,
        "degenerate": result.degenerate,
        "best_spec": kernel_to_json_dict(result.best_spec),
        "best_report": result.best_report.to_json_dict(),
        "trace": [
            {"spec": kernel_to_json_dict(spec), "report": report.to_json_dict()}
            for spec, report in result.trace
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_field(value) -> str:
    """Floats as fmt_float writes them, bools as true/false, the rest as str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt_float(value) if isinstance(value, float) else str(value)


def _trace_csv_oracle(result):
    """trace_to_csv written field by field from each trace entry's report and spec."""
    return lines_text(["kernel,n,h,p,delta,emp_risk,bound,clipped,sigma_f,length_scale", *(
        ",".join(map(_csv_field, (
            result.family, r.n, r.h, r.p, r.delta, r.empirical_risk, r.bound, r.clipped,
            spec.sigma_f, spec.length_scale if isinstance(spec, SEKernel) else "",
        )))
        for spec, r in result.trace
    )])


def _assert_writers_match_the_oracles(result):
    assert selection_to_json(result) == _selection_json_oracle(result)
    assert trace_to_csv(result) == _trace_csv_oracle(result)


_SINGLE_CANDIDATE = (
    StructureGrid("se", (SEKernel(1.0, 0.02),), (1.5,)),
    TrainingSet(
        t=np.linspace(0.0, 0.3, 6), y=np.array([0.3, -1.0, 0.2, 0.9, -0.4, 0.1]),
        sigma_n=0.2, true_h=np.zeros(6), seed=0,
    ),
    None,
)
# tiny sample, near-diagonal gram: every candidate clips, so the selection is degenerate
_ALL_CLIPPED = (
    build_se_grid((0.5, 2.0), (1e-5, 1e-4), 3, 2),
    TrainingSet(
        t=np.linspace(0.0, 0.3, 8), y=np.sin(40 * np.linspace(0.0, 0.3, 8)),
        sigma_n=1e-6, true_h=np.zeros(8), seed=0,
    ),
    None,
)


@st.composite
def _scored_grids(draw):
    """A selection over a grid of either family with drawn scores.

    h reaches 8 n, past where eta turns negative under either bound form,
    and n starts at 1, so clipped, eta-negative and degenerate candidates
    all occur.
    """
    if draw(st.booleans()):
        grid = build_se_grid(
            (0.5, 2.0), (0.01, 0.1), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        )
    else:
        grid = build_sdof_grid(_PAPER, (100.0, 1000.0), draw(st.integers(1, 6)))
    n = draw(st.integers(1, 40))
    h = draw(st.lists(st.floats(0.0, 8.0 * n), min_size=grid.size, max_size=grid.size))
    mse = draw(st.lists(st.floats(0.0, 10.0), min_size=grid.size, max_size=grid.size))
    scores = vc_bounds(mse, h, n, draw(st.sampled_from([None, _GENERAL])))
    best = int(np.lexsort((scores.h, scores.bound))[0])
    return SelectionResult(
        grid.family, grid.candidate(best), scores.report(best), bool(scores.clipped.all()),
        grid, scores, grid.bases[best // len(grid.sigma_fs)], np.zeros(1),
    )


class TestTraceWritersAgainstPerCandidateOracle:
    """selection_to_json and trace_to_csv write the oracles' bytes from the score arrays."""

    @settings(max_examples=60, deadline=None)
    @given(_selection_problems())
    def test_searched_selections(self, problem):
        _assert_writers_match_the_oracles(srm_select(*problem))

    @settings(max_examples=100, deadline=None)
    @given(_scored_grids())
    def test_drawn_scores(self, result):
        _assert_writers_match_the_oracles(result)

    def test_single_candidate(self):
        result = srm_select(*_SINGLE_CANDIDATE)
        assert len(result.trace) == 1
        _assert_writers_match_the_oracles(result)

    def test_degenerate_selection_writes_inf_bounds(self):
        result = srm_select(*_ALL_CLIPPED)
        assert result.degenerate
        # every trace entry and the winner's report write the bound as the string "inf"
        assert selection_to_json(result).count('"bound": "inf"') == result.grid.size + 1
        _assert_writers_match_the_oracles(result)

    @pytest.mark.parametrize("decimation", [32, 16])
    @pytest.mark.parametrize("family", ["se", "sdof"])
    def test_default_grids(self, paper_params, family, decimation):
        data = _dataset(paper_params, decimation=decimation, seed=3)
        result = srm_select(GridSettings().family_grid(family, data, paper_params), data)
        assert result.scores.clipped.any() and not result.degenerate
        _assert_writers_match_the_oracles(result)


class TestSerialization:
    def test_selection_json_shape(self, paper_params):
        data = _dataset(paper_params)
        grid = build_sdof_grid(paper_params, (100.0, 1000.0), 4)
        doc = json.loads(selection_to_json(srm_select(grid, data)))
        assert doc["family"] == "sdof"
        assert len(doc["trace"]) == 4
        assert {"spec", "report"} <= set(doc["trace"][0])
        assert doc["best_report"]["bound"] == min(
            entry["report"]["bound"] for entry in doc["trace"]
        )

    def test_trace_csv_shape(self, paper_params):
        data = _dataset(paper_params)
        se_result = srm_select(build_se_grid((1e-4, 1e-3), (0.05, 0.3), 2, 2), data)
        lines = trace_to_csv(se_result).strip().split("\n")
        assert lines[0] == "kernel,n,h,p,delta,emp_risk,bound,clipped,sigma_f,length_scale"
        assert len(lines) == 5
        sdof_result = srm_select(build_sdof_grid(paper_params, (100.0, 1000.0), 3), data)
        sdof_lines = trace_to_csv(sdof_result).strip().split("\n")
        # the length-scale column stays empty for the oscillator family
        assert all(line.endswith(",") for line in sdof_lines[1:])

    def test_trace_csv_format(self):
        header, clipped = trace_to_csv(_result(math.inf, 100.0)).splitlines()
        _, kept = trace_to_csv(_result(0.3, 2.0)).splitlines()
        names = header.split(",")
        assert len(clipped.split(",")) == len(kept.split(",")) == len(names)
        row = dict(zip(names, clipped.split(",")))
        assert row["kernel"] == "se"
        assert row["bound"] == "inf"
        assert row["clipped"] == "true"
        assert dict(zip(names, kept.split(",")))["clipped"] == "false"
