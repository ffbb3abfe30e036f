import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import srmks.srm as srm_module
from oracles import edf_trace, solve_dense
from srmks.errors import InvalidInputError, SingularSystemError
from srmks.experiment import GridSettings
from srmks.kernels import SDOFKernel, SEKernel, gram
from srmks.oscillator import OscillatorParams, SamplingPlan, TrainingSet, generate_training_set
from srmks.risk import BoundConfig, DeltaRule, RiskReport, vc_bound_general, vc_bound_reduced
from srmks.smoother import fit
from srmks.srm import (
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


def _report(bound, h, n=100):
    return RiskReport(
        empirical_risk=0.1, h=h, n=n, p=h / n, delta=0.4,
        bound=bound, clipped=math.isinf(bound),
    )


def _result(bound, h, family="se"):
    spec = SEKernel(sigma_f=1.0, length_scale=0.05)
    report = _report(bound, h)
    return SelectionResult(
        family=family, best_spec=spec, best_report=report,
        trace=((spec, report),),
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

    def test_structure_rejects_family_mismatch(self, paper_params):
        with pytest.raises(InvalidInputError):
            StructureGrid(
                family="se",
                bases=(SDOFKernel(sigma_f=1.0, params=paper_params),),
                sigma_fs=(1.0,),
            )

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
            return [
                RiskReport(m, hh, n, hh / n, 0.4, bound=1.0, clipped=False)
                for m, hh in zip(mse.tolist(), h.tolist())
            ]

        monkeypatch.setattr(srm_module, "vc_bounds", fake_bounds)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 4)
        result = srm_select(grid, data)
        min_h = min(r.h for _, r in result.trace)
        assert result.best_report.h == min_h

    def test_full_ties_break_to_grid_order(self, paper_params, monkeypatch):
        data = _dataset(paper_params)

        def fake_bounds(mse, h, n, cfg=None):
            return [
                RiskReport(m, 2.0, n, 2.0 / n, 0.4, bound=1.0, clipped=False)
                for m in mse.tolist()
            ]

        monkeypatch.setattr(srm_module, "vc_bounds", fake_bounds)
        grid = build_se_grid((1e-4, 1e-3), (0.02, 0.3), 2, 4)
        result = srm_select(grid, data)
        assert result.best_spec == grid.candidates[0]

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
        # l = 100 over a 0.3 s span leaves K numerically rank one; with
        # sigma_n = 0 a clamped zero eigenvalue makes (K + sigma_n^2 I) singular
        t = np.linspace(0.0, 0.3, 8)
        data = TrainingSet(t=t, y=np.sin(30 * t), sigma_n=0.0, true_h=np.zeros(8), seed=0)
        grid = build_se_grid((0.5, 2.0), (50.0, 100.0), 2, 2)
        base = SEKernel(sigma_f=1.0, length_scale=grid.candidates[0].length_scale)
        assert scipy.linalg.eigh(gram(base, t), eigvals_only=True).min() < 0.0
        with pytest.raises(SingularSystemError):
            srm_select(grid, data)

    def test_zero_noise_near_singular_gram_raises_in_selection_and_fit(self):
        # l = 1000 over a 0.3 s span: the decomposition with vectors returns
        # only positive eigenvalues, but six of the eight sit at rounding
        # level (below 1e-15), so without noise the selection must not score
        # an exact interpolant that fit cannot solve
        t = np.linspace(0.0, 0.3, 8)
        data = TrainingSet(t=t, y=np.sin(30 * t), sigma_n=0.0, true_h=np.zeros(8), seed=0)
        spec = SEKernel(sigma_f=1.0, length_scale=1000.0)
        grid = StructureGrid(family="se", bases=(spec,), sigma_fs=(1.0,))
        with pytest.raises(SingularSystemError):
            srm_select(grid, data)
        with pytest.raises(SingularSystemError):
            fit(spec, data, 0.0)


_PAPER = OscillatorParams(m=1.0, c=20.0, k=1e6)
_GENERAL = BoundConfig(a1=0.5, a2=2.0, c=0.8, delta=0.05, delta_rule=DeltaRule.FIXED)


@st.composite
def _selection_problems(draw):
    """Small random training set, a grid of either family and a bound form."""
    n = draw(st.integers(3, 10))
    gaps = draw(st.lists(st.floats(0.005, 0.05), min_size=n - 1, max_size=n - 1))
    t = np.concatenate([[0.0], np.cumsum(gaps)])
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


class TestSpectralSelectionAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(_selection_problems())
    def test_matches_per_candidate_dense_solve(self, problem):
        grid, data, bound_config = problem
        result = srm_select(grid, data, bound_config)
        brute = [_brute_force_report(spec, data, bound_config) for spec in grid.candidates]
        best = min(range(grid.size), key=lambda i: (brute[i].bound, brute[i].h, i))

        assert [spec for spec, _ in result.trace] == list(grid.candidates)
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

    The grids share one family and one set of base kernels, as the grids of
    one sampling plan do; their signal scales differ from set to set.
    """
    n = draw(st.integers(3, 10))
    gaps = draw(st.lists(st.floats(0.005, 0.05), min_size=n - 1, max_size=n - 1))
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    family = draw(st.sampled_from(["se", "sdof"]))
    l_lo = draw(st.floats(0.005, 0.05))
    l_range = (l_lo, l_lo * draw(st.floats(2.0, 20.0)))
    n_l = draw(st.integers(1, 4))
    grids, datasets = [], []
    for _ in range(draw(st.integers(1, 4))):
        y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        datasets.append(
            TrainingSet(t=t, y=y, sigma_n=draw(st.floats(0.05, 0.5)), true_h=np.zeros(n), seed=0)
        )
        if family == "se":
            sf_lo = draw(st.floats(0.3, 1.0))
            grids.append(build_se_grid(
                (sf_lo, sf_lo * draw(st.floats(2.0, 10.0))), l_range, draw(st.integers(1, 4)), n_l,
            ))
        else:
            sf_lo = draw(st.floats(100.0, 1000.0))
            grids.append(build_sdof_grid(
                _PAPER, (sf_lo, sf_lo * draw(st.floats(2.0, 5.0))), draw(st.integers(1, 6))
            ))
    return grids, datasets, draw(st.sampled_from([None, _GENERAL]))


class TestBatchSelection:
    @settings(max_examples=100, deadline=None)
    @given(_batch_problems())
    def test_equals_separate_selections_bit_for_bit(self, problem):
        grids, datasets, bound_config = problem
        batch = srm_select_batch(grids, datasets, bound_config)
        separate = [srm_select(g, d, bound_config) for g, d in zip(grids, datasets)]
        # dataclass equality compares every float of winner and trace exactly
        assert batch == separate

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
