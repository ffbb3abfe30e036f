"""End-to-end acceptance criteria.

Each test checks one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). The
Monte-Carlo criteria (5 through 8) share one full reference run of the
study, so this module takes a few minutes of compute in total.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import edf_trace, rk4_impulse_response, solve_dense
from srmks.cli import main as cli_main
from srmks.experiment import capacity_spread, default_config, run_experiment, summarize
from srmks.kernels import SDOFKernel, SEKernel, gram, kernel_eval
from srmks.oscillator import (
    OscillatorParams,
    SamplingPlan,
    TrainingSet,
    generate_training_set,
    impulse_response,
)
from srmks.risk import realized_confidence, vc_bound_general, vc_bound_reduced, BoundConfig
from srmks.smoother import fit, predict
from srmks.srm import build_se_grid, srm_select

PAPER_PARAMS = OscillatorParams(m=1.0, c=20.0, k=1e6)


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def full_run():
    """The reference study: 100 repetitions, three sample sizes, both kernels."""
    cfg = default_config()
    start = time.monotonic()
    records = run_experiment(cfg)
    elapsed = time.monotonic() - start
    return cfg, records, elapsed


def test_criterion_1_sample_size_arithmetic():
    start = time.monotonic()
    sizes = []
    for decimation in (16, 8, 4):
        plan = SamplingPlan(
            t_start=0.0, t_end=0.3, base_points=1001,
            decimation=decimation, snr=10.0, seed=0,
        )
        assert plan.base_grid().size == 1001
        assert plan.base_grid()[::decimation].size == plan.n_samples
        sizes.append(plan.n_samples)
    ok = sizes == [63, 126, 251] and time.monotonic() - start < 1.0
    _verdict(1, f"decimations 16/8/4 of the 1001-point grid give n={sizes}", ok)


def test_criterion_2_confidence_values():
    start = time.monotonic()
    stated = {63: 0.496, 126: 0.644, 251: 0.748}
    computed = {n: realized_confidence(n) for n in stated}
    # agreement with the printed three-decimal values
    ok = all(abs(computed[n] - stated[n]) < 5e-4 for n in stated)
    ok = ok and time.monotonic() - start < 1.0
    values = ", ".join(f"n={n}: {computed[n]:.4f}" for n in sorted(stated))
    _verdict(2, f"realized confidence 1 - 4/sqrt(n) matches 0.496/0.644/0.748 ({values})", ok)


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()

    # (a) closed form vs RK4 integration on 1000 points, 1e-6 relative
    t = np.linspace(0.0, 0.3, 1000)
    closed = impulse_response(PAPER_PARAMS, t)
    ode = np.array(rk4_impulse_response(PAPER_PARAMS.m, PAPER_PARAMS.c, PAPER_PARAMS.k, t))
    err_a = float(np.max(np.abs(closed - ode)) / np.max(np.abs(closed)))
    ok_a = err_a < 1e-6

    # (b) fit/predict vs the Gaussian-elimination oracle, 50 instances n <= 8
    rng = np.random.default_rng(321)
    ok_b = True
    err_b = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        tt = np.sort(rng.uniform(0.0, 0.3, size=n))
        y = rng.normal(0.0, 1.0, size=n)
        sigma_n = float(rng.uniform(0.05, 0.5))
        if rng.integers(2) == 0:
            kernel = SEKernel(
                sigma_f=float(rng.uniform(0.3, 3.0)),
                length_scale=float(rng.uniform(0.005, 0.2)),
            )
        else:
            kernel = SDOFKernel(sigma_f=float(rng.uniform(100.0, 5000.0)), params=PAPER_PARAMS)
        data = TrainingSet(t=tt, y=y, sigma_n=sigma_n, true_h=np.zeros(n), seed=0)
        model = fit(kernel, data, sigma_n)
        K = gram(kernel, tt)
        ref_w = np.array(solve_dense((K + sigma_n**2 * np.eye(n)).tolist(), y.tolist()))
        scale = float(np.max(np.abs(ref_w))) or 1.0
        rel_w = float(np.max(np.abs(model.weights - ref_w))) / scale
        queries = np.linspace(0.0, 0.3, 5)
        pred = np.asarray(predict(model, queries))
        ref_p = np.array([
            float(np.array([kernel_eval(kernel, float(ti), float(q)) for ti in tt]) @ ref_w)
            for q in queries
        ])
        p_scale = float(np.max(np.abs(ref_p))) or 1.0
        rel_p = float(np.max(np.abs(pred - ref_p))) / p_scale
        err_b = max(err_b, rel_w, rel_p)
        ok_b = ok_b and rel_w < 1e-8 and rel_p < 1e-8

    # (c) spectral edf vs the trace identity, 50 instances, 1e-8 absolute
    ok_c = True
    err_c = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        tt = np.sort(rng.uniform(0.0, 0.3, size=n))
        sigma_n = float(rng.uniform(0.05, 0.5))
        kernel = SEKernel(
            sigma_f=float(rng.uniform(0.3, 3.0)),
            length_scale=float(rng.uniform(0.005, 0.2)),
        )
        data = TrainingSet(t=tt, y=np.zeros(n), sigma_n=sigma_n, true_h=np.zeros(n), seed=0)
        model = fit(kernel, data, sigma_n)
        diff = abs(model.edf - edf_trace(gram(kernel, tt).tolist(), sigma_n))
        err_c = max(err_c, diff)
        ok_c = ok_c and diff < 1e-8

    elapsed = time.monotonic() - start
    ok = ok_a and ok_b and ok_c and elapsed < 10.0
    _verdict(
        3,
        "oracle agreement: RK4 {:.1e}, dense solve {:.1e}, trace edf {:.1e} "
        "in {:.1f}s".format(err_a, err_b, err_c, elapsed),
        ok,
    )


def test_criterion_4_bound_algebra():
    start = time.monotonic()
    rng = np.random.default_rng(654)
    cfg = BoundConfig()
    ok = True
    for _ in range(100):
        n = int(rng.integers(17, 5001))
        h = float(rng.uniform(0.0, 1.0)) * n  # 0 <= h < n
        mse = float(10.0 ** rng.uniform(-10, 2))
        reduced = vc_bound_reduced(mse, h, n)
        general = vc_bound_general(mse, h, n, cfg)
        # clipping must match the denominator rule exactly
        p = h / n
        plogp = 0.0 if p == 0.0 else p * math.log(p)
        g = p - plogp + math.log(n) / (2.0 * n)
        expected_clip = 1.0 - math.sqrt(g) <= 1e-12
        ok = ok and reduced.clipped == expected_clip
        if reduced.clipped or general.clipped:
            ok = ok and reduced.clipped and general.clipped
        else:
            ok = ok and general.bound == pytest.approx(reduced.bound, rel=1e-10)
    # capacity at the sample size must clip regardless of g's algebraic value
    ok = ok and vc_bound_reduced(1.0, 100.0, 100).clipped
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _verdict(4, "general bound (a1=a2=c=1, delta=4/sqrt(n)) equals reduced to 1e-10; "
                "clipping exactly at the 1e-12 denominator threshold", ok)


def test_criterion_5_sdof_bound_below_se(full_run):
    cfg, records, elapsed = full_run
    summary = summarize(records)
    medians = {
        n: (summary.get(n, "se", "bound").median, summary.get(n, "sdof", "bound").median)
        for n in (63, 126, 251)
    }
    ok = all(sdof < se for se, sdof in medians.values()) and elapsed < 600.0
    detail = ", ".join(
        f"n={n}: sdof {sdof:.3e} < se {se:.3e}" for n, (se, sdof) in medians.items()
    )
    _verdict(5, f"median guaranteed risk favours the oscillator kernel ({detail}); "
                f"run took {elapsed:.0f}s", ok)


def test_criterion_6_bound_gap_narrows(full_run):
    _, records, _ = full_run
    summary = summarize(records)

    def rel_gap(n):
        se = summary.get(n, "se", "bound").median
        sdof = summary.get(n, "sdof", "bound").median
        return (se - sdof) / sdof

    gap_small, gap_large = rel_gap(63), rel_gap(251)
    ok = gap_large < gap_small
    _verdict(6, f"relative SE-vs-SDOF bound gap narrows: {gap_large:.3f} at n=251 "
                f"vs {gap_small:.3f} at n=63", ok)


def test_criterion_7_capacity_stability(full_run):
    _, records, _ = full_run
    sdof = capacity_spread(records, "sdof")
    se = capacity_spread(records, "se")
    ok = sdof.max_relative_spread < se.max_relative_spread
    _verdict(7, f"median capacity spread across n: sdof {sdof.max_relative_spread:.3f} "
                f"< se {se.max_relative_spread:.3f}", ok)


def test_criterion_8_infinite_bound_exercised(full_run):
    # the records keep only winners, so replay n=126 selections until an SE
    # candidate with a clipped bound appears in a trace; the per-iteration
    # seed derivation makes each replay identical to the full run's cell
    cfg, _, _ = full_run
    plan = next(p for p in cfg.plans if p.n_samples == 126)
    found_iteration = None
    for iteration in range(cfg.repetitions):
        seeded = replace(plan, seed=cfg.iteration_seed(iteration))
        data = generate_training_set(cfg.params, seeded)
        grid = cfg.grids.family_grid("se", data, cfg.params)
        result = srm_select(grid, data, cfg.bound_config)
        if any(report.clipped for _, report in result.trace):
            found_iteration = iteration
            break
    ok = found_iteration is not None
    _verdict(8, f"n=126 SE structure produces clipped (+inf) candidate bounds "
                f"(first at iteration {found_iteration})", ok)


def test_criterion_9_experiment_determinism(tmp_path):
    start = time.monotonic()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["experiment", "--reps", "3", "--seed", "7"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    bytes_a = (out_a / "records.csv").read_bytes()
    bytes_b = (out_b / "records.csv").read_bytes()
    elapsed = time.monotonic() - start
    ok = bytes_a == bytes_b and elapsed < 1200.0
    _verdict(9, f"two experiment invocations wrote byte-identical records.csv "
                f"({len(bytes_a)} bytes) in {elapsed:.0f}s", ok)


def test_criterion_10_property_battery():
    start = time.monotonic()
    rng = np.random.default_rng(987)
    ok = True

    se = SEKernel(sigma_f=1.3, length_scale=0.07)
    sdof = SDOFKernel(sigma_f=700.0, params=PAPER_PARAMS)

    # kernel symmetry and stationarity (exact on dyadic rationals)
    for _ in range(200):
        t, u, s = (int(v) / 1024.0 for v in rng.integers(-2048, 2049, size=3))
        for kernel in (se, sdof):
            ok = ok and kernel_eval(kernel, t, u) == kernel_eval(kernel, u, t)
            ok = ok and kernel_eval(kernel, t + s, u + s) == kernel_eval(kernel, t, u)

    # positive semidefiniteness on random input sets
    for _ in range(30):
        n = int(rng.integers(2, 41))
        tt = np.sort(rng.uniform(0.0, 0.4, size=n))
        for kernel in (se, sdof):
            eigs = np.linalg.eigvalsh(gram(kernel, tt))
            scale = float(np.max(np.abs(eigs))) or 1.0
            ok = ok and eigs.min() >= -1e-10 * scale

    # edf monotone in the noise level and in the SE length-scale
    tt = np.linspace(0.0, 0.3, 30)
    data = TrainingSet(t=tt, y=np.sin(40 * tt), sigma_n=0.1, true_h=np.zeros(30), seed=0)
    edfs_sigma = [fit(se, data, s).edf for s in (1e-4, 1e-2, 1e-1, 1.0)]
    ok = ok and all(a > b for a, b in zip(edfs_sigma, edfs_sigma[1:]))
    edfs_l = [
        fit(SEKernel(sigma_f=1.0, length_scale=l), data, 0.05).edf
        for l in (0.3, 0.1, 0.03, 0.01)
    ]
    ok = ok and all(a <= b + 1e-12 for a, b in zip(edfs_l, edfs_l[1:]))

    # the bound dominates the empirical risk wherever it is finite
    for _ in range(200):
        n = int(rng.integers(2, 5001))
        h = float(rng.uniform(0.0, 1.0)) * n
        mse = float(10.0 ** rng.uniform(-10, 2))
        report = vc_bound_reduced(mse, h, n)
        ok = ok and report.bound >= mse

    # SRM exhaustiveness and winner dominance on a real selection
    plan = SamplingPlan(t_start=0.0, t_end=0.3, base_points=1001,
                        decimation=16, snr=10.0, seed=3)
    train = generate_training_set(PAPER_PARAMS, plan)
    grid = build_se_grid((1e-4, 1e-2), (0.005, 0.3), 3, 8)
    result = srm_select(grid, train)
    ok = ok and len(result.trace) == grid.size
    finite = [r.bound for _, r in result.trace if not r.clipped]
    ok = ok and (not finite or result.best_report.bound <= min(finite))

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(10, f"property battery (symmetry, stationarity, PSD, edf monotonicity, "
                 f"bound dominance, SRM exhaustiveness) in {elapsed:.1f}s", ok)
