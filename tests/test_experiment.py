import json
import math
from dataclasses import replace

import pytest

import srmks.experiment as experiment_module
from srmks.errors import InvalidInputError, SingularSystemError
from srmks.experiment import (
    ExperimentConfig,
    ExperimentError,
    IterationRecord,
    capacity_spread,
    default_config,
    records_from_csv,
    records_to_csv,
    run_experiment,
    summarize,
)
from srmks.kernels import SDOFKernel, SEKernel
from srmks.oscillator import OscillatorParams, SamplingPlan, generate_training_set
from srmks.srm import GridSettings, srm_select


def _one_plan_config(reps=1, seed=5):
    params = OscillatorParams(m=1.0, c=20.0, k=1e6)
    plan = SamplingPlan(
        t_start=0.0, t_end=0.3, base_points=1001, decimation=16, snr=10.0, seed=seed,
    )
    return ExperimentConfig(
        params=params, plans=(plan,), repetitions=reps, base_seed=seed,
        grids=GridSettings(se_sigma_count=4, se_length_count=10, sdof_sigma_count=10),
    )


def _record(n, iteration, family, bound, h=5.0, true_mse=1e-9):
    if family == "se":
        spec = SEKernel(sigma_f=1.0, length_scale=0.05)
    else:
        spec = SDOFKernel(sigma_f=1.0, params=OscillatorParams(m=1.0, c=20.0, k=1e6))
    return IterationRecord(
        sample_size=n, iteration=iteration, family=family, chosen_spec=spec,
        emp_risk=1e-9, bound=bound, h=h, true_mse=true_mse,
    )


def _assert_json_close(actual, expected, rel=1e-9, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            _assert_json_close(actual[key], expected[key], rel, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_json_close(a, e, rel, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=rel), path
    else:
        assert actual == expected, path


class TestConfig:
    def test_default_config_matches_reference_setup(self):
        cfg = default_config()
        assert cfg.repetitions == 100
        assert tuple(p.n_samples for p in cfg.plans) == (63, 126, 251)
        assert all(p.snr == 10.0 for p in cfg.plans)
        assert cfg.params == OscillatorParams(m=1.0, c=20.0, k=1e6)

    def test_round_trip(self):
        cfg = default_config(repetitions=7, base_seed=99)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_golden_config_bytes(self, golden_dir):
        # pins key order, key names and float formatting of config.json
        text = (golden_dir / "config_ref.json").read_text()
        assert default_config(repetitions=2, base_seed=1234).to_json() == text

    def test_validation(self):
        cfg = default_config()
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                params=cfg.params, plans=cfg.plans, repetitions=0, base_seed=1,
            )
        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                params=cfg.params, plans=(), repetitions=1, base_seed=1,
            )
        # the study searches the SE grid on every plan, and that grid needs three points
        two = replace(cfg.plans[0], decimation=1000)
        assert two.n_samples == 2
        with pytest.raises(InvalidInputError, match="three training points, got 2"):
            ExperimentConfig(params=cfg.params, plans=(two,), repetitions=1, base_seed=1)

    def test_rejects_fractional_repetitions(self):
        doc = default_config().to_json_dict()
        doc["repetitions"] = 1.7
        with pytest.raises(InvalidInputError, match="repetitions"):
            ExperimentConfig.from_json_dict(doc)

    def test_rejects_negative_base_seed(self):
        cfg = default_config()
        with pytest.raises(InvalidInputError, match="base_seed"):
            ExperimentConfig(params=cfg.params, plans=cfg.plans, repetitions=1, base_seed=-3)

    def test_iteration_seed_derivation(self):
        cfg = default_config(base_seed=1000)
        assert [cfg.iteration_seed(i) for i in (0, 1, 41)] == [1000, 1001, 1041]


class TestRunExperiment:
    def test_cardinality_single_plan(self):
        records = run_experiment(_one_plan_config(reps=1))
        assert len(records) == 2
        assert [r.family for r in records] == ["se", "sdof"]
        assert all(r.sample_size == 63 for r in records)

    def test_record_count_formula(self, small_cfg, small_records):
        expected = len(small_cfg.plans) * small_cfg.repetitions * 2
        assert len(small_records) == expected

    def test_records_sorted_by_plan_iteration_family(self, small_records):
        # plans are ordered 63, 126, 251; within a plan iterations ascend
        sizes = [r.sample_size for r in small_records]
        assert sizes == sorted(sizes, key=lambda n: (63, 126, 251).index(n))
        for i in range(0, len(small_records), 2):
            assert small_records[i].family == "se"
            assert small_records[i + 1].family == "sdof"
            assert small_records[i].iteration == small_records[i + 1].iteration

    def test_two_runs_identical_bytes(self):
        cfg = _one_plan_config(reps=2)
        a = records_to_csv(run_experiment(cfg))
        b = records_to_csv(run_experiment(cfg))
        assert a == b

    def test_single_cell_reproduction(self, small_cfg, small_records):
        # recomputing one (plan, iteration) in isolation reproduces its records
        plan = small_cfg.plans[2]
        alone = replace(
            small_cfg, plans=(plan,), repetitions=1, base_seed=small_cfg.iteration_seed(1)
        )
        cell = [replace(record, iteration=1) for record in run_experiment(alone)]
        matching = [
            r for r in small_records
            if r.sample_size == plan.n_samples and r.iteration == 1
        ]
        assert len(cell) == len(matching) == 2
        for fresh, stored in zip(cell, matching):
            assert fresh == stored

    def test_select_reproduces_the_study_bit_for_bit(self):
        # srm_select with its default bound, as `select` calls it, on a
        # study cell's own training set must score the study's winner with
        # the very same bits: both go through one bound formula
        cfg = default_config(repetitions=20)
        records = iter(run_experiment(cfg))
        for plan in cfg.plans:
            for iteration in range(cfg.repetitions):
                data = generate_training_set(
                    cfg.params, replace(plan, seed=cfg.iteration_seed(iteration))
                )
                for family in ("se", "sdof"):
                    record = next(records)
                    assert (record.iteration, record.family) == (iteration, family)
                    result = srm_select(cfg.grids.family_grid(family, data, cfg.params), data)
                    report = result.best_report
                    assert result.best_spec == record.chosen_spec
                    assert (report.empirical_risk, report.h, report.bound) == (
                        record.emp_risk, record.h, record.bound
                    )

    def test_bound_dominates_emp_risk(self, small_records):
        for r in small_records:
            if math.isfinite(r.bound):
                assert r.bound >= r.emp_risk

    def test_true_mse_nonnegative_and_finite(self, small_records):
        for r in small_records:
            assert r.true_mse >= 0.0
            assert math.isfinite(r.true_mse)
            assert math.isfinite(r.h)

    def test_failures_are_tagged(self, monkeypatch):
        def boom(grids, datasets, bound_config=None):
            raise SingularSystemError("synthetic failure")

        monkeypatch.setattr(experiment_module, "srm_select_batch", boom)
        cfg = _one_plan_config()
        with pytest.raises(ExperimentError, match=r"n=63, iteration=0, family=se"):
            run_experiment(cfg)

    def test_failure_names_the_failing_iteration(self):
        # at this snr sigma_n^2 sits rel 2.2e-6 and 2.3e-6 above the rounding
        # level in iterations 0 and 1, and rel 1.9e-6 below it in iteration 2,
        # whose larger RMS(y) raises its largest signal scale
        cfg = default_config(repetitions=3)
        cfg = replace(cfg, plans=(replace(cfg.plans[0], snr=12290547725.790928),))
        with pytest.raises(ExperimentError, match=r"^n=63, iteration=2, family=se: .*rounding level"):
            run_experiment(cfg)


class TestRecordsCsv:
    def test_round_trip_exact(self, small_records):
        text = records_to_csv(small_records)
        back = records_from_csv(text)
        assert back == list(small_records)

    def test_infinite_bound_round_trip(self):
        rec = _record(63, 0, "se", bound=math.inf)
        text = records_to_csv([rec])
        assert ",inf," in text
        back = records_from_csv(text)
        assert math.isinf(back[0].bound)

    def test_rejects_wrong_header(self):
        with pytest.raises(InvalidInputError):
            records_from_csv("a,b,c\n1,2,3\n")

    def test_rejects_malformed_row(self):
        header = "n,iteration,family,sigma_f,length_scale,emp_risk,h,bound,true_mse"
        with pytest.raises(InvalidInputError):
            records_from_csv(header + "\n63,0,se,1.0\n")

    def test_rejects_header_only(self):
        with pytest.raises(InvalidInputError, match="zero records"):
            records_from_csv(records_to_csv([]))


class TestSummaries:
    def test_single_record_collapses_quantiles(self):
        summary = summarize([_record(63, 0, "se", bound=2.0)])
        stats = summary.get(63, "se", "bound")
        assert (
            stats.minimum == stats.q1 == stats.median == stats.q3 == stats.maximum == 2.0
        )
        assert stats.count == 1 and stats.infinite_count == 0

    def test_median_of_five(self):
        records = [_record(63, i, "se", bound=float(v)) for i, v in enumerate((1, 2, 3, 4, 5))]
        assert summarize(records).get(63, "se", "bound").median == 3.0

    def test_quantile_ordering_invariant(self, small_records):
        summary = summarize(small_records)
        for stats in summary.cells.values():
            if stats.median is None:
                continue
            assert (
                stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
            )

    def test_infinite_bounds_counted_separately(self):
        records = [
            _record(63, 0, "se", bound=1.0),
            _record(63, 1, "se", bound=math.inf),
            _record(63, 2, "se", bound=3.0),
        ]
        stats = summarize(records).get(63, "se", "bound")
        assert stats.count == 3
        assert stats.infinite_count == 1
        assert stats.median == 2.0

    def test_all_infinite_cell_has_null_stats(self):
        stats = summarize([_record(63, 0, "se", bound=math.inf)]).get(63, "se", "bound")
        assert stats.median is None and stats.infinite_count == 1

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize([])

    def test_matches_golden_summary(self, small_records, golden_dir):
        actual = json.loads(summarize(small_records).to_json())
        expected = json.loads((golden_dir / "summary_ref.json").read_text())
        _assert_json_close(actual, expected)


class TestCapacitySpread:
    def test_reference_arithmetic(self):
        # medians 4 and 5 across two sizes: spread = (5 - 4) / 4
        records = [
            _record(63, 0, "sdof", bound=1.0, h=4.0),
            _record(126, 0, "sdof", bound=1.0, h=5.0),
        ]
        spread = capacity_spread(records, "sdof")
        assert spread.medians == {63: 4.0, 126: 5.0}
        assert spread.max_relative_spread == pytest.approx(0.25, rel=1e-15)

    def test_identical_capacity_gives_zero_spread(self):
        records = [
            _record(63, 0, "sdof", bound=1.0, h=7.0),
            _record(126, 0, "sdof", bound=1.0, h=7.0),
        ]
        assert capacity_spread(records, "sdof").max_relative_spread == 0.0

    def test_zero_smallest_median_gives_infinite_spread(self):
        records = [
            _record(63, 0, "sdof", bound=1.0, h=0.0),
            _record(126, 0, "sdof", bound=1.0, h=3.0),
        ]
        assert capacity_spread(records, "sdof").max_relative_spread == math.inf

    def test_requires_two_sample_sizes(self):
        with pytest.raises(InvalidInputError):
            capacity_spread([_record(63, 0, "sdof", bound=1.0)], "sdof")

    def test_sdof_stability_helper(self, small_records):
        report = capacity_spread(small_records, "sdof")
        assert report.family == "sdof"
        assert set(report.medians) == {63, 126, 251}
