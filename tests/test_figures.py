import math
import re
from dataclasses import replace

import numpy as np
import pytest

from srmks.errors import InvalidInputError
from srmks.experiment import ExperimentConfig, IterationRecord, records_from_csv
from srmks.figures import boxplot_svg, complexity_svg, predictions_svg
from srmks.kernels import SEKernel

BOX_RE = re.compile(r'<g class="box" [^>]*>')
POLYLINE_RE = re.compile(r'<polyline class="curve" data-series="(\w+)" points="([^"]*)"')


def _record(n, iteration, family, bound=1e-7, h=5.0):
    return IterationRecord(
        sample_size=n, iteration=iteration, family=family,
        chosen_spec=SEKernel(sigma_f=1.0, length_scale=0.05),
        emp_risk=1e-9, bound=bound, h=h, true_mse=1e-9,
    )


def _polyline_points(svg):
    series = {}
    for name, raw in POLYLINE_RE.findall(svg):
        pts = np.array(
            [[float(c) for c in pair.split(",")] for pair in raw.split()]
        )
        series[name] = pts
    return series


@pytest.fixture(scope="module")
def golden_records(golden_dir):
    return records_from_csv((golden_dir / "records_ref.csv").read_text())


@pytest.fixture(scope="module")
def golden_cfg(golden_dir):
    return ExperimentConfig.from_json((golden_dir / "config_ref.json").read_text())


class TestBoxFigures:
    def test_single_record_one_box_per_metric(self):
        svg = boxplot_svg([_record(63, 0, "se")])
        assert len(BOX_RE.findall(svg)) == 2  # bound and true_mse panels
        assert len(BOX_RE.findall(complexity_svg([_record(63, 0, "se")]))) == 1

    def test_full_grid_box_count(self, golden_records):
        # 3 sample sizes x 2 families x 2 metrics
        assert len(BOX_RE.findall(boxplot_svg(golden_records))) == 12
        assert len(BOX_RE.findall(complexity_svg(golden_records))) == 6

    def test_byte_determinism(self, golden_records):
        assert boxplot_svg(golden_records) == boxplot_svg(golden_records)
        assert complexity_svg(golden_records) == complexity_svg(golden_records)

    def test_infinite_only_cell_marked_empty(self):
        records = [
            _record(63, 0, "se", bound=math.inf),
            _record(63, 0, "sdof", bound=1e-8),
        ]
        svg = boxplot_svg(records)
        empty = re.findall(r'<g class="box" [^>]*data-empty="true"/>', svg)
        assert len(empty) == 1
        assert 'data-infinite="1"' in empty[0]

    def test_panel_without_finite_values_spans_the_default_range(self):
        records = [_record(63, 0, family, bound=math.inf) for family in ("se", "sdof")]
        svg = boxplot_svg(records)
        panel = svg[svg.index('<g class="panel" data-metric="bound">'):svg.index('data-metric="true_mse"')]
        assert re.findall(r'text-anchor="end" fill="#333333">([^<]*)<', panel) == ["0.1", "1", "10"]
        assert len(re.findall(r'data-empty="true"', panel)) == 2

    def test_panels_of_one_value_are_widened_to_a_decade(self):
        # the pad 10**(0.08 * log10(hi / lo)) rounds to 1, so both log scales
        # start with equal ends; without the widening the figure divides by zero
        top = math.nextafter(1e10, math.inf)
        records = [
            replace(_record(63, 0, "se", bound=1e10), true_mse=1e10),
            replace(_record(63, 1, "se", bound=top), true_mse=top),
        ]
        svg = boxplot_svg(records)
        for metric in ("bound", "true_mse"):
            panel = svg[svg.index(f'<g class="panel" data-metric="{metric}">'):]
            ticks = re.findall(r'text-anchor="end" fill="#333333">([^<]*)<', panel)
            assert ticks[0] == "1e+10"
        assert "nan" not in svg and len(BOX_RE.findall(svg)) == 2

    def test_family_missing_at_one_size_draws_no_box_there(self):
        records = [_record(63, 0, "se"), _record(63, 0, "sdof"), _record(126, 0, "se")]
        boxes = BOX_RE.findall(boxplot_svg(records))
        assert len(boxes) == 6  # 3 (n, family) cells x 2 metrics
        assert not [b for b in boxes if 'data-family="sdof" data-n="126"' in b]

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            boxplot_svg([])

    def test_quantile_attributes_present(self, golden_records):
        svg = boxplot_svg(golden_records)
        assert 'data-metric="bound"' in svg
        assert 'data-family="sdof"' in svg
        assert 'data-n="251"' in svg


class TestPredictions:
    def test_series_present(self, golden_cfg, golden_records):
        svg = predictions_svg(golden_cfg, golden_records, sample_size=251, iteration=0)
        series = _polyline_points(svg)
        assert set(series) == {"true", "se", "sdof"}
        assert svg.count("<circle") == 251

    def test_byte_determinism(self, golden_cfg, golden_records):
        a = predictions_svg(golden_cfg, golden_records, sample_size=63, iteration=1)
        b = predictions_svg(golden_cfg, golden_records, sample_size=63, iteration=1)
        assert a == b

    def test_matches_golden_polylines(self, golden_cfg, golden_records, golden_dir):
        svg = predictions_svg(golden_cfg, golden_records, sample_size=251, iteration=0)
        actual = _polyline_points(svg)
        expected = _polyline_points((golden_dir / "predictions_ref.svg").read_text())
        assert set(actual) == set(expected)
        for name in expected:
            assert actual[name].shape == expected[name].shape
            # coordinates are written at 0.01 px resolution; allow numeric
            # noise a couple of ulps past that
            assert np.max(np.abs(actual[name] - expected[name])) <= 0.05

    def test_curves_track_each_other_at_largest_n(self, golden_cfg, golden_records):
        # at n=251 both smoothers learn the signal: their sampled paths stay
        # close to the true curve in plot space
        svg = predictions_svg(golden_cfg, golden_records, sample_size=251, iteration=0)
        series = _polyline_points(svg)
        height = 420.0
        for fam in ("se", "sdof"):
            gap = np.max(np.abs(series[fam][:, 1] - series["true"][:, 1]))
            assert gap < 0.15 * height

    def test_unknown_cell_rejected(self, golden_cfg, golden_records):
        with pytest.raises(InvalidInputError, match=r"available sizes: \[63, 126, 251\]$"):
            predictions_svg(golden_cfg, golden_records, sample_size=999)
        # the size is recorded, so the message names its iterations instead
        recorded = sorted({r.iteration for r in golden_records if r.sample_size == 251})
        missing = f"no records for n=251, iteration=55; iterations recorded at n=251: {recorded}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(missing)}$"):
            predictions_svg(golden_cfg, golden_records, sample_size=251, iteration=55)

    def test_config_without_the_sample_size_rejected(self, golden_cfg, golden_records):
        cfg = replace(golden_cfg, plans=golden_cfg.plans[:2])
        with pytest.raises(InvalidInputError, match="no sampling plan with n=251"):
            predictions_svg(cfg, golden_records, sample_size=251)
