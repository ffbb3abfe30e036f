import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import srmks.cli as cli_module
import srmks.smoother as smoother_module
from srmks.cli import main
from srmks.errors import SingularSystemError
from srmks.experiment import ExperimentConfig, records_from_csv
from srmks.figures import predictions_svg
from srmks.oscillator import OscillatorParams, SamplingPlan
from srmks.srm import GridSettings


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out)]) == 0
    return out


def _read_rows(path):
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


def _sdof_curve(svg):
    return next(ln for ln in svg.splitlines() if 'data-series="sdof"' in ln)


class TestSimulate:
    def test_defaults_produce_63_rows(self, sim_dir, capsys):
        rows = _read_rows(sim_dir / "training.csv")
        assert rows[0] == "t,y,true_h"
        assert len(rows) == 64
        assert (sim_dir / "training.json").exists()
        assert (sim_dir / "config.json").exists()

    def test_prints_n_and_sigma(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "n=63" in out and "sigma_n=" in out

    def test_huge_snr_matches_clean_signal(self, tmp_path):
        out = tmp_path / "clean"
        assert main(["simulate", "--snr", "1e12", "--out", str(out)]) == 0
        rows = _read_rows(out / "training.csv")[1:]
        y = np.array([float(r.split(",")[1]) for r in rows])
        true_h = np.array([float(r.split(",")[2]) for r in rows])
        assert np.allclose(y, true_h, atol=1e-4 * np.max(np.abs(true_h)))

    def test_decimation_flag_controls_n(self, tmp_path, capsys):
        assert main(["simulate", "--decimation", "4", "--out", str(tmp_path / "s")]) == 0
        assert "n=251" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["simulate"]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--bogus", "1", "--out", str(tmp_path / "s")]) == 2

    def test_idempotent_bytes(self, tmp_path):
        out = tmp_path / "s"
        assert main(["simulate", "--out", str(out)]) == 0
        first = (out / "training.csv").read_bytes()
        assert main(["simulate", "--out", str(out)]) == 0
        assert (out / "training.csv").read_bytes() == first


class TestFit:
    def test_fit_sdof_kernel_inline(self, sim_dir, tmp_path, capsys):
        kernel = json.dumps(
            {"family": "sdof", "sigma_f": 500.0, "m": 1.0, "c": 20.0, "k": 1e6}
        )
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(sim_dir), "--kernel", kernel, "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["n"] == 63
        assert 0.0 < doc["edf"] < 63.0
        assert len(_read_rows(out / "predictions.csv")) == 64
        assert "edf=" in capsys.readouterr().out

    def test_fit_kernel_from_file(self, sim_dir, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text('{"family": "se", "sigma_f": 0.0003, "length_scale": 0.01}\n')
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(sim_dir), "--kernel", str(spec), "--out", str(out)]) == 0

    def test_inline_kernel_longer_than_a_file_name(self, sim_dir, tmp_path):
        kernel = '{"family": "se", "sigma_f": 0.0003, "length_scale": 0.01' + " " * 300 + "}"
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(sim_dir), "--kernel", kernel, "--out", str(out)]) == 0

    def test_missing_data_dir_is_io_error(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope"), "--kernel", "{}", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_malformed_kernel_is_io_error(self, sim_dir, tmp_path):
        code = main(["fit", "--data", str(sim_dir), "--kernel", "{not json", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_zero_sigma_n_is_invalid_input(self, sim_dir, tmp_path, capsys):
        # the noise rule fit shares with select, whatever the rank of K
        kernel = '{"family": "se", "sigma_f": 1.0, "length_scale": 100.0}'
        out = tmp_path / "o"
        code = main([
            "fit", "--data", str(sim_dir), "--kernel", kernel, "--sigma-n", "0", "--out", str(out),
        ])
        assert code == 2
        assert "sigma_n > 0 with sigma_n^2 finite and above the rounding level" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestSelect:
    def test_select_both_families(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "sel"
        code = main([
            "select", "--data", str(sim_dir), "--family", "both",
            "--se-sigma-count", "3", "--se-length-count", "6",
            "--sdof-sigma-count", "6", "--out", str(out),
        ])
        assert code == 0
        for name in (
            "selection_se.json", "trace_se.csv",
            "selection_sdof.json", "trace_sdof.csv", "best.json",
        ):
            assert (out / name).exists()
        assert "winner family=" in capsys.readouterr().out
        best = json.loads((out / "best.json").read_text())
        assert best["family"] in {"se", "sdof"}

    def test_select_single_family(self, sim_dir, tmp_path):
        out = tmp_path / "sel"
        code = main([
            "select", "--data", str(sim_dir), "--family", "sdof",
            "--sdof-sigma-count", "5", "--out", str(out),
        ])
        assert code == 0
        assert not (out / "selection_se.json").exists()
        doc = json.loads((out / "best.json").read_text())
        assert doc["family"] == "sdof"
        assert len(doc["trace"]) == 5

    @pytest.mark.parametrize("family", ["both", "se", "sdof"])
    def test_best_json_is_the_winners_selection_file(self, sim_dir, tmp_path, capsys, family):
        out = tmp_path / "sel"
        code = main([
            "select", "--data", str(sim_dir), "--family", family,
            "--se-sigma-count", "3", "--se-length-count", "6",
            "--sdof-sigma-count", "6", "--out", str(out),
        ])
        assert code == 0
        best = (out / "best.json").read_bytes()
        winner = json.loads(best)["family"]
        assert family in ("both", winner)
        assert f"winner family={winner} " in capsys.readouterr().out
        assert best == (out / f"selection_{winner}.json").read_bytes()

    def test_reversed_amplitude_factors_are_usage_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "sel"
        code = main([
            "select", "--data", str(sim_dir), "--amp-lo", "0.5", "--amp-hi", "0.1",
            "--out", str(out),
        ])
        assert code == 2
        assert "amplitude_factors" in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    def test_reps_one_gives_six_records(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", "--reps", "1", "--out", str(out)]) == 0
        rows = _read_rows(out / "records.csv")
        assert len(rows) == 7  # header + 3 sizes x 2 families
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("median_bound") >= 3

    def test_determinism_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--reps", "1", "--seed", "42", "--out", str(a)]) == 0
        assert main(["experiment", "--reps", "1", "--seed", "42", "--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_config_file_round_trip(self, tmp_path, golden_dir):
        out = tmp_path / "exp"
        code = main([
            "experiment", "--config", str(golden_dir / "config_ref.json"),
            "--reps", "1", "--out", str(out),
        ])
        assert code == 0
        written = json.loads((out / "config.json").read_text())
        assert written["repetitions"] == 1
        assert written["base_seed"] == 1234

    def test_all_infinite_bounds_print_inf(self, tmp_path, golden_dir, capsys):
        # a1 = 1000 clips every candidate, so no cell has a finite median bound
        doc = json.loads((golden_dir / "config_ref.json").read_text())
        doc["bound"] = {"a1": 1000.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(config), "--reps", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("se_median_bound=inf sdof_median_bound=inf") == 3

    def test_negligible_noise_names_the_cell(self, tmp_path, golden_dir, capsys):
        # snr = 1e308 leaves a subnormal sigma_n^2, far below the rounding
        # level of the scored spectra
        doc = json.loads((golden_dir / "config_ref.json").read_text())
        for plan in doc["plans"]:
            plan["snr"] = 1e308
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "exp")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: n=63, iteration=0, family=se: ")
        assert "rounding level" in err

    def test_misspelt_key_is_named(self, tmp_path, golden_dir, capsys):
        doc = json.loads((golden_dir / "config_ref.json").read_text())
        doc["grid"] = doc.pop("grids")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "exp")]) == 3
        assert "unknown ExperimentConfig key 'grid'" in capsys.readouterr().err

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert main(["experiment", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 3

    def test_malformed_config_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"oscillator\": 3}")
        assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "field,value",
        [
            ("amplitude_factors", [0.1]),
            ("se_length_count", 2.7),
            ("amplitude_factors", [10.0, 0.1]),
        ],
        ids=["one-amplitude-factor", "fractional-count", "reversed-amplitude-factors"],
    )
    def test_invalid_grid_settings_are_io_errors(self, tmp_path, golden_dir, capsys, field, value):
        doc = json.loads((golden_dir / "config_ref.json").read_text())
        doc["grids"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 3
        assert f"grids.{field}" in capsys.readouterr().err
        assert not out.exists()


class TestPlot:
    @pytest.fixture()
    def study_dir(self, tmp_path, golden_dir):
        out = tmp_path / "study"
        out.mkdir()
        shutil.copy(golden_dir / "records_ref.csv", out / "records.csv")
        shutil.copy(golden_dir / "config_ref.json", out / "config.json")
        return out

    def test_boxplot_and_complexity(self, study_dir, tmp_path):
        figs = tmp_path / "figs"
        records = str(study_dir / "records.csv")
        assert main(["plot", "--records", records, "--kind", "boxplot", "--out", str(figs)]) == 0
        assert main(["plot", "--records", records, "--kind", "complexity", "--out", str(figs)]) == 0
        box = (figs / "boxplot.svg").read_text()
        assert box.count('<g class="box"') == 12
        assert (figs / "complexity.svg").read_text().count('<g class="box"') == 6

    def test_predictions_uses_adjacent_config(self, study_dir, tmp_path):
        figs = tmp_path / "figs"
        code = main([
            "plot", "--records", str(study_dir / "records.csv"),
            "--kind", "predictions", "--n", "63", "--iteration", "1",
            "--out", str(figs),
        ])
        assert code == 0
        assert (figs / "predictions_n63_iter1.svg").exists()

    def test_plot_idempotent_bytes(self, study_dir, tmp_path):
        figs = tmp_path / "figs"
        records = str(study_dir / "records.csv")
        assert main(["plot", "--records", records, "--kind", "boxplot", "--out", str(figs)]) == 0
        first = (figs / "boxplot.svg").read_bytes()
        assert main(["plot", "--records", records, "--kind", "boxplot", "--out", str(figs)]) == 0
        assert (figs / "boxplot.svg").read_bytes() == first

    def test_zero_records_is_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "records.csv"
        empty.write_text("n,iteration,family,sigma_f,length_scale,emp_risk,h,bound,true_mse\n")
        code = main(["plot", "--records", str(empty), "--kind", "boxplot", "--out", str(tmp_path / "f")])
        assert code == 3
        assert "zero records" in capsys.readouterr().err

    def test_malformed_records_is_parse_error(self, tmp_path):
        bad = tmp_path / "records.csv"
        bad.write_text("nonsense\n1,2,3\n")
        assert main(["plot", "--records", str(bad), "--kind", "boxplot", "--out", str(tmp_path / "f")]) == 3

    def test_predictions_refit_uses_config_oscillator(self, tmp_path):
        # sdof winners must be rebuilt with the study's oscillator, not the
        # reference system (c = 20, k = 1e6)
        params = OscillatorParams(m=1.0, c=40.0, k=4e6)
        plan = SamplingPlan(
            t_start=0.0, t_end=0.3, base_points=1001, decimation=16, snr=10.0, seed=7,
        )
        cfg = ExperimentConfig(
            params=params, plans=(plan,), repetitions=1, base_seed=7,
            grids=GridSettings(se_sigma_count=2, se_length_count=3, sdof_sigma_count=4),
        )
        config = tmp_path / "config.json"
        config.write_text(cfg.to_json())
        study = tmp_path / "study"
        assert main(["experiment", "--config", str(config), "--out", str(study)]) == 0
        figs = tmp_path / "figs"
        assert main([
            "plot", "--records", str(study / "records.csv"),
            "--kind", "predictions", "--out", str(figs),
        ]) == 0

        records = records_from_csv((study / "records.csv").read_text(), params)
        expected = predictions_svg(cfg, records, sample_size=63, iteration=0)
        actual = (figs / "predictions_n63_iter0.svg").read_text()
        assert _sdof_curve(actual) == _sdof_curve(expected)

    def test_readme_sequence_in_one_directory(self, tmp_path):
        # plot writes plot_config.json, so the experiment's config.json,
        # which plot --kind predictions reads, survives the earlier plots
        results = str(tmp_path / "results")
        records = str(tmp_path / "results" / "records.csv")
        assert main(["experiment", "--reps", "2", "--seed", "1234", "--out", results]) == 0
        for kind in ("boxplot", "complexity"):
            assert main(["plot", "--records", records, "--kind", kind, "--out", results]) == 0
        assert main([
            "plot", "--records", records, "--kind", "predictions",
            "--n", "251", "--iteration", "0", "--out", results,
        ]) == 0

    def test_missing_config_for_predictions(self, tmp_path, golden_dir):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        shutil.copy(golden_dir / "records_ref.csv", lonely / "records.csv")
        code = main([
            "plot", "--records", str(lonely / "records.csv"),
            "--kind", "predictions", "--out", str(tmp_path / "f"),
        ])
        assert code == 3


class _Inputs:
    """Edited copies of the test inputs, written next to the simulated data."""

    def __init__(self, sim_dir, tmp_path, golden_dir):
        self.data = str(sim_dir)
        self._sim_dir = sim_dir
        self._tmp_path = tmp_path
        self._golden_dir = golden_dir

    def config(self, edit):
        """Path of the golden config after edit(doc) mutated it."""
        doc = json.loads((self._golden_dir / "config_ref.json").read_text())
        edit(doc)
        return self.file("edited.json", json.dumps(doc).encode())

    def training(self, edit):
        """Copy of the simulated data dir after edit(doc) mutated training.json."""
        doc = json.loads((self._sim_dir / "training.json").read_text())
        edit(doc)
        return self.training_file("training.json", json.dumps(doc).encode())

    def truncated(self, rows):
        """Copy of the simulated data dir whose training.csv keeps its first `rows` rows.

        The n of its training.json is rewritten to match.
        """
        lines = (self._sim_dir / "training.csv").read_text().splitlines(keepends=True)
        data = self.training(lambda d: d.update(n=rows))
        (Path(data) / "training.csv").write_text("".join(lines[: rows + 1]))
        return data

    def retimed(self, row, change):
        """Copy of the simulated data dir whose training.csv data row `row` has time change(t)."""
        header, *rows = (self._sim_dir / "training.csv").read_text().splitlines()
        t, rest = rows[row].split(",", 1)
        rows[row] = f"{change(float(t))!r},{rest}"
        return self.training_file("training.csv", "\n".join([header, *rows, ""]).encode())

    def simulated(self, *flags):
        """Data dir of a fresh simulate run with `flags`."""
        data = self._tmp_path / "flagged_sim"
        assert main(["simulate", *flags, "--out", str(data)]) == 0
        return str(data)

    def scaled_targets(self, factor):
        """Copy of the simulated data dir whose training.csv has every target y times `factor`."""
        header, *rows = (self._sim_dir / "training.csv").read_text().splitlines()
        cells = (row.split(",") for row in rows)
        text = "".join(f"{t},{float(y) * factor!r},{h}\n" for t, y, h in cells)
        return self.training_file("training.csv", f"{header}\n{text}".encode())

    def training_file(self, name, content):
        """Copy of the simulated data dir with `name` replaced by `content` bytes."""
        data = self._tmp_path / "edited_sim"
        shutil.copytree(self._sim_dir, data)
        (data / name).write_bytes(content)
        return str(data)

    def file(self, name, content):
        path = self._tmp_path / name
        path.write_bytes(content)
        return str(path)


_NOT_UTF8 = b"\xff\xfe{"
_SE_KERNEL = '{"family": "se", "sigma_f": 0.002, "length_scale": 0.01}'

# Invalid inputs that must end in exit code 2, 3 or 4, never a traceback, one
# row each: (id, exit code, argv built from an _Inputs and the output dir).
# Earlier cases have their own tests in TestFit, TestSelect and TestExperiment.
_INVALID_INPUTS = [
    ("simulate-negative-seed", 2,
     lambda i, out: ["simulate", "--seed", "-1", "--out", out]),
    ("experiment-negative-seed", 2,
     lambda i, out: ["experiment", "--reps", "1", "--seed", "-5", "--out", out]),
    ("config-negative-base-seed", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(base_seed=-3)), "--out", out]),
    ("config-negative-plan-seed", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["plans"][0].update(seed=-1)),
         "--out", out]),
    ("config-fractional-base-seed", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(base_seed=2.7)), "--out", out]),
    ("fit-infinite-sigma-n", 2,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel", _SE_KERNEL, "--sigma-n", "inf", "--out", out]),
    ("fit-se-kernel-variance-overflows", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "se", "sigma_f": 1e200, "length_scale": 0.01}', "--out", out]),
    ("fit-underflowing-length-scale", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "se", "sigma_f": 0.001, "length_scale": 1e-300}', "--out", out]),
    ("training-plan-not-an-object", 3,
     lambda i, out: [
         "select", "--data", i.training(lambda d: d.update(plan=5)), "--out", out]),
    ("training-null-sigma-n", 3,
     lambda i, out: [
         "fit", "--data", i.training(lambda d: d.update(sigma_n=None)),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("training-json-is-a-list", 3,
     lambda i, out: [
         "select", "--data", i.training_file("training.json", b"[1]"), "--out", out]),
    ("training-fractional-decimation", 3,
     lambda i, out: [
         "select", "--data", i.training(lambda d: d["plan"].update(decimation=2.5)),
         "--out", out]),
    ("training-infinite-sigma-n", 3,
     lambda i, out: [
         "fit", "--data", i.training(lambda d: d.update(sigma_n=math.inf)),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("training-csv-nan-target", 3,
     lambda i, out: [
         "fit", "--data", i.training_file("training.csv", b"t,y,true_h\n0,nan,0\n0.01,0,0\n"),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("training-csv-not-utf8", 3,
     lambda i, out: [
         "select", "--data", i.training_file("training.csv", _NOT_UTF8), "--out", out]),
    ("config-grids-not-an-object", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(grids=[1])), "--out", out]),
    ("config-bound-not-an-object", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(bound=[1])), "--out", out]),
    ("config-fractional-repetitions", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(repetitions=1.7)),
         "--out", out]),
    ("config-fractional-decimation", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["plans"][0].update(decimation=2.5)),
         "--out", out]),
    ("config-not-utf8", 3,
     lambda i, out: ["experiment", "--config", i.file("config.json", _NOT_UTF8), "--out", out]),
    ("config-infinite-bound-constant", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(bound={"a1": math.inf})),
         "--out", out]),
    ("config-delta-without-fixed-rule", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(bound={"delta": 0.05})),
         "--out", out]),
    ("simulate-k-times-m-underflows", 2,
     lambda i, out: [
         "simulate", "--m", "1e-200", "--k", "1e-200", "--c", "0", "--out", out]),
    ("config-k-times-m-underflows", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["oscillator"].update(m=1e-200, k=1e-200)),
         "--out", out]),
    ("config-undamped-oscillator", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["oscillator"].update(c=0.0)),
         "--out", out]),
    ("fit-sdof-k-times-m-underflows", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "sdof", "sigma_f": 1.0, "m": 1e-200, "c": 0.0, "k": 1e-200}', "--out", out]),
    ("fit-sdof-undamped", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "sdof", "sigma_f": 1.0, "m": 1.0, "c": 0.0, "k": 1e6}', "--out", out]),
    ("fit-sdof-m-squared-overflows", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "sdof", "sigma_f": 1.0, "m": 1e160, "c": 20.0, "k": 1e140}', "--out", out]),
    ("select-sdof-m-squared-overflows", 2,
     lambda i, out: [
         "select", "--data", i.data, "--family", "sdof", "--m", "1e160", "--k", "1e140",
         "--out", out]),
    ("select-amplitude-square-overflows", 2,
     lambda i, out: ["select", "--data", i.data, "--amp-hi", "1e308", "--out", out]),
    ("config-amplitude-square-overflows", 2,
     lambda i, out: [
         "experiment", "--config",
         i.config(lambda d: d["grids"].update(amplitude_factors=[0.1, 1e308])), "--out", out]),
    ("config-duplicate-sample-size", 3,
     lambda i, out: [
         "experiment", "--config",
         i.config(lambda d: d["plans"].append({
             "t_start": 0.0, "t_end": 0.6, "base_points": 2001, "decimation": 32,
             "snr": 10.0, "seed": 1234})),
         "--out", out]),
    ("select-zero-noise", 2,
     lambda i, out: [
         "select", "--data", i.simulated("--snr", "inf"), "--family", "sdof", "--out", out]),
    ("select-one-sample", 3,
     lambda i, out: ["select", "--data", i.truncated(1), "--out", out]),
    ("config-infinite-snr", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["plans"][0].update(snr=math.inf)),
         "--out", out]),
    ("select-negligible-noise", 2,
     lambda i, out: ["select", "--data", i.simulated("--snr", "1e308"), "--out", out]),
    ("fit-zero-noise", 2,
     lambda i, out: [
         "fit", "--data", i.training(lambda d: d.update(sigma_n=0.0)),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("fit-negligible-noise", 2,
     lambda i, out: [
         "fit", "--data", i.simulated("--seed", "5", "--decimation", "2"), "--kernel",
         '{"family": "se", "sigma_f": 0.002, "length_scale": 0.05}', "--sigma-n", "1e-9",
         "--out", out]),
    ("config-negligible-noise", 4,
     lambda i, out: [
         "experiment", "--config",
         i.config(lambda d: [plan.update(snr=1e308) for plan in d["plans"]]), "--out", out]),
    ("config-misspelt-grids-key", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d.update(grid=d.pop("grids"))),
         "--out", out]),
    ("config-misspelt-bound-key", 3,
     lambda i, out: [
         "experiment", "--config",
         i.config(lambda d: d["bound"].update(delta_rul=d["bound"].pop("delta_rule"))),
         "--out", out]),
    ("fit-kernel-not-an-object", 3,
     lambda i, out: ["fit", "--data", i.data, "--kernel", "[1]", "--out", out]),
    ("fit-kernel-file-not-utf8", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel", i.file("kernel.json", _NOT_UTF8), "--out", out]),
    ("config-boolean-mass", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["oscillator"].update(m=True)),
         "--out", out]),
    ("training-n-disagrees-with-csv", 3,
     lambda i, out: ["select", "--data", i.training(lambda d: d.update(n=5)), "--out", out]),
    ("training-unknown-key", 3,
     lambda i, out: [
         "select", "--data", i.training(lambda d: d.update(extra=1)), "--out", out]),
    ("fit-kernel-boolean-sigma-f", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "se", "sigma_f": true, "length_scale": 0.01}', "--out", out]),
    ("fit-kernel-unknown-key", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "se", "sigma_f": 0.002, "length_scale": 0.01, "bogus": 1}', "--out", out]),
    ("fit-kernel-string-number", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "se", "sigma_f": "0.002", "length_scale": 0.01}', "--out", out]),
    ("fit-sdof-kernel-variance-overflows", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel",
         '{"family": "sdof", "sigma_f": 1e154, "m": 1, "c": 0.02, "k": 1}', "--out", out]),
    ("select-training-sigma-n-square-overflows", 3,
     lambda i, out: [
         "select", "--data", i.training(lambda d: d.update(sigma_n=1e160)), "--out", out]),
    ("fit-training-sigma-n-square-overflows", 3,
     lambda i, out: [
         "fit", "--data", i.training(lambda d: d.update(sigma_n=1e160)),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("fit-sigma-n-square-overflows", 2,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel", _SE_KERNEL, "--sigma-n", "1e160", "--out", out]),
    ("select-se-two-samples", 2,
     lambda i, out: [
         "select", "--data", i.simulated("--base-points", "2", "--decimation", "1"),
         "--family", "both", "--out", out]),
    ("simulate-one-sample", 2,
     lambda i, out: ["simulate", "--decimation", "2000", "--out", out]),
    ("config-one-sample-plan", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["plans"][0].update(decimation=5000)),
         "--out", out]),
    ("config-two-sample-plan", 3,
     lambda i, out: [
         "experiment", "--config", i.config(lambda d: d["plans"][1].update(decimation=1000)),
         "--out", out]),
    ("config-negative-start-time", 3,
     lambda i, out: [
         "experiment", "--config",
         i.config(lambda d: [plan.update(t_start=-0.3) for plan in d["plans"]]), "--out", out]),
    ("select-all-zero-targets", 2,
     lambda i, out: ["select", "--data", i.scaled_targets(0.0), "--family", "both", "--out", out]),
    ("select-sdof-all-zero-targets", 2,
     lambda i, out: ["select", "--data", i.scaled_targets(0.0), "--family", "sdof", "--out", out]),
    ("select-target-squares-overflow", 2,
     lambda i, out: ["select", "--data", i.scaled_targets(1e200), "--out", out]),
    ("select-sdof-amplitude-bracket-overflows", 2,
     lambda i, out: ["select", "--data", i.data, "--family", "sdof", "--amp-hi", "1e308",
                     "--out", out]),
    ("select-training-plan-decimation-edited", 3,
     lambda i, out: [
         "select", "--data", i.training(lambda d: d["plan"].update(decimation=4)),
         "--family", "sdof", "--out", out]),
    ("fit-training-plan-decimation-edited", 3,
     lambda i, out: [
         "fit", "--data", i.training(lambda d: d["plan"].update(decimation=4)),
         "--kernel", _SE_KERNEL, "--out", out]),
    ("select-training-time-one-ulp-off", 3,
     lambda i, out: [
         "select", "--data", i.retimed(5, lambda t: math.nextafter(t, math.inf)),
         "--out", out]),
    ("fit-training-negative-time", 3,
     lambda i, out: [
         "fit", "--data", i.retimed(0, lambda t: -0.001), "--kernel", _SE_KERNEL,
         "--out", out]),
]
_ROWS = {row[0]: row[1:] for row in _INVALID_INPUTS}


@pytest.mark.parametrize(
    "expected,argv", [row[1:] for row in _INVALID_INPUTS], ids=[row[0] for row in _INVALID_INPUTS]
)
def test_invalid_input_exits_with_its_code(sim_dir, tmp_path, golden_dir, capsys, expected, argv):
    # an exception escaping main fails the test; every row maps to 2, 3 or 4
    out = tmp_path / "o"
    code = main(argv(_Inputs(sim_dir, tmp_path, golden_dir), str(out)))
    assert code in (2, 3, 4)
    assert code == expected
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("name,cause", [
    ("select-training-sigma-n-square-overflows", "sigma_n"),
    ("fit-training-sigma-n-square-overflows", "sigma_n"),
    ("fit-sigma-n-square-overflows", "sigma_n"),
    ("fit-zero-noise", "rounding level"),
    ("fit-negligible-noise", "rounding level"),
    ("select-se-two-samples", "the SE grid needs at least three training points"),
    ("simulate-one-sample", "must keep at least 2 samples, got 1"),
    ("config-one-sample-plan", "must keep at least 2 samples, got 1"),
    ("config-two-sample-plan", "the SE grid needs at least three training points, got 2"),
    ("config-negative-start-time", "t_start must be >= 0"),
    ("select-all-zero-targets", "RMS(y)"),
    ("select-sdof-all-zero-targets", "RMS(y)"),
    ("select-target-squares-overflow", "RMS(y)"),
    ("select-sdof-amplitude-bracket-overflows", "the sigma_f range must be two finite numbers"),
    ("select-one-sample", "1 times are not the 63 sample times of the plan in training.json"),
    ("select-training-plan-decimation-edited",
     "63 times are not the 251 sample times of the plan in training.json"),
    ("fit-training-plan-decimation-edited",
     "63 times are not the 251 sample times of the plan in training.json"),
    ("select-training-time-one-ulp-off",
     "63 times are not the 63 sample times of the plan in training.json"),
    ("fit-training-negative-time", "63 times are not the 63 sample times of the plan"),
])
def test_invalid_input_names_its_cause(sim_dir, tmp_path, golden_dir, capsys, name, cause):
    expected, argv = _ROWS[name]
    assert main(argv(_Inputs(sim_dir, tmp_path, golden_dir), str(tmp_path / "o"))) == expected
    assert cause in capsys.readouterr().err


def test_fit_reports_an_overflowing_training_mse_as_inf(sim_dir, tmp_path, golden_dir, capsys):
    # the residuals' squares overflow; fit still succeeds and warns of nothing
    data = _Inputs(sim_dir, tmp_path, golden_dir).scaled_targets(1e200)
    out = tmp_path / "fit"
    assert main(["fit", "--data", data, "--kernel", _SE_KERNEL, "--out", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text())["train_mse"] == "inf"
    assert capsys.readouterr().err == ""


def test_sdof_selects_on_two_samples(sim_dir, tmp_path, golden_dir, capsys):
    # only the SE grid needs a third point
    data = _Inputs(sim_dir, tmp_path, golden_dir).simulated("--base-points", "2", "--decimation", "1")
    assert main(["select", "--data", data, "--family", "sdof", "--out", str(tmp_path / "o")]) == 0


def _scaled_training_set(sim, out, factor):
    """Copy of the data dir `sim` with y, true_h and sigma_n all times `factor`."""
    header, *rows = (sim / "training.csv").read_text().splitlines()
    cells = (row.split(",") for row in rows)
    text = "".join(f"{t},{float(y) * factor!r},{float(h) * factor!r}\n" for t, y, h in cells)
    meta = json.loads((sim / "training.json").read_text())
    meta["sigma_n"] *= factor
    out.mkdir()
    (out / "training.csv").write_text(f"{header}\n{text}")
    (out / "training.json").write_text(json.dumps(meta))
    return out


def test_select_picks_the_same_winner_on_data_scaled_by_1e_150(tmp_path, capsys):
    # the winner's bound, 4.1e-308 at 1e-150, is still a normal float; at
    # 1e-155 and 1e-157 the squares of y are subnormal, and the search
    # divides y by a power of two before it squares
    sim = tmp_path / "sim"
    assert main(["simulate", "--decimation", "16", "--seed", "3", "--out", str(sim)]) == 0
    winners = []
    for factor in (1.0, 1e-150, 1e-155, 1e-157):
        data = _scaled_training_set(sim, tmp_path / f"x{factor:g}", factor)
        assert main(["select", "--data", str(data), "--out", str(data / "sel")]) == 0
        best = json.loads((data / "sel" / "best.json").read_text())
        spec, report = best["best_spec"], best["best_report"]
        winners.append((best["family"], spec["sigma_f"] / factor, report["h"]))
    (family, sigma_f, h), *scaled = winners
    for scaled_family, scaled_sigma_f, scaled_h in scaled:
        assert scaled_family == family
        assert scaled_sigma_f == pytest.approx(sigma_f, rel=1e-12)
        assert scaled_h == pytest.approx(h, rel=1e-12)


@pytest.mark.parametrize(
    "factor,cause", [(1e-158, "above the rounding level"), (1e-160, "RMS(y)")]
)
def test_select_rejects_data_scaled_out_of_the_float_range(tmp_path, capsys, factor, cause):
    # sigma_n^2 underflows to zero first, at 1e-158; RMS(y) from 1e-159 on
    sim = tmp_path / "sim"
    assert main(["simulate", "--decimation", "16", "--seed", "3", "--out", str(sim)]) == 0
    data = _scaled_training_set(sim, tmp_path / "scaled", factor)
    capsys.readouterr()
    assert main(["select", "--data", str(data), "--out", str(tmp_path / "sel")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and cause in lines[0]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_numeric_failure_maps_to_four(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise SingularSystemError("synthetic numeric failure")

        monkeypatch.setattr(cli_module, "cmd_simulate", boom)
        assert main(["simulate", "--out", str(tmp_path / "s")]) == 4
        assert "synthetic numeric failure" in capsys.readouterr().err

    def test_non_finite_kernel_column_maps_to_four(self, sim_dir, tmp_path, monkeypatch, capsys):
        # a lag column that overflows must stop before LAPACK, whose wrapper
        # raised a plain ValueError on it, with the numeric-failure code
        def overflowing(spec, t, t_prime):
            return np.full(np.broadcast(t, t_prime).shape, np.inf)

        monkeypatch.setattr(smoother_module, "kernel_eval", overflowing)
        assert main(["select", "--data", str(sim_dir), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == "error: the 63x63 Gram matrix has non-finite entries\n"

    def test_failed_eigendecomposition_maps_to_four(self, sim_dir, tmp_path, monkeypatch, capsys):
        # a divide and conquer that does not converge ends the search with one
        # error line, no traceback
        def broken(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        assert main(["select", "--data", str(sim_dir), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == "error: the 32x32 eigendecomposition did not converge\n"

    @pytest.mark.parametrize("solution,message", [
        (None, "cannot solve the 63x63 Toeplitz system: synthetic singular principal minor"),
        (np.nan, "the 63x63 Toeplitz system gave non-finite weights"),
        (1e200, "the 63x63 Toeplitz system gave no finite edf"),
    ], ids=["linalg-error", "nan", "overflow"])
    def test_failed_fit_maps_to_four(
        self, sim_dir, tmp_path, monkeypatch, capsys, solution, message
    ):
        # a failed Levinson solve, non-finite weights and an x whose trace
        # is out of range each end fit with one error line, no traceback
        def solve_toeplitz(c, b, **kw):
            if solution is None:
                raise np.linalg.LinAlgError("synthetic singular principal minor")
            return np.full_like(b, solution)

        monkeypatch.setattr(scipy.linalg, "solve_toeplitz", solve_toeplitz)
        capsys.readouterr()
        argv = ["fit", "--data", str(sim_dir), "--kernel", _SE_KERNEL, "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_memory_error_maps_to_four(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli_module, "cmd_simulate", boom)
        assert main(["simulate", "--out", str(tmp_path / "s")]) == 4
        assert capsys.readouterr().err == "error: Unable to allocate 745. GiB for an array\n"

    def test_one_parser_serves_repeated_calls(self, sim_dir, tmp_path, golden_dir, capsys):
        fit = ["fit", "--data", str(sim_dir), "--out", str(tmp_path / "o"), "--kernel"]
        negligible_noise = _ROWS["config-negligible-noise"][1]
        calls = {
            2: ["simulate", "--bogus"],
            3: [*fit, "{not json"],
            4: negligible_noise(_Inputs(sim_dir, tmp_path, golden_dir), str(tmp_path / "o")),
        }
        cli_module._parser.cache_clear()
        codes = [main(argv) for _ in range(3) for argv in calls.values()]
        assert codes == [*calls] * 3
        assert cli_module._parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        check = "import srmks.cli as cli; assert cli._parser.cache_info().currsize == 0"
        assert subprocess.run([sys.executable, "-c", check]).returncode == 0

    def test_module_entry_point(self, tmp_path):
        # end to end through a real interpreter
        proc = subprocess.run(
            [sys.executable, "-m", "srmks.cli", "simulate", "--out", str(tmp_path / "s")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "n=63" in proc.stdout


# Every command, run in its own directory, then the sha256 of every file it wrote:
# fit at n = 1001 (SE and SDOF), select --family both at n = 126, the golden study.
_BLAS_THREAD_RUN = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
from srmks.cli import main
sdof = {"family": "sdof", "sigma_f": 5.0, "m": 1.0, "c": 20.0, "k": 1e6}
runs = [
    ["simulate", "--decimation", "1", "--out", "large"],
    ["fit", "--data", "large", "--kernel", '{"family": "se", "sigma_f": 0.002, "length_scale": 0.01}',
     "--out", "fit_se"],
    ["fit", "--data", "large", "--kernel", json.dumps(sdof), "--out", "fit_sdof"],
    ["simulate", "--decimation", "8", "--out", "mid"],
    ["select", "--data", "mid", "--family", "both", "--out", "select"],
    ["experiment", "--config", sys.argv[1], "--out", "study"],
]
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
files = sorted(p for p in Path(".").rglob("*") if p.is_file())
print(json.dumps({str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}))
"""


# the directory that holds the package under test, for interpreters run elsewhere
_PACKAGE_ROOT = str(Path(cli_module.__file__).resolve().parents[1])


def test_outputs_do_not_depend_on_blas_threads(tmp_path, golden_dir):
    # fit's weights, fitted values and edf on uniform times, a search's
    # spectra and the study's refit must not change with the BLAS thread
    # count; off uniform times fit's Cholesky weights do
    digests = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = dict(
            os.environ, PYTHONPATH=_PACKAGE_ROOT, OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_THREAD_RUN, str(golden_dir / "config_ref.json")],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert {"fit_se/predictions.csv", "fit_sdof/fit.json", "select/best.json",
            "study/records.csv"} <= set(digests[0])
    assert digests[0] == digests[1]


# Every command that never fits, then one that does, all in one fresh interpreter.
_SCIPY_RUN = """
import io, sys
from contextlib import redirect_stdout
from srmks.cli import main
fitting = {
    "fit": ["fit", "--data", "sim", "--kernel", '{"family": "se", "sigma_f": 0.002, "length_scale": 0.01}',
            "--out", "fit"],
    "predictions": ["plot", "--records", "study/records.csv", "--kind", "predictions", "--n", "63",
                    "--iteration", "0", "--out", "figs"],
}[sys.argv[1]]
runs = [
    ["simulate", "--out", "sim"],
    ["select", "--data", "sim", "--family", "both", "--out", "select"],
    ["experiment", "--reps", "1", "--out", "study"],
    ["plot", "--records", "study/records.csv", "--kind", "boxplot", "--out", "figs"],
    ["plot", "--records", "study/records.csv", "--kind", "complexity", "--out", "figs"],
]
with redirect_stdout(io.StringIO()):
    for argv in runs:
        assert main(argv) == 0, argv
        assert "scipy" not in sys.modules, f"{argv[0]} loaded scipy"
    assert main(fitting) == 0, fitting
assert "scipy" in sys.modules, f"{fitting[0]} fitted without scipy"
"""


@pytest.mark.parametrize("fitting", ["fit", "predictions"])
def test_only_fitting_loads_scipy(tmp_path, fitting):
    # every eigendecomposition goes through numpy; scipy solves fit's system
    # and is imported at the first fit
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_RUN, fitting], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=_PACKAGE_ROOT), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
