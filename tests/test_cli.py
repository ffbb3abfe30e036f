import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import srmks.cli as cli_module
from srmks.cli import main
from srmks.errors import SingularSystemError
from srmks.experiment import ExperimentConfig, GridSettings, records_from_csv
from srmks.figures import predictions_svg
from srmks.oscillator import OscillatorParams, SamplingPlan


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

    def test_zero_noise_singular_system_is_numeric_failure(self, sim_dir, tmp_path, capsys):
        kernel = '{"family": "se", "sigma_f": 1.0, "length_scale": 100.0}'
        code = main([
            "fit", "--data", str(sim_dir), "--kernel", kernel,
            "--sigma-n", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 4
        assert "smoother system" in capsys.readouterr().err


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
    ("fit-non-finite-gram", 4,
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
    ("fit-kernel-not-an-object", 3,
     lambda i, out: ["fit", "--data", i.data, "--kernel", "[1]", "--out", out]),
    ("fit-kernel-file-not-utf8", 3,
     lambda i, out: [
         "fit", "--data", i.data, "--kernel", i.file("kernel.json", _NOT_UTF8), "--out", out]),
]


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

    def test_module_entry_point(self, tmp_path):
        # end to end through a real interpreter
        proc = subprocess.run(
            [sys.executable, "-m", "srmks.cli", "simulate", "--out", str(tmp_path / "s")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "n=63" in proc.stdout
