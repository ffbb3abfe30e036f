"""Command-line entry point.

Subcommands: simulate (noisy impulse-response training sets), fit (one
kernel smoother on stored data), select (exhaustive SRM search per kernel
family), experiment (the full Monte-Carlo study) and plot (SVG figures
from study records). Every run writes its resolved parameters to a
config.json inside the output directory (plot_config.json for plot, so that
plotting into an experiment's directory keeps the config.json that
plot --kind predictions reads), and reruns with identical flags rewrite
identical bytes.

Exit codes: 0 success, 2 usage error, 3 I/O or input-file parse error,
4 numeric failure. An input file that cannot be read (OSError) or decoded
and parsed (ValueError, the only error the readers of ioutil raise) exits 3.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, SrmksError
from .experiment import (
    ExperimentConfig,
    default_config,
    records_from_csv,
    records_to_csv,
    run_experiment,
    summarize,
)
from .figures import boxplot_svg, complexity_svg, predictions_svg
from .ioutil import csv_text, fmt_float, json_float, json_text
from .kernels import KernelSpec, kernel_from_json_dict, kernel_to_json_dict
from .oscillator import (
    OscillatorParams,
    SamplingPlan,
    generate_training_set,
    training_set_from_files,
    training_set_to_csv,
    training_set_to_json,
)
from .risk import empirical_risk
from .smoother import fit as fit_smoother
from .srm import (
    FAMILIES,
    GridSettings,
    compare_structures,
    selection_to_json,
    srm_select,
    trace_to_csv,
)

__all__ = ["main", "build_parser"]


class _FileError(Exception):
    """Unreadable or unparseable input file; maps to exit code 3."""


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _parse(document: str, parse, *sources: Path | str):
    """parse(*texts), where each source is a Path read as UTF-8 or inline text.

    A read, decode or parse failure raises _FileError naming `document`.
    """
    try:
        texts = [s.read_text(encoding="utf-8") if isinstance(s, Path) else s for s in sources]
        return parse(*texts)
    except (OSError, ValueError) as exc:
        raise _FileError(f"cannot load {document}: {exc}") from exc


def _provenance(path: Path, command: str, resolved: dict, name: str = "config.json") -> None:
    doc = {"command": command, **resolved}
    _write_text(path / name, json_text(doc))


def _load_training(data_dir: Path):
    return _parse(
        f"training set in {data_dir}", training_set_from_files,
        data_dir / "training.csv", data_dir / "training.json",
    )


def cmd_simulate(args) -> int:
    params = OscillatorParams(m=args.m, c=args.c, k=args.k)
    plan = SamplingPlan(
        t_start=0.0,
        t_end=args.t_end,
        base_points=args.base_points,
        decimation=args.decimation,
        snr=args.snr,
        seed=args.seed,
    )
    data = generate_training_set(params, plan)
    out = Path(args.out)
    _write_text(out / "training.csv", training_set_to_csv(data))
    _write_text(out / "training.json", training_set_to_json(data, plan))
    _provenance(out, "simulate", {"oscillator": params.to_json_dict(), "plan": plan.to_json_dict()})
    print(f"n={data.n} sigma_n={fmt_float(data.sigma_n)}")
    return 0


def _parse_kernel(arg: str) -> KernelSpec:
    # isfile, unlike Path.exists, is False for inline JSON too long to be a path
    is_file = os.path.isfile(arg)
    return _parse(
        f"kernel spec from {arg if is_file else 'inline'}",
        lambda text: kernel_from_json_dict(json.loads(text)),
        Path(arg) if is_file else arg,
    )


def cmd_fit(args) -> int:
    data, plan = _load_training(Path(args.data))
    kernel = _parse_kernel(args.kernel)
    sigma_n = args.sigma_n if args.sigma_n is not None else data.sigma_n
    model = fit_smoother(kernel, data, sigma_n)
    mse = empirical_risk(data.y, model.fitted)
    out = Path(args.out)
    _write_text(
        out / "predictions.csv", csv_text("t,y,prediction", [data.t, data.y, model.fitted])
    )
    doc = {
        "kernel": kernel_to_json_dict(kernel),
        "sigma_n": json_float(sigma_n),
        "edf": json_float(model.edf),
        "train_mse": json_float(mse),
        "n": data.n,
    }
    _write_text(out / "fit.json", json_text(doc))
    _provenance(out, "fit", {
        "data": str(args.data),
        "kernel": kernel_to_json_dict(kernel),
        "sigma_n": json_float(sigma_n),
        "plan": plan.to_json_dict(),
    })
    print(f"edf={fmt_float(model.edf)} train_mse={fmt_float(mse)}")
    return 0


def cmd_select(args) -> int:
    data, plan = _load_training(Path(args.data))
    params = OscillatorParams(m=args.m, c=args.c, k=args.k)
    settings = GridSettings(
        se_sigma_count=args.se_sigma_count,
        se_length_count=args.se_length_count,
        sdof_sigma_count=args.sdof_sigma_count,
        amplitude_factors=(args.amp_lo, args.amp_hi),
    )
    families = FAMILIES if args.family == "both" else [args.family]
    out = Path(args.out)
    results, selections = [], {}
    for family in families:
        result = srm_select(settings.family_grid(family, data, params), data)
        results.append(result)
        selections[family] = selection_to_json(result)
        _write_text(out / f"selection_{family}.json", selections[family])
        _write_text(out / f"trace_{family}.csv", trace_to_csv(result))
    winner = compare_structures(results)
    _write_text(out / "best.json", selections[winner.family])
    _provenance(out, "select", {
        "data": str(args.data),
        "family": args.family,
        "oscillator": params.to_json_dict(),
        **settings.to_json_dict(),
        "plan": plan.to_json_dict(),
    })
    report = winner.best_report
    print(
        f"winner family={winner.family} bound={fmt_float(report.bound)} "
        f"h={fmt_float(report.h)} degenerate={winner.degenerate}"
    )
    return 0


def _parse_config(path: Path) -> ExperimentConfig:
    return _parse(f"config {path}", ExperimentConfig.from_json, path)


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = default_config() if args.config is None else _parse_config(Path(args.config))
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    return cfg


def _median_bound(summary, n: int, family: str) -> float:
    median = summary.get(n, family, "bound").median
    # summarize builds a cell only from records, so no finite median means all are +inf
    return math.inf if median is None else median


def cmd_experiment(args) -> int:
    cfg = _load_experiment_config(args)
    records = run_experiment(cfg)
    summary = summarize(records)
    out = Path(args.out)
    _write_text(out / "records.csv", records_to_csv(records))
    _write_text(out / "summary.json", summary.to_json())
    _write_text(out / "config.json", cfg.to_json())
    for n in summary.sample_sizes:
        print(f"n={n}", *(
            f"{family}_median_bound={fmt_float(_median_bound(summary, n, family))}"
            for family in FAMILIES
        ))
    return 0


def _load_records(path: Path, params: OscillatorParams | None = None):
    return _parse(f"records {path}", lambda text: records_from_csv(text, params), path)


def cmd_plot(args) -> int:
    records_path = Path(args.records)
    out = Path(args.out)
    if args.kind == "boxplot":
        name = "boxplot.svg"
        svg = boxplot_svg(_load_records(records_path))
    elif args.kind == "complexity":
        name = "complexity.svg"
        svg = complexity_svg(_load_records(records_path))
    else:
        # the oscillator in config.json rebuilds the sdof winners for the refit
        cfg = _parse_config(records_path.parent / "config.json")
        records = _load_records(records_path, cfg.params)
        n = args.n if args.n is not None else max(r.sample_size for r in records)
        svg = predictions_svg(cfg, records, sample_size=n, iteration=args.iteration)
        name = f"predictions_n{n}_iter{args.iteration}.svg"
    _write_text(out / name, svg)
    _provenance(
        out,
        "plot",
        {
            "records": str(args.records),
            "kind": args.kind,
            "n": args.n,
            "iteration": args.iteration,
            "output": name,
        },
        name="plot_config.json",
    )
    print(f"wrote {out / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srmks",
        description="SRM model selection for kernel smoothers on oscillator data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ref = default_config()
    osc, plan, grids = ref.params, ref.plans[0], GridSettings()

    p_sim = sub.add_parser("simulate", help="generate a noisy impulse-response training set")
    p_sim.add_argument("--m", type=float, default=osc.m, help="mass")
    p_sim.add_argument("--c", type=float, default=osc.c, help="damping coefficient")
    p_sim.add_argument("--k", type=float, default=osc.k, help="stiffness")
    p_sim.add_argument("--t-end", type=float, default=plan.t_end, help="end of the time window (s)")
    p_sim.add_argument(
        "--base-points", type=int, default=plan.base_points, help="dense-grid point count"
    )
    p_sim.add_argument(
        "--decimation", type=int, default=plan.decimation, help="keep every d-th grid point"
    )
    p_sim.add_argument("--snr", type=float, default=plan.snr, help="signal-to-noise power ratio")
    p_sim.add_argument("--seed", type=int, default=0, help="noise seed")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="fit one kernel smoother on stored training data")
    p_fit.add_argument("--data", required=True, help="directory from a simulate run")
    p_fit.add_argument("--kernel", required=True, help="kernel JSON file or inline JSON")
    p_fit.add_argument("--sigma-n", type=float, default=None, help="override noise level")
    p_fit.add_argument("--out", required=True, help="output directory")

    p_sel = sub.add_parser("select", help="run the SRM search on stored training data")
    p_sel.add_argument("--data", required=True, help="directory from a simulate run")
    p_sel.add_argument("--family", choices=[*FAMILIES, "both"], default="both")
    p_sel.add_argument("--m", type=float, default=osc.m, help="oscillator mass (sdof grid)")
    p_sel.add_argument("--c", type=float, default=osc.c, help="oscillator damping (sdof grid)")
    p_sel.add_argument("--k", type=float, default=osc.k, help="oscillator stiffness (sdof grid)")
    p_sel.add_argument("--se-sigma-count", type=int, default=grids.se_sigma_count)
    p_sel.add_argument("--se-length-count", type=int, default=grids.se_length_count)
    p_sel.add_argument("--sdof-sigma-count", type=int, default=grids.sdof_sigma_count)
    lo, hi = grids.amplitude_factors
    p_sel.add_argument("--amp-lo", type=float, default=lo, help="lower amplitude factor")
    p_sel.add_argument("--amp-hi", type=float, default=hi, help="upper amplitude factor")
    p_sel.add_argument("--out", required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="run the Monte-Carlo study")
    p_exp.add_argument("--config", default=None, help="experiment config JSON")
    p_exp.add_argument("--reps", type=int, default=None, help="override repetition count")
    p_exp.add_argument("--seed", type=int, default=None, help="override base seed")
    p_exp.add_argument("--out", required=True, help="output directory")

    p_plot = sub.add_parser("plot", help="render SVG figures from study records")
    p_plot.add_argument("--records", required=True, help="records.csv from an experiment run")
    p_plot.add_argument("--kind", choices=["boxplot", "predictions", "complexity"], required=True)
    p_plot.add_argument("--n", type=int, default=None, help="sample size (predictions)")
    p_plot.add_argument("--iteration", type=int, default=0, help="iteration (predictions)")
    p_plot.add_argument("--out", required=True, help="output directory")

    return parser


_parser = functools.cache(build_parser)  # built by the first main call, reused by the later ones


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with an int status
        return exc.code
    try:
        # looked up on every call: the parser, built once, names only the command
        return globals()[f"cmd_{args.command}"](args)
    except (_FileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SrmksError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
