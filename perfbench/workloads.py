"""The benchmark's workloads, the closed-loop client that runs them and the reference check.

run.py starts this file once per run, in a fresh process with BLAS pinned to
one thread, and reads the JSON it writes to ``--result``:

    python3 perfbench/workloads.py --workload study --seed 1 --seconds 30 \
        --trace 0 --work DIR --result FILE

``--record`` instead runs every pool item once and rewrites
``perfbench/reference/<workload>.json``; it is only run on the commit whose
outputs are the reference.

Each workload drives ``srmks.cli.main`` in-process as one closed-loop client:
the next call starts when the previous one returns. Inputs come from a fixed
pool whose reference outputs are stored; ``--seed`` picks the order in which
the pool is walked, so the same seed gives the same inputs and every input
has a reference. The pool is walked in rounds that hold one item of every
size group, so each run sees the same mix of sizes whatever the seed. A
round is always finished, and only whole rounds are measured. A run that
completes more rounds than the pool holds reuses items (reported as
``pool_wrapped``).

Per-layer metric -> the end-to-end metric it should move (workload):

    cli.self_s                    select p50_ms (select-oneshot), fit p50_ms (fit-large-n;
                                  predictions.csv is written by the CLI)
    oscillator.*_s                small everywhere; no movement unless targeted
    kernels.*                     fit p50_ms and p90_ms (fit-large-n), ops_per_s (study)
    smoother.*                    ops_per_s (study), select p50_ms (select-oneshot); fit
                                  p90_ms (fit-large-n) only if fit itself changes
    risk.*                        select p50_ms at small n once decompositions are gone
    srm.*                         ops_per_s (study), select p50_ms (select-oneshot);
                                  candidates_per_decomposition is 1.0 on select-oneshot
                                  at the seed and 0.993 on study, where experiment refits
                                  each winner and plot predictions refits two
    experiment.*                  ops_per_s (study)
    figures.*                     ops_per_s (study), small share
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from srmks import cli

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
# the oscillator every workload simulates and every SDOF kernel assumes
OSCILLATOR = {"m": 1.0, "c": 20.0, "k": 1e6}
POOL_SEED = 20250114
REL_TOL = 1e-9  # the golden tolerance
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_SHARE = 0.04  # share of a run's time spent in the machine-speed probe


def _rng(*key):
    return np.random.default_rng([POOL_SEED, *key])


def _simulate_argv(n, decimations, t_range, key, seed, out):
    """`srmks simulate` arguments for n samples with a key-specific grid."""
    rng = _rng(*key)
    dec = int(rng.choice(decimations))
    base_points = (n - 1) * dec + 1 + int(rng.integers(dec))
    t_end = float(rng.uniform(*t_range))
    snr = float(10 ** rng.uniform(math.log10(5.0), math.log10(20.0)))
    return [
        "simulate", "--t-end", repr(t_end), "--base-points", str(base_points),
        "--decimation", str(dec), "--snr", repr(snr), "--seed", str(seed), "--out", str(out),
    ]


class Study:
    """`srmks experiment` on the reference study, then `srmks plot` for the
    boxplot, complexity and predictions figures.

    Why: this is the paper's own computation; every repetition searches the
    same sample times, so reuse of a decomposition across repetitions shows
    here and only here, and it is the one workload that exercises
    experiment's CSV/JSON output and the figures. Oscillator m=1, c=20,
    k=1e6; plans n = 63, 126, 251; default grids and bound; only the
    repetition count is reduced. An operation is a study cell (plan x
    repetition); one pool item is one experiment of ``REPS`` repetitions.
    """

    name = "study"
    # experiment's default pool has os.cpu_count() threads; the probe uses up to 2
    probe_threads = min(os.cpu_count() or 1, 2)
    REPS = 2
    DECIMATIONS = (16, 8, 4)
    ITEMS = 16

    def keys(self):
        return [f"base{7000 + 2 * j}" for j in range(self.ITEMS)]

    def schedule(self, rng):
        order = rng.sample(self.keys(), self.ITEMS)
        r = 0
        while True:
            yield [order[r % self.ITEMS]], r >= self.ITEMS
            r += 1

    def units(self, key):
        return self.REPS * len(self.DECIMATIONS)

    def config(self, key):
        base_seed = int(key[len("base"):])
        plans = [
            {"t_start": 0.0, "t_end": 0.3, "base_points": 1001, "decimation": d,
             "snr": 10.0, "seed": base_seed}
            for d in self.DECIMATIONS
        ]
        return {
            "oscillator": dict(OSCILLATOR), "plans": plans, "repetitions": self.REPS,
            "base_seed": base_seed,
            "grids": {"se_sigma_count": 10, "se_length_count": 30,
                      "sdof_sigma_count": 30, "amplitude_factors": [0.1, 10.0]},
            "bound": {"a1": 1.0, "a2": 1.0, "c": 1.0, "delta": None,
                      "delta_rule": "four_over_sqrt_n"},
        }

    def prepare(self, key, d):
        cfg = d / "config_in.json"
        cfg.write_text(json.dumps(self.config(key), indent=2) + "\n", encoding="utf-8")
        exp, fig = d / "exp", d / "fig"
        records = str(exp / "records.csv")
        return [
            ["experiment", "--config", str(cfg), "--out", str(exp)],
            ["plot", "--records", records, "--kind", "boxplot", "--out", str(fig)],
            ["plot", "--records", records, "--kind", "complexity", "--out", str(fig)],
            ["plot", "--records", records, "--kind", "predictions", "--out", str(fig)],
        ]

    def observe(self, key, d):
        exp, fig = d / "exp", d / "fig"
        lines = (exp / "records.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cells: dict[str, list] = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            record = {
                "family": row["family"],
                "sigma_f": float(row["sigma_f"]),
                "length_scale": float(row["length_scale"]) if row["length_scale"] else None,
                **{f: float(row[f]) for f in ("emp_risk", "h", "bound", "true_mse")},
            }
            cells.setdefault(f"n{row['n']}-it{row['iteration']}", []).append(record)
        svgs = sorted(p.name for p in fig.glob("*.svg"))
        return {
            "cells": cells,
            "summary": json.loads((exp / "summary.json").read_text(encoding="utf-8")),
            "config": json.loads((exp / "config.json").read_text(encoding="utf-8")),
            "svg": {name: _svg_numbers((fig / name).read_text(encoding="utf-8")) for name in svgs},
        }

    def check(self, key, obs, ref):
        """Failed cells: each cell whose records disagree, or every cell if a
        study-wide output (summary, config, figures) disagrees."""
        errors = []
        _compare(sorted(obs["cells"]), sorted(ref["cells"]), "cells", errors)
        _compare(obs["summary"], ref["summary"], "summary", errors)
        _compare(obs["config"], ref["config"], "config", errors)
        _compare(sorted(obs["svg"]), sorted(ref["svg"]), "svg", errors)
        for name in set(obs["svg"]) & set(ref["svg"]):
            _compare_svg(obs["svg"][name], ref["svg"][name], name, errors)
        if errors:
            return self.units(key), errors
        failed = 0
        for cell, records in ref["cells"].items():
            cell_errors = []
            _compare(obs["cells"][cell], records, cell, cell_errors)
            failed += 1 if cell_errors else 0
            errors.extend(cell_errors)
        return failed, errors


class SelectOneshot:
    """A series of `srmks select --family both` calls, each on its own
    training set.

    Why: the user who brings one data set; no two calls share sample times,
    so only reuse within a grid (sigma_f scaling) can help, the fixed cost
    per candidate and the trace JSON/CSV writes carry a large share at small
    n, and candidates are scored with vc_bound_reduced (study goes through
    vc_bound_general). Each set is simulated just before its call, with its
    own t_end, base_points, decimation in {8, 16}, SNR and noise seed. Five size
    groups, so p50 is the middle of the n = 63 group and p90 the middle of
    the n = 126 group rather than a boundary between two groups.
    """

    name = "select-oneshot"
    probe_threads = 1
    LEVELS = (32, 48, 63, 95, 126)
    VARIANTS = 48

    def keys(self):
        return [f"n{n}-v{v}" for n in self.LEVELS for v in range(self.VARIANTS)]

    def schedule(self, rng):
        orders = {n: rng.sample(range(self.VARIANTS), self.VARIANTS) for n in self.LEVELS}
        r = 0
        while True:
            levels = rng.sample(self.LEVELS, len(self.LEVELS))
            v = r % self.VARIANTS
            yield [f"n{n}-v{orders[n][v]}" for n in levels], r >= self.VARIANTS
            r += 1

    def units(self, key):
        return 1

    def prepare(self, key, d):
        n, v = (int(part[1:]) for part in key.split("-"))
        level = self.LEVELS.index(n)
        data = d / "data"
        _run_setup(_simulate_argv(n, (8, 16), (0.15, 0.4), (1, level, v),
                                  10_000 + 100 * level + v, data))
        return [["select", "--data", str(data), "--family", "both", "--out", str(d / "sel")]]

    def observe(self, key, d):
        out = d / "sel"
        best = json.loads((out / "best.json").read_text(encoding="utf-8"))
        obs = {"best": {k: best[k] for k in ("family", "best_spec")}}
        for fam in ("se", "sdof"):
            sel = json.loads((out / f"selection_{fam}.json").read_text(encoding="utf-8"))
            specs = [entry["spec"] for entry in sel["trace"]]
            reports = [entry["report"] for entry in sel["trace"]]
            bounds = [float(r["bound"]) for r in reports]
            csv_rows = (out / f"trace_{fam}.csv").read_text(encoding="utf-8").count("\n") - 1
            obs[fam] = {
                "degenerate": sel["degenerate"],
                "best_spec": sel["best_spec"],
                "best_report": sel["best_report"],
                "candidates": len(reports),
                "csv_rows": csv_rows,
                "winner_index": specs.index(sel["best_spec"]) if sel["best_spec"] in specs else -1,
                "clipped": sum(bool(r["clipped"]) for r in reports),
                "sum_h": math.fsum(float(r["h"]) for r in reports),
                "sum_empirical_risk": math.fsum(float(r["empirical_risk"]) for r in reports),
                "sum_finite_bound": math.fsum(b for b in bounds if math.isfinite(b)),
                "rows": {str(i): [float(reports[i]["h"]), float(reports[i]["empirical_risk"]),
                                  bounds[i], bool(reports[i]["clipped"])]
                         for i in _sample_indices(len(reports), 6)},
            }
        return obs

    def check(self, key, obs, ref):
        errors = []
        _compare(obs, ref, "", errors)
        return (1 if errors else 0), errors


class FitLargeN:
    """A series of `srmks fit` calls, each fitting one SE or SDOF kernel to
    its own training set at n = 251, 501 or 1001.

    Why: no grid, so neither kind of reuse applies; the time is O(n^3) LAPACK
    work and O(n^2) kernel evaluation, so this catches a change that speeds
    up selection by slowing down a single fit, and it covers scaling in n up
    to 1001. A round holds five (family, n) groups, so p50 is the middle of
    the SDOF n = 501 group and p90 the middle of the slowest group.
    """

    name = "fit-large-n"
    probe_threads = 1
    GROUPS = (("sdof", 251), ("se", 501), ("sdof", 501), ("se", 1001), ("sdof", 1001))
    VARIANTS = 64

    def keys(self):
        return [f"{fam}{n}-v{v}" for fam, n in self.GROUPS for v in range(self.VARIANTS)]

    def schedule(self, rng):
        orders = {g: rng.sample(range(self.VARIANTS), self.VARIANTS) for g in self.GROUPS}
        r = 0
        while True:
            groups = rng.sample(self.GROUPS, len(self.GROUPS))
            v = r % self.VARIANTS
            yield [f"{fam}{n}-v{orders[(fam, n)][v]}" for fam, n in groups], r >= self.VARIANTS
            r += 1

    def units(self, key):
        return 1

    def kernel(self, fam, group, v):
        rng = _rng(3, group, v)
        if fam == "se":
            return {"family": "se", "sigma_f": float(10 ** rng.uniform(-4.0, -3.0)),
                    "length_scale": float(10 ** rng.uniform(-3.0, -1.7))}
        # the SDOF output amplitude is sigma_f / sqrt(4 m^2 zeta omega_n^3) ~ sigma_f / 6325
        return {"family": "sdof", "sigma_f": float(10 ** rng.uniform(-0.2, 0.8)), **OSCILLATOR}

    def prepare(self, key, d):
        head, v = key.split("-v")
        fam = head.rstrip("0123456789")
        n, v = int(head[len(fam):]), int(v)
        group = self.GROUPS.index((fam, n))
        data = d / "data"
        _run_setup(_simulate_argv(n, (1, 2, 4), (0.2, 0.4), (2, group, v),
                                  20_000 + 100 * group + v, data))
        kernel = json.dumps(self.kernel(fam, group, v))
        return [["fit", "--data", str(data), "--kernel", kernel, "--out", str(d / "fit")]]

    def observe(self, key, d):
        out = d / "fit"
        doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
        preds = [float(line.split(",")[2]) for line in lines]
        return {
            **{k: doc[k] for k in ("kernel", "sigma_n", "edf", "train_mse", "n")},
            "rows": len(preds),
            "pred_sumsq": math.fsum(p * p for p in preds),
            "pred_scale": max(abs(p) for p in preds),
            "pred_samples": [preds[i] for i in _sample_indices(len(preds), 16)],
        }

    def check(self, key, obs, ref):
        errors = []
        scalars = {k: v for k, v in obs.items() if k != "pred_samples"}
        _compare(scalars, {k: v for k, v in ref.items() if k != "pred_samples"}, "", errors)
        # predictions cross zero, so they agree to rel 1e-9 of the curve's scale
        atol = REL_TOL * ref["pred_scale"]
        _compare(len(obs["pred_samples"]), len(ref["pred_samples"]), "pred_samples", errors)
        for i, (a, b) in enumerate(zip(obs["pred_samples"], ref["pred_samples"])):
            if not abs(a - b) <= atol:
                errors.append(f"pred_samples[{i}]: {a!r} != {b!r} (atol {atol:.3g})")
        return (1 if errors else 0), errors


WORKLOADS = {w.name: w for w in (Study(), SelectOneshot(), FitLargeN())}

# kernel parameters of a selected or fitted kernel must match exactly
EXACT_KEYS = {"best_spec", "kernel", "sigma_f", "length_scale"}


def _sample_indices(count, k):
    return sorted({int(i) for i in np.linspace(0, count - 1, k).round()}) if count else []


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _svg_numbers(text):
    """Every number in an SVG (coordinates, tick labels) reduced to a count,
    sum, sum of squares and largest magnitude, plus the element count."""
    values = [float(tok) for tok in _NUMBER.findall(text)]
    return {
        "elements": text.count("<"),
        "numbers": len(values),
        "sum": math.fsum(values),
        "sumsq": math.fsum(v * v for v in values),
        "max_abs": max((abs(v) for v in values), default=0.0),
    }


def _compare_svg(obs, ref, path, errors):
    """Coordinates are printed to 0.01 px: allow a few last-digit flips."""
    _compare(obs["elements"], ref["elements"], f"{path}.elements", errors)
    _compare(obs["numbers"], ref["numbers"], f"{path}.numbers", errors)
    slack = 0.05
    if abs(obs["sum"] - ref["sum"]) > slack:
        errors.append(f"{path}.sum: {obs['sum']!r} != {ref['sum']!r}")
    if abs(obs["sumsq"] - ref["sumsq"]) > 2 * slack * ref["max_abs"] + slack**2:
        errors.append(f"{path}.sumsq: {obs['sumsq']!r} != {ref['sumsq']!r}")


def _close(a, b):
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(obs, ref, path, errors, exact=False):
    """Value-level comparison: floats to rel 1e-9 (exactly under EXACT_KEYS),
    everything else exactly."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or obs.keys() != ref.keys():
            errors.append(f"{path}: keys {sorted(obs) if isinstance(obs, dict) else obs!r} "
                          f"!= {sorted(ref)}")
            return
        for k in ref:
            _compare(obs[k], ref[k], f"{path}.{k}", errors, exact or k in EXACT_KEYS)
    elif isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            errors.append(f"{path}: length differs")
            return
        for i, (a, b) in enumerate(zip(obs, ref)):
            _compare(a, b, f"{path}[{i}]", errors, exact)
    elif isinstance(ref, float) and isinstance(obs, (int, float)) and not isinstance(obs, bool):
        if not (obs == ref if exact else _close(float(obs), ref)):
            errors.append(f"{path}: {obs!r} != {ref!r}")
    elif obs != ref or type(obs) is not type(ref):
        errors.append(f"{path}: {obs!r} != {ref!r}")


def _run_setup(argv):
    """An untimed CLI call that prepares inputs; it must succeed."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up call failed with exit code {rc}: {argv}")


def _call(argv, tracer):
    """One timed CLI call; returns (seconds, error or None)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = tracer.root("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash is a failed operation; the loop goes on
            elapsed = time.perf_counter() - start
            return elapsed, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, None if rc == 0 else f"exit code {rc}: {argv[0]}"


def run_op(workload, key, work, reference, tracer=None):
    """Prepare, call and check one pool item; `tracer`'s wrappers, if given,
    are installed for the calls only.

    Returns [units, seconds spent in CLI calls, failed units, perf_counter
    time at the end] and the errors.
    """
    d = work / "op"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    calls = workload.prepare(key, d)
    seconds, errors = 0.0, []
    if tracer is not None:
        tracer.install()
    try:
        for argv in calls:
            elapsed, error = _call(argv, tracer)
            seconds += elapsed
            if error:
                errors.append(error)
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    units = workload.units(key)
    failed = units if errors else 0
    if not errors:
        try:
            failed, errors = workload.check(key, workload.observe(key, d), reference[key])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failed, errors = units, [f"unreadable output: {exc!r}"]
    shutil.rmtree(d, ignore_errors=True)
    return [units, seconds, failed, time.perf_counter()], [f"{key}: {e}" for e in errors]


def warm_up(work):
    """Untimed calls of every command on inputs outside every pool, so lazy
    set-up (LAPACK dispatch, first-call paths) finishes before timing."""
    d = work / "warmup"
    data, exp = d / "data", d / "exp"
    _run_setup(["simulate", "--t-end", "0.123", "--base-points", "153",
                "--decimation", "8", "--out", str(data)])
    _run_setup(["select", "--data", str(data), "--out", str(d / "sel")])
    _run_setup(["fit", "--data", str(data), "--kernel",
                '{"family": "se", "sigma_f": 0.001, "length_scale": 0.01}', "--out", str(d / "fit")])
    cfg = Study().config("base1")
    cfg["plans"] = [dict(cfg["plans"][0], t_end=0.123, base_points=153, decimation=8)]
    cfg["repetitions"] = 1
    (d / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    _run_setup(["experiment", "--config", str(d / "cfg.json"), "--out", str(exp)])
    for kind in ("boxplot", "complexity", "predictions"):
        _run_setup(["plot", "--records", str(exp / "records.csv"), "--kind", kind,
                    "--out", str(d / "fig")])
    shutil.rmtree(d)


def _probe_once():
    start = time.perf_counter()
    for n, steps in ((63, 40), (400, 1)):
        t = np.linspace(0.0, 0.3, n)
        y = np.sin(300.0 * t)
        for i in range(steps):
            K = np.exp(-((t[:, None] - t[None, :]) ** 2) / (2e-4 * (1 + i)))
            A = K + 1e-2 * np.eye(n)
            w = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), y)
            lam = scipy.linalg.eigh(K, eigvals_only=True)
            float(np.mean((y - K @ w) ** 2)) + float(np.sum(lam / (lam + 1e-2)))
    return time.perf_counter() - start


def probe(threads=1):
    """Time of a fixed computation of this benchmark's own, with no srmks
    code, which tracks the machine's current speed: 40 small smoother-like
    steps at n = 63 (broadcast SE Gram, Cholesky solve, eigenvalues,
    residual), dominated by per-call overhead, and one n = 400 Cholesky and
    eigenvalue solve, dominated by LAPACK. With `threads` > 1 that many
    threads run it at once, as experiment's worker pool does, and the time
    is until the last one ends."""
    if threads == 1:
        return _probe_once()
    workers = [threading.Thread(target=_probe_once) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def timed_rounds(workload, schedule, seconds, work, reference, tracer=None, probes=None):
    """Whole rounds until `seconds` of wall time have passed (at least one).

    With `probes`, the machine-speed probe runs once before the first
    operation and then after operations, as often as keeps its share of the
    elapsed time near PROBE_SHARE; each probe appends [end, seconds] to
    `probes`, `end` being its perf_counter time when it ended.

    With `tracer`, each item runs once traced and once untraced on the same
    inputs, in alternating order; the untraced samples, for the tracing
    overhead, are returned as `replay`.
    """
    rounds, samples, replay, errors, wrapped = [], [], [], [], False

    def run_probe():
        took = probe(workload.probe_threads)
        probes.append([time.perf_counter(), took])
        return took

    probe_total = run_probe() if probes is not None else 0.0
    start = time.perf_counter()
    while True:
        keys, reused = next(schedule)
        wrapped |= reused
        for key in keys:
            passes = [(samples, tracer)]
            if tracer is not None:
                passes.insert(len(samples) % 2, (replay, None))
            for out, tr in passes:
                sample, errs = run_op(workload, key, work, reference, tr)
                out.append(sample)
                errors.extend(errs)
            while probes is not None and probe_total < PROBE_SHARE * (time.perf_counter() - start):
                probe_total += run_probe()
        rounds.append(keys)
        if time.perf_counter() - start >= seconds:
            return rounds, samples, replay, errors, wrapped


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "not_controlled": "CPU pinning, cache dropping and huge pages are not "
                          "controlled on this machine",
    }


def load_reference(name):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))["items"]


def measure(args):
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    reference = load_reference(workload.name)
    warm_up(work)
    schedule = workload.schedule(random.Random(args.seed))
    result = {"workload": workload.name, "seed": args.seed, "environment": environment()}
    if not args.trace:
        result["probe_threads"] = workload.probe_threads
        probes = []
        rounds, samples, _, errors, wrapped = timed_rounds(
            workload, schedule, args.seconds, work, reference, probes=probes)
        result["probes"] = probes
    else:
        from tracing import Tracer, layer_metrics, warn_missing

        tracer = Tracer()
        rounds, samples, replay, errors, wrapped = timed_rounds(
            workload, schedule, args.seconds, work, reference, tracer)
        warn_missing(tracer)
        metrics, raw = layer_metrics(tracer.spans, sum(s[0] for s in samples))
        del tracer
        traced, untraced = (sum(x[1] for x in xs) for xs in (samples, replay))
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        result["trace"] = {"metrics": metrics, "raw": raw,
                           "traced_s": traced, "untraced_s": untraced}
        samples = samples + replay
    result.update({
        "rounds": len(rounds),
        "pool_wrapped": wrapped,
        "samples": samples,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def record(names, work):
    """Run every pool item once and store its observed outputs."""
    for name in names:
        workload = WORKLOADS[name]
        items = {}
        for key in workload.keys():
            d = work / "op"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            for argv in workload.prepare(key, d):
                elapsed, error = _call(argv, None)
                if error:
                    raise RuntimeError(f"{name} {key}: {error}")
            items[key] = workload.observe(key, d)
            shutil.rmtree(d)
        doc = {
            "workload": name,
            "recorded_from": "srmks 0.1.0 at commit 58fc0aab (the seed)",
            "environment": environment(),
            "items": items,
        }
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"recorded {len(items)} items to {path}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for outputs")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--record", action="store_true", help="rewrite the reference files")
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)
    if args.record:
        record([args.workload] if args.workload else sorted(WORKLOADS), Path(args.work))
    else:
        measure(args)


if __name__ == "__main__":
    main()
