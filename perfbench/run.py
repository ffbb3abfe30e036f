"""Run one benchmark workload against the srmks source in this checkout.

    python3 perfbench/run.py --workload {study,select-oneshot,fit-large-n} \
        --seed N --seconds S --trace {0,1}

Measures set-up time (a fresh interpreter importing ``srmks.cli``, repeated,
median, at reference machine speed), then starts the workload in a fresh process with BLAS pinned to one
thread and ``PYTHONPATH`` set to this checkout's ``src``. Human-readable
lines go first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a run in which every layer boundary is wrapped by a span recorder.

Exits nonzero, printing no result, when the checkout holds no srmks source.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("study", "select-oneshot", "fit-large-n")
SETUP_PAIRS = 7
# median time of workloads.probe, by thread count, on the reference machine
# (2 vCPUs) in a quiet spell; times are reported scaled to this speed
PROBE_REF_S = {1: 0.030, 2: 0.072}
# an operation's machine speed comes from this many probes nearest to it in time
PROBE_NEIGHBOURS = 4
# median time of a fresh interpreter importing numpy alone, same machine
IMPORT_REF_S = 0.150
TIME_LIMIT_S = 170.0

# names each workload prints for the generic end-to-end metrics
E2E_NAMES = {
    "study": {"ops_per_s": "study_cells_per_s", "p50_ms": "study_cell_p50_ms",
              "p90_ms": "study_cell_p90_ms"},
    "select-oneshot": {"ops_per_s": "select_calls_per_s", "p50_ms": "select_p50_ms",
                       "p90_ms": "select_p90_ms"},
    "fit-large-n": {"ops_per_s": "fit_calls_per_s", "p50_ms": "fit_p50_ms",
                    "p90_ms": "fit_p90_ms"},
}
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "p50_ms": "ms"}
OP_NAME = {"study": "study cells", "select-oneshot": "select calls", "fit-large-n": "fit calls"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("benchmark", TIME_LIMIT_S)
    return left


def _import_time(module, env, deadline):
    """Wall time of a fresh interpreter importing `module`.

    A blocking wait returns as the child exits; ``subprocess.run`` with a
    timeout polls in steps of up to 50 ms instead. A timer kills the child
    at the deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT)
    timer = threading.Timer(remaining(deadline), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing {module} failed with exit code {code}")
    return elapsed


def measure_setup(env, deadline):
    """Set-up time: a fresh interpreter importing srmks.cli, at reference speed.

    One untimed import first compiles the bytecode and checks that the
    package comes from this checkout. Each timed import is paired with a
    fresh interpreter importing numpy alone, a dependency srmks cannot
    change; ``IMPORT_REF_S`` times the median ratio of the pairs is the
    result, so a slow spell of the machine cancels out. Returns that and the
    raw srmks.cli and numpy import times.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "import srmks.cli; print(srmks.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(deadline))
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import srmks.cli: {probe.stderr.strip()}")
    found = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"srmks.cli imported from {found}, not from {SRC}")
    times, refs = [], []
    for _ in range(SETUP_PAIRS):
        refs.append(_import_time("numpy", env, deadline))
        times.append(_import_time("srmks.cli", env, deadline))
    scaled = IMPORT_REF_S * statistics.median(t / r for t, r in zip(times, refs))
    return scaled, times, refs


def percentile(values, q):
    """Inclusive-method percentile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def local_speeds(samples, probes, reference_s):
    """Machine speed at each operation: `reference_s` over the median time
    of the PROBE_NEIGHBOURS probes nearest in time to the operation."""
    speeds = []
    for _, seconds, _, end in samples:
        start = end - seconds
        near = sorted(probes, key=lambda p: max(start - p[0], p[0] - end, 0.0))
        speeds.append(reference_s / statistics.median(p[1] for p in near[:PROBE_NEIGHBOURS]))
    return speeds


def end_to_end(result, setup):
    """Raw end-to-end figures, the same figures at reference speed, and the
    per-operation machine speeds.

    Each operation's time is multiplied by the machine speed around it, as
    the probes nearest to it measured; `ops_per_s` and `p50_ms` come from
    the scaled times. Memory is left as measured; set-up time comes scaled
    by its own import probe (imports, which the compute probe does not
    track). p90_ms is printed but is not a metric of BENCHMARK.json: a study
    run holds only about four rounds.
    """
    samples = result["samples"]
    speeds = local_speeds(samples, result["probes"], PROBE_REF_S[result["probe_threads"]])

    def figures(seconds):
        per_unit = [t / s[0] for t, s in zip(seconds, samples)]
        return {
            "ops_per_s": sum(s[0] for s in samples) / sum(seconds),
            "p50_ms": 1000.0 * statistics.median(per_unit),
            "p90_ms": 1000.0 * percentile(per_unit, 90),
        }

    raw_seconds = [s[1] for s in samples]
    raw = {"setup_s": statistics.median(setup[1]), "peak_rss_mb": result["peak_rss_mb"],
           **figures(raw_seconds)}
    scaled = {"setup_s": setup[0], "peak_rss_mb": raw["peak_rss_mb"],
              **figures([t * v for t, v in zip(raw_seconds, speeds)])}
    return raw, scaled, speeds


def report(args, result, setup):
    samples = result["samples"]
    attempted = sum(s[0] for s in samples)
    failed = sum(s[2] for s in samples)
    env = result["environment"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"rounds={result['rounds']} pool_wrapped={result['pool_wrapped']}")
    for error in result["errors"]:
        print(f"check failed: {error}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} {OP_NAME[args.workload]})")
    if args.trace:
        trace = result["trace"]
        metrics = trace["metrics"]
        print(f"per-layer metrics per {OP_NAME[args.workload][:-1]} "
              f"(lapack_gflop and kernels.evals are computed from array shapes):")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g}")
        raw = trace["raw"]
        print(f"tracing overhead = {metrics['trace.overhead_frac']:.4f} "
              f"(traced {trace['traced_s']:.3f} s vs untraced {trace['untraced_s']:.3f} s, same inputs)")
        print(f"spans={raw['spans']} fit_calls={raw['fit_calls']} eigh_calls={raw['eigh_calls']} "
              f"eigh_calls==fit_calls: {raw['eigh_calls'] == raw['fit_calls']}")
        units = {name: ("ratio" if name.endswith(("_frac", "_per_fit", "_per_decomposition"))
                        else "s/op" if name.endswith("_s") else "Gflop/op" if name.endswith("gflop")
                        else "count/op") for name in metrics}
    else:
        raw, metrics, speeds = end_to_end(result, setup)
        names = E2E_NAMES[args.workload]
        probes = [p[1] for p in result["probes"]]
        threads = result["probe_threads"]
        print(f"machine speed = {statistics.median(speeds):.4f} x reference, median over "
              f"operations ({min(speeds):.4f} to {max(speeds):.4f}); {len(probes)} probes on "
              f"{threads} thread(s), median {statistics.median(probes):.4f} s, reference "
              f"{PROBE_REF_S[threads]} s; figures below are at reference speed, raw wall "
              f"figures in brackets")
        print(f"setup_s = {metrics['setup_s']:.4f} s [{raw['setup_s']:.4f}] "
              f"(fresh imports of srmks.cli: {', '.join(f'{t:.3f}' for t in setup[1])}; "
              f"each after one of numpy: {', '.join(f'{t:.3f}' for t in setup[2])}, "
              f"reference {IMPORT_REF_S} s)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
        print(f"{names['ops_per_s']} = {metrics['ops_per_s']:.4f} 1/s [{raw['ops_per_s']:.4f}] "
              f"({attempted} {OP_NAME[args.workload]} over {sum(s[1] for s in samples):.2f} s of calls)")
        for key in ("p50_ms", "p90_ms"):
            print(f"{names[key]} = {metrics[key]:.3f} ms [{raw[key]:.3f}] ({len(samples)} samples)")
        del metrics["p90_ms"]
        units = E2E_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))


def main(argv=None):
    parser = argparse.ArgumentParser(description="srmks benchmark: one workload, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "srmks" / "cli.py").is_file():
        print(f"error: no srmks source under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    try:
        setup = measure_setup(env, deadline)
        # the workload's stdout goes to stderr: the last stdout line is ours
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work / "run"),
             "--result", str(result_path)],
            env=env, cwd=ROOT, stdout=sys.stderr, check=True, timeout=remaining(deadline))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    report(args, result, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
