"""Span recorder for the traced benchmark run.

srmks modules import each other's functions by name (``from .smoother import
fit``), so a call is only seen if the wrapper replaces the name in the module
that makes the call. ``PATCHES`` therefore lists every (caller module, bound
name) pair, and ``smoother``'s view of ``scipy.linalg`` is replaced by a proxy
whose ``cho_factor``, ``cho_solve`` and ``eigh`` are wrapped.

Each span records its id, name, start, end, parent id and a work figure
computed from the call's arguments or result (pairwise kernel evaluations,
computed LAPACK flops, candidates scored, ...). Spans stay in memory until
the run ends; :func:`layer_metrics` then derives the per-layer numbers. A
layer's self time is its span's duration minus the part of that interval its
child spans cover, so concurrent children from the experiment's thread pool
are not counted twice.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

import numpy as np


def _evals(args, kwargs, result):
    """Pairwise kernel evaluations: the broadcast size of (t, t')."""
    return float(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size), False


def _cholesky_flops(args, kwargs, result):
    n = np.shape(args[0])[0]
    return n**3 / 3.0, False


def _solve_flops(args, kwargs, result):
    factor, rhs = args[0], np.asarray(args[1])
    n = np.shape(factor[0])[0]
    nrhs = 1 if rhs.ndim == 1 else rhs.shape[1]
    return 2.0 * n**2 * nrhs, False


def _eigh_flops(args, kwargs, result):
    # Golub & Van Loan, sec. 8.3: 4n^3/3 for eigenvalues only, ~9n^3 with vectors
    n = np.shape(args[0])[0]
    flops = 4.0 * n**3 / 3.0 if kwargs.get("eigvals_only", False) else 9.0 * n**3
    return flops, False


def _clipped(args, kwargs, result):
    return 0.0, bool(result.clipped)


def _selection(args, kwargs, result):
    return float(len(result.trace)), bool(result.degenerate)


# (caller module, name as that module bound it, span name, work function);
# a work function maps (args, kwargs, result) to (amount, flag)
PATCHES = [
    ("srmks.cli", "fit_smoother", "smoother.fit", None),
    ("srmks.cli", "predict", "smoother.predict", None),
    ("srmks.cli", "empirical_risk", "risk.empirical_risk", None),
    ("srmks.cli", "srm_select", "srm.select", _selection),
    ("srmks.cli", "default_se_grid", "srm.grid", None),
    ("srmks.cli", "default_sdof_grid", "srm.grid", None),
    ("srmks.cli", "training_set_from_files", "oscillator.load", None),
    ("srmks.cli", "generate_training_set", "oscillator.generate", None),
    ("srmks.cli", "run_experiment", "experiment.run", None),
    ("srmks.cli", "records_to_csv", "experiment.records_csv", None),
    ("srmks.cli", "summarize", "experiment.summarize", None),
    ("srmks.cli", "boxplot_svg", "figures.boxplot", None),
    ("srmks.cli", "complexity_svg", "figures.complexity", None),
    ("srmks.cli", "predictions_svg", "figures.predictions", None),
    ("srmks.experiment", "run_iteration", "experiment.iteration", None),
    ("srmks.experiment", "srm_select", "srm.select", _selection),
    ("srmks.experiment", "default_se_grid", "srm.grid", None),
    ("srmks.experiment", "default_sdof_grid", "srm.grid", None),
    ("srmks.experiment", "fit", "smoother.fit", None),
    ("srmks.experiment", "predict", "smoother.predict", None),
    ("srmks.experiment", "empirical_risk", "risk.empirical_risk", None),
    ("srmks.experiment", "generate_training_set", "oscillator.generate", None),
    ("srmks.experiment", "impulse_response", "oscillator.impulse", None),
    ("srmks.figures", "summarize", "experiment.summarize", None),
    ("srmks.figures", "fit", "smoother.fit", None),
    ("srmks.figures", "predict", "smoother.predict", None),
    ("srmks.figures", "generate_training_set", "oscillator.generate", None),
    ("srmks.figures", "impulse_response", "oscillator.impulse", None),
    ("srmks.oscillator", "impulse_response", "oscillator.impulse", None),
    ("srmks.srm", "fit", "smoother.fit", None),
    ("srmks.srm", "predict", "smoother.predict", None),
    ("srmks.srm", "empirical_risk", "risk.empirical_risk", None),
    ("srmks.srm", "vc_bound_reduced", "risk.bound", _clipped),
    ("srmks.srm", "vc_bound_general", "risk.bound", _clipped),
    ("srmks.smoother", "gram", "kernels.gram", None),
    ("srmks.smoother", "kernel_eval", "kernels.eval", _evals),
    ("srmks.kernels", "kernel_eval", "kernels.eval", _evals),
]

# the scipy.linalg functions srmks.smoother calls through its own `scipy` name
LINALG_PATCHES = [
    ("cho_factor", "lapack.cho_factor", _cholesky_flops),
    ("cho_solve", "lapack.cho_solve", _solve_flops),
    ("eigh", "lapack.eigh", _eigh_flops),
]


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, work amount, flag]
        self._ids = itertools.count()
        self._local = threading.local()
        # worker threads of the experiment's pool start with an empty stack;
        # their root spans hang off the main thread's innermost open span
        self._main_stack = self._stack()
        self._restore = []
        self.missing = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, work=None):
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [next(ids), name, 0.0, 0.0, parent, 0.0, False]
            stack.append(span[0])
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if work is not None:
                span[5], span[6] = work(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.missing = []
        for module_name, attr, span_name, work in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace(module, attr, self.wrap(span_name, getattr(module, attr), work))
        smoother = importlib.import_module("srmks.smoother")
        scipy_mod = getattr(smoother, "scipy", None)
        if scipy_mod is None:
            self.missing.append("srmks.smoother.scipy")
            return
        linalg = scipy_mod.linalg
        wrapped = {
            attr: self.wrap(span_name, getattr(linalg, attr), work)
            for attr, span_name, work in LINALG_PATCHES
        }
        self._replace(smoother, "scipy", _Proxy(scipy_mod, {"linalg": _Proxy(linalg, wrapped)}))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def root(self, name, func, *args):
        """Run ``func(*args)`` under a top-level span (the CLI call)."""
        return self.wrap(name, func)(*args)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def span_totals(spans):
    """Per span name: calls, total time, self time, summed work, flagged
    calls, and the time of calls not made from inside kernels.gram."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    totals: dict[str, dict] = {}
    for sid, name, start, end, parent, work, flag in spans:
        t = totals.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0, "work": 0.0,
                                     "flagged": 0, "outside_gram_time": 0.0})
        t["calls"] += 1
        t["time"] += end - start
        t["self"] += (end - start) - _covered(start, end, children.get(sid, ()))
        t["work"] += work
        t["flagged"] += flag
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[1] != "kernels.gram":
            t["outside_gram_time"] += end - start
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops):
    """Per-layer metrics of the traced run, normalised per operation.

    Times are seconds per operation, counts are per operation, and the
    ``*_frac`` / ``*_per_*`` entries are plain ratios.
    """
    tot = span_totals(spans)

    def get(name, key):
        return tot.get(name, {}).get(key, 0.0)

    fits = get("smoother.fit", "calls")
    eighs = get("lapack.eigh", "calls")
    selects = get("srm.select", "calls")
    scored = get("srm.select", "work")
    bounds = get("risk.bound", "calls")
    per_op = {
        "cli.self_s": get("cli.main", "self"),
        "oscillator.generate_s": get("oscillator.generate", "time"),
        "oscillator.load_s": get("oscillator.load", "time"),
        "oscillator.impulse_s": get("oscillator.impulse", "time"),
        "kernels.gram_calls": get("kernels.gram", "calls"),
        "kernels.gram_s": get("kernels.gram", "time"),
        "kernels.eval_s": get("kernels.eval", "outside_gram_time"),
        "kernels.evals": get("kernels.eval", "work"),
        "smoother.fit_calls": fits,
        "smoother.fit_self_s": get("smoother.fit", "self"),
        "smoother.predict_calls": get("smoother.predict", "calls"),
        "smoother.predict_self_s": get("smoother.predict", "self"),
        "smoother.eigh_calls": eighs,
        "smoother.eigh_s": get("lapack.eigh", "time"),
        "smoother.cholesky_s": get("lapack.cho_factor", "time") + get("lapack.cho_solve", "time"),
        "smoother.lapack_gflop": (get("lapack.cho_factor", "work") + get("lapack.cho_solve", "work")
                                  + get("lapack.eigh", "work")) / 1e9,
        "risk.bound_calls": bounds,
        "risk.bound_s": get("risk.bound", "time"),
        "risk.empirical_risk_s": get("risk.empirical_risk", "time"),
        "srm.select_calls": selects,
        "srm.select_self_s": get("srm.select", "self"),
        "srm.grid_s": get("srm.grid", "time"),
        "srm.candidates_scored": scored,
        "experiment.iteration_s": get("experiment.iteration", "time"),
        "experiment.self_s": get("experiment.run", "self") + get("experiment.iteration", "self"),
        "experiment.records_csv_s": get("experiment.records_csv", "time"),
        "experiment.summarize_s": get("experiment.summarize", "time"),
        "figures.boxplot_s": get("figures.boxplot", "time"),
        "figures.complexity_s": get("figures.complexity", "time"),
        "figures.predictions_s": get("figures.predictions", "time"),
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics.update({
        "smoother.cholesky_attempts_per_fit": _ratio(get("lapack.cho_factor", "calls"), fits),
        "risk.clipped_frac": _ratio(get("risk.bound", "flagged"), bounds),
        "srm.candidates_per_decomposition": _ratio(scored, eighs),
        "srm.degenerate_frac": _ratio(get("srm.select", "flagged"), selects),
    })
    raw = {"fit_calls": int(fits), "eigh_calls": int(eighs), "spans": len(spans)}
    return metrics, raw


def warn_missing(tracer):
    if tracer.missing:
        print("trace: not found, not traced: " + ", ".join(tracer.missing), file=sys.stderr)
