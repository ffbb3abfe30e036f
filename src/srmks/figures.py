"""Self-contained SVG figures for study outputs.

Rendering is hand-rolled so that identical inputs yield identical bytes:
coordinates round to two decimals, element order is fixed, and nothing
depends on wall-clock time or environment. Three figure kinds:

* boxplot     guaranteed risk and prediction error per sample size and family
* complexity  selected capacity (effective degrees of freedom) boxes
* predictions true signal, both winners' predictions and the noisy sample

The predictions figure regenerates its training set from the experiment
configuration, relying on the study's per-iteration seed derivation, and
refits each of the two winning kernels alone with smoother.fit.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError
from .experiment import ExperimentConfig, IterationRecord, summarize
from .ioutil import lines_text
from .oscillator import generate_training_set, impulse_response
from .smoother import fit, predict

__all__ = ["boxplot_svg", "complexity_svg", "predictions_svg"]

_FAMILY_COLOR = {"se": "#1f77b4", "sdof": "#d62728"}
_TRUE_COLOR = "#444444"
_SCATTER_COLOR = "#888888"
_GRID_COLOR = "#dddddd"
_AXIS_COLOR = "#333333"

_METRIC_TITLE = {
    "bound": "guaranteed risk",
    "true_mse": "prediction error (MSE)",
    "h": "effective degrees of freedom",
}


def _f(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


class _Scale:
    """Maps data values onto a pixel interval, linearly or in log10."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi
        self.log = log

    def __call__(self, v: float) -> float:
        u = math.log10(v) if self.log else v
        frac = (u - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def ticks(self) -> list[float]:
        if self.log:
            exps = range(math.ceil(self.lo), math.floor(self.hi) + 1)
            return [10.0**e for e in exps]
        return [self.lo + f * (self.hi - self.lo) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="Helvetica, Arial, sans-serif">'
    )
    bg = f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    return lines_text([head, bg, *body, "</svg>"])


def _legend(x: float, y: float, entries: list[tuple[str, str]]) -> list[str]:
    parts = ['<g class="legend">']
    for i, (label, color) in enumerate(entries):
        ly = y + 16 * i
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(ly)}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_f(x + 14)}" y="{_f(ly + 9)}" font-size="11" '
            f'fill="{_AXIS_COLOR}">{label}</text>'
        )
    parts.append("</g>")
    return parts


def _box_panel(
    summary, metric: str, sizes: list[int], families: list[str],
    x0: float, y0: float, w: float, h: float, log: bool,
) -> list[str]:
    """One panel of grouped boxes: an n-group per sample size, a box per family."""
    plot_x, plot_y = x0 + 52, y0 + 24
    plot_w, plot_h = w - 62, h - 64

    finite: list[float] = []
    for n in sizes:
        for fam in families:
            stats = summary.cells.get((n, fam, metric))
            if stats is not None and stats.minimum is not None:
                finite.extend([stats.minimum, stats.maximum])
    if finite:
        lo, hi = min(finite), max(finite)
    else:
        lo, hi = 0.1, 10.0
    if log:
        lo = max(lo, 1e-300)
        hi = max(hi, lo)
        pad = 10 ** (0.08 * (math.log10(hi / lo) or 1.0))
        scale = _Scale(lo / pad, hi * pad, plot_y + plot_h, plot_y, log=True)
    else:
        pad = 0.08 * ((hi - lo) or 1.0)
        scale = _Scale(lo - pad, hi + pad, plot_y + plot_h, plot_y, log=False)

    parts = [f'<g class="panel" data-metric="{metric}">']
    parts.append(
        f'<text x="{_f(x0 + w / 2)}" y="{_f(y0 + 12)}" font-size="12" text-anchor="middle" '
        f'fill="{_AXIS_COLOR}">{_METRIC_TITLE[metric]}</text>'
    )
    for tick in scale.ticks():
        ty = scale(tick)
        parts.append(
            f'<line x1="{_f(plot_x)}" y1="{_f(ty)}" x2="{_f(plot_x + plot_w)}" '
            f'y2="{_f(ty)}" stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(plot_x - 4)}" y="{_f(ty + 3)}" font-size="9" text-anchor="end" '
            f'fill="{_AXIS_COLOR}">{_tick_label(tick)}</text>'
        )
    parts.append(
        f'<rect x="{_f(plot_x)}" y="{_f(plot_y)}" width="{_f(plot_w)}" height="{_f(plot_h)}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )

    n_groups = len(sizes)
    group_w = plot_w / n_groups
    bw = min(26.0, group_w / (len(families) + 1.2))
    for gi, n in enumerate(sizes):
        gx = plot_x + (gi + 0.5) * group_w
        parts.append(
            f'<text x="{_f(gx)}" y="{_f(plot_y + plot_h + 16)}" font-size="11" '
            f'text-anchor="middle" fill="{_AXIS_COLOR}">n={n}</text>'
        )
        offsets = [(fi - (len(families) - 1) / 2) * (bw + 6) for fi in range(len(families))]
        for fam, off in zip(families, offsets):
            stats = summary.cells.get((n, fam, metric))
            if stats is None:
                continue
            color = _FAMILY_COLOR[fam]
            head = (
                f'<g class="box" data-metric="{metric}" data-family="{fam}" data-n="{n}" '
                f'data-count="{stats.count}" data-infinite="{stats.infinite_count}"'
            )
            if stats.median is None:
                parts.append(head + ' data-empty="true"/>')
                continue
            cx = gx + off
            y_min, y_q1 = scale(stats.minimum), scale(stats.q1)
            y_med, y_q3 = scale(stats.median), scale(stats.q3)
            y_max = scale(stats.maximum)
            half = bw / 2
            parts.append(head + ">")
            parts.append(
                f'<line x1="{_f(cx)}" y1="{_f(y_min)}" x2="{_f(cx)}" y2="{_f(y_max)}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            for wy in (y_min, y_max):
                parts.append(
                    f'<line x1="{_f(cx - half / 2)}" y1="{_f(wy)}" x2="{_f(cx + half / 2)}" '
                    f'y2="{_f(wy)}" stroke="{color}" stroke-width="1"/>'
                )
            parts.append(
                f'<rect x="{_f(cx - half)}" y="{_f(y_q3)}" width="{_f(bw)}" '
                f'height="{_f(max(y_q1 - y_q3, 0.0))}" fill="{color}" fill-opacity="0.25" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{_f(cx - half)}" y1="{_f(y_med)}" x2="{_f(cx + half)}" '
                f'y2="{_f(y_med)}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append("</g>")
    parts.append("</g>")
    return parts


def _grouped_box_figure(records: list[IterationRecord], metrics: list[str], log_flags: list[bool]) -> str:
    if not records:
        raise InvalidInputError("no records to plot")
    summary = summarize(records)
    sizes = summary.sample_sizes
    families = [f for f in ("se", "sdof") if any(r.family == f for r in records)]
    panel_w, panel_h = 340, 300
    width = 20 + panel_w * len(metrics) + 20
    height = panel_h + 50
    body: list[str] = []
    for i, (metric, log) in enumerate(zip(metrics, log_flags)):
        body.extend(_box_panel(summary, metric, sizes, families, 20 + i * panel_w, 16, panel_w, panel_h, log))
    body.extend(_legend(width - 110, height - 40, [(f, _FAMILY_COLOR[f]) for f in families]))
    return _svg_document(width, height, body)


def boxplot_svg(records: list[IterationRecord]) -> str:
    """Guaranteed risk and prediction error boxes, log scale, grouped by n."""
    return _grouped_box_figure(records, ["bound", "true_mse"], [True, True])


def complexity_svg(records: list[IterationRecord]) -> str:
    """Selected-capacity boxes per sample size and family, linear scale."""
    return _grouped_box_figure(records, ["h"], [False])


def _polyline(t: np.ndarray, y: np.ndarray, xs: _Scale, ys: _Scale, series: str, color: str) -> str:
    pts = " ".join(f"{xs(float(a)):.2f},{ys(float(b)):.2f}" for a, b in zip(t, y))
    return (
        f'<polyline class="curve" data-series="{series}" points="{pts}" '
        f'fill="none" stroke="{color}" stroke-width="1.5"/>'
    )


def predictions_svg(
    cfg: ExperimentConfig,
    records: list[IterationRecord],
    sample_size: int | None = None,
    iteration: int = 0,
) -> str:
    """Overlay of the true impulse response, both winners and the noisy sample.

    The (sample size, iteration) cell's training set is regenerated from the
    configuration's seed derivation and each family's recorded winner is
    refit on it, so the figure needs no stored predictions.
    """
    sizes = sorted({r.sample_size for r in records})
    if not sizes:
        raise InvalidInputError("no records to plot")
    n = sample_size if sample_size is not None else sizes[-1]
    cell = {
        r.family: r for r in records
        if r.sample_size == n and r.iteration == iteration
    }
    if not cell:
        raise InvalidInputError(
            f"no records for n={n}, iteration={iteration}; available sizes: {sizes}"
        )
    plan = next((p for p in cfg.plans if p.n_samples == n), None)
    if plan is None:
        raise InvalidInputError(f"configuration has no sampling plan with n={n}")

    seeded = replace(plan, seed=cfg.iteration_seed(iteration))
    data = generate_training_set(cfg.params, seeded)
    dense_t = plan.base_grid()
    dense_h = impulse_response(cfg.params, dense_t)

    curves: list[tuple[str, np.ndarray, str]] = [("true", np.asarray(dense_h), _TRUE_COLOR)]
    curves.extend(
        (fam, predict(fit(cell[fam].chosen_spec, data, data.sigma_n), dense_t), _FAMILY_COLOR[fam])
        for fam in ("se", "sdof") if fam in cell
    )

    width, height = 720, 420
    plot_x, plot_y, plot_w, plot_h = 70, 30, width - 100, height - 90
    all_y = np.concatenate([c[1] for c in curves] + [data.y])
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    pad = 0.06 * ((y_hi - y_lo) or 1.0)
    xs = _Scale(float(dense_t[0]), float(dense_t[-1]), plot_x, plot_x + plot_w, log=False)
    ys = _Scale(y_lo - pad, y_hi + pad, plot_y + plot_h, plot_y, log=False)

    body = [
        f'<text x="{_f(width / 2)}" y="18" font-size="12" text-anchor="middle" '
        f'fill="{_AXIS_COLOR}">impulse response and predictions, n={n}, iteration {iteration}</text>'
    ]
    for tick in ys.ticks():
        ty = ys(tick)
        body.append(
            f'<line x1="{_f(plot_x)}" y1="{_f(ty)}" x2="{_f(plot_x + plot_w)}" y2="{_f(ty)}" '
            f'stroke="{_GRID_COLOR}" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_f(plot_x - 4)}" y="{_f(ty + 3)}" font-size="9" text-anchor="end" '
            f'fill="{_AXIS_COLOR}">{_tick_label(tick)}</text>'
        )
    for tick in xs.ticks():
        tx = xs(tick)
        body.append(
            f'<text x="{_f(tx)}" y="{_f(plot_y + plot_h + 16)}" font-size="9" '
            f'text-anchor="middle" fill="{_AXIS_COLOR}">{_tick_label(tick)}</text>'
        )
    body.append(
        f'<rect x="{_f(plot_x)}" y="{_f(plot_y)}" width="{_f(plot_w)}" height="{_f(plot_h)}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    body.append('<g class="scatter">')
    for ti, yi in zip(data.t, data.y):
        body.append(
            f'<circle cx="{_f(xs(float(ti)))}" cy="{_f(ys(float(yi)))}" r="2" '
            f'fill="{_SCATTER_COLOR}" fill-opacity="0.6"/>'
        )
    body.append("</g>")
    for series, values, color in curves:
        body.append(_polyline(dense_t, values, xs, ys, series, color))
    legend_entries = [("sample", _SCATTER_COLOR)] + [(s, c) for s, _, c in curves]
    body.extend(_legend(width - 90, plot_y + 8, legend_entries))
    body.append(
        f'<text x="{_f(plot_x + plot_w / 2)}" y="{_f(height - 12)}" font-size="11" '
        f'text-anchor="middle" fill="{_AXIS_COLOR}">time (s)</text>'
    )
    return _svg_document(width, height, body)
