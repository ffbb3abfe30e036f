"""Self-contained SVG figures for study outputs.

Rendering is hand-rolled so that identical inputs yield identical bytes:
one writer, _tag, writes every element, coordinates round to two decimals,
element order is fixed, and nothing depends on wall-clock time or
environment. Three figure kinds:

* boxplot     guaranteed risk and prediction error per sample size and family
* complexity  selected capacity (effective degrees of freedom) boxes
* predictions true signal, both winners' predictions and the noisy sample

The predictions figure regenerates its training set from the experiment
configuration, relying on the study's per-iteration seed derivation,
refits each of the two winning kernels alone with smoother.fit and maps
its weights onto the plan's dense grid through
smoother.decimated_cross_kernel, as the study does.
"""
from __future__ import annotations

import math
import numpy as np

from .errors import InvalidInputError
from .experiment import ExperimentConfig, IterationRecord, summarize
from .ioutil import lines_text
from .oscillator import impulse_response
from .smoother import decimated_cross_kernel, fit
from .srm import FAMILIES

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


def _tag(name: str, content=None, **attrs) -> str:
    """One SVG element, the only place an element is written.

    Attributes come in call order; a trailing _ is dropped and _ becomes -,
    so class_ writes class and stroke_width writes stroke-width. Numbers are
    coordinates and go through _f; strings are written verbatim. Without
    content the element closes itself.
    """
    head = name + "".join(
        f' {key.rstrip("_").replace("_", "-")}="{value if isinstance(value, str) else _f(value)}"'
        for key, value in attrs.items()
    )
    return f"<{head}/>" if content is None else f"<{head}>{content}</{name}>"


def _group(children: list[str], **attrs) -> str:
    return _tag("g", "\n" + lines_text(children), **attrs)


def _text(content: str, x: float, y: float, size: str, **attrs) -> str:
    return _tag("text", content, x=x, y=y, font_size=size, **attrs, fill=_AXIS_COLOR)


def _y_axis(scale: _Scale, x: float, w: float) -> list[str]:
    """Grid lines across [x, x + w] and tick labels left of x at the scale's ticks."""
    parts = []
    for tick in scale.ticks():
        ty = scale(tick)
        parts.append(_tag("line", x1=x, y1=ty, x2=x + w, y2=ty, stroke=_GRID_COLOR, stroke_width="1"))
        parts.append(_text(_tick_label(tick), x - 4, ty + 3, "9", text_anchor="end"))
    return parts


def _frame(x: float, y: float, w: float, h: float) -> str:
    return _tag("rect", x=x, y=y, width=w, height=h, fill="none", stroke=_AXIS_COLOR, stroke_width="1")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    background = _tag("rect", width=str(width), height=str(height), fill="#ffffff")
    return lines_text([_tag(
        "svg", "\n" + lines_text([background, *body]),
        xmlns="http://www.w3.org/2000/svg", viewBox=f"0 0 {width} {height}",
        width=str(width), height=str(height), font_family="Helvetica, Arial, sans-serif",
    )])


def _legend(x: float, y: float, entries: list[tuple[str, str]]) -> str:
    parts = []
    for i, (label, color) in enumerate(entries):
        ly = y + 16 * i
        parts.append(_tag("rect", x=x, y=ly, width="10", height="10", fill=color))
        parts.append(_text(label, x + 14, ly + 9, "11"))
    return _group(parts, class_="legend")


def _box_panel(
    summary, metric: str, sizes: list[int], families: list[str],
    x0: float, y0: float, w: float, h: float, log: bool,
) -> str:
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

    parts = [
        _text(_METRIC_TITLE[metric], x0 + w / 2, y0 + 12, "12", text_anchor="middle"),
        *_y_axis(scale, plot_x, plot_w),
        _frame(plot_x, plot_y, plot_w, plot_h),
    ]
    n_groups = len(sizes)
    group_w = plot_w / n_groups
    bw = min(26.0, group_w / (len(families) + 1.2))
    for gi, n in enumerate(sizes):
        gx = plot_x + (gi + 0.5) * group_w
        parts.append(_text(f"n={n}", gx, plot_y + plot_h + 16, "11", text_anchor="middle"))
        offsets = [(fi - (len(families) - 1) / 2) * (bw + 6) for fi in range(len(families))]
        for fam, off in zip(families, offsets):
            stats = summary.cells.get((n, fam, metric))
            if stats is None:
                continue
            color = _FAMILY_COLOR[fam]
            box = dict(
                class_="box", data_metric=metric, data_family=fam, data_n=str(n),
                data_count=str(stats.count), data_infinite=str(stats.infinite_count),
            )
            if stats.median is None:
                parts.append(_tag("g", **box, data_empty="true"))
                continue
            cx, half = gx + off, bw / 2
            y_min, y_q1 = scale(stats.minimum), scale(stats.q1)
            y_med, y_q3 = scale(stats.median), scale(stats.q3)
            y_max = scale(stats.maximum)
            stroke = dict(stroke=color, stroke_width="1")
            parts.append(_group([
                _tag("line", x1=cx, y1=y_min, x2=cx, y2=y_max, **stroke),
                *(_tag("line", x1=cx - half / 2, y1=wy, x2=cx + half / 2, y2=wy, **stroke)
                  for wy in (y_min, y_max)),
                _tag("rect", x=cx - half, y=y_q3, width=bw, height=max(y_q1 - y_q3, 0.0),
                     fill=color, fill_opacity="0.25", **stroke),
                _tag("line", x1=cx - half, y1=y_med, x2=cx + half, y2=y_med,
                     stroke=color, stroke_width="2"),
            ], **box))
    return _group(parts, class_="panel", data_metric=metric)


def _grouped_box_figure(records: list[IterationRecord], metrics: list[str], log_flags: list[bool]) -> str:
    if not records:
        raise InvalidInputError("no records to plot")
    summary = summarize(records)
    sizes = summary.sample_sizes
    families = [f for f in FAMILIES if any(r.family == f for r in records)]
    panel_w, panel_h = 340, 300
    width = 20 + panel_w * len(metrics) + 20
    height = panel_h + 50
    body = [
        _box_panel(summary, metric, sizes, families, 20 + i * panel_w, 16, panel_w, panel_h, log)
        for i, (metric, log) in enumerate(zip(metrics, log_flags))
    ]
    body.append(_legend(width - 110, height - 40, [(f, _FAMILY_COLOR[f]) for f in families]))
    return _svg_document(width, height, body)


def boxplot_svg(records: list[IterationRecord]) -> str:
    """Guaranteed risk and prediction error boxes, log scale, grouped by n."""
    return _grouped_box_figure(records, ["bound", "true_mse"], [True, True])


def complexity_svg(records: list[IterationRecord]) -> str:
    """Selected-capacity boxes per sample size and family, linear scale."""
    return _grouped_box_figure(records, ["h"], [False])


def predictions_svg(
    cfg: ExperimentConfig, records: list[IterationRecord], sample_size: int, iteration: int = 0
) -> str:
    """Overlay of the true impulse response, both winners and the noisy sample.

    The (sample size, iteration) cell's training set is regenerated from the
    configuration's seed derivation and each family's recorded winner is
    refit on it, so the figure needs no stored predictions.
    """
    n = sample_size
    cell = {
        r.family: r for r in records
        if r.sample_size == n and r.iteration == iteration
    }
    if not cell:
        recorded = sorted({r.iteration for r in records if r.sample_size == n})
        known = (
            f"iterations recorded at n={n}: {recorded}" if recorded
            else f"available sizes: {sorted({r.sample_size for r in records})}"
        )
        raise InvalidInputError(f"no records for n={n}, iteration={iteration}; {known}")
    plan = next((p for p in cfg.plans if p.n_samples == n), None)
    if plan is None:
        raise InvalidInputError(f"configuration has no sampling plan with n={n}")

    data = cfg.training_set(plan, iteration)
    dense_t = plan.base_grid()
    dense_h = impulse_response(cfg.params, dense_t)

    curves: list[tuple[str, np.ndarray, str]] = [("true", np.asarray(dense_h), _TRUE_COLOR)]
    for fam, spec in ((fam, cell[fam].chosen_spec) for fam in FAMILIES if fam in cell):
        cross = decimated_cross_kernel(spec, dense_t, plan.decimation)
        curves.append((fam, cross @ fit(spec, data, data.sigma_n).weights, _FAMILY_COLOR[fam]))

    width, height = 720, 420
    plot_x, plot_y, plot_w, plot_h = 70, 30, width - 100, height - 90
    all_y = np.concatenate([c[1] for c in curves] + [data.y])
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    pad = 0.06 * ((y_hi - y_lo) or 1.0)
    xs = _Scale(float(dense_t[0]), float(dense_t[-1]), plot_x, plot_x + plot_w, log=False)
    ys = _Scale(y_lo - pad, y_hi + pad, plot_y + plot_h, plot_y, log=False)

    title = f"impulse response and predictions, n={n}, iteration {iteration}"
    body = [
        _text(title, width / 2, "18", "12", text_anchor="middle"),
        *_y_axis(ys, plot_x, plot_w),
        *(_text(_tick_label(tick), xs(tick), plot_y + plot_h + 16, "9", text_anchor="middle")
          for tick in xs.ticks()),
        _frame(plot_x, plot_y, plot_w, plot_h),
        _group([
            _tag("circle", cx=xs(float(ti)), cy=ys(float(yi)), r="2",
                 fill=_SCATTER_COLOR, fill_opacity="0.6")
            for ti, yi in zip(data.t, data.y)
        ], class_="scatter"),
    ]
    for series, values, color in curves:
        points = " ".join(f"{_f(xs(float(a)))},{_f(ys(float(b)))}" for a, b in zip(dense_t, values))
        body.append(_tag(
            "polyline", class_="curve", data_series=series, points=points,
            fill="none", stroke=color, stroke_width="1.5",
        ))
    legend_entries = [("sample", _SCATTER_COLOR)] + [(s, c) for s, _, c in curves]
    body.append(_legend(width - 90, plot_y + 8, legend_entries))
    body.append(_text("time (s)", plot_x + plot_w / 2, height - 12, "11", text_anchor="middle"))
    return _svg_document(width, height, body)
