"""Structural risk minimisation over nested kernel-smoother families.

A structure is a list of base kernels (sigma_f = 1) whose capacity grows
along the list, each scaled by every signal scale sigma_f; its candidates
are this product, base-major. For the SE family the nesting parameter is
the length-scale: base kernels are ordered by descending l, because
admitting smaller length-scales produces wigglier smoothers with slower
eigenvalue decay and hence a higher effective-degrees-of-freedom capacity.
For the oscillator family the physical coefficients are fixed (assumed
known), so there is one base kernel and only sigma_f varies. The builders
take explicit ranges; GridSettings derives them from the data (family_grids).

Selection is an exhaustive search: every candidate's training MSE and
capacity are computed and the guaranteed-risk bound scores it. The
candidates of one base kernel share one eigendecomposition of its Gram
matrix, from which each signal scale is scored in O(n) from its rho =
sigma_f^2 / sigma_n^2. The decomposition depends on the sample times only,
so srm_select_batch searches the repetitions of one sampling plan together:
one decomposition per (plan, base kernel), i.e. one per length-scale for
the SE grid and one in all for the oscillator grid, all from one
smoother.decompose call and hence one verdict on the times, and one
projection of the stacked targets per base scores every repetition at
every scale as one (sets x scales) array (smoother.signal_scale_scores)
and refits the winners; the bases' arrays, joined base-major, hold every
set's candidates in grid order. srm_select, which `select` calls, is the
batch of one. Each set's bounds are one risk.vc_bounds call, kept as
arrays, from which the trace files are written a column at a time: only
the winner becomes a kernel spec, a RiskReport, its base and weights. No
decomposition outlives its batch, whose spectra (smoother.Spectrum) hold
7.8 MB for 31 bases at n = 251 and 124 MB at n = 1001. The winner
minimises the bound; ties go to the smaller capacity (the simplest
adequate element), then to grid order. If every candidate clips to
+infinity the selection still returns the smallest-capacity candidate,
flagged degenerate, so batch runs never abort.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import InvalidInputError, require_int
from .ioutil import JsonRecord, csv_text, fmt_float, json_rows_text
from .kernels import KERNELS, KernelSpec, SDOFKernel, SEKernel, kernel_to_json_dict
from .oscillator import OscillatorParams, TrainingSet
from .risk import BoundConfig, Bounds, RiskReport, vc_bounds
from .smoother import decompose, require_determined_noise, signal_scale_scores, spectral_weights

__all__ = [
    "FAMILIES",
    "GridSettings",
    "StructureGrid",
    "SelectionResult",
    "build_se_grid",
    "build_sdof_grid",
    "require_se_sample_count",
    "srm_select",
    "srm_select_batch",
    "compare_structures",
    "selection_to_json",
    "trace_to_csv",
]

FAMILIES = tuple(KERNELS)


@dataclass(frozen=True)
class StructureGrid:
    """One nested structure: every base kernel at every signal scale.

    `bases` are the sigma_f = 1 kernels in capacity order and `sigma_fs`
    the signal scales, in any order (the builders make them ascending),
    each a sigma_f the bases accept; the candidates are their product, base-major.
    """

    family: str
    bases: tuple[KernelSpec, ...]
    sigma_fs: tuple[float, ...]

    def __post_init__(self):
        if not (self.bases and self.sigma_fs):
            raise InvalidInputError("a structure needs at least one base kernel and signal scale")
        if any(b.family != self.family or b.sigma_f != 1.0 for b in self.bases):
            raise InvalidInputError(
                "base kernels must share the structure's family and have sigma_f = 1"
            )
        # a positive scale fails the kernels' rule only if the largest does, on the largest k(0)
        top = max(self.bases, key=lambda base: base.unit_diagonal)
        for scale in (max(self.sigma_fs), *(s for s in self.sigma_fs if not s > 0)):
            replace(top, sigma_f=scale)

    @property
    def candidates(self) -> tuple[KernelSpec, ...]:
        return tuple(map(self.candidate, range(self.size)))

    @property
    def size(self) -> int:
        return len(self.bases) * len(self.sigma_fs)

    def candidate(self, i: int) -> KernelSpec:
        """Candidate i: base i // len(sigma_fs) at signal scale i % len(sigma_fs)."""
        base, scale = divmod(i, len(self.sigma_fs))
        return replace(self.bases[base], sigma_f=self.sigma_fs[scale])


@dataclass(frozen=True)
class SelectionResult:
    """Winner of an exhaustive search plus the scores of every candidate of `grid`.

    kernel_eval(base, t*, data.t) @ weights predicts the winner, base its grid's sigma_f = 1 kernel.
    """

    family: str
    best_spec: KernelSpec
    best_report: RiskReport
    degenerate: bool
    grid: StructureGrid = field(compare=False, repr=False)
    scores: Bounds = field(compare=False, repr=False)
    base: KernelSpec = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def trace(self) -> tuple[tuple[KernelSpec, RiskReport], ...]:
        """(spec, report) of every candidate in grid order; the acceptance tests read it."""
        grid, scores = self.grid, self.scores
        return tuple((grid.candidate(i), scores.report(i)) for i in range(grid.size))


def _require_bracket(name: str, bracket) -> None:
    """Raise InvalidInputError unless `bracket` is two finite numbers lo, hi with 0 < lo < hi."""
    if not (len(bracket) == 2 and np.isfinite(bracket).all() and 0 < bracket[0] < bracket[1]):
        raise InvalidInputError(
            f"{name} must be two finite numbers lo, hi with 0 < lo < hi, got {list(bracket)!r}"
        )


def _log_spaced(name: str, brackets, count: int) -> list[tuple[float, ...]]:
    """`count` log-spaced values over each row lo, hi of `brackets`, each row bit for bit its
    own np.geomspace. Raises InvalidInputError for a row that fails _require_bracket and, for
    count > 1, a row with log10(lo) == log10(hi): one np.geomspace over all rows would then
    take linspace's zero-step branch for every row. The kernels judge the values.
    """
    require_int(f"the {name} count", count, 1)
    lo, hi = np.transpose(brackets)
    valid = (0 < lo) & (lo < hi) & (hi < np.inf)
    if not valid.all():
        _require_bracket(f"the {name} range", np.asarray(brackets)[np.argmin(valid)].tolist())
    if count > 1 and np.any(np.log10(lo) == np.log10(hi)):
        raise InvalidInputError(f"a {name} range is too narrow: lo and hi have the same log10")
    return list(map(tuple, np.geomspace(lo, hi, count, axis=1).tolist()))


def _se_bases(l_range: tuple[float, float], n_l: int) -> tuple[SEKernel, ...]:
    """The SE base kernels (sigma_f = 1) at `n_l` length-scales over `l_range`, descending."""
    return tuple(SEKernel(1.0, l) for l in _log_spaced("length_scale", [l_range], n_l)[0][::-1])


def build_se_grid(
    sigma_f_range: tuple[float, float],
    l_range: tuple[float, float],
    n_sigma: int,
    n_l: int,
) -> StructureGrid:
    """SE structure: Cartesian grid over l (descending) and sigma_f (ascending).

    The primary ordering key is the descending length-scale, so capacity is
    nondecreasing along the candidate list.
    """
    (sigma_fs,) = _log_spaced("sigma_f", [sigma_f_range], n_sigma)
    return StructureGrid("se", _se_bases(l_range, n_l), sigma_fs)


def build_sdof_grid(
    params: OscillatorParams,
    sigma_f_range: tuple[float, float],
    n_sigma: int,
) -> StructureGrid:
    """Oscillator structure: sigma_f grid with the coefficients held fixed."""
    (sigma_fs,) = _log_spaced("sigma_f", [sigma_f_range], n_sigma)
    return StructureGrid("sdof", (SDOFKernel(sigma_f=1.0, params=params),), sigma_fs)


@dataclass(frozen=True)
class GridSettings(JsonRecord):
    """Grid resolutions and the shared output-amplitude bracket."""

    se_sigma_count: int = 10
    se_length_count: int = 30
    sdof_sigma_count: int = 30
    amplitude_factors: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self):
        for name in ("se_sigma_count", "se_length_count", "sdof_sigma_count"):
            require_int(f"grids.{name}", getattr(self, name), 1)
        _require_bracket("grids.amplitude_factors", self.amplitude_factors)

    def family_grid(
        self, family: str, data: TrainingSet, params: OscillatorParams
    ) -> StructureGrid:
        """The data-driven grid of `family` ("se" or "sdof") for `data`.

        Both families sweep the same output amplitudes sqrt(k(0)) =
        sigma_f / sqrt(variance_scale), amplitude_factors times RMS(y),
        which keeps their treatment symmetric. SE's length-scales span the
        smallest training-point gap up to the full span; SDOF holds `params` fixed.
        """
        return self.family_grids(family, [data], params)[0]

    def family_grids(
        self, family: str, datasets: Sequence[TrainingSet], params: OscillatorParams
    ) -> list[StructureGrid]:
        """family_grid of each of `datasets`, which must share their sample times: one set of
        bases, one mean for all RMS(y), exact from y / 2^e (_scaled_targets), and one
        _log_spaced call for all sigma_f rows. A family not in FAMILIES, or an RMS(y)^2, the
        scale of the risks, that is 0 or not finite, raises InvalidInputError.
        """
        if family not in FAMILIES:
            raise InvalidInputError(f"unknown family {family!r}, expected one of {FAMILIES}")
        t = datasets[0].t
        if family == "se":
            require_se_sample_count(t.size)
            l_range = (float(np.min(np.diff(t))), float(t[-1] - t[0]))
            bases, count = _se_bases(l_range, self.se_length_count), self.se_sigma_count
        else:
            bases, count = (SDOFKernel(sigma_f=1.0, params=params),), self.sdof_sigma_count
        unit = np.sqrt(bases[0].variance_scale)  # the sigma_f of a unit amplitude sqrt(k(0))
        y, e = _scaled_targets(datasets)
        with np.errstate(over="ignore"):  # an overflow leaves an RMS(y) or a bracket infinite
            rms = np.ldexp(np.sqrt(np.mean(y**2, axis=1)), e)
            brackets = np.multiply.outer(rms, self.amplitude_factors) * unit
        if not np.all((0.0 < rms**2) & (rms**2 < np.inf)):
            raise InvalidInputError("the amplitude bracket and risks need a finite RMS(y)^2 > 0")
        return [StructureGrid(family, bases, s) for s in _log_spaced("sigma_f", brackets, count)]


def _scaled_targets(datasets: Sequence[TrainingSet]) -> tuple[np.ndarray, np.ndarray]:
    """(y / 2^e, e) for the stacked targets y of `datasets`, e per set: 0 unless the set's
    largest |y| is below 2^-256, where its squares can be subnormal, else that |y|'s
    exponent. The division is exact, and where the squares stay normal it changes no score.
    """
    y = np.stack([data.y for data in datasets])
    top = np.max(np.abs(y), axis=1)
    e = np.where(top < 2.0**-256, np.frexp(top)[1], 0)
    return (np.ldexp(y, -e[:, None]) if e.any() else y), e


def require_se_sample_count(n: int) -> None:
    """Raise InvalidInputError unless n >= 3, the fewest training points the SE grid spans."""
    if n < 3:
        raise InvalidInputError(
            f"the SE grid needs at least three training points, got {n}: its length-scales run "
            "from the smallest gap to the span, which coincide at two"
        )


def srm_select(
    grid: StructureGrid,
    data: TrainingSet,
    bound_config: BoundConfig | None = None,
) -> SelectionResult:
    """Exhaustively score every candidate and return the minimum-bound one.

    Every candidate uses the training set's own noise level and is scored
    by risk.vc_bounds; ``bound_config=None`` means ``BoundConfig()``, the
    reduced bound. The trace keeps grid order.
    """
    return srm_select_batch([grid], [data], bound_config)[0]


def srm_select_batch(
    grids: Sequence[StructureGrid],
    datasets: Sequence[TrainingSet],
    bound_config: BoundConfig | None = None,
) -> list[SelectionResult]:
    """``srm_select(grids[r], datasets[r], bound_config)`` for every r at once.

    The training sets must share their sample times, and the grids their
    base kernels and number of signal scales; the scales themselves may
    differ. The sets stack into arrays, each base's projections z (sets x n) and rho =
    sigma_f^2 / sigma_n^2 (sets x scales), which the winners' weights read too. z projects
    y / 2^e (_scaled_targets): a winner is picked on exact risks, then scaled back.
    Raises InvalidInputError if the counts, sample times, bases or scale
    counts differ, or if a set's sigma_n fails require_determined_noise at
    top = (its largest sigma_f)^2 * lambda_max; its `set_index` is the set's position.
    """
    if len(grids) != len(datasets):
        raise InvalidInputError("srm_select_batch needs one grid per training set")
    if not grids:
        return []
    if any(not np.array_equal(data.t, datasets[0].t) for data in datasets[1:]):
        raise InvalidInputError("batched training sets must share their sample times")
    bases, count = grids[0].bases, len(grids[0].sigma_fs)
    if any(grid.bases != bases or len(grid.sigma_fs) != count for grid in grids[1:]):
        raise InvalidInputError("batched grids must share base kernels and number of signal scales")
    n = datasets[0].n
    spectra = decompose(bases, datasets[0].t)
    top = float(max(spectrum.eigenvalues.max() for spectrum in spectra))
    for r, (grid, data) in enumerate(zip(grids, datasets)):
        try:
            require_determined_noise(data.sigma_n, n, max(grid.sigma_fs) ** 2 * top)
        except InvalidInputError as exc:
            exc.set_index = r
            raise
    y, e = _scaled_targets(datasets)
    z = [spectrum.project(y) for spectrum in spectra]  # (sets x n) per base, of y / 2^e
    rho = np.array([np.divide(g.sigma_fs, d.sigma_n) for g, d in zip(grids, datasets)]) ** 2
    scored = [signal_scale_scores(spectrum, zs, rho) for spectrum, zs in zip(spectra, z)]
    edf, mse = (np.concatenate([block[k] for block in scored], axis=1) for k in (0, 1))
    results = []
    for r, grid in enumerate(grids):
        scores = vc_bounds(mse[r], edf[r], n, bound_config)
        # lexsort is stable: the (bound, h, grid index) order
        best = int(np.lexsort((scores.h, scores.bound))[0])
        b = best // count
        weights = spectral_weights(spectra[b], rho[r, best % count], z[b][r])
        if e[r]:  # back from y / 2^e: risks scale by 4^e, weights by 2^e
            risk, bound = (np.ldexp(v, 2 * e[r]) for v in (scores.empirical_risk, scores.bound))
            scores = replace(scores, empirical_risk=risk, bound=bound)
            weights = np.ldexp(weights, e[r])
        results.append(SelectionResult(
            grid.family, grid.candidate(best), scores.report(best), bool(scores.clipped.all()),
            grid, scores, bases[b], weights,
        ))
    return results


def compare_structures(results: list[SelectionResult]) -> SelectionResult:
    """Pick the structure whose winner has the smallest guaranteed risk.

    Ties break toward the smaller capacity, then toward list order.
    """
    if not results:
        raise InvalidInputError("no structures to compare")
    return min(results, key=lambda r: (r.best_report.bound, r.best_report.h))


def _spec_columns(grid: StructureGrid) -> dict:
    """kernel_to_json_dict of every candidate in grid order, its numbers as arrays."""
    bases = [kernel_to_json_dict(base) for base in grid.bases]
    spec = {key: np.repeat([base[key] for base in bases], len(grid.sigma_fs)) for key in bases[0]}
    return {**spec, "family": grid.family, "sigma_f": np.tile(grid.sigma_fs, len(bases))}


def selection_to_json(result: SelectionResult) -> str:
    """Winner plus full trace as a JSON document, the trace written from the score arrays."""
    best = result.best_report.to_json_dict()
    doc = {
        "family": result.family,
        "degenerate": result.degenerate,
        "best_spec": kernel_to_json_dict(result.best_spec),
        "best_report": best,
    }
    # a report field is a Bounds array or its shared n or delta
    report = {key: getattr(result.scores, key) for key in best}
    return json_rows_text(doc, "trace", {"spec": _spec_columns(result.grid), "report": report})


def trace_to_csv(result: SelectionResult) -> str:
    """One row per candidate: its risk report, then its sigma_f and SE length-scale."""
    scores, spec = result.scores, _spec_columns(result.grid)
    return csv_text("kernel,n,h,p,delta,emp_risk,bound,clipped,sigma_f,length_scale", [
        repeat(result.family), repeat(scores.n), scores.h, scores.p,
        repeat(fmt_float(scores.delta)), scores.empirical_risk, scores.bound, scores.clipped,
        spec["sigma_f"], spec.get("length_scale", repeat("")),
    ])
