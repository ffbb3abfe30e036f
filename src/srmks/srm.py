"""Structural risk minimisation over nested kernel-smoother families.

A structure is a list of base kernels (sigma_f = 1) whose capacity grows
along the list, each scaled by every signal scale sigma_f; its candidates
are this product, base-major. For the SE family the nesting parameter is
the length-scale: base kernels are ordered by descending l, because
admitting smaller length-scales produces wigglier smoothers with slower
eigenvalue decay and hence a higher effective-degrees-of-freedom capacity.
For the oscillator family the physical coefficients are fixed (assumed
known), so there is one base kernel and only sigma_f varies. The builders
here take explicit ranges; the data-driven brackets of the study live in
experiment.GridSettings.family_grid.

Selection is an exhaustive search: every candidate's training MSE and
capacity are computed and the guaranteed-risk bound scores it. The
candidates of one base kernel share one eigendecomposition of its Gram
matrix, from which each signal scale is scored in O(n) (see
smoother.signal_scale_scores). The decomposition depends on the sample
times only, so srm_select_batch searches the repetitions of one sampling
plan together: one decomposition per (plan, base kernel), i.e. one per
length-scale for the SE grid and one in all for the oscillator grid, serves
every repetition, and the bounds of each repetition are evaluated as arrays
(risk.vc_bounds). srm_select is the batch of one. The winner minimises the
bound; ties go to the smaller capacity (the simplest adequate element),
then to grid order. If every candidate clips to +infinity the selection
still returns the smallest-capacity candidate, flagged degenerate, so batch
runs never abort.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .ioutil import csv_row
from .kernels import (
    KernelSpec,
    SDOFKernel,
    SEKernel,
    kernel_to_json_dict,
)
from .oscillator import OscillatorParams, TrainingSet
from .risk import (
    RISK_CSV_HEADER,
    BoundConfig,
    RiskReport,
    risk_csv_row,
    vc_bounds,
)
from .smoother import signal_scale_scores

__all__ = [
    "StructureGrid",
    "SelectionResult",
    "build_se_grid",
    "build_sdof_grid",
    "srm_select",
    "srm_select_batch",
    "compare_structures",
    "selection_to_json",
    "trace_to_csv",
]


@dataclass(frozen=True)
class StructureGrid:
    """One nested structure: every base kernel at every signal scale.

    `bases` are the sigma_f = 1 kernels in capacity order and `sigma_fs`
    the ascending signal scales; the candidates are their product,
    base-major.
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

    @property
    def candidates(self) -> tuple[KernelSpec, ...]:
        return tuple(replace(b, sigma_f=s) for b in self.bases for s in self.sigma_fs)

    @property
    def size(self) -> int:
        return len(self.bases) * len(self.sigma_fs)


@dataclass(frozen=True)
class SelectionResult:
    """Winner of an exhaustive search plus the full per-candidate trace."""

    family: str
    best_spec: KernelSpec
    best_report: RiskReport
    trace: tuple[tuple[KernelSpec, RiskReport], ...]
    degenerate: bool = False


def _log_spaced(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo < hi):
        raise InvalidInputError(f"range must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    return tuple(np.geomspace(lo, hi, count).tolist())


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
    bases = tuple(
        SEKernel(sigma_f=1.0, length_scale=l) for l in _log_spaced(*l_range, n_l)[::-1]
    )
    return StructureGrid("se", bases, _log_spaced(*sigma_f_range, n_sigma))


def build_sdof_grid(
    params: OscillatorParams,
    sigma_f_range: tuple[float, float],
    n_sigma: int,
) -> StructureGrid:
    """Oscillator structure: sigma_f grid with the coefficients held fixed."""
    base = SDOFKernel(sigma_f=1.0, params=params)
    return StructureGrid("sdof", (base,), _log_spaced(*sigma_f_range, n_sigma))


def _selection_key(entry: tuple[int, tuple[KernelSpec, RiskReport]]):
    index, (_, report) = entry
    return (report.bound, report.h, index)


def srm_select(
    grid: StructureGrid,
    data: TrainingSet,
    bound_config: BoundConfig | None = None,
) -> SelectionResult:
    """Exhaustively score every candidate and return the minimum-bound one.

    Every candidate uses the training set's own noise level. With the
    default ``bound_config=None`` candidates are scored by the reduced
    bound; a config scores them by the general bound instead. The trace
    keeps grid order.
    """
    return srm_select_batch([grid], [data], bound_config)[0]


def srm_select_batch(
    grids: Sequence[StructureGrid],
    datasets: Sequence[TrainingSet],
    bound_config: BoundConfig | None = None,
) -> list[SelectionResult]:
    """``srm_select(grids[r], datasets[r], bound_config)`` for every r at once.

    The training sets must share their sample times and the grids their
    base kernels; each base kernel is decomposed once for every set. Raises
    InvalidInputError if the counts, the sample times or the bases differ.
    """
    if len(grids) != len(datasets):
        raise InvalidInputError("srm_select_batch needs one grid per training set")
    if not grids:
        return []
    if any(not np.array_equal(data.t, datasets[0].t) for data in datasets[1:]):
        raise InvalidInputError("batched training sets must share their sample times")
    bases = grids[0].bases
    if any(grid.bases != bases for grid in grids[1:]):
        raise InvalidInputError("batched grids must share their base kernels")
    # scores per set, one row per base kernel and one column per signal scale
    edfs = [np.empty((len(bases), len(grid.sigma_fs))) for grid in grids]
    mses = [np.empty((len(bases), len(grid.sigma_fs))) for grid in grids]
    for b, base in enumerate(bases):
        scores = signal_scale_scores(base, datasets, [grid.sigma_fs for grid in grids])
        for edf, mse, (base_edf, base_mse) in zip(edfs, mses, scores):
            edf[b] = base_edf
            mse[b] = base_mse

    results = []
    for grid, data, edf, mse in zip(grids, datasets, edfs, mses):
        reports = vc_bounds(mse.ravel(), edf.ravel(), data.n, bound_config)
        trace = tuple(zip(grid.candidates, reports))
        _, (best_spec, best_report) = min(enumerate(trace), key=_selection_key)
        results.append(
            SelectionResult(
                family=grid.family,
                best_spec=best_spec,
                best_report=best_report,
                trace=trace,
                degenerate=all(report.clipped for _, report in trace),
            )
        )
    return results


def compare_structures(results: list[SelectionResult]) -> SelectionResult:
    """Pick the structure whose winner has the smallest guaranteed risk.

    Ties break toward the smaller capacity, then toward list order.
    """
    if not results:
        raise InvalidInputError("no structures to compare")
    indexed = [(i, (r.best_spec, r.best_report)) for i, r in enumerate(results)]
    winner_index = min(indexed, key=_selection_key)[0]
    return results[winner_index]


def selection_to_json(result: SelectionResult) -> str:
    """Winner plus full trace as a JSON document."""
    doc = {
        "family": result.family,
        "degenerate": result.degenerate,
        "best_spec": kernel_to_json_dict(result.best_spec),
        "best_report": result.best_report.to_json_dict(),
        "trace": [
            {"spec": kernel_to_json_dict(spec), "report": report.to_json_dict()}
            for spec, report in result.trace
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def trace_to_csv(result: SelectionResult) -> str:
    """Trace rows in the risk-report CSV format plus candidate hyperparameters."""
    lines = [RISK_CSV_HEADER + ",sigma_f,length_scale"]
    for spec, report in result.trace:
        length = spec.length_scale if isinstance(spec, SEKernel) else ""
        lines.append(csv_row([risk_csv_row(result.family, report), spec.sigma_f, length]))
    return "\n".join(lines) + "\n"
