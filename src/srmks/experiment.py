"""Monte-Carlo study: repeated SRM selection across sample sizes and kernels.

For every sampling plan and iteration, a fresh noise realisation of the
training set is drawn, both kernel structures are searched exhaustively,
and each structure's winner is scored by its guaranteed-risk bound and by
the MSE between its prediction and the noise-free signal on the dense base
grid. The per-iteration seed is base_seed + iteration index, so any single
(plan, iteration) cell can be recomputed in isolation: run_experiment on
that plan alone, with one repetition and base_seed + iteration as its base
seed, reproduces the cell's records exactly but for their iteration label.

The study runs plan by plan. Every iteration of a plan shares its sample
times, so each family's selections for all the iterations are one
srm_select_batch call: one eigendecomposition per (plan, base kernel)
instead of one per (plan, iteration, base kernel). The same batch refits
each winner from that decomposition and returns its weights, which one
dense cross-kernel matrix per (plan, winning base kernel) maps onto the
dense grid. The sample times are every d-th point of the plan's uniform
base grid, so smoother.decimated_cross_kernel gathers that matrix from
the base grid's lag column, N kernel evaluations instead of N * n. The
study makes no Cholesky factorisation.

Outputs serialize to records.csv (one row per record), summary.json
(five-number boxplot statistics per sample size, family and metric) and
config.json (echo of the configuration), all written by ioutil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, SrmksError, require_int
from .ioutil import JsonRecord, csv_table, csv_text, fmt_float, json_text
from .kernels import KernelSpec, SDOFKernel, SEKernel
from .oscillator import (
    OscillatorParams,
    SamplingPlan,
    TrainingSet,
    generate_training_set,
    impulse_response,
)
from .risk import BoundConfig, empirical_risk
from .smoother import decimated_cross_kernel
from .srm import FAMILIES, GridSettings, SelectionResult, require_se_sample_count, srm_select_batch

__all__ = [
    "ExperimentConfig",
    "IterationRecord",
    "BoxStats",
    "BoxplotSummary",
    "CapacitySpread",
    "ExperimentError",
    "default_config",
    "run_experiment",
    "records_to_csv",
    "records_from_csv",
    "summarize",
    "capacity_spread",
]

METRICS = ("bound", "true_mse", "h")

RECORDS_CSV_HEADER = "n,iteration,family,sigma_f,length_scale,emp_risk,h,bound,true_mse"


class ExperimentError(SrmksError):
    """A unit of the study failed; the message names the failing cell."""


@dataclass(frozen=True)
class ExperimentConfig(JsonRecord):
    """The study's settings; every plan keeps at least three samples for the SE grid.

    Repetition i draws its noise at seed base_seed + i, so a plan's own `seed` is
    never read, only round-tripped; `experiment --seed` sets base_seed alone.
    """

    params: OscillatorParams = field(metadata={"key": "oscillator"})
    plans: tuple[SamplingPlan, ...]
    repetitions: int
    base_seed: int
    grids: GridSettings = field(default_factory=GridSettings)
    bound_config: BoundConfig = field(default_factory=BoundConfig, metadata={"key": "bound"})

    def __post_init__(self):
        require_int("repetitions", self.repetitions, 1)
        SDOFKernel(sigma_f=1.0, params=self.params)  # rejects params the SDOF grid cannot use
        if not self.plans:
            raise InvalidInputError("at least one sampling plan is required")
        sizes = [plan.n_samples for plan in self.plans]
        if len(set(sizes)) < len(sizes):
            # records, summaries and figures are keyed by n alone
            raise InvalidInputError(f"sampling plans must differ in n_samples, got {sizes}")
        require_se_sample_count(min(sizes))  # the study searches SE on every plan
        if not all(math.isfinite(plan.snr) for plan in self.plans):
            raise InvalidInputError(
                "every sampling plan needs a finite snr: the study's SRM needs noisy data"
            )
        require_int("base_seed", self.base_seed, 0)

    def iteration_seed(self, iteration: int) -> int:
        return self.base_seed + iteration

    def training_set(self, plan: SamplingPlan, iteration: int) -> TrainingSet:
        """The plan's training set at the iteration's derived seed."""
        return generate_training_set(self.params, replace(plan, seed=self.iteration_seed(iteration)))


def default_config(repetitions: int = 100, base_seed: int = 1234) -> ExperimentConfig:
    """Reference study: 100 noise realisations over n = 63, 126, 251 at SNR 10."""
    params = OscillatorParams(m=1.0, c=20.0, k=1e6)
    plans = tuple(
        SamplingPlan(
            t_start=0.0, t_end=0.3, base_points=1001,
            decimation=dec, snr=10.0, seed=base_seed,
        )
        for dec in (16, 8, 4)
    )
    return ExperimentConfig(
        params=params, plans=plans, repetitions=repetitions, base_seed=base_seed
    )


@dataclass(frozen=True)
class IterationRecord:
    """One structure's winner for one (sample size, iteration) cell."""

    sample_size: int
    iteration: int
    family: str
    chosen_spec: KernelSpec
    emp_risk: float
    bound: float
    h: float
    true_mse: float


def run_experiment(cfg: ExperimentConfig) -> list[IterationRecord]:
    """Run the full study; records come back sorted by (plan order, iteration, family)."""
    records: list[IterationRecord] = []
    for plan in cfg.plans:
        records.extend(_run_plan(cfg, plan))
    return records


def _select_family(
    cfg: ExperimentConfig, family: str, datasets: list[TrainingSet]
) -> list[SelectionResult]:
    """One family's search for each iteration, from one batch; set i is iteration i."""
    grids = cfg.grids.family_grids(family, datasets, cfg.params)
    try:
        return srm_select_batch(grids, datasets, cfg.bound_config)
    except SrmksError as exc:
        # the noise rule names its failing set; any other failure hits every set
        iteration = getattr(exc, "set_index", 0)
        cell = f"n={datasets[0].n}, iteration={iteration}, family={family}"
        raise ExperimentError(f"{cell}: {exc}") from exc


def _run_plan(cfg: ExperimentConfig, plan: SamplingPlan) -> list[IterationRecord]:
    """Records of every iteration of one plan, in (iteration, family) order."""
    datasets = [cfg.training_set(plan, i) for i in range(cfg.repetitions)]
    dense_t = plan.base_grid()
    dense_h = impulse_response(cfg.params, dense_t)
    selections = {family: _select_family(cfg, family, datasets) for family in FAMILIES}
    cross: dict[KernelSpec, np.ndarray] = {}  # k*_0 per winning base kernel
    records = []
    for iteration, data in enumerate(datasets):
        for family in FAMILIES:
            selection = selections[family][iteration]
            spec, report, base = selection.best_spec, selection.best_report, selection.base
            if base not in cross:
                cross[base] = decimated_cross_kernel(base, dense_t, plan.decimation)
            prediction = cross[base] @ selection.weights
            records.append(IterationRecord(
                data.n, iteration, family, spec, report.empirical_risk, report.bound,
                report.h, empirical_risk(dense_h, prediction),
            ))
    return records


def records_to_csv(records: list[IterationRecord]) -> str:
    """CSV text, one record per row; the length-scale column is empty for sdof."""
    floats = [(r.chosen_spec.sigma_f, r.emp_risk, r.h, r.bound, r.true_mse) for r in records]
    sigma_f, *risks = np.reshape(floats, (-1, 5)).T
    return csv_text(RECORDS_CSV_HEADER, [
        [r.sample_size for r in records], [r.iteration for r in records],
        [r.family for r in records], sigma_f,
        [fmt_float(r.chosen_spec.length_scale) if r.family == "se" else "" for r in records], *risks,
    ])


def records_from_csv(text: str, params: OscillatorParams | None = None) -> list[IterationRecord]:
    """Parse records.csv; `params` rebuilds sdof specs (defaults to the reference system)."""
    if params is None:
        params = default_config().params
    records = []
    for n, iteration, family, sigma_f, length, emp, h, bound, tmse in csv_table(
        text, RECORDS_CSV_HEADER, "records"
    ):
        if family == "se":
            spec: KernelSpec = SEKernel(sigma_f=float(sigma_f), length_scale=float(length))
        elif family == "sdof":
            spec = SDOFKernel(sigma_f=float(sigma_f), params=params)
        else:
            raise InvalidInputError(f"unknown family {family!r} in records row")
        records.append(
            IterationRecord(
                sample_size=int(n),
                iteration=int(iteration),
                family=family,
                chosen_spec=spec,
                emp_risk=float(emp),
                h=float(h),
                bound=float(bound),
                true_mse=float(tmse),
            )
        )
    return records


@dataclass(frozen=True)
class BoxStats(JsonRecord):
    """Five-number summary plus mean; None when no finite values exist.

    Quantiles use linear interpolation between order statistics (the median
    of an even count is the midpoint of the two central values). Infinite
    values are excluded and counted separately.
    """

    minimum: float | None = field(metadata={"key": "min"})
    q1: float | None
    median: float | None
    q3: float | None
    maximum: float | None = field(metadata={"key": "max"})
    mean: float | None
    count: int
    infinite_count: int


def _box_stats(values: np.ndarray) -> BoxStats:
    total = values.size
    finite = values[np.isfinite(values)]
    infinite = total - finite.size
    if finite.size == 0:
        return BoxStats(None, None, None, None, None, None, total, infinite)
    lo, q1, med, q3, hi = np.percentile(finite, [0, 25, 50, 75, 100], method="linear")
    return BoxStats(
        minimum=float(lo),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(hi),
        mean=float(np.mean(finite)),
        count=total,
        infinite_count=infinite,
    )


@dataclass(frozen=True)
class BoxplotSummary:
    """BoxStats per (sample size, family, metric) cell."""

    cells: dict[tuple[int, str, str], BoxStats]

    def get(self, n: int, family: str, metric: str) -> BoxStats:
        return self.cells[(n, family, metric)]

    @property
    def sample_sizes(self) -> list[int]:
        return sorted({n for n, _, _ in self.cells})

    def to_json(self) -> str:
        doc: dict = {}
        for (n, family, metric), stats in sorted(self.cells.items()):
            doc.setdefault(str(n), {}).setdefault(family, {})[metric] = stats.to_json_dict()
        return json_text(doc)


def summarize(records: list[IterationRecord]) -> BoxplotSummary:
    """Boxplot statistics per (n, family, metric in {bound, true_mse, h})."""
    if not records:
        raise InvalidInputError("no records to summarize")
    cells = {}
    sizes = sorted({r.sample_size for r in records})
    for n in sizes:
        for family in FAMILIES:
            group = [r for r in records if r.sample_size == n and r.family == family]
            if not group:
                continue
            for metric in METRICS:
                values = np.array([getattr(r, metric) for r in group])
                cells[(n, family, metric)] = _box_stats(values)
    return BoxplotSummary(cells=cells)


@dataclass(frozen=True)
class CapacitySpread:
    """Median capacity per sample size and their maximum relative spread."""

    family: str
    medians: dict[int, float]
    max_relative_spread: float


def capacity_spread(records: list[IterationRecord], family: str) -> CapacitySpread:
    """summarize's median h per sample size for one family; spread = (max - min) / min."""
    medians = {
        n: stats.median for (n, fam, metric), stats in summarize(records).cells.items()
        if (fam, metric) == (family, "h")
    }
    if len(medians) < 2:
        raise InvalidInputError(
            f"capacity spread needs records for >= 2 sample sizes, got {len(medians)}"
        )
    lo = min(medians.values())
    hi = max(medians.values())
    if hi == lo:
        spread = 0.0
    elif lo == 0.0:
        spread = float("inf")
    else:
        spread = (hi - lo) / lo
    return CapacitySpread(family=family, medians=medians, max_relative_spread=spread)
