"""Monte-Carlo study: repeated SRM selection across sample sizes and kernels.

For every sampling plan and iteration, a fresh noise realisation of the
training set is drawn, both kernel structures are searched exhaustively,
and each structure's winner is scored by its guaranteed-risk bound and by
the MSE between its prediction and the noise-free signal on the dense base
grid. The per-iteration seed is base_seed + iteration index, so any single
(plan, iteration) cell can be recomputed in isolation and reproduces its
record exactly.

The study runs plan by plan. Every iteration of a plan shares its sample
times, so each family's selections for all the iterations are one
srm_select_batch call: one eigendecomposition per (plan, base kernel)
instead of one per (plan, iteration, base kernel). The winners of both
families are then refit by Cholesky and predicted on the dense grid in one
fit_predict_batch call, which builds one Gram matrix and one dense
cross-kernel matrix per (plan, winning base kernel) and computes no edf.

Outputs serialize to records.csv (one row per record), summary.json
(five-number boxplot statistics per sample size, family and metric) and
config.json (echo of the configuration). Floats carry 17 significant
digits; infinite bounds are written as "inf".
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, SrmksError, require_int
from .ioutil import csv_row, json_float
from .kernels import KernelSpec, SDOFKernel, SEKernel
from .oscillator import (
    OscillatorParams,
    SamplingPlan,
    TrainingSet,
    generate_training_set,
    impulse_response,
)
from .risk import BoundConfig, RiskReport, empirical_risk
from .smoother import fit_predict_batch
from .srm import StructureGrid, build_sdof_grid, build_se_grid, srm_select_batch

__all__ = [
    "GridSettings",
    "ExperimentConfig",
    "IterationRecord",
    "BoxStats",
    "BoxplotSummary",
    "CapacitySpread",
    "ExperimentError",
    "default_config",
    "run_iteration",
    "run_experiment",
    "records_to_csv",
    "records_from_csv",
    "summarize",
    "capacity_spread",
]

FAMILIES = ("se", "sdof")
METRICS = ("bound", "true_mse", "h")

RECORDS_CSV_HEADER = "n,iteration,family,sigma_f,length_scale,emp_risk,h,bound,true_mse"


class ExperimentError(SrmksError):
    """A unit of the study failed; the message names the failing cell."""


@dataclass(frozen=True)
class GridSettings:
    """Grid resolutions and the shared output-amplitude bracket."""

    se_sigma_count: int = 10
    se_length_count: int = 30
    sdof_sigma_count: int = 30
    amplitude_factors: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self):
        for name in ("se_sigma_count", "se_length_count", "sdof_sigma_count"):
            require_int(f"grids.{name}", getattr(self, name), 1)
        factors = self.amplitude_factors
        if not (
            len(factors) == 2
            and all(math.isfinite(f) for f in factors)
            and 0 < factors[0] < factors[1]
        ):
            raise InvalidInputError(
                "grids.amplitude_factors must be two finite numbers lo, hi with "
                f"0 < lo < hi, got {list(factors)!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "se_sigma_count": self.se_sigma_count,
            "se_length_count": self.se_length_count,
            "sdof_sigma_count": self.sdof_sigma_count,
            "amplitude_factors": [json_float(f) for f in self.amplitude_factors],
        }

    def family_grid(
        self, family: str, data: TrainingSet, params: OscillatorParams
    ) -> StructureGrid:
        """The data-driven grid of `family` ("se" or "sdof") for `data`.

        Both families sweep the same output amplitudes sqrt(k(0)),
        amplitude_factors times RMS(y), which keeps their treatment
        symmetric. For SE, sigma_f is that amplitude and the length-scale
        spans the smallest training-point gap up to the full span. For the
        oscillator family sqrt(k(0)) = sigma_f / sqrt(4 m^2 zeta omega_n^3),
        so its sigma_f bracket is the amplitude bracket rescaled by
        sqrt(4 m^2 zeta omega_n^3), with `params` held fixed.
        """
        rms = float(np.sqrt(np.mean(data.y**2)))
        lo, hi = (factor * rms for factor in self.amplitude_factors)
        if family == "se":
            l_range = (float(np.min(np.diff(data.t))), float(data.t[-1] - data.t[0]))
            return build_se_grid((lo, hi), l_range, self.se_sigma_count, self.se_length_count)
        SDOFKernel(sigma_f=1.0, params=params)  # rejects params before the scale overflows
        scale = np.sqrt(4.0 * params.m**2 * params.zeta * params.omega_n**3)
        return build_sdof_grid(params, (lo * scale, hi * scale), self.sdof_sigma_count)

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSettings":
        defaults = cls()
        factors = d.get("amplitude_factors", list(defaults.amplitude_factors))
        if not isinstance(factors, list):
            raise InvalidInputError(f"grids.amplitude_factors must be a list, got {factors!r}")
        return cls(
            se_sigma_count=d.get("se_sigma_count", defaults.se_sigma_count),
            se_length_count=d.get("se_length_count", defaults.se_length_count),
            sdof_sigma_count=d.get("sdof_sigma_count", defaults.sdof_sigma_count),
            amplitude_factors=tuple(float(f) for f in factors),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    params: OscillatorParams
    plans: tuple[SamplingPlan, ...]
    repetitions: int
    base_seed: int
    grids: GridSettings = field(default_factory=GridSettings)
    bound_config: BoundConfig = field(default_factory=BoundConfig)

    def __post_init__(self):
        require_int("repetitions", self.repetitions, 1)
        SDOFKernel(sigma_f=1.0, params=self.params)  # rejects params the SDOF grid cannot use
        if not self.plans:
            raise InvalidInputError("at least one sampling plan is required")
        require_int("base_seed", self.base_seed, 0)

    def iteration_seed(self, iteration: int) -> int:
        return self.base_seed + iteration

    def to_json_dict(self) -> dict:
        return {
            "oscillator": self.params.to_json_dict(),
            "plans": [p.to_json_dict() for p in self.plans],
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "grids": self.grids.to_json_dict(),
            "bound": self.bound_config.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        plans = tuple(SamplingPlan.from_json_dict(p) for p in d["plans"])
        return cls(
            params=OscillatorParams.from_json_dict(d["oscillator"]),
            plans=plans,
            repetitions=d["repetitions"],
            base_seed=d["base_seed"],
            grids=GridSettings.from_json_dict(d.get("grids", {})),
            bound_config=BoundConfig.from_json_dict(d.get("bound", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(text))


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


def run_iteration(cfg: ExperimentConfig, plan: SamplingPlan, iteration: int) -> list[IterationRecord]:
    """Run both structures for one plan and iteration; deterministic given cfg.

    The plan's own seed field is replaced by the derived per-iteration seed.
    The cell takes the same path as in run_experiment, so it reproduces the
    study's records exactly.
    """
    return _run_plan(cfg, plan, [iteration])


def run_experiment(cfg: ExperimentConfig) -> list[IterationRecord]:
    """Run the full study; records come back sorted by (plan order, iteration, family)."""
    records: list[IterationRecord] = []
    for plan in cfg.plans:
        records.extend(_run_plan(cfg, plan, range(cfg.repetitions)))
    return records


@contextmanager
def _tagged(n: int, iteration: int, family: str):
    """Re-raise a failure inside one cell as an ExperimentError naming the cell."""
    try:
        yield
    except SrmksError as exc:
        raise ExperimentError(f"n={n}, iteration={iteration}, family={family}: {exc}") from exc


def _select_family(
    cfg: ExperimentConfig,
    family: str,
    iterations: Sequence[int],
    datasets: list[TrainingSet],
) -> list[tuple[KernelSpec, RiskReport]]:
    """Winner of one family's search for each iteration, from one batch."""
    grids = [cfg.grids.family_grid(family, data, cfg.params) for data in datasets]
    try:
        selections = srm_select_batch(grids, datasets, cfg.bound_config)
    except SrmksError:
        # the batch does not say which cell failed: select each alone to name it
        for iteration, grid, data in zip(iterations, grids, datasets):
            with _tagged(data.n, iteration, family):
                srm_select_batch([grid], [data], cfg.bound_config)
        raise
    return [(s.best_spec, s.best_report) for s in selections]


def _run_plan(
    cfg: ExperimentConfig, plan: SamplingPlan, iterations: Sequence[int]
) -> list[IterationRecord]:
    """Records of the given iterations of one plan, in (iteration, family) order."""
    datasets = [
        generate_training_set(cfg.params, replace(plan, seed=cfg.iteration_seed(i)))
        for i in iterations
    ]
    dense_t = plan.base_grid()
    dense_h = impulse_response(cfg.params, dense_t)
    winners = {
        family: _select_family(cfg, family, iterations, datasets) for family in FAMILIES
    }
    cells = [
        (iteration, family, data, *winners[family][k])
        for k, (iteration, data) in enumerate(zip(iterations, datasets))
        for family in FAMILIES
    ]
    pairs = [(spec, data) for _, _, data, spec, _ in cells]
    try:
        predictions = fit_predict_batch(pairs, dense_t)
    except SrmksError:
        # the batch does not say which cell failed: refit each alone to name it
        for (iteration, family, data, _, _), pair in zip(cells, pairs):
            with _tagged(data.n, iteration, family):
                fit_predict_batch([pair], dense_t)
        raise
    return [
        IterationRecord(
            sample_size=data.n,
            iteration=iteration,
            family=family,
            chosen_spec=spec,
            emp_risk=report.empirical_risk,
            bound=report.bound,
            h=report.h,
            true_mse=empirical_risk(dense_h, prediction),
        )
        for (iteration, family, data, spec, report), prediction in zip(cells, predictions)
    ]


def records_to_csv(records: list[IterationRecord]) -> str:
    """CSV text, one record per row; the length-scale column is empty for sdof."""
    lines = [RECORDS_CSV_HEADER]
    for r in records:
        spec = r.chosen_spec
        length = spec.length_scale if isinstance(spec, SEKernel) else ""
        lines.append(
            csv_row(
                [r.sample_size, r.iteration, r.family, spec.sigma_f, length,
                 r.emp_risk, r.h, r.bound, r.true_mse]
            )
        )
    return "\n".join(lines) + "\n"


def records_from_csv(text: str, params: OscillatorParams | None = None) -> list[IterationRecord]:
    """Parse records.csv; `params` rebuilds sdof specs (defaults to the reference system)."""
    if params is None:
        params = default_config().params
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != RECORDS_CSV_HEADER:
        raise InvalidInputError(
            f"records CSV must start with header '{RECORDS_CSV_HEADER}'"
        )
    if len(lines) < 2:
        raise InvalidInputError("records CSV holds zero records")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 9:
            raise InvalidInputError(f"malformed records row: {ln!r}")
        n, iteration, family, sigma_f, length, emp, h, bound, tmse = parts
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
class BoxStats:
    """Five-number summary plus mean; None when no finite values exist.

    Quantiles use linear interpolation between order statistics (the median
    of an even count is the midpoint of the two central values). Infinite
    values are excluded and counted separately.
    """

    minimum: float | None
    q1: float | None
    median: float | None
    q3: float | None
    maximum: float | None
    mean: float | None
    count: int
    infinite_count: int

    def to_json_dict(self) -> dict:
        def opt(v):
            return None if v is None else json_float(v)

        return {
            "min": opt(self.minimum),
            "q1": opt(self.q1),
            "median": opt(self.median),
            "q3": opt(self.q3),
            "max": opt(self.maximum),
            "mean": opt(self.mean),
            "count": self.count,
            "infinite_count": self.infinite_count,
        }


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
        return json.dumps(doc, indent=2) + "\n"


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
    """Median h per sample size for one family; spread = (max - min) / min."""
    by_n: dict[int, list[float]] = {}
    for r in records:
        if r.family == family:
            by_n.setdefault(r.sample_size, []).append(r.h)
    if len(by_n) < 2:
        raise InvalidInputError(
            f"capacity spread needs records for >= 2 sample sizes, got {len(by_n)}"
        )
    medians = {n: float(np.median(vals)) for n, vals in sorted(by_n.items())}
    lo = min(medians.values())
    hi = max(medians.values())
    if hi == lo:
        spread = 0.0
    elif lo == 0.0:
        spread = float("inf")
    else:
        spread = (hi - lo) / lo
    return CapacitySpread(family=family, medians=medians, max_relative_spread=spread)
