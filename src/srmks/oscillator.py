"""Single degree-of-freedom oscillator simulation and training-set generation.

The system is the classic mass-damper-spring oscillator

    m x''(t) + c x'(t) + k x(t) = F(t)

restricted to the underdamped regime (damping ratio below one). Its unit
impulse response has the closed form

    h(t) = exp(-zeta * omega_n * t) * sin(omega_d * t) / (m * omega_d)

which corresponds to initial conditions x(0) = 0, x'(0) = 1/m. The closed
form is used everywhere; numerical integration only appears in the test
suite as an independent oracle.

Noisy training sets are produced by sampling h on a decimated uniform time
grid and adding i.i.d. Gaussian noise whose variance is set from a
signal-to-noise ratio: SNR = mean-square(signal) / sigma^2, computed over
the kept points. Randomness comes from numpy's PCG64 generator seeded with
a 64-bit integer, so identical inputs give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_int
from .ioutil import JsonRecord, csv_table, csv_text

__all__ = [
    "OscillatorParams",
    "SamplingPlan",
    "TrainingSet",
    "TrainingMeta",
    "impulse_response",
    "generate_training_set",
    "training_set_to_csv",
    "training_set_to_json",
    "training_set_from_files",
]


@dataclass(frozen=True)
class OscillatorParams(JsonRecord):
    """Physical coefficients of the oscillator.

    m : mass (kg), c : damping (N s/m), k : stiffness (N/m).
    Modal quantities (natural frequency, damping ratio, damped frequency)
    are derived properties. Only the underdamped regime (zeta < 1) is
    accepted; the damped frequency is real only there.
    """

    m: float
    c: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.c) and math.isfinite(self.k)):
            raise InvalidInputError("oscillator coefficients must be finite")
        if self.m <= 0:
            raise InvalidInputError(f"mass must be positive, got {self.m}")
        if self.c < 0:
            raise InvalidInputError(f"damping must be nonnegative, got {self.c}")
        if self.k <= 0:
            raise InvalidInputError(f"stiffness must be positive, got {self.k}")
        # omega_n = sqrt(k / m) and zeta = c / (2 sqrt(k m)) need both finite and nonzero
        if not (0.0 < self.k * self.m < math.inf and 0.0 < self.k / self.m < math.inf):
            raise InvalidInputError(
                f"coefficients m = {self.m}, k = {self.k} give k * m or k / m outside "
                "the positive finite range"
            )
        if self.zeta >= 1.0:
            raise InvalidInputError(
                f"underdamped system required: zeta = {self.zeta} >= 1"
            )

    @property
    def omega_n(self) -> float:
        """Natural frequency, sqrt(k/m) (rad/s)."""
        return math.sqrt(self.k / self.m)

    @property
    def zeta(self) -> float:
        """Damping ratio, c / (2 sqrt(k m))."""
        return self.c / (2.0 * math.sqrt(self.k * self.m))

    @property
    def omega_d(self) -> float:
        """Damped natural frequency, omega_n sqrt(1 - zeta^2) (rad/s)."""
        return self.omega_n * math.sqrt(1.0 - self.zeta**2)


@dataclass(frozen=True)
class SamplingPlan(JsonRecord):
    """How to build a training set: grid, decimation, noise level, seed.

    A base grid of `base_points` uniform times covers [t_start, t_end]
    inclusive; every `decimation`-th point (starting at index 0) is kept,
    giving n = floor((base_points - 1) / decimation) + 1 samples.
    """

    t_start: float
    t_end: float
    base_points: int
    decimation: int
    snr: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise InvalidInputError("time range must be finite")
        if self.t_start < 0:
            raise InvalidInputError(f"t_start must be >= 0, the impulse time, got {self.t_start}")
        if self.t_end <= self.t_start:
            raise InvalidInputError("t_end must exceed t_start")
        require_int("base_points", self.base_points, 2)
        require_int("decimation", self.decimation, 1)
        if self.n_samples < 2:
            raise InvalidInputError(f"a plan must keep at least 2 samples, got {self.n_samples}")
        if not self.snr > 0:
            raise InvalidInputError("snr must be positive")
        require_int("seed", self.seed, 0)

    @property
    def n_samples(self) -> int:
        return (self.base_points - 1) // self.decimation + 1

    def base_grid(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.base_points)

    def sample_times(self) -> np.ndarray:
        """base_grid()[::decimation], bit for bit, without building the base grid.

        np.linspace sets point i to i * step + t_start and the last point to
        t_end; only the kept indices are computed here, so the cost is
        n_samples, not base_points.
        """
        div = self.base_points - 1
        delta = self.t_end - self.t_start
        step = delta / div
        kept = np.arange(0, self.base_points, self.decimation, dtype=float)
        times = kept / div * delta if step == 0 else kept * step
        times += self.t_start
        if div % self.decimation == 0:
            times[-1] = self.t_end
        return times


@dataclass(frozen=True)
class TrainingSet:
    """Sampled times, noisy targets, and the noise-free reference signal."""

    t: np.ndarray
    y: np.ndarray
    sigma_n: float
    true_h: np.ndarray
    seed: int

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        true_h = np.asarray(self.true_h, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "true_h", true_h)
        if t.ndim != 1 or t.size < 1:
            raise InvalidInputError("t must be a nonempty 1-d array")
        if y.shape != t.shape or true_h.shape != t.shape:
            raise InvalidInputError("t, y and true_h must have equal lengths")
        if not all(np.all(np.isfinite(a)) for a in (t, y, true_h)):
            raise InvalidInputError("t, y and true_h must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InvalidInputError("t must be strictly increasing")
        if not (self.sigma_n >= 0 and self.sigma_n * self.sigma_n < math.inf):
            raise InvalidInputError(
                f"sigma_n must be nonnegative with a finite square, got {self.sigma_n!r}"
            )
        require_int("seed", self.seed, 0)

    @property
    def n(self) -> int:
        return self.t.size


def impulse_response(params: OscillatorParams, t) -> np.ndarray | float:
    """Closed-form unit impulse response of the oscillator.

    Accepts a scalar time or an array of times (seconds, nonnegative) and
    returns displacement in the same shape. Raises on non-finite input.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("time values must be finite")
    if np.any(arr < 0):
        raise InvalidInputError("time values must be nonnegative: the impulse acts at t = 0")
    zw = params.zeta * params.omega_n
    wd = params.omega_d
    h = np.exp(-zw * arr) * np.sin(wd * arr) / (params.m * wd)
    if np.isscalar(t) or arr.ndim == 0:
        return float(h)
    return h


def generate_training_set(params: OscillatorParams, plan: SamplingPlan) -> TrainingSet:
    """Sample the impulse response per `plan` and add seeded Gaussian noise.

    The noise standard deviation is sqrt(mean(true_h^2) / snr) over the kept
    points. Identical (params, plan) inputs give bit-identical output: the
    draws come from numpy's PCG64 generator (ziggurat normal transform)
    seeded with plan.seed.
    """
    kept = plan.sample_times()
    true_h = impulse_response(params, kept)
    sigma_n = float(np.sqrt(np.mean(true_h**2) / plan.snr))
    rng = np.random.default_rng(plan.seed)
    y = true_h + sigma_n * rng.standard_normal(kept.size)
    return TrainingSet(t=kept, y=y, sigma_n=sigma_n, true_h=true_h, seed=plan.seed)


TRAINING_CSV_HEADER = "t,y,true_h"


@dataclass(frozen=True)
class TrainingMeta(JsonRecord):
    """The training.json sidecar: noise level, seed, sample count and sampling plan."""

    sigma_n: float
    seed: int
    n: int
    plan: SamplingPlan

    def __post_init__(self):
        require_int("n", self.n, 1)


def training_set_to_csv(data: TrainingSet) -> str:
    """CSV text with header ``t,y,true_h``, one row per sample."""
    return csv_text(TRAINING_CSV_HEADER, [data.t, data.y, data.true_h])


def training_set_to_json(data: TrainingSet, plan: SamplingPlan) -> str:
    """JSON sidecar holding the noise level, seed, sample count and the sampling plan."""
    return TrainingMeta(data.sigma_n, data.seed, data.n, plan).to_json()


def training_set_from_files(table_text: str, meta_text: str) -> tuple[TrainingSet, SamplingPlan]:
    """Reconstruct a training set from the CSV/JSON pair written above.

    training.csv must hold the n rows training.json gives, at exactly the
    sample times of its plan: the times are written with 17 significant
    digits, so they read back bit for bit.
    """
    meta = TrainingMeta.from_json(meta_text)
    rows = csv_table(table_text, TRAINING_CSV_HEADER, "training")
    cols = np.array(rows, dtype=float)  # parses each field as float() does, with its errors
    if len(cols) != meta.n:
        raise InvalidInputError(
            f"training.json gives n = {meta.n}, but training.csv holds {len(cols)} rows"
        )
    plan = meta.plan
    # counts first: the rows bound what sample_times allocates
    if plan.n_samples != len(cols) or not np.array_equal(cols[:, 0], plan.sample_times()):
        raise InvalidInputError(
            f"training.csv's {len(cols)} times are not the {plan.n_samples} sample times of the plan "
            f"in training.json ({plan.base_points} base points, decimation {plan.decimation})"
        )
    data = TrainingSet(
        t=cols[:, 0], y=cols[:, 1], sigma_n=meta.sigma_n, true_h=cols[:, 2], seed=meta.seed
    )
    return data, plan
