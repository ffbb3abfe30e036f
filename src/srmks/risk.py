"""Empirical risk and guaranteed-risk bounds for regression.

Given a training MSE, a capacity estimate h and a sample size n, the
practical VC bound (Cherkassky, Shao, Mulier & Vapnik, IEEE TNN 10(5), 1999)
on the expected risk is

    bound = mse / (1 - c sqrt(eta))_+ ,   eta = a1 (p (ln a2 + 1) - p ln p + C)

with p = h/n, where (x)_+ sends a nonpositive denominator to +infinity (the
bound is "clipped") and p ln p is 0 at p = 0. C = ln(n) / (2n) under the
default confidence delta = 4 / sqrt(n), and C = -ln(delta / 4) / n under a
fixed delta; the bound holds with probability at least 1 - delta. At the
defaults a1 = a2 = c = 1 it is the reduced form

    bound = mse / (1 - sqrt(p - p ln p + ln(n) / (2n)))_+

operation for operation, since p * 1.0 and 1.0 * x are exact. Written in
p, eta stays finite for subnormal h.

Capacity at or above the sample size (p >= 1) always clips. For p slightly
above one the denominator is negative; for much larger p the formula's
value of eta would fall again, an algebraic artifact outside its validity
region, so the clip is forced there.

vc_bounds evaluates the formula over arrays of candidates and returns
Bounds; vc_bound_reduced and vc_bound_general are its one-candidate case.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ioutil import JsonRecord

__all__ = [
    "DeltaRule",
    "BoundConfig",
    "RiskReport",
    "Bounds",
    "empirical_risk",
    "vc_bounds",
    "vc_bound_reduced",
    "vc_bound_general",
    "realized_confidence",
]

# denominators at or below this are treated as effectively zero
EPS_CLIP = 1e-12


class DeltaRule(enum.Enum):
    FIXED = "fixed"
    FOUR_OVER_SQRT_N = "four_over_sqrt_n"


@dataclass(frozen=True)
class BoundConfig(JsonRecord):
    """Constants of the general bound. Defaults reproduce the reduced form."""

    a1: float = 1.0
    a2: float = 1.0
    c: float = 1.0
    delta: float | None = None
    delta_rule: DeltaRule = DeltaRule.FOUR_OVER_SQRT_N

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.a1, self.a2, self.c)):
            raise InvalidInputError("a1, a2 and c must be positive and finite")
        if self.delta_rule is DeltaRule.FIXED:
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise InvalidInputError("FIXED rule requires delta in (0, 1)")
        elif self.delta is not None:
            raise InvalidInputError(
                f"delta is read only by the fixed delta rule, not {self.delta_rule.value}"
            )

    def realized_delta(self, n: int) -> float:
        if self.delta_rule is DeltaRule.FIXED:
            return float(self.delta)
        return 4.0 / math.sqrt(n)


@dataclass(frozen=True)
class RiskReport(JsonRecord):
    """Empirical risk together with its capacity-penalised guarantee."""

    empirical_risk: float
    h: float
    n: int
    p: float
    delta: float
    bound: float
    clipped: bool
    eta_negative: bool = False  # eta < 0; at the defaults only for h > e n, never in selection


def empirical_risk(targets, predictions) -> float:
    """Mean squared error between targets and predictions; +inf where the squares overflow."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if targets.shape != predictions.shape or targets.size == 0:
        raise InvalidInputError("targets and predictions must have equal nonzero length")
    with np.errstate(over="ignore"):
        return float(np.mean((targets - predictions) ** 2))


def _validate_bound_inputs(mse, h, n: int) -> None:
    if n < 1:
        raise InvalidInputError("sample size must be at least 1")
    if np.any(h < 0):
        raise InvalidInputError("capacity must be nonnegative")
    if np.any(mse < 0):
        raise InvalidInputError("empirical risk must be nonnegative")


@dataclass(frozen=True, eq=False)
class Bounds:
    """Guaranteed-risk scores of an array of candidates, one entry each."""

    empirical_risk: np.ndarray
    h: np.ndarray
    p: np.ndarray  # h / n, as vc_bounds computed it for the bound
    bound: np.ndarray
    clipped: np.ndarray
    eta_negative: np.ndarray
    n: int
    delta: float

    def report(self, i: int) -> RiskReport:
        """The RiskReport of candidate i."""
        return RiskReport(
            float(self.empirical_risk[i]), float(self.h[i]), self.n, float(self.p[i]), self.delta,
            float(self.bound[i]), bool(self.clipped[i]), bool(self.eta_negative[i]),
        )


def vc_bounds(mse, h, n: int, cfg: BoundConfig | None = None) -> Bounds:
    """Guaranteed-risk bounds for arrays of training MSE and capacity.

    ``cfg=None`` means ``BoundConfig()``. The formula is evaluated over the
    whole arrays at once; every clip rule of the module docstring applies
    elementwise.
    """
    cfg = BoundConfig() if cfg is None else cfg
    mse = np.asarray(mse, dtype=float)
    h = np.asarray(h, dtype=float)
    _validate_bound_inputs(mse, h, n)
    delta = cfg.realized_delta(n)
    fixed = cfg.delta_rule is DeltaRule.FIXED
    confidence = -math.log(delta / 4.0) / n if fixed else math.log(n) / (2.0 * n)
    p = h / n
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p == 0.0, 0.0, p * np.log(p))
        eta = cfg.a1 * (p * (math.log(cfg.a2) + 1.0) - plogp + confidence)
        denom = 1.0 - cfg.c * np.sqrt(eta)
        eta_negative = eta < 0.0
        clipped = (p >= 1.0) | eta_negative | (denom <= EPS_CLIP)
        bound = np.where(clipped, math.inf, mse / denom)
    return Bounds(mse, h, p, bound, clipped, eta_negative, n, delta)


def vc_bound_reduced(mse: float, h: float, n: int) -> RiskReport:
    """Reduced guaranteed-risk bound at confidence delta = 4 / sqrt(n)."""
    return vc_bounds([mse], [h], n).report(0)


def vc_bound_general(mse: float, h: float, n: int, cfg: BoundConfig) -> RiskReport:
    """General guaranteed-risk bound with adjustable constants.

    If the penalty argument eta comes out negative (possible for extreme
    delta and capacity combinations) the report carries bound = +inf and the
    eta_negative flag instead of raising.
    """
    return vc_bounds([mse], [h], n, cfg).report(0)


def realized_confidence(n: int) -> float:
    """Confidence level 1 - 4/sqrt(n) at which the reduced bound holds."""
    if n <= 16:
        raise InvalidInputError(
            f"confidence undefined for n = {n}: 1 - 4/sqrt(n) is nonpositive"
        )
    return 1.0 - BoundConfig().realized_delta(n)
