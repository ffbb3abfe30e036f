"""Empirical risk and guaranteed-risk bounds for regression.

Given a training MSE, a capacity estimate h, and a sample size n, the
reduced bound on the expected risk is

    bound = mse / (1 - sqrt(g))_+ ,   g = p - p ln p + ln(n) / (2n),  p = h/n

where (x)_+ sends a nonpositive denominator to +infinity (the bound is
"clipped"). The term p ln p is extended continuously to 0 at p = 0. The
bound holds with probability at least 1 - delta where delta = 4 / sqrt(n).

The general form exposes the adjustable constants:

    bound = mse / (1 - c sqrt(eta))_+ ,
    eta   = a1 (h [ln(a2 n / h) + 1] - ln(delta / 4)) / n

With a1 = a2 = c = 1 and delta = 4 / sqrt(n) the two forms coincide
algebraically: h/n [ln(n/h) + 1] + ln(sqrt(n))/n == p - p ln p + ln(n)/(2n).

Capacity at or above the sample size (p >= 1) always clips, in both forms.
For p slightly above one, g rises above one and the denominator is
negative; for much larger p the formula's value of g would fall again, an
algebraic artifact outside the formula's validity region, so the clip is
forced there.

vc_bounds evaluates either form over arrays of candidates at once;
vc_bound_reduced and vc_bound_general are its one-candidate case, so there
is a single numerical path.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ioutil import csv_row, json_float

__all__ = [
    "DeltaRule",
    "BoundConfig",
    "RiskReport",
    "empirical_risk",
    "vc_bounds",
    "vc_bound_reduced",
    "vc_bound_general",
    "realized_confidence",
    "RISK_CSV_HEADER",
    "risk_csv_row",
]

# denominators at or below this are treated as effectively zero
EPS_CLIP = 1e-12


class DeltaRule(enum.Enum):
    FIXED = "fixed"
    FOUR_OVER_SQRT_N = "four_over_sqrt_n"


@dataclass(frozen=True)
class BoundConfig:
    """Constants of the general bound. Defaults reproduce the reduced form."""

    a1: float = 1.0
    a2: float = 1.0
    c: float = 1.0
    delta: float | None = None
    delta_rule: DeltaRule = DeltaRule.FOUR_OVER_SQRT_N

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0 and self.c > 0):
            raise InvalidInputError("a1, a2 and c must be positive")
        if self.delta_rule is DeltaRule.FIXED:
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise InvalidInputError("FIXED rule requires delta in (0, 1)")

    def realized_delta(self, n: int) -> float:
        if self.delta_rule is DeltaRule.FIXED:
            return float(self.delta)
        return 4.0 / math.sqrt(n)

    def to_json_dict(self) -> dict:
        return {
            "a1": json_float(self.a1),
            "a2": json_float(self.a2),
            "c": json_float(self.c),
            "delta": None if self.delta is None else json_float(self.delta),
            "delta_rule": self.delta_rule.value,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BoundConfig":
        delta = d.get("delta")
        return cls(
            a1=float(d.get("a1", 1.0)),
            a2=float(d.get("a2", 1.0)),
            c=float(d.get("c", 1.0)),
            delta=None if delta is None else float(delta),
            delta_rule=DeltaRule(d.get("delta_rule", "four_over_sqrt_n")),
        )


@dataclass(frozen=True)
class RiskReport:
    """Empirical risk together with its capacity-penalised guarantee."""

    empirical_risk: float
    h: float
    n: int
    p: float
    delta: float
    bound: float
    clipped: bool
    eta_negative: bool = False  # general form only: penalty argument went negative

    def to_json_dict(self) -> dict:
        return {
            "empirical_risk": json_float(self.empirical_risk),
            "h": json_float(self.h),
            "n": self.n,
            "p": json_float(self.p),
            "delta": json_float(self.delta),
            "bound": json_float(self.bound),
            "clipped": self.clipped,
            "eta_negative": self.eta_negative,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RiskReport":
        return cls(
            empirical_risk=float(d["empirical_risk"]),
            h=float(d["h"]),
            n=int(d["n"]),
            p=float(d["p"]),
            delta=float(d["delta"]),
            bound=float(d["bound"]),
            clipped=bool(d["clipped"]),
            eta_negative=bool(d.get("eta_negative", False)),
        )


RISK_CSV_HEADER = "kernel,n,h,p,delta,emp_risk,bound,clipped"


def risk_csv_row(kernel_label: str, report: RiskReport) -> str:
    """One CSV row in the ``kernel,n,h,p,delta,emp_risk,bound,clipped`` format."""
    return csv_row(
        [
            kernel_label,
            report.n,
            report.h,
            report.p,
            report.delta,
            report.empirical_risk,
            report.bound,
            "true" if report.clipped else "false",
        ]
    )


def empirical_risk(targets, predictions) -> float:
    """Mean squared error between targets and predictions."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if targets.shape != predictions.shape or targets.size == 0:
        raise InvalidInputError("targets and predictions must have equal nonzero length")
    residuals = targets - predictions
    return float(np.mean(residuals**2))


def _validate_bound_inputs(mse, h, n: int) -> None:
    if n < 1:
        raise InvalidInputError("sample size must be at least 1")
    if np.any(h < 0):
        raise InvalidInputError("capacity must be nonnegative")
    if np.any(mse < 0):
        raise InvalidInputError("empirical risk must be nonnegative")


def vc_bounds(mse, h, n: int, cfg: BoundConfig | None = None) -> list[RiskReport]:
    """Guaranteed-risk reports for arrays of training MSE and capacity.

    ``cfg=None`` gives the reduced bound, a config the general bound. The
    formulas are evaluated over the whole arrays at once; every clip rule of
    the module docstring applies elementwise.
    """
    mse = np.asarray(mse, dtype=float)
    h = np.asarray(h, dtype=float)
    _validate_bound_inputs(mse, h, n)
    p = h / n
    eta_negative = np.zeros(h.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        if cfg is None:
            delta = 4.0 / math.sqrt(n)
            plogp = np.where(p == 0.0, 0.0, p * np.log(p))
            g = p - plogp + math.log(n) / (2.0 * n)
            denom = 1.0 - np.sqrt(g)
        else:
            delta = cfg.realized_delta(n)
            # log in separated form: a2*n/h overflows for subnormal h
            log_a2n = math.log(cfg.a2) + math.log(n)
            capacity_term = np.where(h == 0.0, 0.0, h * (log_a2n - np.log(h) + 1.0))
            eta = cfg.a1 * (capacity_term - math.log(delta / 4.0)) / n
            eta_negative = eta < 0.0
            denom = 1.0 - cfg.c * np.sqrt(eta)
        clipped = (p >= 1.0) | eta_negative | (denom <= EPS_CLIP)
        bound = np.where(clipped, math.inf, mse / denom)
    return [
        RiskReport(m, hh, n, pp, delta, b, clipped=c, eta_negative=e)
        for m, hh, pp, b, c, e in zip(
            mse.tolist(), h.tolist(), p.tolist(), bound.tolist(),
            clipped.tolist(), eta_negative.tolist(),
        )
    ]


def vc_bound_reduced(mse: float, h: float, n: int) -> RiskReport:
    """Reduced guaranteed-risk bound at confidence delta = 4 / sqrt(n)."""
    return vc_bounds([mse], [h], n)[0]


def vc_bound_general(mse: float, h: float, n: int, cfg: BoundConfig) -> RiskReport:
    """General guaranteed-risk bound with adjustable constants.

    If the penalty argument eta comes out negative (possible for extreme
    delta and capacity combinations) the report carries bound = +inf and the
    eta_negative flag instead of raising.
    """
    return vc_bounds([mse], [h], n, cfg)[0]


def realized_confidence(n: int) -> float:
    """Confidence level 1 - 4/sqrt(n) at which the reduced bound holds."""
    if n <= 16:
        raise InvalidInputError(
            f"confidence undefined for n = {n}: 1 - 4/sqrt(n) is nonpositive"
        )
    return 1.0 - 4.0 / math.sqrt(n)
