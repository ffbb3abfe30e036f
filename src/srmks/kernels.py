"""Kernel functions and Gram-matrix construction.

Two stationary kernel families are implemented:

* squared exponential (SE):
      k(t, t') = sigma_f^2 * exp(-(t - t')^2 / (2 l^2))
  The exponent uses the squared distance; this is the standard definition
  of the squared-exponential covariance.

* oscillator (SDOF) kernel, the stationary covariance of an underdamped
  linear oscillator driven by white noise. With tau = |t - t'|:
      k(t, t') = sigma_f^2 / (4 m^2 zeta omega_n^3)
                 * exp(-zeta omega_n tau)
                 * [cos(omega_d tau) + (zeta omega_n / omega_d) sin(omega_d tau)]

Both are symmetric and depend on the inputs only through (t - t')^2 or
|t - t'|, and fl(a - b) == -fl(b - a), so a Gram matrix evaluated over all
pairs is exactly symmetric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidInputError
from .ioutil import JsonRecord
from .oscillator import OscillatorParams

__all__ = [
    "SEKernel",
    "SDOFKernel",
    "KernelSpec",
    "KERNELS",
    "kernel_eval",
    "gram",
    "kernel_to_json_dict",
    "kernel_from_json_dict",
]


def _require_finite_variance(sigma_f: float, unit_diagonal: float) -> None:
    """Reject a sigma_f that is not positive or whose k(0) = sigma_f^2 * unit_diagonal overflows."""
    if not (sigma_f > 0 and sigma_f * sigma_f * unit_diagonal < math.inf):
        raise InvalidInputError(
            f"sigma_f must be positive with a finite kernel variance k(0), got {sigma_f!r}"
        )


@dataclass(frozen=True)
class SEKernel(JsonRecord):
    """Squared-exponential kernel with signal scale sigma_f and length-scale (s)."""

    sigma_f: float
    length_scale: float

    family = "se"
    variance_scale = unit_diagonal = 1.0  # k(0) = sigma_f^2 * unit_diagonal, as for SDOF

    def __post_init__(self):
        _require_finite_variance(self.sigma_f, self.unit_diagonal)
        length = self.length_scale  # kernel_eval divides by 2 l^2
        if not (length > 0 and 0.0 < length * length < math.inf):
            raise InvalidInputError(
                f"length_scale must be positive with a positive finite square, got {length!r}"
            )


@dataclass(frozen=True)
class SDOFKernel(JsonRecord):
    """Oscillator kernel: sigma_f plus the physical coefficients of the system."""

    sigma_f: float
    params: OscillatorParams = field(metadata={"key": None})  # written inline: m, c, k

    family = "sdof"

    def __post_init__(self):
        # params validates the underdamped requirement at construction
        if self.params.zeta == 0.0:
            raise InvalidInputError(
                "oscillator kernel needs positive damping: an undamped oscillator "
                "has no stationary covariance"
            )
        try:
            usable = 0.0 < self.unit_diagonal < math.inf
        except (OverflowError, ZeroDivisionError):
            usable = False
        if not usable:
            raise InvalidInputError(
                f"oscillator coefficients {self.params.to_json_dict()} give no positive "
                "finite kernel variance 1 / (4 m^2 zeta omega_n^3)"
            )
        _require_finite_variance(self.sigma_f, self.unit_diagonal)

    @property
    def variance_scale(self) -> float:
        """4 m^2 zeta omega_n^3, the oscillator's scale of the kernel variance."""
        p = self.params
        return 4.0 * p.m**2 * p.zeta * p.omega_n**3

    @property
    def unit_diagonal(self) -> float:
        """Kernel value at tau = 0 for sigma_f = 1: 1 / variance_scale."""
        return 1.0 / self.variance_scale


KernelSpec = Union[SEKernel, SDOFKernel]
KERNELS = {"se": SEKernel, "sdof": SDOFKernel}


def kernel_eval(spec: KernelSpec, t, t_prime):
    """Evaluate the kernel at (t, t'). Broadcasts over array inputs.

    Both families compute sigma_f^2 times the sigma_f = 1 kernel, so
    kernel_eval(spec) == spec.sigma_f**2 * kernel_eval(replace(spec,
    sigma_f=1.0)) holds bit for bit. Every step after the difference
    t - t' writes into an array made here, in the order of the formulas
    above, so an n x n Gram matrix takes no temporary of its size for SE
    and two for SDOF.
    """
    tau = np.asarray(np.subtract(t, t_prime, dtype=float))  # 0-d for scalar inputs
    if isinstance(spec, SEKernel):
        np.square(tau, out=tau)
        np.negative(tau, out=tau)
        np.divide(tau, 2.0 * spec.length_scale**2, out=tau)
        values = np.multiply(spec.sigma_f**2, np.exp(tau, out=tau), out=tau)
    elif isinstance(spec, SDOFKernel):
        p = spec.params
        zw = p.zeta * p.omega_n
        wd = p.omega_d
        atau = np.abs(tau, out=tau)
        envelope = np.multiply(-zw, atau, out=np.empty_like(atau))
        np.exp(envelope, out=envelope)
        phase = np.multiply(wd, atau, out=atau)
        oscillation = np.sin(phase, out=np.empty_like(phase))
        np.multiply(zw / wd, oscillation, out=oscillation)
        np.add(np.cos(phase, out=phase), oscillation, out=oscillation)
        np.multiply(spec.unit_diagonal, envelope, out=envelope)
        np.multiply(envelope, oscillation, out=envelope)
        values = np.multiply(spec.sigma_f**2, envelope, out=envelope)
    else:
        raise InvalidInputError(f"unknown kernel spec {spec!r}")
    return values if values.ndim else values[()]


def gram(spec: KernelSpec, t) -> np.ndarray:
    """Gram matrix of `spec` over the inputs `t`, with K[i, j] == K[j, i] exactly."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidInputError("inputs must be a nonempty 1-d array")
    return kernel_eval(spec, t[:, None], t[None, :])


def kernel_to_json_dict(spec: KernelSpec) -> dict:
    if type(spec) not in KERNELS.values():
        raise InvalidInputError(f"unknown kernel spec {spec!r}")
    return {"family": spec.family, **spec.to_json_dict()}


def kernel_from_json_dict(d) -> KernelSpec:
    """The inverse of kernel_to_json_dict: a family, then exactly that record's keys."""
    family = d.get("family") if isinstance(d, dict) else None
    if not (isinstance(family, str) and family in KERNELS):
        raise InvalidInputError(f"kernel spec needs a family, one of {tuple(KERNELS)}, got {d!r}")
    return KERNELS[family].from_json_dict({k: v for k, v in d.items() if k != "family"})
