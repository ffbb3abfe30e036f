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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError
from .ioutil import json_float
from .oscillator import OscillatorParams

__all__ = [
    "SEKernel",
    "SDOFKernel",
    "KernelSpec",
    "kernel_eval",
    "gram",
    "kernel_to_json_dict",
    "kernel_from_json_dict",
]


@dataclass(frozen=True)
class SEKernel:
    """Squared-exponential kernel with signal scale sigma_f and length-scale (s)."""

    sigma_f: float
    length_scale: float

    family = "se"

    def __post_init__(self):
        if not (math.isfinite(self.sigma_f) and self.sigma_f > 0):
            raise InvalidInputError("sigma_f must be positive and finite")
        if not (math.isfinite(self.length_scale) and self.length_scale > 0):
            raise InvalidInputError("length_scale must be positive and finite")
        if self.length_scale**2 == 0.0:  # kernel_eval divides by 2 l^2
            raise InvalidInputError(f"length_scale {self.length_scale!r} squares to 0")


@dataclass(frozen=True)
class SDOFKernel:
    """Oscillator kernel: sigma_f plus the physical coefficients of the system."""

    sigma_f: float
    params: OscillatorParams

    family = "sdof"

    def __post_init__(self):
        if not (math.isfinite(self.sigma_f) and self.sigma_f > 0):
            raise InvalidInputError("sigma_f must be positive and finite")
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

    @property
    def unit_diagonal(self) -> float:
        """Kernel value at tau = 0 for sigma_f = 1: 1 / (4 m^2 zeta omega_n^3)."""
        p = self.params
        return 1.0 / (4.0 * p.m**2 * p.zeta * p.omega_n**3)

    @property
    def diagonal(self) -> float:
        """Kernel value at tau = 0: sigma_f^2 / (4 m^2 zeta omega_n^3)."""
        return self.sigma_f**2 * self.unit_diagonal


KernelSpec = Union[SEKernel, SDOFKernel]


def kernel_eval(spec: KernelSpec, t, t_prime):
    """Evaluate the kernel at (t, t'). Broadcasts over array inputs.

    Both families compute sigma_f^2 times the sigma_f = 1 kernel, so
    kernel_eval(spec) == spec.sigma_f**2 * kernel_eval(replace(spec,
    sigma_f=1.0)) holds bit for bit.
    """
    tau = np.subtract(t, t_prime)
    if isinstance(spec, SEKernel):
        return spec.sigma_f**2 * np.exp(-(tau**2) / (2.0 * spec.length_scale**2))
    if isinstance(spec, SDOFKernel):
        p = spec.params
        zw = p.zeta * p.omega_n
        wd = p.omega_d
        atau = np.abs(tau)
        envelope = np.exp(-zw * atau)
        oscillation = np.cos(wd * atau) + (zw / wd) * np.sin(wd * atau)
        return spec.sigma_f**2 * (spec.unit_diagonal * envelope * oscillation)
    raise InvalidInputError(f"unknown kernel spec {spec!r}")


def gram(spec: KernelSpec, t) -> np.ndarray:
    """Gram matrix of `spec` over the inputs `t`, with K[i, j] == K[j, i] exactly."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidInputError("inputs must be a nonempty 1-d array")
    return kernel_eval(spec, t[:, None], t[None, :])


def kernel_to_json_dict(spec: KernelSpec) -> dict:
    if isinstance(spec, SEKernel):
        return {
            "family": "se",
            "sigma_f": json_float(spec.sigma_f),
            "length_scale": json_float(spec.length_scale),
        }
    if isinstance(spec, SDOFKernel):
        return {
            "family": "sdof",
            "sigma_f": json_float(spec.sigma_f),
            **spec.params.to_json_dict(),
        }
    raise InvalidInputError(f"unknown kernel spec {spec!r}")


def kernel_from_json_dict(d: dict) -> KernelSpec:
    family = d.get("family")
    if family == "se":
        return SEKernel(
            sigma_f=float(d["sigma_f"]),
            length_scale=float(d["length_scale"]),
        )
    if family == "sdof":
        params = OscillatorParams.from_json_dict({key: d[key] for key in ("m", "c", "k")})
        return SDOFKernel(sigma_f=float(d["sigma_f"]), params=params)
    raise InvalidInputError(f"unknown kernel family {family!r}")
