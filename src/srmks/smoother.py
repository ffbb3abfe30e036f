"""Kernel smoother fitting, prediction, and capacity estimation.

The smoother is linear in the training targets:

    f(t*) = k(t*)^T (K + sigma_n^2 I)^{-1} y

where K is the Gram matrix over the training inputs and k(t*) the vector of
kernel evaluations against them. Fitting solves the system once by Cholesky
factorisation and takes the eigenvalues of K (clamped at zero) for the
capacity of the fitted smoother, its effective degrees of freedom:

    edf = sum_i lambda_i / (lambda_i + sigma_n^2)

The edf counts the prevalent spectral components of K and serves as a
real-valued capacity estimate downstream; it is never rounded.

Scoring a family of kernels that differ only in their signal scale sigma_f
needs no fit at all. Scaling the kernel by sigma_f scales K by sigma_f^2, so
one eigendecomposition K_0 = U diag(lambda) U^T of the sigma_f = 1 kernel
gives, for every scale s, the edf above with lambda -> s^2 lambda and the
training MSE of the eigen-form of the linear smoother (Hastie, Tibshirani &
Friedman, ESL sec. 5.4.1):

    mse = sum_i (sigma_n^2 / (s^2 lambda_i + sigma_n^2))^2 z_i^2 / n,  z = U^T y

Only z depends on the targets, so training sets that share their sample
times (the repetitions of one sampling plan) share the decomposition too:
one eigh per (plan, base kernel), kept as a Spectrum, scores every
repetition at every scale in one array computation. The same eigenpairs refit a winner, f(t*) = s^2 k*_0(t*) U
(z / (s^2 lambda + sigma_n^2)) with k*_0 the base kernel's cross-kernel
(Rasmussen & Williams, GPML eq. 2.25), so a study needs no Cholesky. One
kernel on one training set goes through fit, since Cholesky plus an
eigenvalues-only eigh is faster than one eigh with vectors; many
candidates on one plan's sample times go through the spectrum.
decompose asks LAPACK for divide and conquer (driver evd): on a clustered
spectrum, such as a near-identity K, the default MRRR driver (evr) returns
eigenvectors orthogonal only to about 1e-8, which moves the training MSE by
as much; evd keeps them orthogonal to rounding.

Scoring needs sigma_n^2 above rounding_level, n * eps * s_max^2 *
lambda_max for the largest scale s_max, which srm.srm_select_batch checks:
at or below it every smoother interpolates, so each candidate has edf = n
and an infinite bound. Only fit takes sigma_n = 0, the interpolant; it
treats K as singular when a clamped eigenvalue is at most n * eps * lambda_max.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularSystemError, require_noise_level
from .kernels import KernelSpec, gram, kernel_eval
from .oscillator import TrainingSet

__all__ = [
    "FittedSmoother", "Spectrum", "decompose", "fit", "predict", "rounding_level",
    "signal_scale_scores", "spectral_weights",
]


@dataclass(frozen=True)
class FittedSmoother:
    """Immutable result of :func:`fit`."""

    kernel: KernelSpec
    t_train: np.ndarray
    weights: np.ndarray
    fitted: np.ndarray  # the smoother at the training inputs, K @ weights
    edf: float


@dataclass(frozen=True)
class Spectrum:
    """Eigen-form K_0 = U diag(lambda) U^T of a base kernel's Gram matrix."""

    base: KernelSpec  # the kernel at sigma_f = 1
    eigenvalues: np.ndarray  # ascending, clamped at zero
    vectors: np.ndarray  # U, one eigenvector per column


def decompose(base: KernelSpec, t: np.ndarray) -> Spectrum:
    """The decomposition of gram(base, t)."""
    lam, vectors = scipy.linalg.eigh(gram(base, t), driver="evd")
    return Spectrum(base, np.maximum(lam, 0.0), vectors)


def rounding_level(n: int, top: float) -> float:
    """n * eps * top, the rounding level of an n x n decomposition with largest eigenvalue top."""
    return n * np.finfo(float).eps * top


def _edf_from_spectrum(eigenvalues: np.ndarray, noise: float):
    """Effective degrees of freedom of a nonnegative spectrum (last axis) at noise variance."""
    return np.sum(eigenvalues / (eigenvalues + noise), axis=-1)


def fit(spec: KernelSpec, data: TrainingSet, sigma_n: float) -> FittedSmoother:
    """Fit the kernel smoother to `data` with noise level `sigma_n`.

    Solves (K + sigma_n^2 I) w = y by Cholesky factorisation. Raises
    InvalidInputError for a negative noise level or one whose square
    overflows, and SingularSystemError for a non-finite K, a singular
    zero-noise system, a failed factorisation or non-finite weights.
    """
    require_noise_level(sigma_n)
    n, noise = data.n, sigma_n**2
    K = gram(spec, data.t)
    if not np.all(np.isfinite(K)):
        raise SingularSystemError(f"the {n}x{n} Gram matrix has non-finite entries")
    # descending, the order the edf sums in
    lam = np.maximum(scipy.linalg.eigh(K, eigvals_only=True)[::-1], 0.0)
    # without noise the system is K itself: singular when an eigenvalue is
    # at the rounding level of the decomposition
    if noise == 0.0 and lam.min() <= rounding_level(n, lam.max()):
        raise SingularSystemError(f"the {n}x{n} smoother system is singular at sigma_n = 0")
    try:
        factor = scipy.linalg.cho_factor(K + noise * np.eye(n), lower=True)
        weights = scipy.linalg.cho_solve(factor, data.y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"cannot factorise the {n}x{n} smoother system: {exc}"
        ) from exc
    if not np.all(np.isfinite(weights)):
        raise SingularSystemError(f"the {n}x{n} smoother system gave non-finite weights")
    return FittedSmoother(
        kernel=spec,
        t_train=data.t,
        weights=weights,
        fitted=K @ weights,
        edf=float(_edf_from_spectrum(lam, noise)),
    )


def signal_scale_scores(
    spectrum: Spectrum, y: np.ndarray, scales2: np.ndarray, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(edf, training MSE) of `spectrum.base`, each indexed (set, scale).

    `y` stacks the training sets' targets (sets x n), `scales2` their
    squared signal scales (sets x scales) and `noise` their sigma_n^2
    (sets). Every set must lie on the spectrum's sample times, with its
    noise variance above the rounding level, as srm.srm_select_batch checks.
    """
    lam, vectors = spectrum.eigenvalues, spectrum.vectors
    # stacked, one matrix-vector product per set: bit-identical to U^T y of one set
    z2 = (vectors.T @ y[:, :, None])[:, :, 0] ** 2
    scaled = scales2[:, :, None] * lam
    noise = noise[:, None, None]
    mse = np.sum((noise / (scaled + noise)) ** 2 * z2[:, None, :], axis=-1) / y.shape[1]
    return _edf_from_spectrum(scaled, noise), mse


def spectral_weights(spectrum: Spectrum, sigma_f: float, data: TrainingSet) -> np.ndarray:
    """v = s^2 U (z / (s^2 lambda + sigma_n^2)), z = U^T y, for the base at s = sigma_f.

    The smoother fit to `data` predicts kernel_eval(spectrum.base, t*,
    data.t) @ v at t*. `data` must lie on the sample times the spectrum was
    decomposed over and have sigma_n^2 above the rounding level, as its
    selection already checked.
    """
    scale, vectors = sigma_f**2, spectrum.vectors
    z = vectors.T @ data.y
    return vectors @ (scale * z / (scale * spectrum.eigenvalues + data.sigma_n**2))


def predict(model: FittedSmoother, t_star):
    """Evaluate the fitted smoother at `t_star` (scalar or array).

    Defined for any real input, including extrapolation beyond the training
    span.
    """
    arr = np.asarray(t_star, dtype=float)
    # one row of kernel evaluations per query point
    values = kernel_eval(model.kernel, arr[..., None], model.t_train) @ model.weights
    return float(values) if arr.ndim == 0 else values

