"""Kernel smoother fitting, prediction, and capacity estimation.

The smoother is linear in the training targets:

    f(t*) = k(t*)^T (K + sigma_n^2 I)^{-1} y

where K is the Gram matrix over the training inputs and k(t*) the vector of
kernel evaluations against them. The capacity of the fitted smoother is
its effective degrees of freedom, with lambda_i the eigenvalues of K:

    edf = tr(K (K + sigma_n^2 I)^-1) = sum_i lambda_i / (lambda_i + sigma_n^2)

The edf counts the prevalent spectral components of K and serves as a
real-valued capacity estimate downstream; it is never rounded. fit takes
the weights and the edf from one solve of A = K + sigma_n^2 I, the edf by
the trace identity n - sigma_n^2 tr(A^-1). Both kernels are stationary, so
on uniform times A is symmetric Toeplitz and its first column, n kernel
evaluations k(t_i - t_0), determines it. There fit solves A [w, x] =
[y, e_1] by Levinson's recursion in O(n^2) (Levinson 1947; Golub & Van
Loan, Matrix Computations, sec. 4.7), and the Gohberg-Semencul formula
(1972), which writes A^-1 through its first column x alone, gives
tr(A^-1) = sum_k (n - 2k) x_k^2 / x_0 in O(n), and fit takes O(n)
memory. On any other times fit builds K from n^2 evaluations and
factorises A = L L^T: the weights by two triangular solves, and tr(A^-1)
= ||L^-1||_F^2 (Rasmussen & Williams, GPML Alg. 2.1) from a third, L X =
I. Both return w and sigma_n^2 tr(A^-1); fit alone checks them, raises
and clamps the edf. On both the fitted values need no product with K:
A w = y gives K w = y - sigma_n^2 w (GPML eq. 2.25 at the training
inputs), O(n). Levinson is only weakly stable (Cybenko, SIAM J. Sci.
Stat. Comput. 1, 1980); its measured accuracy is in _levinson_fit.

Scoring a family of kernels that differ only in their signal scale sigma_f
needs no fit at all. With K_0 = U diag(lambda) U^T the eigendecomposition
of the sigma_f = 1 kernel, every shrinkage factor sigma_n^2 / (sigma_f^2
lambda + sigma_n^2) is r = 1 / (g + 1), g = rho lambda, with rho =
sigma_f^2 / sigma_n^2. So the edf above, the training MSE of the eigen-form
of the linear smoother (Hastie, Tibshirani & Friedman, ESL sec. 5.4.1) and
the refit f(t*) = k*_0(t*) U (rho r z), with k*_0 the base kernel's
cross-kernel (GPML eq. 2.25), depend on rho alone:

    edf = sum_i g_i r_i,   mse = sum_i r_i^2 z_i^2 / n,   z = U^T y

Only z depends on the targets, and the scorers below take z: training
sets that share their sample times (the repetitions of one sampling plan)
share one Spectrum per (plan, base kernel), which only srm's search holds,
and one projection of their stacked targets scores every repetition at
every rho and refits the winners, so a study needs no Cholesky. One kernel
on one training set goes through fit, whose Levinson solve or Cholesky
factor and triangular solves cost less than one eigendecomposition.

This module owns the uniform-grid route: no other module gathers a
Toeplitz matrix, solves a Toeplitz system or calls _uniform, the gate of
Levinson and of the fold, and decompose asks that gate once for a whole
batch of base kernels. Every plan and every training.csv lies on a
uniform grid. There K is the symmetric Toeplitz matrix of its lag column
a = k(t - t[0]), the n evaluations Levinson uses, and hence
centrosymmetric, K = JKJ with J the reversal. The orthogonal change of
basis to even and odd vectors (x; Jx)/sqrt(2) and (x; -Jx)/sqrt(2)
splits it exactly into two blocks of orders c = ceil(n/2) and m =
floor(n/2), whose eigenpairs together are K's (Cantoni & Butler, Linear
Algebra Appl. 13, 1976); two half-size decompositions take about a
quarter of the flops of one full one. Both blocks are gathered from a,
a[|i-j|] +- a[n-1-i-j], so the fold forms no n x n K, and built from one
column they are exact for the Toeplitz matrix at any t_start, where the
computed times t_i - t_j carry rounding relative to |t|. Any other times
take gram and one full decomposition.

U itself is never formed: a Spectrum keeps the blocks' eigenvectors, V+
(c x c) and V- (m x m) on uniform times and one n x n block on others,
and applies U through them. U^T y is V+^T fold+(y) and V-^T fold-(y), with
fold+(y)_i = sqrt(1/2) (y_i + y_{n-1-i}) (plus the middle y for odd n)
and fold-(y)_i = sqrt(1/2) (y_i - y_{n-1-i}); U s unfolds V+ s+ and V- s-
the same way. The held spectra thus take bases x (c^2 + m^2) floats, half
of bases x n^2. z stays one matrix-vector product per set and block, not
one matrix product over the stacked sets: BLAS may sum a column of a
matrix product in an order that depends on how many columns come with it,
and a set's scores must not depend on the sets searched beside it.

Every block goes to LAPACK's dsyevd, the divide-and-conquer solver, in
one np.linalg.eigh call (_eigh); a non-finite kernel matrix, rejected
before the call, and a divide and conquer that does not converge both
raise SingularSystemError. The eigenvectors are kept in Fortran order,
LAPACK's own layout: Spectrum.project's products on C-ordered copies move
the study's true MSE by up to rel 1.5e-13. A search thus runs on numpy
alone; scipy, which only fit's solve needs, is imported inside the
functions that call it.

On a clustered spectrum, such as a near-identity K, the MRRR solver (evr)
returns eigenvectors orthogonal only to about 1e-8, which moves the
training MSE by as much; divide and conquer keeps them orthogonal to
rounding. dsyevd reduces a block to tridiagonal form, solves that, and
multiplies the Householder reflectors back into the eigenvectors. Keeping
the reflectors instead and applying them to y (dormqr) skips that
back-transformation but makes each column's result depend on how many
columns are applied at once, the very dependence z must not have, and it
did not speed up the study. The winners' refit maps their weights onto a
plan's dense base grid, uniform too, so decimated_cross_kernel gathers
that cross-kernel from the grid's lag column: N kernel evaluations
instead of N * n.

fit and srm.srm_select_batch share one noise rule, require_determined_noise:
sigma_n^2 above rounding_level(n, top) for a top >= lambda_max, n * k(0) =
tr K for fit and s_max^2 * lambda_max for a search with largest scale s_max.
At or below it the smoother interpolates, and K does not determine its edf.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularSystemError
from .kernels import KernelSpec, gram, kernel_eval
from .oscillator import TrainingSet

__all__ = [
    "FittedSmoother", "Spectrum", "decimated_cross_kernel", "decompose", "fit", "predict",
    "require_determined_noise", "rounding_level", "signal_scale_scores", "spectral_weights",
]

_HALF = np.sqrt(0.5)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FittedSmoother:
    """Immutable result of :func:`fit`."""

    kernel: KernelSpec
    t_train: np.ndarray
    weights: np.ndarray
    fitted: np.ndarray  # the smoother at the training inputs, K w = y - sigma_n^2 w
    edf: float


@dataclass(frozen=True)
class Spectrum:
    """Eigen-form K_0 = U diag(lambda) U^T of a base kernel's Gram matrix, U kept as blocks.

    `blocks` holds the eigenvectors, one per column: (V+, V-), the even
    and odd blocks of the fold, on uniform times, and (U,) on any others.
    `eigenvalues` follows the blocks' columns: ascending within each block,
    clamped at zero. project and expand apply U^T and U without forming U.
    """

    eigenvalues: np.ndarray
    blocks: tuple[np.ndarray, ...]

    def project(self, y: np.ndarray) -> np.ndarray:
        """z = U^T y of every row of `y` (n, or sets x n), in eigenvalue order.

        One matrix-vector product per set and block, so a set's z has the
        same bits whichever sets are stacked with it.
        """
        parts = _fold(y) if len(self.blocks) == 2 else (y,)
        return np.concatenate(
            [(v.T @ part[..., None])[..., 0] for v, part in zip(self.blocks, parts)], axis=-1
        )

    def expand(self, s: np.ndarray) -> np.ndarray:
        """U s for coefficients `s` in eigenvalue order, n or n x k."""
        if len(self.blocks) == 1:
            return self.blocks[0] @ s
        even, odd = self.blocks
        p, q = even @ s[:even.shape[0]], odd @ s[even.shape[0]:]
        m = q.shape[0]
        # (x; Jx)/sqrt(2) for the even part, (x; -Jx)/sqrt(2) for the odd; the middle is even's
        return np.concatenate([_HALF * (p[:m] + q), p[m:], (_HALF * (p[:m] - q))[::-1]])


def _fold(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fold+(y), fold-(y)) along the last axis: the even and odd coordinates of y."""
    m = y.shape[-1] // 2
    head, mirror = y[..., :m], y[..., ::-1][..., :m]
    even = np.concatenate([_HALF * (head + mirror), y[..., m:y.shape[-1] - m]], axis=-1)
    return even, _HALF * (head - mirror)


def decompose(bases: Sequence[KernelSpec], t: np.ndarray) -> list[Spectrum]:
    """The Spectrum of each base's Gram matrix over `t`, folded in two on uniform times.

    One _uniform verdict serves every base. On times that pass it each
    matrix is the symmetric Toeplitz toeplitz(k(t - t[0])), decomposed as
    its even and odd blocks (_fold_blocks); any other times take gram(base,
    t) whole. Every block goes to _eigh. The spectra come in the order of
    `bases`. Raises SingularSystemError for a non-finite kernel matrix or a
    failed decomposition.
    """
    if _uniform(t):
        lags = t - t[0]
        blocks = (_fold_blocks(_finite_kernel(kernel_eval(base, lags, 0.0))) for base in bases)
    else:
        blocks = ((_finite_kernel(gram(base, t)),) for base in bases)
    pairs = (zip(*map(_eigh, matrices)) for matrices in blocks)
    return [Spectrum(np.maximum(np.concatenate(lams), 0.0), vectors) for lams, vectors in pairs]


def _finite_kernel(values: np.ndarray) -> np.ndarray:
    """`values`, a lag column or a Gram matrix, if every entry is finite."""
    if not np.all(np.isfinite(values)):
        n = values.shape[0]
        raise SingularSystemError(f"the {n}x{n} Gram matrix has non-finite entries")
    return values


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, eigenvectors) of the symmetric `matrix`, the vectors F-ordered.

    One np.linalg.eigh, LAPACK's dsyevd, on matrix.T, whose lower triangle
    is `matrix`'s upper one; it leaves `matrix` unchanged. The vectors are
    copied to Fortran order, LAPACK's own layout, which Spectrum.project's
    products need for the bits of the study's outputs. Raises
    SingularSystemError when the divide and conquer does not converge.
    """
    try:
        lam, vectors = np.linalg.eigh(matrix.T)
    except np.linalg.LinAlgError as exc:
        n = matrix.shape[0]
        raise SingularSystemError(f"the {n}x{n} eigendecomposition did not converge") from exc
    return lam, np.asfortranarray(vectors)


def _fold_blocks(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) blocks of the symmetric Toeplitz matrix with first column `lags`.

    With a = lags, m = n // 2 and c = n - m, the orthogonal basis (x;
    Jx)/sqrt(2), (x; -Jx)/sqrt(2) (plus the unit middle vector for odd n)
    splits the matrix exactly into the even block a[|i-j|] + a[n-1-i-j],
    i, j < c, whose middle row and column are scaled by sqrt(1/2) for odd
    n, and the odd block a[|i-j|] - a[n-1-i-j], i, j < m (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976). Both terms are read from strided views
    of a, so no n x n matrix and no index array is formed; Spectrum.project
    and Spectrum.expand apply the basis change to vectors.
    """
    n = lags.size
    m, c = n // 2, n - n // 2
    toeplitz, hankel = _toeplitz_rows(lags)[:c, :c], _strided(lags, (c, c), n - 1, (-1, -1))
    even, odd = toeplitz + hankel, toeplitz[:m, :m] - hankel[:m, :m]
    if c > m:
        even[m] *= _HALF
        even[:, m] *= _HALF
        even[m, m] = lags[0]  # 2 a_0 / 2, without the rounding of two scalings
    return even, odd


def _toeplitz_rows(a: np.ndarray) -> np.ndarray:
    """A read-only view of the symmetric Toeplitz matrix with first column `a`, row by row.

    Row i is a[|i - j|], the window of b = [a[n-1], ..., a[1], a[0], ...,
    a[n-1]] that starts at b[n-1-i]; the view holds b's 2n - 1 floats,
    however many of its rows are read.
    """
    n = a.size
    return _strided(np.concatenate([a[:0:-1], a]), (n, n), n - 1, (-1, 1))


def _strided(x: np.ndarray, shape: tuple[int, int], start: int, steps: tuple[int, int]):
    """The read-only view v of the contiguous 1-d `x` with v[i, j] = x[start + steps . (i, j)].

    numpy checks that every such index lies within x.
    """
    size = x.itemsize
    view = np.ndarray(shape, x.dtype, x, start * size, (steps[0] * size, steps[1] * size))
    view.flags.writeable = False
    return view


def decimated_cross_kernel(spec: KernelSpec, grid: np.ndarray, decimation: int) -> np.ndarray:
    """kernel_eval(spec, grid[:, None], grid[::decimation]), gathered from one lag column.

    Precondition: `grid` is uniform, as SamplingPlan.base_grid's np.linspace
    is, so that k(grid[i] - grid[d j]) is k(grid[|i - d j|] - grid[0]) up to
    the rounding of the times. The N evaluations of that column, a =
    k(grid - grid[0]), replace N * n, and column j of the result is a window
    of [a[N-1], ..., a[1], a[0], ..., a[N-1]].
    """
    # column j is row d*j of the grid's Toeplitz matrix, a[|d*j - i|]
    return _toeplitz_rows(kernel_eval(spec, grid - grid[0], 0.0))[::decimation].T.copy()


def rounding_level(n: int, top: float) -> float:
    """n * eps * top, the rounding level of an n x n decomposition with largest eigenvalue top."""
    return n * _EPS * top


def require_determined_noise(sigma_n: float, n: int, top: float) -> None:
    """Raise InvalidInputError unless sigma_n > 0 and rounding_level(n, top) < sigma_n^2 < inf."""
    level = rounding_level(n, top)
    # sigma_n**2, as the smoothers square it, once the product shows it cannot overflow
    if not (sigma_n > 0 and sigma_n * sigma_n < np.inf and sigma_n**2 > level):
        raise InvalidInputError(
            f"need sigma_n > 0 with sigma_n^2 finite and above the rounding level {level:.3g}, "
            f"got sigma_n = {sigma_n:.3g}: the smoother interpolates (h = n, edf undetermined)"
        )


def fit(spec: KernelSpec, data: TrainingSet, sigma_n: float) -> FittedSmoother:
    """Fit the kernel smoother to `data` with noise level `sigma_n`.

    Solves A = K + sigma_n^2 I by Levinson's recursion on uniform times (_levinson_fit) and
    by Cholesky factorisation on any other times (_cholesky_fit); each returns the weights w
    and sigma_n^2 tr(A^-1). The edf n - sigma_n^2 tr(A^-1) loses about n eps to
    cancellation and is clamped to [0, n]; the fitted values are y - sigma_n^2 w, K w by
    the solve's own equation. Raises InvalidInputError for a sigma_n that fails
    require_determined_noise at top = n * k(0) = tr K (both kernels are stationary), and
    SingularSystemError for a non-finite K, a failed solve, a non-finite weight or edf.
    """
    n = data.n
    require_determined_noise(sigma_n, n, n * (spec.sigma_f**2 * spec.unit_diagonal))
    solve, system = (_levinson_fit, "Toeplitz") if _uniform(data.t) else (_cholesky_fit, "smoother")
    noise = sigma_n**2
    try:
        weights, trace = solve(spec, data.t, data.y, noise)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"cannot solve the {n}x{n} {system} system: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise SingularSystemError(f"the {n}x{n} {system} system gave non-finite weights")
    edf = n - trace
    if not np.isfinite(edf):
        raise SingularSystemError(f"the {n}x{n} {system} system gave no finite edf")
    return FittedSmoother(
        kernel=spec, t_train=data.t, weights=weights, fitted=data.y - noise * weights,
        edf=min(max(edf, 0.0), float(n)),
    )


def _uniform(t: np.ndarray) -> bool:
    """Whether every time of `t` lies within 4 eps max|t| of t[0] + i * step,
    step = (t[-1] - t[0]) / (n - 1): the gate of Levinson and of the fold.

    Both take t_i - t_j as t_{i-j} - t_0, so each time, not only each
    gap, is bounded: gaps that each pass can drift one way, as the rounding
    of np.cumsum does, and the bound keeps every lag error below 8 eps
    max|t|. Over 200,000 random valid plans (t_start 0 or 1e-6 to 1e7 s, spans 1e-8 to 1e4
    s, 2 to 4,000 base points, any decimation) the largest deviation of a strictly
    increasing sample_times() was 1.89 eps max|t|: only hand-built times take Cholesky.
    """
    step = (t[-1] - t[0]) / max(t.size - 1, 1)
    ideal = t[0] + step * np.arange(t.size)
    return bool(np.all(np.abs(t - ideal) <= 4.0 * _EPS * np.max(np.abs(t))))


def _levinson_fit(spec, t, y, noise):
    """(weights, sigma_n^2 tr(T^-1)) on uniform times, from K's lag column k(t - t[0]).

    One Levinson solve of T [w, x] = [y, e_1], T = toeplitz(column) +
    sigma_n^2 I, gives the weights w and the first column x of T^-1, whose
    Gohberg-Semencul formula gives the trace. T differs from gram(spec, t) + sigma_n^2 I
    only by the rounding of the times t_i - t_j. It sums (sigma_n^2 x_0) sum_k (n - 2k) (x_k /
    x_0)^2, as x_k^2 ~ sigma_n^-4 underflows past sigma_n^2 = 1e154. T >= sigma_n^2 I bounds
    sigma_n^2 x_0 by 1: an x_0 <= 0 or sigma_n^2 x_0 > 1 + 4 n eps gives a NaN trace.

    Levinson is only weakly stable (Cybenko 1980). Against a 60-digit solve
    of the same T, over 420 SE and SDOF systems on 0.3 s grids, n = 4 to 20,
    and sigma_n^2 from 1.2 to 1000 times fit's rounding level (condition
    numbers up to 3e14), its backward error ||y - T w|| / (||T||_F ||w||)
    stayed at or below 0.15 n eps (Cholesky's at or below 0.18 n eps).
    Above condition number 1e9 (87 systems) its fitted values y - sigma_n^2
    w were a median 1.06 (at most 9.2) times as far off as Cholesky's, its
    edf a median 1.3 (at most 63) times, and its worst edf error was 3.9e-2
    against Cholesky's 1.1e-2 (summed over x_k^2: the sums differ by rel 2.3e-15 at most).
    """
    import scipy.linalg

    n = t.size
    system = _finite_kernel(kernel_eval(spec, t - t[0], 0.0))  # K's lag column, then T's
    system[0] += noise
    rhs = np.zeros((n, 2))
    rhs[:, 0] = y
    rhs[0, 1] = 1.0
    weights, first = scipy.linalg.solve_toeplitz(system, rhs).T
    unit = noise * first[0]  # sigma_n^2 x_0, at most 1
    if not (first[0] > 0 and unit <= 1.0 + 4 * n * _EPS):
        return weights, np.nan
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the trace non-finite
        u = first / first[0]
        return weights, unit * float(np.dot((n - 2.0 * np.arange(n)) * u, u))


def _cholesky_fit(spec, t, y, noise):
    """(weights, sigma_n^2 tr(A^-1)) on any times from A = L L^T: tr(A^-1) = ||L^-1||_F^2."""
    import scipy.linalg

    n = t.size
    factor = scipy.linalg.cholesky(_finite_kernel(gram(spec, t)) + noise * np.eye(n), lower=True)
    inverse = scipy.linalg.solve_triangular(factor, np.eye(n), lower=True)
    return scipy.linalg.cho_solve((factor, True), y), noise * float(np.vdot(inverse, inverse))


def signal_scale_scores(
    spectrum: Spectrum, z: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(edf, training MSE) of the spectrum's base kernel, each indexed (set, scale).

    `z` stacks the sets' projections spectrum.project(y) (sets x n) and
    `rho` their sigma_f^2 / sigma_n^2 (sets x scales). Every set must lie
    on the spectrum's sample times, with its noise variance above the
    rounding level, as srm.srm_select_batch checks.
    """
    g = rho[:, :, None] * spectrum.eigenvalues
    r = 1.0 / (g + 1.0)
    mse = np.sum(r**2 * (z**2)[:, None, :], axis=-1) / z.shape[1]
    return np.sum(g * r, axis=-1), mse


def spectral_weights(spectrum: Spectrum, rho: float, z: np.ndarray) -> np.ndarray:
    """v = U (rho r z) = U (z / (lambda + 1 / rho)), r = 1 / (rho lambda + 1), z = U^T y.

    Fit to y with z = spectrum.project(y) at sigma_f^2 / sigma_n^2 = rho, the smoother
    predicts kernel_eval(base, t*, t) @ v, base the spectrum's kernel over its times t.
    """
    return spectrum.expand(rho * z / (rho * spectrum.eigenvalues + 1.0))


def predict(model: FittedSmoother, t_star):
    """Evaluate the fitted smoother at `t_star` (scalar or array).

    Defined for any real input, including extrapolation beyond the training
    span.
    """
    arr = np.asarray(t_star, dtype=float)
    # one row of kernel evaluations per query point
    values = kernel_eval(model.kernel, arr[..., None], model.t_train) @ model.weights
    return float(values) if arr.ndim == 0 else values

