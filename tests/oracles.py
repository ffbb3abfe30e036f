"""Independent reference implementations used only by the test suite.

Deliberately written without the package's own numerics so agreement is
evidence, not tautology: the ODE route integrates the oscillator with a
classical fixed-step RK4 in pure Python, and the linear-algebra routes use
hand-rolled Gaussian elimination with partial pivoting on Python lists, or
exact rational arithmetic.
"""
from __future__ import annotations

import math
from fractions import Fraction


def rk4_impulse_response(
    m: float, c: float, k: float, times, dt_target: float = 2e-6
) -> list[float]:
    """Displacement response to a unit impulse at t=0, by RK4 integration.

    Integrates m x'' + c x' + k x = 0 from x(0) = 0, x'(0) = 1/m, stepping
    segment by segment so every requested time is hit exactly. `times` must
    be nonnegative and sorted ascending.
    """

    def accel(x: float, v: float) -> float:
        return -(c * v + k * x) / m

    x, v, t = 0.0, 1.0 / m, 0.0
    out = []
    for target in times:
        target = float(target)
        if target < t:
            raise ValueError("times must be sorted ascending")
        gap = target - t
        if gap > 0.0:
            steps = max(1, math.ceil(gap / dt_target))
            dt = gap / steps
            for _ in range(steps):
                k1x = v
                k1v = accel(x, v)
                k2x = v + 0.5 * dt * k1v
                k2v = accel(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
                k3x = v + 0.5 * dt * k2v
                k3v = accel(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
                k4x = v + dt * k3v
                k4v = accel(x + dt * k3x, v + dt * k3v)
                x += dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
                v += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            t = target
        out.append(x)
    return out


def solve_dense(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve a x = b by Gaussian elimination with partial pivoting."""
    n = len(a)
    aug = [list(map(float, row)) + [float(bi)] for row, bi in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            if factor == 0.0:
                continue
            for j in range(col, n + 1):
                aug[row][j] -= factor * aug[col][j]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        s = aug[row][n] - sum(aug[row][j] * x[j] for j in range(row + 1, n))
        x[row] = s / aug[row][row]
    return x


def invert_dense(a: list[list[float]]) -> list[list[float]]:
    """Matrix inverse column by column via solve_dense."""
    n = len(a)
    cols = []
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        cols.append(solve_dense(a, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def edf_trace(gram: list[list[float]], sigma_n: float) -> float:
    """Effective degrees of freedom via the trace identity.

    edf = trace(K (K + s^2 I)^-1) = n - s^2 trace((K + s^2 I)^-1), computed
    with the hand-rolled inverse. Requires sigma_n > 0 (the regularized
    system must be invertible).
    """
    n = len(gram)
    s2 = sigma_n * sigma_n
    a = [[gram[i][j] + (s2 if i == j else 0.0) for j in range(n)] for i in range(n)]
    inv = invert_dense(a)
    return n - s2 * sum(inv[i][i] for i in range(n))


def exact_residual(a, x, b, shift: float = 0.0) -> list[float]:
    """|(a + shift I) x - b| of float inputs, each entry exact in rationals, rounded once."""
    out = []
    for i, (row, bi) in enumerate(zip(a, b)):
        total = sum(Fraction(aij) * Fraction(xj) for aij, xj in zip(row, x))
        out.append(float(abs(total + Fraction(shift) * Fraction(x[i]) - Fraction(bi))))
    return out
