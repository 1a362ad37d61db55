"""Minimization of the regret-bound surfaces in log coordinates.

In the transformed coordinates each per-player bound is a posynomial, whose
table (coefficients, exponent rows) comes from rates.bound_tables; in
log coordinates z = (log a_x, log a_y, log s_x, log s_y) it is a sum of
exponentials of affine functions: smooth and strictly convex, with gradient
E^T t and Hessian E^T diag(t) E for exponent rows E and terms t. Every solve
is the same projected damped-Newton routine on such a table, in a box of
half-width BOX. A weighted sum of posynomials is again a posynomial, so the
"social" and "weighted" objectives are one Newton solve each. The min-max
objective bisects on the weight: by Sion's minimax theorem min_z max(f_x,
f_y) is the largest weighted minimum, and by Danskin's theorem the sign of
f_x - f_y at a weighted optimum is the slope of that minimum in the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGameError, InvalidGammaError
from .rates import (
    UNAWARE_TABLES,
    BoundInputs,
    RateParams,
    TransformedParams,
    bound_tables,
    from_transformed,
    social_table,
)

# Half-width of the box that keeps every log coordinate finite.
BOX = 12.0
ARMIJO = 1e-4
# Newton stops once the squared decrement falls to this fraction of the value.
DECREMENT_TOL = 1e-15
# The min-max bisection stops once the two surfaces agree to this relative gap.
BALANCE_TOL = 1e-12
# Bound on the Newton iterations of one solve, bisection steps included.
MAX_ITERS = 20000


def warn_unconverged(solve: str, iterations: int) -> None:
    """Log that a solve stopped unconverged; its last point is used anyway."""
    # Imported only here: no other path logs, and importing logging adds to
    # every run's peak memory.
    import logging

    msg = "%s did not converge after %d iterations"
    logging.getLogger("hedgelab").warning(msg, solve, iterations)


def _eval_posy(coefs: np.ndarray, expos: np.ndarray, z: np.ndarray):
    terms = coefs * np.exp(expos @ z)
    return float(terms.sum()), expos.T @ terms


def eval_log_bounds(coords, b: BoundInputs):
    """Both bound surfaces and their analytic gradients at log coordinates.

    Returns (x_bound, y_bound, grad_x, grad_y) with coords ordered as
    (log a_x, log a_y, log s_x, log s_y).
    """
    z = np.asarray(coords, dtype=np.float64)
    if z.shape != (4,):
        raise ValueError(f"expected 4 log coordinates, got shape {z.shape}")
    x_table, y_table = bound_tables(b)
    bx, gx = _eval_posy(*x_table, z)
    by, gy = _eval_posy(*y_table, z)
    return bx, by, gx, gy


@dataclass(frozen=True)
class OptimizeResult:
    point: TransformedParams
    rates: RateParams
    x_bound: float
    y_bound: float
    objective_value: float
    iterations: int
    converged: bool


def _newton(coefs: np.ndarray, expos: np.ndarray, z0, budget: int):
    """Projected damped Newton on one posynomial table, inside the box.

    A coordinate on the box whose gradient points outward is pinned; the
    Newton system is solved on the free ones and the step is backtracked
    until it meets the Armijo condition. Once the squared Newton decrement
    -g.d falls to DECREMENT_TOL times the value, one last full step gives
    quadratic accuracy. Returns (z, iterations, converged), where converged
    means that stop was reached within the budget with no pinned coordinate.
    """
    z = np.clip(np.asarray(z0, dtype=np.float64), -BOX, BOX)
    for iters in range(1, budget + 1):
        terms = coefs * np.exp(expos @ z)
        value = float(terms.sum())
        grad = expos.T @ terms
        pinned = ((z <= -BOX) & (grad > 0.0)) | ((z >= BOX) & (grad < 0.0))
        free = ~pinned
        step = np.zeros_like(z)
        hess = (expos.T * terms) @ expos
        step[free] = np.linalg.solve(hess[np.ix_(free, free)], -grad[free])
        if -float(grad @ step) <= DECREMENT_TOL * value:
            return np.clip(z + step, -BOX, BOX), iters, not pinned.any()
        t = 1.0
        while True:
            z_new = np.clip(z + t * step, -BOX, BOX)
            trial = float((coefs * np.exp(expos @ z_new)).sum())
            if trial <= value + ARMIJO * float(grad @ (z_new - z)):
                break
            t *= 0.5
            if t < 1e-18:
                return z, iters, False
        z = z_new
    return z, budget, False


def _solve_weighted(x_table, y_table, gamma: float, z0, budget: int):
    """Newton on gamma * f_x + (1 - gamma) * f_y, itself a posynomial."""
    (cx, ex), (cy, ey) = x_table, y_table
    coefs = np.concatenate([gamma * cx, (1.0 - gamma) * cy])
    return _newton(coefs, np.vstack([ex, ey]), z0, budget)


def _minimize_max(x_table, y_table, z0, budget: int):
    """Minimize max(f_x, f_y) by bisection on the weight of f_x.

    Each step solves the weighted problem from the previous point, then
    moves the weight toward the larger surface. Stops once the surfaces
    balance to BALANCE_TOL or the weight bracket collapses.
    Returns (z, iterations, converged) of the last weighted solve.
    """
    lo, hi, gamma = 0.0, 1.0, 0.5
    z, used = z0, 0
    while True:
        z, iters, converged = _solve_weighted(x_table, y_table, gamma, z, budget - used)
        used += iters
        fx = _eval_posy(*x_table, z)[0]
        fy = _eval_posy(*y_table, z)[0]
        if not converged or abs(fx - fy) <= BALANCE_TOL * max(fx, fy):
            return z, used, converged
        lo, hi = (gamma, hi) if fx > fy else (lo, gamma)
        gamma = 0.5 * (lo + hi)
        if gamma in (lo, hi):
            return z, used, converged


def _default_start(b: BoundInputs) -> np.ndarray:
    return np.array(
        [
            0.5 * math.log(b.log_m / b.log_n_plus),
            0.5 * math.log(b.log_n / b.log_m_plus),
            0.0,
            0.0,
        ]
    )


def minimize(objective: str, b: BoundInputs, gamma: float | None = None) -> OptimizeResult:
    """Minimize one of the bound objectives over the transformed points.

    objective is "social" (sum of the social terms), "weighted" (gamma times
    the x bound plus (1 - gamma) times the y bound; needs a real gamma in
    [0, 1]), or "max" (the worse of the two bounds); only "weighted" takes a
    gamma. The social optimum sits at zero slack, where both individual
    bounds are infinite by design.
    """
    if b.log_m <= 0 or b.log_n <= 0:
        raise DegenerateGameError("bound objectives need m >= 2 and n >= 2")
    if objective not in ("social", "weighted", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective != "weighted":
        if gamma is not None:
            raise InvalidGammaError(f"objective {objective!r} takes no gamma, got {gamma}")
    elif isinstance(gamma, (bool, np.bool_)) or gamma is None or not 0.0 <= gamma <= 1.0:
        raise InvalidGammaError(f"gamma must lie in [0, 1], got {gamma}")
    z0 = _default_start(b)
    if objective == "social":
        coefs, expos = social_table(b)
        z, iters, converged = _newton(coefs, expos, z0[:2], MAX_ITERS)
        point = TransformedParams(math.exp(z[0]), math.exp(z[1]), 0.0, 0.0)
        value = _eval_posy(coefs, expos, z)[0]
        return _result(point, math.inf, math.inf, value, iters, converged)
    x_table, y_table = bound_tables(b)
    if objective == "weighted":
        z, iters, converged = _solve_weighted(x_table, y_table, gamma, z0, MAX_ITERS)
    else:
        z, iters, converged = _minimize_max(x_table, y_table, z0, MAX_ITERS)
    bx, by = _eval_posy(*x_table, z)[0], _eval_posy(*y_table, z)[0]
    value = max(bx, by) if objective == "max" else gamma * bx + (1.0 - gamma) * by
    point = TransformedParams(*(math.exp(v) for v in z))
    return _result(point, bx, by, value, iters, converged)


def _result(point, x_bound, y_bound, value, iters, converged) -> OptimizeResult:
    rates = from_transformed(point)
    return OptimizeResult(point, rates, x_bound, y_bound, value, iters, converged)


def minimize_unaware_coefficients():
    """Minimize the worst of the four size-independent bound coefficients.

    Returns (point, worst_coefficient). Whatever the action counts, each
    player's bound is at most (coefficient on log m) * log m +
    (coefficient on log n) * log n + O(1) at the returned point, and the
    worst coefficient is what this solves for. The optimum is 3*sqrt(3).

    Mirroring the players maps the four tables onto each other, so by
    convexity a minimizer with a_x = a_y and s_x = s_y exists. There the
    y tables equal the x tables, and the problem is the min-max of the two
    x tables over (log a, log s).
    """
    x_tables = [(np.ones(e.shape[0]), e[:, [0, 2]] + e[:, [1, 3]]) for e in UNAWARE_TABLES[:2]]
    z, iters, converged = _minimize_max(*x_tables, np.zeros(2), MAX_ITERS)
    if not converged:
        warn_unconverged("U-MaxInd-Num: size-free max solve", iters)
    coords = z[[0, 0, 1, 1]]
    worst = max(_eval_posy(np.ones(e.shape[0]), e, coords)[0] for e in UNAWARE_TABLES)
    point = TransformedParams(*(math.exp(v) for v in coords))
    return point, worst
