"""Independent references the tests check hedgelab against: a recording
match loop, the Nash gap, the closed-form adversarial trajectory, a
finite-difference gradient check, and the bounds in native coordinates;
and a matrix file with repeated rows and columns."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from hedgelab import (
    BoundInputs,
    PayoffMatrix,
    RateParams,
    RegretMeter,
    TransformedParams,
    play_match,
)
from hedgelab.errors import DimensionMismatchError
from hedgelab.learners import bottom, top
from hedgelab.optim import _eval_posy
from hedgelab.rates import bound_tables


# A matrix file whose duplicated rows and columns differ in the sign of
# their zeros: rows 0 and 2 are one class, rows 1 and 4 another, and
# columns 0 and 2 are one class.
SIGNED_DUPLICATES = """5 4
0.5 -0.0 0.5 0.25
-0.5 0.0 -0.5 1
0.5 0.0 0.5 0.25
0.0 -0.0 0.0 -0.75
-0.5 -0.0 -0.5 1
"""


def matrix(m: int, n: int, entries) -> PayoffMatrix:
    """An m-by-n payoff matrix from entries given in row-major order."""
    return PayoffMatrix(np.reshape(entries, (m, n)))


@dataclass(frozen=True)
class MatchTrace:
    """Full per-round record of a match: strategies and both feedback
    vectors, row i holding round t = i + 1, and the final metric row."""

    payoffs: PayoffMatrix
    x: np.ndarray
    y: np.ndarray
    gains: np.ndarray
    losses: np.ndarray
    row: dict

    @property
    def horizon(self) -> int:
        return self.x.shape[0]


def each_round(observer):
    """A play_match observer that hands `observer` a block's rounds one by
    one, as (t, z, u) with z and u that round's rows."""

    def block(t, z, u):
        for s, (z_s, u_s) in enumerate(zip(z, u), start=t - len(z) + 1):
            observer(s, z_s, u_s)

    return block


def record_match(payoffs: PayoffMatrix, players, horizon: int) -> MatchTrace:
    """play_match with a recording observer that also meters the match,
    one round (a block of one) at a time."""
    m, rows = payoffs.m, max(horizon, 0)
    xs, gs = np.empty((rows, m)), np.empty((rows, m))
    ys, ls = np.empty((rows, payoffs.n)), np.empty((rows, payoffs.n))
    meter = RegretMeter(payoffs)

    def record(t, z, u):
        meter.update(t, z[None], u[None])
        xs[t - 1], ys[t - 1], gs[t - 1] = z[:m], z[m:], u[:m]
        np.negative(u[m:], out=ls[t - 1])

    play_match(payoffs, players, horizon, each_round(record))
    return MatchTrace(payoffs, xs, ys, gs, ls, meter.snapshot())


def keep_inner(learner) -> SimpleNamespace:
    """Spy on an AveragedHedge: the returned object's `last` is the inner
    learner's latest iterate, the strategy the average was last fed."""
    spy = SimpleNamespace(last=None)
    draw = learner.inner._step

    def step():
        iterate = draw()
        spy.last = iterate.copy()  # the next step overwrites the buffer
        return iterate

    learner.inner._step = step
    return spy


def nash_gap(payoffs: PayoffMatrix, x, y) -> float:
    """How far the pair (x, y) is from equilibrium: the row player's best
    improvement plus the column player's best improvement."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (payoffs.m,) or y.shape != (payoffs.n,):
        raise DimensionMismatchError(
            f"strategies of shapes {x.shape}/{y.shape} do not match a {payoffs.m}x{payoffs.n} game"
        )
    return top(payoffs.entries @ y) - bottom(payoffs.entries.T @ x)


def adversarial_top_prob(num_actions: int, rate: float, delta: float, t: int) -> float:
    """Closed-form probability the learner puts on action 1 of the adversarial
    instance at round t, valid whatever the opponent plays.

    Round 1 is the uniform first iterate, exactly 1/num_actions; from round 2
    on the weight ratio between action 1 and any other action is
    exp(rate * delta * t).
    """
    if num_actions < 2:
        raise ValueError(f"num_actions must be >= 2, got {num_actions}")
    if rate < 0 or not math.isfinite(rate):
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t == 1:
        return 1.0 / num_actions
    return 1.0 / (1.0 + (num_actions - 1) * math.exp(-rate * delta * t))


def gradient_check(coords, b: BoundInputs, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients."""
    z = np.asarray(coords, dtype=np.float64)
    if z.shape != (4,):
        raise ValueError(f"expected 4 log coordinates, got shape {z.shape}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    worst = 0.0
    for coefs, expos in bound_tables(b):
        _, grad = _eval_posy(coefs, expos, z)
        for i in range(4):
            zp = z.copy()
            zp[i] += step
            zm = z.copy()
            zm[i] -= step
            fd = (_eval_posy(coefs, expos, zp)[0] - _eval_posy(coefs, expos, zm)[0]) / (
                2.0 * step
            )
            denom = max(1.0, abs(grad[i]), abs(fd))
            worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


# Relative tolerance deciding whether a point sits on the stability boundary,
# where the individual bounds blow up.
BOUNDARY_RTOL = 1e-12


def _tied(u: float, v: float) -> bool:
    return abs(u - v) <= BOUNDARY_RTOL * max(abs(u), abs(v))


def log_coords(tp: TransformedParams):
    """(log a_x, log a_y, log s_x, log s_y); defined only when both slacks are positive."""
    if tp.s_x <= 0 or tp.s_y <= 0:
        raise ValueError("log coordinates need s_x > 0 and s_y > 0")
    return (math.log(tp.a_x), math.log(tp.a_y), math.log(tp.s_x), math.log(tp.s_y))


def to_transformed(rp: RateParams) -> TransformedParams:
    """Map a rate plan to transformed coordinates; needs positive rates and splits < 1."""
    if rp.eta_x <= 0 or rp.eta_y <= 0:
        raise ValueError("transformed coordinates need positive rates")
    if rp.c_x >= 1 or rp.c_y >= 1:
        raise ValueError("transformed coordinates need c_x, c_y in (0, 1)")
    a_x = rp.eta_x / rp.c_x
    a_y = rp.eta_y / rp.c_y
    s_x = (1.0 / rp.c_x - 1.0) / a_x - a_y
    s_y = (1.0 / rp.c_y - 1.0) / a_y - a_x
    # A boundary point can land a hair below zero through rounding.
    if -BOUNDARY_RTOL * max(1.0, a_y) <= s_x < 0:
        s_x = 0.0
    if -BOUNDARY_RTOL * max(1.0, a_x) <= s_y < 0:
        s_y = 0.0
    if s_x < 0 or s_y < 0:
        raise ValueError("rate plan is outside the stability region")
    return TransformedParams(a_x, a_y, s_x, s_y)


def is_feasible(rp: RateParams) -> bool:
    """Whether the rate product stays inside the stability region.

    The comparison is exact except on the boundary itself, where membership
    is granted within relative tolerance BOUNDARY_RTOL (the tight
    cardinality-aware social point sits exactly there).
    """
    prod = rp.eta_x * rp.eta_y
    for cap in (rp.c_x * (1.0 - rp.c_y), rp.c_y * (1.0 - rp.c_x)):
        if prod > cap and not _tied(prod, cap):
            return False
    return True


def social_bound_terms(rp: RateParams, b: BoundInputs):
    """Per-player social-bound terms and their sum.

    The x term is log(m)/eta_x + eta_x/(2 c_x); the y term is symmetric; the
    sum bounds the social regret of any feasible plan.
    """
    if rp.eta_x == 0 or rp.eta_y == 0:
        raise ValueError("social bound terms need positive rates")
    term_x = b.log_m / rp.eta_x + rp.eta_x / (2.0 * rp.c_x)
    term_y = b.log_n / rp.eta_y + rp.eta_y / (2.0 * rp.c_y)
    return term_x, term_y, term_x + term_y


def individual_bounds(rp: RateParams, b: BoundInputs):
    """Per-player regret bounds (x_bound, y_bound) for a feasible plan.

    On the stability boundary the matching bound is math.inf (a deliberate
    tagged value, not an overflow); strictly inside, both are finite.
    """
    if not is_feasible(rp):
        raise ValueError("rate plan violates the stability region")
    if rp.eta_x == 0 or rp.eta_y == 0:
        raise ValueError("individual bounds need positive rates")
    term_x, term_y, total = social_bound_terms(rp, b)
    prod = rp.eta_x * rp.eta_y
    half_x = rp.eta_x / (2.0 * rp.c_x)
    half_y = rp.eta_y / (2.0 * rp.c_y)
    if _tied(prod, rp.c_x * (1.0 - rp.c_y)):
        bound_x = math.inf
    else:
        margin = (1.0 - rp.c_y) / (2.0 * rp.eta_y) - half_x
        bound_x = term_x + (half_x / margin) * total
    if _tied(prod, rp.c_y * (1.0 - rp.c_x)):
        bound_y = math.inf
    else:
        margin = (1.0 - rp.c_x) / (2.0 * rp.eta_x) - half_y
        bound_y = term_y + (half_y / margin) * total
    return bound_x, bound_y
