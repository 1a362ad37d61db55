"""Regret and Nash-gap metering, plus the regret floors of the adversarial instance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_count, require_real
from .game import PayoffMatrix
from .learners import top


class RegretMeter:
    """Single-pass accumulator of every regret metric; O(m + n) state.

    Each player is metered in the utilities it learns from, u = (A y,
    -A^T x) as play_match hands them over: cum is their running sum, the
    same sum the learners keep, and a player's regret is its best fixed
    action's total minus what it earned. Its update method is a play_match
    observer. Argmax bookkeeping runs on cumulative vectors, so nothing
    per-round is retained, not even for worst_scaled_pair_gap, the max over
    rounds of t * (round-t pair's gap).
    """

    def __init__(self, payoffs: PayoffMatrix):
        self.m = payoffs.m
        self.cum = np.zeros(payoffs.m + payoffs.n)
        self.played_x = 0.0
        self.played_y = 0.0
        self.dreg_x = 0.0
        self.dreg_y = 0.0
        self.rounds = 0
        self.last_pair_gap = 0.0
        self.worst_scaled_pair_gap = -math.inf

    def update(self, t, z, u):
        """Count round t from z = (x, y) and u = (A y, -A^T x)."""
        m = self.m
        x, y, ux, uy = z[:m], z[m:], u[:m], u[m:]
        self.cum += u
        px, py = float(x.dot(ux)), float(y.dot(uy))
        self.played_x += px
        self.played_y += py
        bx, by = top(ux), top(uy)
        self.dreg_x += bx - px
        self.dreg_y += by - py
        self.last_pair_gap = bx + by
        self.worst_scaled_pair_gap = max(self.worst_scaled_pair_gap, t * self.last_pair_gap)
        self.rounds = t

    def snapshot(self, gap_mode: str = "averaged_pair") -> dict:
        """Metric row (harness.METRIC_COLUMNS) at the current round, all 0
        before the first. reg_x / reg_y compare against the best fixed action
        in hindsight, dreg_x / dreg_y against each round's best action, so
        dreg >= reg; gap_mode picks the pair nash_gap describes, the
        time-averaged one ("averaged_pair") or this round's ("last_pair")."""
        best_x, best_y = top(self.cum[: self.m]), top(self.cum[self.m :])
        if gap_mode == "averaged_pair":
            gap = (best_x + best_y) / self.rounds if self.rounds else 0.0
        elif gap_mode == "last_pair":
            gap = self.last_pair_gap
        else:
            raise ValueError(f"unknown gap_mode {gap_mode!r}")
        rx = best_x - self.played_x
        ry = best_y - self.played_y
        return {
            "t": self.rounds,
            "reg_x": rx,
            "reg_y": ry,
            "social": rx + ry,
            "max_ind": max(rx, ry),
            "dreg_x": self.dreg_x,
            "dreg_y": self.dreg_y,
            "nash_gap": gap,
        }


@dataclass(frozen=True)
class LowerBoundValue:
    """An adversarial-instance regret floor: the gap size that attains it,
    the floor itself, and which analysis branch produced it."""

    delta_star: float
    value: float
    branch: str


def _check_lb_args(num_actions: int, rate: float, horizon: int) -> None:
    require_count("num_actions", num_actions, 2)
    require_real("rate", rate, "(0, inf)")
    require_count("horizon", horizon, 1)


def external_regret_lower_bound(num_actions: int, rate: float, horizon: int) -> LowerBoundValue:
    """Regret floor for a learner with the given rate on the adversarial
    instance run for `horizon` rounds with gap delta_star."""
    _check_lb_args(num_actions, rate, horizon)
    m, eta, big_t = num_actions, rate, horizon
    log_term = math.log((m - 1) * (big_t + 1))
    delta_star = min(1.0, log_term / (eta * (big_t + 1)))
    if eta >= log_term / (big_t + 1):
        value = math.log(m) / eta - (log_term + 1.0) / (eta * (big_t + 1))
        branch = "large_rate"
    else:
        value = (math.log(m) - eta - (m - 1) * math.exp(-eta * (big_t + 1))) / eta
        branch = "small_rate"
    return LowerBoundValue(delta_star, value, branch)


def dynamic_regret_lower_bound(num_actions: int, rate: float, horizon: int) -> LowerBoundValue:
    """Dynamic-regret floor for the averaged dynamic on the adversarial
    instance; the effective horizon scale is sqrt(horizon + 1) + 1."""
    _check_lb_args(num_actions, rate, horizon)
    m, eta, big_t = num_actions, rate, horizon
    kappa = math.sqrt(big_t + 1.0) + 1.0
    log_term = math.log((m - 1) * kappa)
    delta_star = min(1.0, log_term / (eta * kappa))
    if eta >= log_term / kappa:
        value = math.log(m) * math.log(big_t + 1.0) / (2.0 * eta) - (log_term + 1.0) / (
            eta * kappa
        )
        branch = "large_rate"
    else:
        value = (
            math.log(big_t + 1.0)
            / (2.0 * eta)
            * (math.log(m) - eta - (m - 1) * math.exp(-eta * kappa))
        )
        branch = "small_rate"
    return LowerBoundValue(delta_star, value, branch)
