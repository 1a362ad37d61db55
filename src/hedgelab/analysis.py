"""Regret and Nash-gap metering, plus the regret floors of the adversarial instance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, require_count, require_real
from .game import PayoffMatrix
from .learners import top


# The columns of a metric row, in CSV order.
METRIC_COLUMNS = ("t", "reg_x", "reg_y", "social", "max_ind", "dreg_x", "dreg_y", "nash_gap")


def _wide(v: np.ndarray) -> bool:
    """Whether the rows of a block are read one at a time. Row-wise calls
    pay per column: np.add.accumulate down axis 0 about 25 ns a column, and
    argmax(axis=1) copies a strided block first. A loop pays about 0.8 us
    a row. So rows over 32 times as long as the block is deep go one by
    one; the values have the same bits either way."""
    return v.shape[1] > 32 * v.shape[0]


def _row_tops(v: np.ndarray) -> np.ndarray:
    """learners.top of each row of a 2-d array, the first largest entry."""
    if _wide(v):
        return np.array([top(row) for row in v])
    return v[np.arange(len(v)), v.argmax(axis=1)]


def _check_gap_mode(gap_mode: str) -> None:
    if gap_mode not in ("averaged_pair", "last_pair"):
        raise ValueError(f"unknown gap_mode {gap_mode!r}")


def _metric_rows(gap_mode, ts, best_x, best_y, played_x, played_y, dreg_x, dreg_y, pair_gap):
    """Metric rows (dicts keyed by METRIC_COLUMNS) of the rounds ts, from
    columns of equal length; nash_gap is the averaged pair's (best_x +
    best_y) / t, 0 at t = 0, or with gap_mode "last_pair" the round pair's."""
    _check_gap_mode(gap_mode)
    rx, ry = best_x - played_x, best_y - played_y
    if gap_mode == "averaged_pair":
        pair_gap = np.divide(best_x + best_y, ts, out=np.zeros(len(ts)), where=ts > 0)
    # np.where(ry > rx, ry, rx) keeps rx on a tie, as max(rx, ry) does.
    columns = (ts, rx, ry, rx + ry, np.where(ry > rx, ry, rx), dreg_x, dreg_y, pair_gap)
    return [dict(zip(METRIC_COLUMNS, row)) for row in zip(*(c.tolist() for c in columns))]


class RegretMeter:
    """Single-pass accumulator of every regret metric; O(m + n) state.

    Each player is metered in the utilities it learns from, u = (A y,
    -A^T x) as play_match hands them over: cum is their running sum, the
    same sum the learners keep, and a player's regret is its best fixed
    action's total minus what it earned. Its update method is a play_match
    observer, which counts a block of rounds at a time. Argmax bookkeeping
    runs on cumulative vectors, so nothing per-round is retained, not even
    for worst_scaled_pair_gap, the max over rounds of t * (round-t pair's
    gap).

    Handed `cum`, an array of shape (m + n,), the meter reads that running
    sum and never writes it: the caller adds each round's u before update,
    as play_match does with an OptimisticHedge's cum. Otherwise it keeps
    its own sum (an AveragedHedge sums reconstructed utilities, not u), and
    only then can update return metric rows of rounds inside a block.
    """

    def __init__(self, payoffs: PayoffMatrix, cum: np.ndarray | None = None):
        self.m, dim = payoffs.m, payoffs.m + payoffs.n
        self._adds = cum is None
        if self._adds:
            cum = np.zeros(dim)
        elif np.shape(cum) != (dim,):
            raise DimensionMismatchError(f"expected a sum of shape ({dim},), got {np.shape(cum)}")
        self.cum = cum
        self.played_x = 0.0
        self.played_y = 0.0
        self.dreg_x = 0.0
        self.dreg_y = 0.0
        self.rounds = 0
        self.last_pair_gap = 0.0
        self.worst_scaled_pair_gap = -math.inf

    def update(self, t, z, u, due=range(0), gap_mode="averaged_pair") -> list:
        """Count rounds t - j + 1 .. t from the j rows of z = (x, y) and
        u = (A y, -A^T x), one round per row, and return the metric rows of
        the rounds at the offsets `due` (a range) into the block, as
        snapshot(gap_mode) would have read them after each of those rounds.

        Each value has the bits of counting the rounds one by one: a row's
        played utility is a stacked np.matmul of two vectors, which is the
        ddot that ndarray.dot runs; a best response is the row's first
        argmax; and every running sum is sequential, by np.add.accumulate
        from the total so far or, for wide rows, one += a row.
        """
        if len(due) and not self._adds:
            raise ValueError("rows inside a block need a meter that keeps its own sum")
        _check_gap_mode(gap_mode)
        m, j = self.m, len(z)
        # Column 0 holds the totals so far, so accumulating along each row
        # adds the block's rounds to them one at a time.
        acc = np.empty((4, j + 1))
        acc[:, 0] = self.played_x, self.played_y, self.dreg_x, self.dreg_y
        px, py, dx, dy = acc[:, 1:]
        ux, uy = u[:, :m], u[:, m:]
        np.matmul(z[:, None, :m], ux[:, :, None], out=px[:, None, None])
        np.matmul(z[:, None, m:], uy[:, :, None], out=py[:, None, None])
        bx, by = _row_tops(ux), _row_tops(uy)
        np.subtract(bx, px, out=dx)
        np.subtract(by, py, out=dy)
        np.add.accumulate(acc, axis=1, out=acc)
        self.played_x, self.played_y, self.dreg_x, self.dreg_y = acc[:, j].tolist()
        gap = bx + by
        self.last_pair_gap = gap.item(j - 1)
        ts = np.arange(t - j + 1, t + 1)
        self.worst_scaled_pair_gap = max(self.worst_scaled_pair_gap, top(gap * ts))
        self.rounds = t
        if not self._adds:
            return []
        best_x, best_y = self._add(u, due)
        if not len(due):
            return []
        due = slice(due.start, due.stop, due.step)
        columns = (px[due], py[due], dx[due], dy[due], gap[due])
        return _metric_rows(gap_mode, ts[due], best_x, best_y, *columns)

    def _add(self, u, due):
        """Add the rows of u to cum in order, as sequential += does, and
        return the best fixed actions' totals (x, y) after each round at an
        offset in `due`."""
        m = self.m
        if _wide(u):
            best = []
            for i, row in enumerate(u):
                self.cum += row
                if i in due:
                    best.append((top(self.cum[:m]), top(self.cum[m:])))
            return np.array(best).reshape(-1, 2).T
        sums = np.empty(u.shape)
        np.add(self.cum, u[0], out=sums[0])
        sums[1:] = u[1:]
        np.add.accumulate(sums, axis=0, out=sums)
        self.cum[:] = sums[-1]
        best = sums[due.start : due.stop : due.step]
        return _row_tops(best[:, :m]), _row_tops(best[:, m:])

    def snapshot(self, gap_mode: str = "averaged_pair") -> dict:
        """Metric row (METRIC_COLUMNS) at the current round, all 0
        before the first. reg_x / reg_y compare against the best fixed action
        in hindsight, dreg_x / dreg_y against each round's best action, so
        dreg >= reg; gap_mode picks the pair nash_gap describes, the
        time-averaged one ("averaged_pair") or this round's ("last_pair")."""
        totals = (top(self.cum[: self.m]), top(self.cum[self.m :]), self.played_x, self.played_y)
        columns = np.array([*totals, self.dreg_x, self.dreg_y, self.last_pair_gap])[:, None]
        return _metric_rows(gap_mode, np.array([self.rounds]), *columns)[0]


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
