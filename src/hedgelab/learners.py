"""Learner state machines built on the optimistic exponential-weights update."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteWeightError,
    UtilityOutOfRangeError,
)

# Utilities computed as A @ y carry rounding, so the range check leaves a hair
# of slack above 1; a genuinely out-of-range entry like 1.5 still raises.
UTILITY_SLACK = 1e-9

# Shifted scores below this are played as weight exactly 0. e^-690 is below
# half an ulp of the weight sum (>= 1), so dropping those terms leaves the sum,
# and with it every kept entry, bit-identical; np.exp never sees an input whose
# result is subnormal or near its slow band at -708; and every kept entry stays
# a normal float after dividing by the sum for any dim up to 1e7.
EXP_FLOOR = -690.0


# The largest and smallest entry of a non-empty float vector, read by index:
# on short vectors argmax/argmin plus item cost a fraction of a ufunc reduce.
# Both pick the first NaN, so a NaN anywhere gives NaN, as max/min do. They
# differ from max/min only in the sign of a zero extreme where +0.0 and -0.0
# tie (first one wins); no round reaches that: the learners' and the meter's
# running sums start at +0.0 and never become -0.0, a sign flip of hi cancels
# in scores - hi, and BLAS gemv returns +0.0 for a zero sum.
def top(v: np.ndarray) -> float:
    return v.item(v.argmax())


def bottom(v: np.ndarray) -> float:
    return v.item(v.argmin())


def _checked_utilities(utilities, dim: int) -> np.ndarray:
    u = np.asarray(utilities, dtype=np.float64)
    if u.shape != (dim,):
        raise DimensionMismatchError(f"expected {dim} utilities, got shape {u.shape}")
    limit = 1.0 + UTILITY_SLACK
    if not (top(u) <= limit and -bottom(u) <= limit):  # NaN fails too
        raise UtilityOutOfRangeError("utilities must lie in [-1, 1]")
    return u


def uniform_strategy(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"need at least one action, got {dim}")
    return np.full(dim, 1.0 / dim)


class OptimisticHedge:
    """Exponential weights with the most recent utility counted twice.

    The weight of action i after t-1 observations is
    exp(rate * (sum of past utilities + the latest utility)), the latest
    utility standing in as a prediction of the upcoming one. Weights start
    all-ones, so the first strategy is uniform. rate == 0 plays the exact
    uniform strategy every round rather than a numerical limit.

    Weights below e^EXP_FLOOR = e^-690 of the leader's are played as exactly
    0: those actions would get probability below 2.9e-300, and every other
    entry is the same bits as the plain softmax.
    """

    def __init__(self, dim: int, rate: float):
        if dim < 1:
            raise ValueError(f"need at least one action, got {dim}")
        rate = float(rate)
        if not np.isfinite(rate) or rate < 0:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        self.dim = int(dim)
        self.rate = rate
        self.cum = np.zeros(self.dim)
        self.last = np.zeros(self.dim)
        self._scores = np.empty(self.dim)  # next_strategy's work buffer

    def next_strategy(self) -> np.ndarray:
        if self.rate == 0.0:
            return uniform_strategy(self.dim)
        scores = np.add(self.cum, self.last, out=self._scores)
        scores *= self.rate
        hi, lo = top(scores), bottom(scores)  # both NaN if any score is
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteWeightError("non-finite exponential-weights score")
        scores -= hi  # keep every exponent <= 0
        if lo - hi < EXP_FLOOR:
            live = scores >= EXP_FLOOR
            np.maximum(scores, EXP_FLOOR, out=scores)
            np.exp(scores, out=scores)
            scores *= live
        else:
            np.exp(scores, out=scores)
        return scores / np.add.reduce(scores)

    def observe(self, utilities) -> None:
        self._update(_checked_utilities(utilities, self.dim))

    def _update(self, u: np.ndarray) -> None:
        """Count an already-checked utility vector; u must not be mutated later."""
        self.cum += u
        self.last = u


class UniformPlayer:
    """Plays the uniform strategy every round and ignores feedback."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"need at least one action, got {dim}")
        self.dim = int(dim)

    def next_strategy(self) -> np.ndarray:
        return uniform_strategy(self.dim)

    def observe(self, utilities) -> None:
        u = np.asarray(utilities, dtype=np.float64)
        if u.shape != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} utilities, got shape {u.shape}")


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    y = term - comp
    s = total + y
    comp[:] = (s - total) - y
    total[:] = s


class AveragedHedge:
    """Plays the running mean of an inner optimistic-Hedge learner's iterates.

    The environment only reports utilities of the averaged strategies, so the
    inner learner's own utility is reconstructed each round as
    t * (averaged utility) - (the inner learner's running utility sum). The
    iterate mean uses compensated summation. observe() range-checks the
    averaged utilities it is given; the reconstruction, whose float error
    grows like t * eps, goes to the inner learner unchecked.
    """

    def __init__(self, dim: int, rate: float):
        self.inner = OptimisticHedge(dim, rate)
        self.dim = self.inner.dim
        self.round = 1
        self._iter_sum = np.zeros(self.dim)
        self._iter_comp = np.zeros(self.dim)
        self._pending: np.ndarray | None = None
        self.last_inner: np.ndarray | None = None
        self.last_reconstructed: np.ndarray | None = None

    def next_strategy(self) -> np.ndarray:
        if self._pending is None:
            inner = self.inner.next_strategy()
            self.last_inner = inner
            _kahan_add(self._iter_sum, self._iter_comp, inner)
            self._pending = self._iter_sum / self.round
        return self._pending

    def observe(self, utilities) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called before next_strategy()")
        u = _checked_utilities(utilities, self.dim)
        recon = self.round * u - self.inner.cum
        self.last_reconstructed = recon
        self.inner._update(recon)
        self.round += 1
        self._pending = None
