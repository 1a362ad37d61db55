"""Learner state machines built on the optimistic exponential-weights update."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteWeightError,
    UtilityOutOfRangeError,
    require_count,
    require_real,
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
    """A checked copy of an outside caller's utilities, so that a learner
    keeping it as `last` is not changed when the caller reuses its array."""
    u = np.array(utilities, dtype=np.float64)
    if u.shape != (dim,):
        raise DimensionMismatchError(f"expected {dim} utilities, got shape {u.shape}")
    limit = 1.0 + UTILITY_SLACK
    if not (top(u) <= limit and -bottom(u) <= limit):  # NaN fails too
        raise UtilityOutOfRangeError("utilities must lie in [-1, 1]")
    return u


def uniform_strategy(dim: int) -> np.ndarray:
    require_count("dim", dim, 1)
    return np.full(dim, 1.0 / dim)


class OptimisticHedge:
    """Exponential weights with the most recent utility counted twice.

    The weight of action i after t-1 observations is
    exp(rate * (sum of past utilities + the latest utility)), the latest
    utility standing in as a prediction of the upcoming one. Weights start
    all-ones, so the first strategy is uniform. rate == 0 plays the exact
    uniform strategy every round rather than a numerical limit.

    One learner holds one or more players as consecutive blocks of one state
    vector: OptimisticHedge(d, rate) is one player, OptimisticHedge((m, n),
    (eta_x, eta_y)) the two players of a match. Strategies, utilities and
    the running sums are the players' vectors end to end, so each
    elementwise step runs once for all of them; only the shift by the
    block's largest score and the normalisation run per block. Every block gets the same
    bits as a learner of its own.

    Weights below e^EXP_FLOOR = e^-690 of the leader's are played as exactly
    0: those actions would get probability below 2.9e-300, and every other
    entry is the same bits as the plain softmax.

    counts, one real >= 1 per entry, gives the entries prior weights: an
    entry's weight is its count times exp(its score), so an entry standing
    for a class of k identical actions plays the mass the k actions would,
    and a rate-0 block plays counts / (their sum). counts=None is all ones,
    with no extra pass.
    """

    def __init__(self, dims, rates, counts=None):
        dims = tuple(dims) if np.ndim(dims) else (dims,)
        # An object array keeps each rate's own type, so a bool or a string
        # among floats is named as given rather than cast.
        given = np.atleast_1d(np.array(rates, dtype=object))
        for dim in dims:
            require_count("dim", dim, 1)
        for rate in given:
            require_real("rate", rate, "[0, inf)")
        self.dims = tuple(int(d) for d in dims)
        self.rates = tuple(float(r) for r in given)
        if len(self.dims) != len(self.rates) or not self.dims:
            raise ValueError(f"need one rate per block, got {rates!r} for {dims!r}")
        self.dim = sum(self.dims)
        prior = np.ones(self.dim) if counts is None else np.array(counts, dtype=np.float64)
        if prior.shape != (self.dim,):
            raise DimensionMismatchError(f"expected {self.dim} counts, got shape {prior.shape}")
        # >= 1 keeps the leader's weight, and with it every weight sum, >= 1,
        # which EXP_FLOOR's argument needs; NaN fails too.
        if not np.all((prior >= 1.0) & (prior < math.inf)):
            raise ValueError("counts must be finite and >= 1")
        self.cum = np.zeros(self.dim)
        self.last = np.zeros(self.dim)
        # The step runs over the span from the first to the last block with
        # rate > 0 (all blocks if none has): a rate-0 block inside it steps on
        # +-0 scores, which give exactly counts / (their sum), 1/dim without
        # counts, and one outside it is written here once. Each stepped block
        # sums its weights into a 0-d array, which the division takes faster
        # than a float.
        self._scores = np.empty(self.dim)  # next_strategy's work buffer
        ends = np.cumsum(self.dims).tolist()
        stepped = [i for i, rate in enumerate(self.rates) if rate > 0.0] or [0, len(self.dims) - 1]
        self._span = slice(ends[stepped[0]] - self.dims[stepped[0]], ends[stepped[-1]])
        self._blocks = []
        for dim, end in zip(self.dims, ends):
            where = slice(end - dim, end)
            if self._span.start < end <= self._span.stop:
                self._blocks.append((self._scores[where], np.empty(())))
            else:
                np.divide(prior[where], np.add.reduce(prior[where]), self._scores[where])
        self._cum_span = self.cum[self._span]
        self._scores_span = self._scores[self._span]
        self._rate_span = np.repeat(self.rates, self.dims)[self._span]
        self._counts_span = None if counts is None else prior[self._span]

    def next_strategy(self, out=None) -> np.ndarray:
        """The next strategy: a fresh array, or written into `out`, which
        is returned."""
        if out is None:
            return self._step().copy()
        np.copyto(out, self._step())
        return out

    def _step(self) -> np.ndarray:
        """One Hedge step; returns the work buffer, which the next step
        overwrites."""
        scores = np.add(self._cum_span, self.last[self._span], self._scores_span)
        scores *= self._rate_span
        for block, _ in self._blocks:
            block -= top(block)  # keep every exponent <= 0
        # Rounding is monotone, so this is the smallest lo - hi of the blocks;
        # it is NaN or -inf if any score is NaN or +-inf.
        lo = bottom(scores)
        if not math.isfinite(lo):
            raise NonFiniteWeightError("non-finite exponential-weights score")
        # Over a block with no score below the floor the mask is a no-op with
        # the same bits, so one pass serves every block.
        if lo < EXP_FLOOR:
            live = scores >= EXP_FLOOR
            np.maximum(scores, EXP_FLOOR, out=scores)
            np.exp(scores, out=scores)
            scores *= live
        else:
            np.exp(scores, out=scores)
        if self._counts_span is not None:
            scores *= self._counts_span
        for block, total in self._blocks:
            np.divide(block, np.add.reduce(block, out=total), block)
        return self._scores

    def observe(self, utilities) -> None:
        self._update(_checked_utilities(utilities, self.dim))

    def _update(self, u: np.ndarray) -> None:
        """Count a utility vector that lies within UTILITY_SLACK of [-1, 1],
        unchecked; u is kept as `last`, so it must not change before the next
        step has read it."""
        self.cum += u
        self.last = u


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray, y, s) -> None:
    """total += term with compensation comp, in place; y and s are work
    buffers of the same shape."""
    np.subtract(term, comp, out=y)
    np.add(total, y, out=s)
    np.subtract(s, total, out=comp)
    comp -= y
    np.copyto(total, s)


class AveragedHedge:
    """Plays the running mean of an inner optimistic-Hedge learner's iterates.

    The environment only reports utilities of the averaged strategies, so the
    inner learner's own utility is reconstructed each round as
    t * (averaged utility) - (the inner learner's running utility sum). The
    iterate mean uses compensated summation. observe() range-checks the
    averaged utilities it is given; the reconstruction, whose float error
    grows like t * eps, goes to the inner learner unchecked and is then
    inner.last. The reconstruction is written in place into one buffer,
    which is enough because the inner step reads inner.last before the next
    round writes it.
    It takes dims, rates and counts as OptimisticHedge does, so one learner
    holds every player. The strategy next_strategy() returns is read-only:
    it is the learner's own until the next update. next_strategy(out) writes
    it into `out` instead and returns out, which then holds the round's
    strategy until the next update.
    """

    def __init__(self, dims, rates, counts=None):
        self.inner = OptimisticHedge(dims, rates, counts)
        self.dims = self.inner.dims
        self.dim = self.inner.dim
        self.round = 1
        self._iter_sum = np.zeros(self.dim)
        self._iter_comp = np.zeros(self.dim)
        self._kahan_work = np.empty(self.dim), np.empty(self.dim)
        self._recon = np.empty(self.dim)
        self._pending: np.ndarray | None = None

    def next_strategy(self, out=None) -> np.ndarray:
        if self._pending is None:
            inner = self.inner._step()
            _kahan_add(self._iter_sum, self._iter_comp, inner, *self._kahan_work)
            self._pending = np.divide(self._iter_sum, self.round, out=out)
            if out is None:
                self._pending.setflags(write=False)
        elif out is not None:
            np.copyto(out, self._pending)
        return self._pending if out is None else out

    def observe(self, utilities) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called before next_strategy()")
        self._update(_checked_utilities(utilities, self.dim))

    def _update(self, u: np.ndarray) -> None:
        """Count the averaged utilities u, unchecked, as OptimisticHedge._update
        does; next_strategy() must have been called since the last update."""
        recon = np.multiply(u, self.round, out=self._recon)
        np.subtract(recon, self.inner.cum, out=recon)
        self.inner._update(recon)
        self.round += 1
        self._pending = None
