"""Two-player zero-sum matrix games and the round-based match protocol.

The row player picks a mixed strategy x over m actions, the column player a
mixed strategy y over n actions; the row player gains x^T A y and the column
player loses it. Per round the row player sees the gain vector A y and the
column player the loss vector A^T x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EntryOutOfRangeError,
    InvalidDeltaError,
    MatrixFormatError,
    TooFewActionsError,
    content_lines,
    require_count,
    require_real,
)

Observer = Callable[[int, np.ndarray, np.ndarray], None]


class ActionClasses(NamedTuple):
    """One player's classes of identical actions: each class's first member,
    in increasing order, and the number of actions in the class."""

    first: np.ndarray
    counts: np.ndarray


def _action_classes(a: np.ndarray) -> ActionClasses:
    """The classes of equal rows of `a`.

    Adding +0.0 turns -0.0 into +0.0, so rows equal in value are equal in
    bytes (the entries are finite). A stable sort of the rows as byte
    strings then puts each class in one run, its first member first.
    """
    a = np.add(a, 0.0, order="C")
    order = np.argsort(a.view(np.dtype((np.void, a[0].nbytes))).ravel(), kind="stable")
    runs = a[order]
    opens = np.ones(len(a), dtype=bool)
    np.any(runs[1:] != runs[:-1], axis=1, out=opens[1:])
    starts = np.flatnonzero(opens)
    first = order[starts]
    by_first = np.argsort(first)
    return _read_only(first[by_first], np.diff(starts, append=len(a))[by_first])


def _read_only(first, counts) -> ActionClasses:
    first.setflags(write=False)
    counts.setflags(write=False)
    return ActionClasses(first, counts)


@dataclass(frozen=True)
class PayoffMatrix:
    """Validated payoff matrix with entries in [-1, 1]; the array is read-only."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise EntryOutOfRangeError("matrix entries must be finite")
        if float(np.abs(a).max()) > 1.0:
            raise EntryOutOfRangeError("matrix entries must lie in [-1, 1]")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def classes(self) -> tuple[ActionClasses, ActionClasses]:
        """The row player's and the column player's classes of identical
        actions (equal rows, equal columns), found on first use and kept.
        Entries are compared by value, so +0.0 and -0.0 split no class."""
        return _action_classes(self.entries), _action_classes(self.entries.T)

    def quotient(self) -> tuple[PayoffMatrix, np.ndarray | None]:
        """The game of distinct actions and the size of each one's class.

        Returns the matrix of each row class's and each column class's first
        member, with the class sizes (rows, then columns) as one vector; or
        this matrix and None when no two rows and no two columns are equal.
        """
        rows, cols = self.classes
        if len(rows.first) == self.m and len(cols.first) == self.n:
            return self, None
        q = PayoffMatrix(self.entries[np.ix_(rows.first, cols.first)])
        return q, np.concatenate((rows.counts, cols.counts))


def adversarial_matrix(m: int, n: int, delta: float) -> PayoffMatrix:
    """Instance whose unique equilibrium puts both players on action 1.

    Entry (1, j) is delta for j != 1, entry (i, 1) is -delta for i != 1, and
    everything else (including the corner) is 0. Against it, any learner's
    per-round gain gap between action 1 and any other action is exactly delta
    no matter what the opponent plays, which makes regret trajectories
    predictable in closed form. Its classes come with it: action 1 stands
    alone and the other actions are one class, for each player.
    """
    require_count("m", m, 2, TooFewActionsError)
    require_count("n", n, 2, TooFewActionsError)
    require_real("delta", delta, "(0, 1]", InvalidDeltaError)
    a = np.zeros((m, n))
    a[0, 1:] = delta
    a[1:, 0] = -delta
    payoffs = PayoffMatrix(a)
    # PayoffMatrix.classes is a cached_property, which keeps its value in
    # the instance's __dict__.
    payoffs.__dict__["classes"] = tuple(
        _read_only(np.arange(2), np.array([1, k - 1])) for k in (m, n)
    )
    return payoffs


def matching_pennies() -> PayoffMatrix:
    return PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


# play_match hands its observer blocks of up to k rounds, k chosen so that
# the block's rows fit BLOCK_BYTES: each row holds z and u (16 bytes per
# action) and the six views and the tuple the loop reads it through, which
# tracemalloc puts at about 0.9 KB (ROW_OBJECT_BYTES). At 512 KB a 2x2
# game gets 481 rounds per block, 10x10 390, 100x100 124 and 2x10000 3.
# A sweep of metered 2x10000 matches (2-vCPU Xeon, 2 MB L2) read 64 KB to
# 256 KB (1 row) 8-12 % slower than 512 KB, 1 MB (6 rows) within 1-4 %
# of it, and 2 MB and 4 MB (13 and 26 rows) 5-11 % slower; 100x100 and
# 10x10 read the same from 256 KB to 1 MB.
BLOCK_BYTES = 512 * 1024
ROW_OBJECT_BYTES = 1024


def play_match(payoffs: PayoffMatrix, players, horizon: int, observer: Observer) -> None:
    """Run the uncoupled repeated game for `horizon` rounds.

    `players` holds the row and the column player as the blocks (m, n) of
    one state, as OptimisticHedge((m, n), rates) does. Each round it commits
    z = (x, y); each player then counts its own block of u = (A y, -A^T x),
    the gain vector and the negated loss vector, so one learner update serves
    both roles.

    The rounds reach `observer` in blocks. Round t is row (t - 1) mod k of
    two (k, m + n) arrays the engine owns, Z and U, with k fixed per match
    by BLOCK_BYTES and at most `horizon`. Once the players have counted the
    j rounds t - j + 1 .. t, the engine calls observer(t, Z[:j], U[:j]); so
    a single round is a block of one. The rows are rewritten once the
    observer returns: an observer copies what it keeps. The strategy goes
    into its row through next_strategy(out=row), and the two feedback
    matvecs write into views of the row made once per match.

    -A^T x is computed as (-A)^T x by the same gemv kernel, from one negated
    copy of A that the match holds while it plays (one extra m x n array).
    Negation is exact and rounding symmetric, so each nonzero entry has the
    bits of -(A^T x); only a zero entry's sign may differ, which no sum,
    score or metric tells apart: every running sum starts at +0.0 and so
    never becomes -0.0 (see learners.top).

    The players count u through their unchecked `_update`, not `observe`,
    because u cannot fail the range check: each entry is a row of A, whose
    entries lie in [-1, 1], times a strategy whose entries are >= 0 and sum
    to 1 up to rounding, so it lies within rounding of [-1, 1]; and u is
    finite, because PayoffMatrix rejects non-finite entries and the Hedge
    step raises NonFiniteWeightError on a non-finite score. The check could
    only fire falsely, once n * eps nears UTILITY_SLACK. A learner keeps u
    as `last` until its next step has read it, which comes before the
    engine rewrites that row.
    """
    require_count("horizon", horizon, 0)
    m, n = payoffs.m, payoffs.n
    if players.dims != (m, n):
        raise DimensionMismatchError(f"player dims {players.dims} do not match a {m}x{n} game")
    a = payoffs.entries
    neg_at = np.negative(a).T
    k = max(1, min(horizon, BLOCK_BYTES // (16 * (m + n) + ROW_OBJECT_BYTES)))
    zs, us = np.empty((k, m + n)), np.empty((k, m + n))
    rows = [(z, z[:m], z[m:], u, u[:m], u[m:]) for z, u in zip(zs, us)]
    for start in range(0, horizon, k):
        j = min(k, horizon - start)
        for z, x, y, u, u_x, u_y in rows[:j]:
            players.next_strategy(out=z)
            a.dot(y, out=u_x)
            neg_at.dot(x, out=u_y)
            players._update(u)
        observer(start + j, zs[:j], us[:j])


def load_matrix_file(path) -> PayoffMatrix:
    """Read a matrix file: a 'm n' header line, then m rows of n reals,
    by errors.content_lines (UTF-8, '#' comments, blank lines skipped)."""
    rows = [(lineno, line.split()) for lineno, line in content_lines(path)]
    if not rows:
        raise MatrixFormatError("matrix file has no content")
    header_line, header = rows[0]
    if len(header) != 2:
        raise MatrixFormatError(f"line {header_line}: header must be 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(f"line {header_line}: header must hold two integers") from None
    if m < 1 or n < 1:
        raise MatrixFormatError(f"line {header_line}: dimensions must be >= 1")
    body = rows[1:]
    if len(body) != m:
        raise MatrixFormatError(f"expected {m} matrix rows, found {len(body)}")
    out = np.empty((m, n))
    for i, (lineno, fields) in enumerate(body):
        if len(fields) != n:
            raise MatrixFormatError(f"line {lineno}: expected {n} values, found {len(fields)}")
        try:
            out[i] = [float(v) for v in fields]
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: non-numeric value") from None
    return PayoffMatrix(out)
