"""Two-player zero-sum matrix games and the round-based match protocol.

The row player picks a mixed strategy x over m actions, the column player a
mixed strategy y over n actions; the row player gains x^T A y and the column
player loses it. Per round the row player sees the gain vector A y and the
column player the loss vector A^T x.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    EntryOutOfRangeError,
    InvalidDeltaError,
    MatrixFormatError,
    TooFewActionsError,
    require_count,
    require_real,
)

Observer = Callable[[int, np.ndarray, np.ndarray], None]


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


def adversarial_matrix(m: int, n: int, delta: float) -> PayoffMatrix:
    """Instance whose unique equilibrium puts both players on action 1.

    Entry (1, j) is delta for j != 1, entry (i, 1) is -delta for i != 1, and
    everything else (including the corner) is 0. Against it, any learner's
    per-round gain gap between action 1 and any other action is exactly delta
    no matter what the opponent plays, which makes regret trajectories
    predictable in closed form.
    """
    require_count("m", m, 2, TooFewActionsError)
    require_count("n", n, 2, TooFewActionsError)
    require_real("delta", delta, "(0, 1]", InvalidDeltaError)
    a = np.zeros((m, n))
    a[0, 1:] = delta
    a[1:, 0] = -delta
    return PayoffMatrix(a)


def matching_pennies() -> PayoffMatrix:
    return PayoffMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def play_match(payoffs: PayoffMatrix, players, horizon: int, observer: Observer) -> None:
    """Run the uncoupled repeated game for `horizon` rounds.

    `players` holds the row and the column player as the blocks (m, n) of
    one state, as OptimisticHedge((m, n), rates) does. Each round it commits
    z = (x, y); each player then observes its own block of u = (A y, -A^T x),
    the gain vector and the negated loss vector, so one learner update serves
    both roles. `observer` is called with (t, z, u) before the players update;
    nothing else of a round is kept.
    """
    require_count("horizon", horizon, 0)
    m, n = payoffs.m, payoffs.n
    if players.dims != (m, n):
        raise DimensionMismatchError(f"player dims {players.dims} do not match a {m}x{n} game")
    a = payoffs.entries
    at = a.T
    for t in range(1, horizon + 1):
        z = players.next_strategy()
        u = np.empty(m + n)
        u_y = u[m:]
        a.dot(z[m:], out=u[:m])
        at.dot(z[:m], out=u_y)
        np.negative(u_y, u_y)
        observer(t, z, u)
        players.observe(u)


def load_matrix_file(path) -> PayoffMatrix:
    """Read a matrix file: a 'm n' header line, then m rows of n reals.

    Blank lines and lines starting with '#' are skipped; '#' also starts a
    trailing comment on any line.
    """
    text = Path(path).read_text()
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append((lineno, line.split()))
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
