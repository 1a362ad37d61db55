"""Learning-rate plans: regret-bound tables and the preset table.

A rate plan holds each player's learning rate together with a curvature split
parameter (the fraction of the stability budget spent on the player's own
smoothness term). Bounds come in two coordinate systems: the native one
(eta_x, eta_y, c_x, c_y) and a transformed one (a_x, a_y, s_x, s_y) in which
every bound is a posynomial and hence convex in log coordinates. The package
keeps the bounds only as posynomial tables in the transformed coordinates;
the tests check the tables against the native-coordinate formulas in
tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateGameError
from .learners import require_integers


@dataclass(frozen=True)
class RateParams:
    """Per-player learning rates and curvature splits.

    Rates are >= 0 (0 means the player ignores feedback and plays uniform);
    splits lie in (0, 1].
    """

    eta_x: float
    eta_y: float
    c_x: float
    c_y: float

    def __post_init__(self):
        for name in ("eta_x", "eta_y"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("c_x", "c_y"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class TransformedParams:
    """Rate plan in the transformed coordinates a_x = eta_x/c_x, a_y = eta_y/c_y
    plus the slack coordinates s_x, s_y >= 0 measuring the distance from the
    two stability boundaries (s = 0 means the matching bound is infinite)."""

    a_x: float
    a_y: float
    s_x: float
    s_y: float

    def __post_init__(self):
        for name in ("a_x", "a_y"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("s_x", "s_y"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class BoundInputs:
    """Log action counts feeding every bound formula."""

    log_m: float
    log_n: float

    @classmethod
    def from_actions(cls, m: int, n: int) -> "BoundInputs":
        require_integers(m=m, n=n)
        if m < 1 or n < 1:
            raise ValueError(f"action counts must be >= 1, got ({m}, {n})")
        return cls(math.log(m), math.log(n))

    @property
    def log_m_plus(self) -> float:
        return self.log_m + 0.5

    @property
    def log_n_plus(self) -> float:
        return self.log_n + 0.5

    @property
    def scale(self) -> float:
        """Normalizer sqrt((log m + 1/2)(log n + 1/2)) + sqrt(log m log n)."""
        return math.sqrt(self.log_m_plus * self.log_n_plus) + math.sqrt(self.log_m * self.log_n)


def from_transformed(tp: TransformedParams) -> RateParams:
    c_x = 1.0 / (1.0 + tp.a_x * (tp.a_y + tp.s_x))
    c_y = 1.0 / (1.0 + tp.a_y * (tp.a_x + tp.s_y))
    return RateParams(c_x * tp.a_x, c_y * tp.a_y, c_x, c_y)


def social_table(b: BoundInputs):
    """The social bound at zero slack as a posynomial table over (a_x, a_y):
    log m / a_x + (log n + 1/2) a_x + log n / a_y + (log m + 1/2) a_y."""
    coefs = np.array([b.log_m, b.log_n_plus, b.log_n, b.log_m_plus])
    expos = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    return coefs, expos


# The x-player bound as a posynomial in the transformed coordinates
# p = (a_x, a_y, s_x, s_y): term i is (BOUND_COEFS[i] . (log m, log n, 1)) times
# the product of p_j ** BOUND_EXPOS[i, j]. Swapping the players' roles maps it
# onto the y-player bound.
BOUND_COEFS = np.array(
    [
        [1.0, 0.0, 0.0],  # log m / a_x
        [1.0, 0.0, 0.0],  # log m a_y
        [0.0, 1.0, 0.5],  # (log n + 1/2) a_x
        [1.0, 0.0, 0.0],  # log m s_x
        [1.0, 0.0, 0.0],  # log m / s_y
        [1.0, 0.0, 0.5],  # (log m + 1/2) a_x a_y / s_y
        [0.0, 1.0, 0.0],  # log n a_x / (a_y s_y)
        [0.0, 1.0, 0.5],  # (log n + 1/2) a_x^2 / s_y
        [1.0, 0.0, 0.0],  # log m a_x s_x / s_y
    ]
)
BOUND_EXPOS = np.array(
    [
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 1.0, 0.0, -1.0],
        [1.0, -1.0, 0.0, -1.0],
        [2.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 1.0, -1.0],
    ]
)
# Swaps the players' roles: (a_x, a_y, s_x, s_y) -> (a_y, a_x, s_y, s_x).
_MIRROR = [1, 0, 3, 2]


def bound_tables(b: BoundInputs):
    """Posynomial tables (coefficients, exponent rows) of the x and y bounds."""
    x_table = (BOUND_COEFS @ np.array([b.log_m, b.log_n, 1.0]), BOUND_EXPOS)
    y_table = (BOUND_COEFS @ np.array([b.log_n, b.log_m, 1.0]), BOUND_EXPOS[:, _MIRROR])
    return x_table, y_table


# Exponent rows of the size-free coefficient posynomials (every coefficient 1)
# that multiply log m, then log n, inside the x bound, then log m, then log n,
# inside the y bound.
_ON_LOG_M, _ON_LOG_N = (BOUND_EXPOS[BOUND_COEFS[:, k] != 0.0] for k in (0, 1))
UNAWARE_TABLES = (_ON_LOG_M, _ON_LOG_N, _ON_LOG_N[:, _MIRROR], _ON_LOG_M[:, _MIRROR])


# ---------------------------------------------------------------------------
# Preset table
# ---------------------------------------------------------------------------

# Which measured regret each preset's bound speaks about.
PRESET_TARGETS = {
    "U-Social": "social",
    "U-X-only": "reg_x",
    "U-MaxInd-Cl": "max_ind",
    "U-MaxInd-Num": "max_ind",
    "A-Social": "social",
    "A-X-only": "reg_x",
    "A-MaxInd-Cl": "max_ind",
    "A-MaxInd-Num": "max_ind",
}
PRESETS = tuple(PRESET_TARGETS)

# Presets whose bound is on social regret; only these carry a dynamic-regret bound.
SOCIAL_PRESETS = tuple(p for p in PRESETS if PRESET_TARGETS[p] == "social")

_SQ3 = math.sqrt(3.0)


@lru_cache(maxsize=None)
def _unaware_numeric_rates() -> RateParams:
    from .optim import minimize_unaware_coefficients

    point, _ = minimize_unaware_coefficients()
    return from_transformed(point)


@lru_cache(maxsize=None)
def _aware_numeric_result(m: int, n: int):
    from .optim import minimize, warn_unconverged

    res = minimize("max", BoundInputs.from_actions(m, n))
    if not res.converged:
        warn_unconverged(f"A-MaxInd-Num: max solve at m={m}, n={n}", res.iterations)
    return res


def _preset(name: str, m: int, n: int):
    """(rates, bound) of the named plan for an m-by-n game."""
    if name not in PRESET_TARGETS:
        raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESETS)}")
    b = BoundInputs.from_actions(m, n)
    if name == "U-Social":
        return RateParams(0.5, 0.5, 0.5, 0.5), 2.0 * (b.log_m + b.log_n) + 1.0
    if name == "U-X-only":
        return RateParams(1.0, 0.0, 1.0, 1.0), b.log_m + 0.5
    if name == "U-MaxInd-Cl":
        r = 1.0 / (2.0 * _SQ3)
        return RateParams(r, r, 0.5, 0.5), 3.0 * _SQ3 * (b.log_m + b.log_n) + 1.0 / _SQ3
    if name == "U-MaxInd-Num":
        return _unaware_numeric_rates(), 3.0 * _SQ3 * (b.log_m + b.log_n) + 1.0 / _SQ3
    if m < 2 or n < 2:
        raise DegenerateGameError(f"preset {name} needs m >= 2 and n >= 2, got ({m}, {n})")
    if name == "A-MaxInd-Num":
        res = _aware_numeric_result(m, n)
        return res.rates, res.objective_value
    root_xy = math.sqrt(b.log_m * b.log_n_plus)
    if name == "A-X-only":
        return RateParams(math.sqrt(b.log_m / b.log_n_plus), 0.0, 1.0, 1.0), 1.5 * root_xy
    roots = root_xy + math.sqrt(b.log_m_plus * b.log_n)
    split = math.sqrt(b.log_m_plus * b.log_n_plus) / b.scale
    eta_x = math.sqrt(b.log_m * b.log_m_plus) / b.scale
    eta_y = math.sqrt(b.log_n * b.log_n_plus) / b.scale
    if name == "A-MaxInd-Cl":
        return RateParams(eta_x / 2.0, eta_y / 2.0, split, split), (20.0 / 3.0) * roots
    return RateParams(eta_x, eta_y, split, split), 2.0 * roots  # A-Social


def preset_rates(name: str, m: int, n: int) -> RateParams:
    """Rates of one of the eight named plans for an m-by-n game."""
    return _preset(name, m, n)[0]


def theoretical_upper(name: str, m: int, n: int, horizon: int | None = None) -> float:
    """Regret bound the named preset promises for its target metric.

    Given a horizon (an integer >= 1; social presets only), the bound covers
    the worse player's dynamic regret instead, which grows with the horizon.
    """
    bound = _preset(name, m, n)[1]
    if horizon is None:
        return bound
    if name not in SOCIAL_PRESETS:
        raise ValueError(f"preset {name} carries no dynamic-regret bound")
    require_integers(horizon=horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return bound * (math.log(horizon) + 1.0)
