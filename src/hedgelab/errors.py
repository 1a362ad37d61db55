"""Exception types shared across the package, and the one rule for the
numbers it takes: counts are integers, reals are real numbers, and a bool
is neither."""

import numbers


class DimensionMismatchError(ValueError):
    """A vector or matrix has a shape other than the one the operation expects."""


class EntryOutOfRangeError(ValueError):
    """A payoff entry is non-finite or falls outside [-1, 1]."""


class InvalidDeltaError(ValueError):
    """The adversarial gap parameter is outside (0, 1]."""


class TooFewActionsError(ValueError):
    """The adversarial construction needs at least two actions per player."""


class MatrixFormatError(ValueError):
    """A matrix file does not follow the 'm n' header + m rows layout."""


class NonFiniteWeightError(ValueError):
    """An exponential-weights score is NaN or infinite."""


class UtilityOutOfRangeError(ValueError):
    """A utility fed to a learner exceeds the [-1, 1] payoff range."""


class DegenerateGameError(ValueError):
    """A cardinality-aware formula needs both players to have >= 2 actions."""


class InvalidGammaError(ValueError):
    """The tradeoff weight must lie in [0, 1]."""


class ConfigError(ValueError):
    """An experiment configuration field is missing, malformed, or inconsistent."""


def require_count(key: str, value, least: int, error=ValueError) -> None:
    """An integer (numpy integers too, bools not) that is >= least."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{key} must be >= {least}, got {value}")


def require_real(key: str, value, interval: str, error=ValueError) -> None:
    """A real number (ints and numpy floats too, bools not) inside an
    interval written like "(0, 1]" or "[0, inf)"; NaN lies in none."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{key} must be a real number, got {value!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    if not (above and below):
        raise error(f"{key} must lie in {interval}, got {value}")
