"""Exception types shared across the package."""


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
