"""Optimistic Hedge dynamics in two-player zero-sum matrix games.

Learner state machines, learning-rate planning with provable regret bounds,
regret/Nash-gap metering, adversarial lower-bound instances, and a batch
harness that verifies measured play against the theory.
"""

from .analysis import (
    LowerBoundValue,
    RegretMeter,
    dynamic_regret_lower_bound,
    external_regret_lower_bound,
)
from .game import (
    PayoffMatrix,
    adversarial_matrix,
    load_matrix_file,
    matching_pennies,
    play_match,
)
from .learners import AveragedHedge, OptimisticHedge, uniform_strategy
from .optim import (
    OptimizeResult,
    eval_log_bounds,
    minimize,
    minimize_unaware_coefficients,
)
from .rates import (
    PRESETS,
    PRESET_TARGETS,
    BoundInputs,
    RateParams,
    TransformedParams,
    from_transformed,
    preset_rates,
    theoretical_upper,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedHedge",
    "BoundInputs",
    "LowerBoundValue",
    "OptimisticHedge",
    "OptimizeResult",
    "PRESETS",
    "PRESET_TARGETS",
    "PayoffMatrix",
    "RateParams",
    "RegretMeter",
    "TransformedParams",
    "adversarial_matrix",
    "dynamic_regret_lower_bound",
    "eval_log_bounds",
    "external_regret_lower_bound",
    "from_transformed",
    "load_matrix_file",
    "matching_pennies",
    "minimize",
    "minimize_unaware_coefficients",
    "play_match",
    "preset_rates",
    "theoretical_upper",
    "uniform_strategy",
]
