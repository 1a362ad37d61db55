"""Optimistic Hedge dynamics in two-player zero-sum matrix games.

Learner state machines, learning-rate planning with provable regret bounds,
regret/Nash-gap metering, adversarial lower-bound instances, and a batch
harness that verifies measured play against the theory.
"""

from .analysis import (
    LowerBoundValue,
    RegretMeter,
    adversarial_top_prob,
    dynamic_regret_lower_bound,
    external_regret_lower_bound,
    nash_gap,
    regret_report,
)
from .game import (
    MatchTrace,
    PayoffMatrix,
    adversarial_matrix,
    gradients,
    load_matrix_file,
    make_payoff_matrix,
    matching_pennies,
    play_match,
    record_match,
)
from .learners import AveragedHedge, OptimisticHedge, uniform_strategy
from .optim import (
    OptimizeResult,
    eval_log_bounds,
    gradient_check,
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
    individual_bounds,
    individual_bounds_from_transformed,
    is_feasible,
    preset_rates,
    social_bound_terms,
    theoretical_upper,
    to_transformed,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedHedge",
    "BoundInputs",
    "LowerBoundValue",
    "MatchTrace",
    "OptimisticHedge",
    "OptimizeResult",
    "PRESETS",
    "PRESET_TARGETS",
    "PayoffMatrix",
    "RateParams",
    "RegretMeter",
    "TransformedParams",
    "adversarial_matrix",
    "adversarial_top_prob",
    "dynamic_regret_lower_bound",
    "eval_log_bounds",
    "external_regret_lower_bound",
    "from_transformed",
    "gradient_check",
    "gradients",
    "individual_bounds",
    "individual_bounds_from_transformed",
    "is_feasible",
    "load_matrix_file",
    "make_payoff_matrix",
    "matching_pennies",
    "minimize",
    "minimize_unaware_coefficients",
    "nash_gap",
    "play_match",
    "preset_rates",
    "record_match",
    "regret_report",
    "social_bound_terms",
    "theoretical_upper",
    "to_transformed",
    "uniform_strategy",
]
