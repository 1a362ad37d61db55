import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hedgelab import (
    PRESET_TARGETS,
    PRESETS,
    AveragedHedge,
    BoundInputs,
    OptimisticHedge,
    RateParams,
    TransformedParams,
    adversarial_matrix,
    dynamic_regret_lower_bound,
    eval_log_bounds,
    external_regret_lower_bound,
    from_transformed,
    matching_pennies,
    play_match,
    preset_rates,
    theoretical_upper,
    uniform_strategy,
)
from hedgelab.errors import DegenerateGameError, InvalidDeltaError, require_real
from hedgelab.rates import social_table

from oracles import (
    individual_bounds,
    is_feasible,
    log_coords,
    social_bound_terms,
    to_transformed,
)

SQ3 = math.sqrt(3.0)


def random_transformed(rng):
    return TransformedParams(
        a_x=float(rng.uniform(0.2, 3.0)),
        a_y=float(rng.uniform(0.2, 3.0)),
        s_x=float(rng.uniform(0.05, 3.0)),
        s_y=float(rng.uniform(0.05, 3.0)),
    )


def test_rate_params_validation():
    RateParams(0.0, 0.0, 1.0, 1.0)  # zero rates and c = 1 are allowed
    with pytest.raises(ValueError):
        RateParams(-0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        RateParams(0.5, 0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        RateParams(0.5, 0.5, 0.5, 1.2)
    with pytest.raises(ValueError):
        RateParams(math.inf, 0.5, 0.5, 0.5)


def test_transformed_params_validation():
    with pytest.raises(ValueError):
        TransformedParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransformedParams(1.0, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError, match="log coordinates need s_x > 0 and s_y > 0"):
        log_coords(TransformedParams(1.0, 1.0, 0.0, 1.0))
    coords = log_coords(TransformedParams(1.0, 1.0, 1.0, 1.0))
    assert coords == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-15)


def test_to_transformed_symmetric_half_point():
    tp = to_transformed(RateParams(0.5, 0.5, 0.5, 0.5))
    assert (tp.a_x, tp.a_y, tp.s_x, tp.s_y) == (1.0, 1.0, 0.0, 0.0)


def test_from_transformed_known_point():
    tp = TransformedParams(1 / SQ3, 1 / SQ3, 2 / SQ3, 2 / SQ3)
    rp = from_transformed(tp)
    assert rp.eta_x == pytest.approx(1 / (2 * SQ3), rel=1e-12)
    assert rp.eta_y == pytest.approx(1 / (2 * SQ3), rel=1e-12)
    assert rp.c_x == pytest.approx(0.5, rel=1e-12)
    assert rp.c_y == pytest.approx(0.5, rel=1e-12)


def test_roundtrip_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tp = random_transformed(rng)
        back = to_transformed(from_transformed(tp))
        assert back.a_x == pytest.approx(tp.a_x, rel=1e-12)
        assert back.a_y == pytest.approx(tp.a_y, rel=1e-12)
        assert back.s_x == pytest.approx(tp.s_x, rel=1e-12, abs=1e-12)
        assert back.s_y == pytest.approx(tp.s_y, rel=1e-12, abs=1e-12)


def test_to_transformed_domain_errors():
    with pytest.raises(ValueError, match=r"need c_x, c_y in \(0, 1\)"):
        to_transformed(RateParams(1.0, 1.0, 1.0, 0.5))
    with pytest.raises(ValueError, match="need positive rates"):
        to_transformed(RateParams(0.0, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="outside the stability region"):
        to_transformed(RateParams(1.0, 1.0, 0.5, 0.5))


def test_is_feasible_cases():
    assert is_feasible(RateParams(0.5, 0.5, 0.5, 0.5))  # equality case
    assert not is_feasible(RateParams(1.0, 1.0, 0.5, 0.5))
    assert is_feasible(RateParams(0.01, 0.01, 0.5, 0.5))


def test_social_bound_terms():
    b = BoundInputs(1.0, 1.0)
    term_x, _, _ = social_bound_terms(RateParams(1.0, 1.0, 1.0, 1.0), b)
    assert term_x == pytest.approx(1.5, rel=1e-15)

    b22 = BoundInputs.from_actions(2, 2)
    _, _, total = social_bound_terms(RateParams(0.5, 0.5, 0.5, 0.5), b22)
    assert total == pytest.approx(4.0 * math.log(2.0) + 1.0, rel=1e-14)

    with pytest.raises(ValueError, match="social bound terms need positive rates"):
        social_bound_terms(RateParams(0.0, 0.5, 0.5, 0.5), b)


def test_social_optimum_value_at_unit_logs():
    # the tuned aware plan reaches 2*sqrt(M*N') + 2*sqrt(M'*N) = 4*sqrt(1.5)
    b = BoundInputs(1.0, 1.0)
    scale = b.scale
    rp = RateParams(math.sqrt(1.5) / scale, math.sqrt(1.5) / scale, 1.5 / scale, 1.5 / scale)
    _, _, total = social_bound_terms(rp, b)
    assert total == pytest.approx(4.0 * math.sqrt(1.5), rel=1e-12)


def test_individual_bounds_infinite_on_boundary():
    b = BoundInputs.from_actions(2, 2)
    assert individual_bounds(RateParams(0.5, 0.5, 0.5, 0.5), b) == (math.inf, math.inf)
    with pytest.raises(ValueError, match="rate plan violates the stability region"):
        individual_bounds(RateParams(1.0, 1.0, 0.5, 0.5), b)


def test_aware_social_preset_sits_on_boundary():
    for m, n in [(2, 2), (2, 10000), (100, 7)]:
        rp = preset_rates("A-Social", m, n)
        assert is_feasible(rp)
        prod = rp.eta_x * rp.eta_y
        assert prod == pytest.approx(rp.c_x * (1.0 - rp.c_y), rel=1e-12)
        assert prod == pytest.approx(rp.c_y * (1.0 - rp.c_x), rel=1e-12)
        b = BoundInputs.from_actions(m, n)
        assert individual_bounds(rp, b) == (math.inf, math.inf)


def test_individual_bounds_coordinate_forms_agree():
    rng = np.random.default_rng(5)
    b = BoundInputs.from_actions(3, 40)
    for _ in range(300):
        tp = random_transformed(rng)
        direct = eval_log_bounds(log_coords(tp), b)
        via_rates = individual_bounds(from_transformed(tp), b)
        assert via_rates[0] == pytest.approx(direct[0], rel=1e-10)
        assert via_rates[1] == pytest.approx(direct[1], rel=1e-10)
        # zero slack puts the plan on a stability boundary: the opposite
        # player's bound is infinite there, the other stays finite
        for point in (
            tp,
            replace(tp, s_y=0.0),
            replace(tp, s_x=0.0),
            replace(tp, s_x=0.0, s_y=0.0),
        ):
            via_rates = individual_bounds(from_transformed(point), b)
            assert (via_rates[0] == math.inf) == (point.s_y == 0.0)
            assert (via_rates[1] == math.inf) == (point.s_x == 0.0)


def test_individual_bounds_symmetric_plans():
    rng = np.random.default_rng(6)
    b = BoundInputs.from_actions(9, 9)
    for _ in range(20):
        a = float(rng.uniform(0.2, 2.0))
        s = float(rng.uniform(0.1, 2.0))
        bx, by, _, _ = eval_log_bounds(log_coords(TransformedParams(a, a, s, s)), b)
        assert bx == pytest.approx(by, rel=1e-14)


def test_known_transformed_bound_value():
    tp = TransformedParams(1 / SQ3, 1 / SQ3, 2 / SQ3, 2 / SQ3)
    bx, by, _, _ = eval_log_bounds(log_coords(tp), BoundInputs(1.0, 1.0))
    assert bx == pytest.approx(7.505554, abs=1e-5)
    assert bx == pytest.approx(by, rel=1e-12)


def test_preset_rate_values():
    assert preset_rates("U-Social", 2, 2) == RateParams(0.5, 0.5, 0.5, 0.5)
    assert preset_rates("U-X-only", 2, 2) == RateParams(1.0, 0.0, 1.0, 1.0)

    cl = preset_rates("U-MaxInd-Cl", 50, 3)
    assert cl.eta_x == pytest.approx(0.2886751, abs=1e-6)
    assert cl.eta_x == cl.eta_y
    assert cl.c_x == cl.c_y == 0.5

    num = preset_rates("U-MaxInd-Num", 50, 3)
    assert num.eta_x == pytest.approx(cl.eta_x, abs=1e-5)
    assert num.c_x == pytest.approx(0.5, abs=1e-5)


def test_aware_preset_formulas():
    for m, n in [(2, 2), (2, 10000), (31, 5)]:
        b = BoundInputs.from_actions(m, n)
        rp = preset_rates("A-Social", m, n)
        assert rp.eta_x == pytest.approx(math.sqrt(b.log_m * b.log_m_plus) / b.scale, rel=1e-14)
        assert rp.eta_y == pytest.approx(math.sqrt(b.log_n * b.log_n_plus) / b.scale, rel=1e-14)
        split = math.sqrt(b.log_m_plus * b.log_n_plus) / b.scale
        assert rp.c_x == pytest.approx(split, rel=1e-14)
        assert rp.c_x == rp.c_y

        half = preset_rates("A-MaxInd-Cl", m, n)
        assert half.eta_x == pytest.approx(rp.eta_x / 2.0, rel=1e-14)
        assert half.eta_y == pytest.approx(rp.eta_y / 2.0, rel=1e-14)
        assert half.c_x == rp.c_x and half.c_y == rp.c_y

        xonly = preset_rates("A-X-only", m, n)
        assert xonly.eta_x == pytest.approx(math.sqrt(b.log_m / b.log_n_plus), rel=1e-14)
        assert xonly.eta_y == 0.0

        tuned = preset_rates("A-MaxInd-Num", m, n)
        assert is_feasible(tuned)
        bx, by = individual_bounds(tuned, b)
        assert math.isfinite(bx) and math.isfinite(by)


def test_presets_reject_degenerate_games():
    for name in ("A-Social", "A-X-only", "A-MaxInd-Cl", "A-MaxInd-Num"):
        with pytest.raises(DegenerateGameError):
            preset_rates(name, 1, 5)
    # unaware presets never look at the action counts
    assert preset_rates("U-Social", 1, 5) == RateParams(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        preset_rates("No-Such", 2, 2)


def test_preset_table_is_complete():
    assert len(PRESETS) == 8
    assert set(PRESET_TARGETS) == set(PRESETS)
    assert set(PRESET_TARGETS.values()) == {"social", "reg_x", "max_ind"}


def test_social_terms_at_aware_optimum_match_closed_form():
    for m in (2, 10, 100, 10000):
        for n in (2, 10, 100, 10000):
            b = BoundInputs.from_actions(m, n)
            rp = preset_rates("A-Social", m, n)
            _, _, total = social_bound_terms(rp, b)
            closed = 2.0 * math.sqrt(b.log_m * b.log_n_plus) + 2.0 * math.sqrt(
                b.log_m_plus * b.log_n
            )
            assert total == pytest.approx(closed, rel=1e-12)


def test_social_table_is_social_bound_at_zero_slack():
    rng = np.random.default_rng(7)
    for m, n in ((2, 2), (3, 40), (100, 7), (10000, 2)):
        b = BoundInputs.from_actions(m, n)
        coefs, expos = social_table(b)
        for _ in range(50):
            tp = random_transformed(rng)
            point = np.array([tp.a_x, tp.a_y])
            value = float(coefs @ np.prod(point**expos, axis=1))
            zero_slack = from_transformed(TransformedParams(tp.a_x, tp.a_y, 0.0, 0.0))
            assert value == pytest.approx(social_bound_terms(zero_slack, b)[2], rel=1e-12)


def test_theoretical_upper_values():
    assert theoretical_upper("U-Social", 2, 2) == pytest.approx(3.772589, abs=1e-6)
    assert theoretical_upper("U-X-only", 8, 5) == pytest.approx(math.log(8) + 0.5, rel=1e-14)
    assert theoretical_upper("U-MaxInd-Cl", 2, 2) == pytest.approx(
        3.0 * SQ3 * 2.0 * math.log(2.0) + 1.0 / SQ3, rel=1e-14
    )
    assert theoretical_upper("A-Social", 2, 10000) == pytest.approx(11.818736, abs=1e-5)
    assert theoretical_upper("A-MaxInd-Cl", 2, 10000) == pytest.approx(39.395786, abs=1e-4)
    assert theoretical_upper("A-X-only", 2, 10000) == pytest.approx(3.891536, abs=1e-4)
    # the numeric aware preset promises exactly what its optimizer found
    num = theoretical_upper("A-MaxInd-Num", 10, 10)
    cl = theoretical_upper("A-MaxInd-Cl", 10, 10)
    assert 0.0 < num < cl


def test_dynamic_upper_bounds():
    base = theoretical_upper("U-Social", 2, 2)
    dyn = theoretical_upper("U-Social", 2, 2, horizon=2000)
    assert dyn == pytest.approx(base * (math.log(2000.0) + 1.0), rel=1e-14)
    with pytest.raises(ValueError):
        theoretical_upper("U-X-only", 2, 2, horizon=100)


def test_am_gm_dominance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(2, 3000))
        n = int(rng.integers(2, 3000))
        assert theoretical_upper("A-Social", m, n) < theoretical_upper("U-Social", m, n)


def test_bound_inputs():
    b = BoundInputs.from_actions(2, 10000)
    assert b.log_m == pytest.approx(math.log(2.0), rel=1e-15)
    assert b.log_n_plus == pytest.approx(math.log(10000.0) + 0.5, rel=1e-15)
    assert b.scale == pytest.approx(
        math.sqrt(b.log_m_plus * b.log_n_plus) + math.sqrt(b.log_m * b.log_n), rel=1e-15
    )
    with pytest.raises(ValueError):
        BoundInputs.from_actions(0, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda m, n: preset_rates("U-Social", m, n),
        lambda m, n: preset_rates("A-Social", m, n),
        lambda m, n: theoretical_upper("U-Social", m, n),
        lambda m, n: theoretical_upper("A-Social", m, n),
        BoundInputs.from_actions,
    ],
    ids=["preset_rates-U", "preset_rates-A", "upper-U", "upper-A", "from_actions"],
)
@pytest.mark.parametrize(
    "m, n, bad",
    [(2.5, 3, "m"), (True, 2.5, "m"), (3, 3.0, "n"), (3, np.float64(3.0), "n"), (3, np.True_, "n")],
)
def test_action_counts_must_be_integers(call, m, n, bad):
    message = f"{bad} must be an integer, got {(m if bad == 'm' else n)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(m, n)


@pytest.mark.parametrize(
    "call, key, value",
    [
        (lambda: OptimisticHedge(2.7, 0.5), "dim", 2.7),
        (lambda: OptimisticHedge(True, 0.5), "dim", True),
        (lambda: OptimisticHedge((3, np.True_), (0.5, 0.5)), "dim", np.True_),
        (lambda: AveragedHedge(2.7, 0.5), "dim", 2.7),
        (lambda: AveragedHedge((True, 3), (0.5, 0.5)), "dim", True),
        (lambda: external_regret_lower_bound(2.5, 0.5, 10), "num_actions", 2.5),
        (lambda: external_regret_lower_bound(3, 0.5, True), "horizon", True),
        (lambda: dynamic_regret_lower_bound(True, 0.5, 10), "num_actions", True),
        (lambda: dynamic_regret_lower_bound(3, 0.5, 10.0), "horizon", 10.0),
        (lambda: theoretical_upper("U-Social", 2, 2, horizon=math.nan), "horizon", math.nan),
        (lambda: theoretical_upper("A-Social", 2, 2, horizon=2.5), "horizon", 2.5),
        (lambda: theoretical_upper("U-Social", 2, 2, horizon=True), "horizon", True),
        pytest.param(lambda: _play(True), "horizon", True, id="play_match-True"),
        pytest.param(lambda: _play(2.5), "horizon", 2.5, id="play_match-2.5"),
        pytest.param(lambda: adversarial_matrix(2.5, 3, 0.5), "m", 2.5, id="adversarial-2.5"),
        pytest.param(lambda: uniform_strategy(True), "dim", True, id="uniform-True"),
        pytest.param(lambda: uniform_strategy(2.5), "dim", 2.5, id="uniform-2.5"),
    ],
)
def test_dims_counts_and_horizons_must_be_integers(call, key, value):
    message = f"{key} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _play(horizon):
    players = OptimisticHedge((2, 2), (0.5, 0.5))
    play_match(matching_pennies(), players, horizon, lambda *_: None)


@pytest.mark.parametrize(
    "call, error, key, value",
    [
        (lambda: OptimisticHedge(2, True), ValueError, "rate", True),
        (lambda: OptimisticHedge(2, "0.5"), ValueError, "rate", "0.5"),
        (lambda: AveragedHedge(2, np.True_), ValueError, "rate", np.True_),
        (lambda: RateParams(True, 0.5, 0.5, 0.5), ValueError, "eta_x", True),
        (lambda: RateParams(0.5, 0.5, 0.5, "x"), ValueError, "c_y", "x"),
        (lambda: TransformedParams(True, 1.0, 0.0, 0.0), ValueError, "a_x", True),
        (lambda: external_regret_lower_bound(3, True, 10), ValueError, "rate", True),
        (lambda: dynamic_regret_lower_bound(3, "1", 10), ValueError, "rate", "1"),
        (lambda: adversarial_matrix(3, 3, True), InvalidDeltaError, "delta", True),
    ],
)
def test_rates_splits_and_gaps_must_be_real_numbers(call, error, key, value):
    message = f"{key} must be a real number, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "interval, inside, outside",
    [
        ("(0, 1]", (1e-300, 1, 1.0), (0, 0.0, 1.0000000000000002, -math.inf)),
        ("[0, 1]", (0, -0.0, 1), (-1e-300, 2)),
        ("(0, 1)", (0.5,), (0.0, 1.0)),
        ("[0, inf)", (0, 1e308, np.float32(2.5)), (-1, math.inf)),
        ("(0, inf)", (5e-324,), (0.0, math.inf, -math.inf)),
    ],
)
def test_real_intervals_hold_their_ends_and_reject_nan(interval, inside, outside):
    for value in inside:
        require_real("x", value, interval)
    for value in (*outside, math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match=re.escape(f"x must lie in {interval}, got")):
            require_real("x", value, interval)


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return "returned"


@pytest.mark.parametrize("name", PRESETS + ("no-such-preset",))
def test_preset_functions_reject_the_same_inputs(name):
    counts = (0, -3, 1, 2.5, True, 3)
    for m, n in itertools.product(counts, counts):
        assert _outcome(preset_rates, name, m, n) == _outcome(theoretical_upper, name, m, n), (m, n)


def test_numpy_integer_action_counts_are_the_int_counts():
    for name in PRESETS:
        m, n = np.int64(10), np.int32(3)
        assert preset_rates(name, m, n) == preset_rates(name, 10, 3)
        assert theoretical_upper(name, m, n) == theoretical_upper(name, 10, 3)
    assert BoundInputs.from_actions(np.int64(10), np.uint8(3)) == BoundInputs.from_actions(10, 3)
