import math

import numpy as np
import pytest

from hedgelab import (
    BoundInputs,
    TransformedParams,
    eval_log_bounds,
    from_transformed,
    minimize,
    minimize_unaware_coefficients,
    preset_rates,
)
from hedgelab import optim, rates
from hedgelab.errors import DegenerateGameError, InvalidGammaError
from hedgelab.harness import DEFAULT_GAMMA_GRID

from oracles import gradient_check, individual_bounds, is_feasible

SQ3 = math.sqrt(3.0)
UNIT = BoundInputs(1.0, 1.0)


def closed_social(b):
    return 2.0 * math.sqrt(b.log_m * b.log_n_plus) + 2.0 * math.sqrt(b.log_m_plus * b.log_n)


def test_eval_at_origin():
    f, g, _, _ = eval_log_bounds((0.0, 0.0, 0.0, 0.0), UNIT)
    assert f == pytest.approx(10.5, abs=1e-12)
    assert g == pytest.approx(10.5, abs=1e-12)


def test_eval_agrees_with_rate_form():
    # log coordinates (0,0,0,0) correspond to a = a' = s = s' = 1
    direct = individual_bounds(from_transformed(TransformedParams(1, 1, 1, 1)), UNIT)
    f, g, _, _ = eval_log_bounds(np.zeros(4), UNIT)
    assert f == pytest.approx(direct[0], rel=1e-10)
    assert g == pytest.approx(direct[1], rel=1e-10)


def test_eval_symmetry():
    rng = np.random.default_rng(10)
    b = BoundInputs(1.7, 1.7)
    for _ in range(25):
        p, q = rng.uniform(-2, 2, 2)
        f, g, _, _ = eval_log_bounds((p, p, q, q), b)
        assert f == pytest.approx(g, rel=1e-14)


def test_eval_rejects_bad_shape():
    with pytest.raises(ValueError):
        eval_log_bounds((0.0, 0.0), UNIT)


def test_gradient_check_origin():
    assert gradient_check(np.zeros(4), UNIT) <= 1e-6


def test_gradient_check_random_points():
    rng = np.random.default_rng(12)
    for _ in range(100):
        b = BoundInputs(float(rng.uniform(0.3, 10.0)), float(rng.uniform(0.3, 10.0)))
        z = rng.uniform(-2, 2, 4)
        assert gradient_check(z, b) <= 1e-6


def test_gradient_check_validation():
    with pytest.raises(ValueError):
        gradient_check(np.zeros(3), UNIT)
    with pytest.raises(ValueError):
        gradient_check(np.zeros(4), UNIT, step=0.0)


def test_sampled_convexity():
    rng = np.random.default_rng(13)
    b = BoundInputs.from_actions(2, 100)
    gamma = 0.3
    for _ in range(1000):
        u = rng.uniform(-2, 2, 4)
        v = rng.uniform(-2, 2, 4)
        fu, gu, _, _ = eval_log_bounds(u, b)
        fv, gv, _, _ = eval_log_bounds(v, b)
        fm, gm, _, _ = eval_log_bounds((u + v) / 2.0, b)
        assert fm <= (fu + fv) / 2.0 + 1e-9
        assert gm <= (gu + gv) / 2.0 + 1e-9
        ju, jv, jm = (
            gamma * fu + (1 - gamma) * gu,
            gamma * fv + (1 - gamma) * gv,
            gamma * fm + (1 - gamma) * gm,
        )
        assert jm <= (ju + jv) / 2.0 + 1e-9


def test_social_objective_matches_closed_form():
    for m, n in [(2, 2), (2, 100), (10000, 2), (10000, 10000)]:
        b = BoundInputs.from_actions(m, n)
        res = minimize("social", b)
        assert res.converged
        assert res.objective_value == pytest.approx(closed_social(b), rel=1e-6)
        assert res.rates.eta_x == pytest.approx(
            math.sqrt(b.log_m * b.log_m_plus) / b.scale, rel=1e-4
        )
        assert res.rates.c_x == pytest.approx(
            math.sqrt(b.log_m_plus * b.log_n_plus) / b.scale, rel=1e-4
        )
        # the social optimum sits on the boundary where both players' own
        # bounds blow up
        assert res.x_bound == math.inf and res.y_bound == math.inf


def test_weighted_objective_midpoint():
    res = minimize("weighted", UNIT, gamma=0.5)
    assert res.converged
    assert res.objective_value <= 8.164966
    assert res.objective_value == pytest.approx(
        0.5 * res.x_bound + 0.5 * res.y_bound, rel=1e-12
    )
    # result invariants: rates and bounds are consistent with the point
    rp = from_transformed(res.point)
    assert rp == res.rates
    assert is_feasible(rp)
    bx, by = individual_bounds(rp, UNIT)
    assert bx == pytest.approx(res.x_bound, rel=1e-9)
    assert by == pytest.approx(res.y_bound, rel=1e-9)


def test_weighted_gamma_validation():
    with pytest.raises(InvalidGammaError):
        minimize("weighted", UNIT, gamma=-0.1)
    with pytest.raises(InvalidGammaError):
        minimize("weighted", UNIT, gamma=1.1)
    with pytest.raises(InvalidGammaError):
        minimize("weighted", UNIT)
    # bools are not weights, and only the weighted objective takes one
    bad = [("weighted", True), ("weighted", np.False_), ("max", 0.3), ("max", 0.0), ("social", 0.5)]
    for objective, gamma in bad:
        with pytest.raises(InvalidGammaError):
            minimize(objective, UNIT, gamma=gamma)


def test_weighted_endpoints_clamp():
    # at gamma = 0 or 1 the optimum runs to the clamped box, never converging
    for gamma in (0.0, 1.0):
        res = minimize("weighted", UNIT, gamma=gamma)
        assert not res.converged
        # pinned coordinates stop the solve well inside the budget
        assert res.iterations < optim.MAX_ITERS


def test_max_objective_symmetric_sizes():
    for m in (2, 100):
        b = BoundInputs.from_actions(m, m)
        res = minimize("max", b)
        mid = minimize("weighted", b, gamma=0.5)
        assert res.converged
        # by symmetry the min-max equals the balanced weighted optimum
        assert res.objective_value == pytest.approx(mid.objective_value, rel=1e-8)
        assert abs(res.x_bound - res.y_bound) <= 1e-6 * res.objective_value


def test_max_objective_asymmetric():
    b = BoundInputs.from_actions(2, 10000)
    res = minimize("max", b)
    mid = minimize("weighted", b, gamma=0.5)
    assert res.converged
    assert res.objective_value >= mid.objective_value - 1e-9
    assert res.objective_value <= 2.0 * mid.objective_value
    assert res.objective_value == pytest.approx(max(res.x_bound, res.y_bound), rel=1e-12)


def test_unaware_coefficient_problem():
    point, kappa = minimize_unaware_coefficients()
    # pinned to the last bit
    r = 1.0 / math.sqrt(3)
    assert kappa == 3 * math.sqrt(3)
    assert point == TransformedParams(r, r, 2 * r, 2 * r)
    for m, n in [(2, 2), (3, 40), (100, 7), (2, 10000), (10000, 10000)]:
        assert preset_rates("U-MaxInd-Num", m, n) == preset_rates("U-MaxInd-Cl", m, n)
    rp = from_transformed(point)
    assert rp.eta_x == pytest.approx(1.0 / (2.0 * SQ3), abs=1e-5)
    assert rp.c_x == pytest.approx(0.5, abs=1e-5)
    # kappa is the worst of the four coefficients at the returned point
    ax, ay, sx, sy = point.a_x, point.a_y, point.s_x, point.s_y
    coefficients = (
        (1.0 + ax / sy) * (1.0 / ax + ay + sx),
        (ax / sy) * (1.0 / ay + ax + sy),
        (ay / sx) * (1.0 / ax + ay + sx),
        (1.0 + ay / sx) * (1.0 / ay + ax + sy),
    )
    assert max(coefficients) <= kappa * (1.0 + 1e-12)


def test_minimize_validation():
    with pytest.raises(DegenerateGameError):
        minimize("social", BoundInputs(0.0, 1.0))
    with pytest.raises(ValueError):
        minimize("everything", UNIT)


def test_iteration_budget_is_respected(monkeypatch):
    monkeypatch.setattr(optim, "MAX_ITERS", 3)
    res = minimize("weighted", UNIT, gamma=0.3)
    assert res.iterations <= 3
    assert not res.converged


def clear_preset_solves():
    rates._aware_numeric_result.cache_clear()
    rates._unaware_numeric_rates.cache_clear()


@pytest.fixture
def fresh_preset_solves():
    """Clears the cached preset solves before and after, so no result solved
    under a patched budget reaches another test."""
    clear_preset_solves()
    yield
    clear_preset_solves()


def test_unconverged_preset_solves_warn(monkeypatch, caplog, fresh_preset_solves):
    caplog.set_level("WARNING", logger="hedgelab")
    preset_rates("A-MaxInd-Num", 10, 10)
    preset_rates("U-MaxInd-Num", 10, 10)
    assert caplog.records == []
    clear_preset_solves()
    monkeypatch.setattr(optim, "MAX_ITERS", 3)
    preset_rates("A-MaxInd-Num", 10, 10)
    preset_rates("U-MaxInd-Num", 10, 10)
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("hedgelab", "A-MaxInd-Num: max solve at m=10, n=10 did not converge after 3 iterations"),
        ("hedgelab", "U-MaxInd-Num: size-free max solve did not converge after 3 iterations"),
    ]


def test_monotone_tradeoff():
    b = BoundInputs.from_actions(100, 100)
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    f_star = []
    g_star = []
    for gamma in grid:
        res = minimize("weighted", b, gamma=gamma)
        assert res.converged
        f_star.append(res.x_bound)
        g_star.append(res.y_bound)
    for lo, hi in zip(f_star[1:], f_star[:-1]):
        assert lo <= hi + 1e-6
    for lo, hi in zip(g_star[:-1], g_star[1:]):
        assert lo <= hi + 1e-6


def test_max_objective_beats_every_weighted_row():
    # the min-max value lies below the worse bound at every weighted optimum
    for m, n in [(10, 10), (100, 100), (2, 10000), (10000, 10000)]:
        b = BoundInputs.from_actions(m, n)
        top = minimize("max", b).objective_value
        for gamma in DEFAULT_GAMMA_GRID:
            res = minimize("weighted", b, gamma=gamma)
            assert top <= max(res.x_bound, res.y_bound), (m, n, gamma)
