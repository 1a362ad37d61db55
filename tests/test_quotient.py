"""Quotient play against full play.

run_metered plays a game with equal rows or equal columns as its quotient:
one action per class of identical actions, whose weight is the class size
times exp(its score). Hedge from a uniform start gives identical actions
identical scores, so the two plays agree in value; they add in another
order, so they differ in the last bits. The reference here plays the full
matrix with learners that have no counts and meters it in full.
"""

import numpy as np
import pytest

from hedgelab import (
    PRESETS,
    AveragedHedge,
    OptimisticHedge,
    PayoffMatrix,
    RegretMeter,
    adversarial_matrix,
    dynamic_regret_lower_bound,
    external_regret_lower_bound,
    load_matrix_file,
    play_match,
    preset_rates,
)
from hedgelab.harness import run_metered
from hedgelab.rates import RateParams

from oracles import SIGNED_DUPLICATES, each_round

LEARNERS = {"hedge": OptimisticHedge, "averaged": AveragedHedge}
FLOORS = {"hedge": external_regret_lower_bound, "averaged": dynamic_regret_lower_bound}
HORIZON = 500
# Largest difference allowed between a quotient-played and a fully played
# final metric, relative to max(|full value|, 1). The worst over this file's
# matches measured 5.5e-13, and 5.2e-12 over the same matches at T = 2000,
# both on reg_x of the averaged dynamic on adversarial 2x10000.
RTOL = 1e-10


def full_play(payoffs, algorithm, rp, horizon):
    """The final metric row of the full game, played without counts."""
    meter = RegretMeter(payoffs)
    players = LEARNERS[algorithm]((payoffs.m, payoffs.n), (rp.eta_x, rp.eta_y))
    play_match(payoffs, players, horizon, meter.update)
    return meter.snapshot("last_pair" if algorithm == "averaged" else "averaged_pair")


def rate_plans(m, n):
    """Every preset's plan, each once, and a hand plan."""
    plans = [preset_rates(p, m, n) for p in PRESETS] + [RateParams(0.4, 0.2, 0.5, 0.5)]
    return list(dict.fromkeys(plans))


def adversarial_games():
    """(m, n, delta for a rate plan and a dynamic): the adversarial instance
    at delta = 1, and tuned to each plan's floor as verify tunes it."""
    for m, n in ((7, 5), (10, 10), (2, 10000)):
        yield pytest.param(m, n, lambda rp, algorithm: 1.0, id=f"adversarial-{m}x{n}")
        yield pytest.param(
            m,
            n,
            lambda rp, algorithm, m=m: FLOORS[algorithm](m, rp.eta_x, HORIZON).delta_star,
            id=f"tuned-{m}x{n}",
        )
    yield pytest.param(3, 5, lambda rp, algorithm: 0.8, id="adversarial-3x5-0.8")


@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
@pytest.mark.parametrize("m, n, delta", adversarial_games())
def test_quotient_play_equals_full_play(m, n, delta, algorithm):
    for rp in rate_plans(m, n):
        payoffs = adversarial_matrix(m, n, delta(rp, algorithm))
        assert payoffs.quotient()[1] is not None
        assert_rows_agree(run_metered(payoffs, algorithm, rp, HORIZON)[0],
                          full_play(payoffs, algorithm, rp, HORIZON))


@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
@pytest.mark.parametrize("entries", [[[0.5, -0.0], [0.5, 0.0]], [[0.25, 0.25], [-0.5, -0.5]]])
def test_quotient_play_equals_full_play_at_2x2(entries, algorithm):
    payoffs = PayoffMatrix(entries)
    assert payoffs.quotient()[1] is not None
    for rp in rate_plans(2, 2):
        assert_rows_agree(run_metered(payoffs, algorithm, rp, HORIZON)[0],
                          full_play(payoffs, algorithm, rp, HORIZON))


@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
def test_quotient_play_of_a_file_with_signed_duplicates(tmp_path, algorithm):
    path = tmp_path / "dups.txt"
    path.write_text(SIGNED_DUPLICATES)
    payoffs = load_matrix_file(path)
    assert payoffs.quotient()[0].entries.shape == (3, 3)
    for rp in rate_plans(5, 4):
        assert_rows_agree(run_metered(payoffs, algorithm, rp, HORIZON)[0],
                          full_play(payoffs, algorithm, rp, HORIZON))


def assert_rows_agree(quotient, full):
    assert quotient["t"] == full["t"]
    for key, value in full.items():
        assert abs(quotient[key] - value) <= RTOL * max(abs(value), 1.0), (key, quotient, full)


@pytest.mark.parametrize("m, n", [(7, 5), (10, 10), (100, 100), (2, 10000)])
@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
def test_full_engine_keeps_identical_actions_bit_identical(m, n, algorithm):
    # On the adversarial instance every row but the first, and every column
    # but the first, holds one nonzero entry at the same place, so each of
    # their feedback entries is one product plus exact zeros whatever the
    # BLAS's blocking; identical scores then give identical weights.
    payoffs = adversarial_matrix(m, n, 1.0)
    split = []

    def observer(t, z, u):
        for v in (z[1:m], z[m + 1 :], u[1:m], u[m + 1 :]):
            if np.any(v.view(np.int64) != v[0:1].view(np.int64)):
                split.append(t)

    for rates in {(rp.eta_x, rp.eta_y) for rp in (preset_rates(p, m, n) for p in PRESETS)}:
        play_match(payoffs, LEARNERS[algorithm]((m, n), rates), 300, each_round(observer))
    assert split == []
