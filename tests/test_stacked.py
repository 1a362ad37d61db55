"""The stacked engine against a reference loop of two single-player learners.

play_match plays both players as the blocks of one learner and meters them
with one RegretMeter update per block of rounds. The reference below drives one
learner per player, feeds each its own feedback vector, and meters with the
per-player sums written inline, the way the acceptance check C8 drives the
averaged learners. Every round and the final metric row must be equal bit
for bit.
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
    matching_pennies,
    play_match,
    preset_rates,
)
from hedgelab.learners import UTILITY_SLACK, top

from oracles import each_round

ALGORITHMS = {"hedge": OptimisticHedge, "averaged": AveragedHedge}
# Rates well above the presets' push weights below the floor within 300 rounds.
STEEP = (4.0, 3.0)
# Only the x block's weights fall below the floor, so the floor branch runs
# on rounds where the y block has no score below it.
ONE_FLOORED = (4.0, 0.05)


def reference_match(payoffs, cls, rates, horizon):
    """Per-round (x, y, g, loss) of two single-player learners and the final
    metric row in both gap modes, summed per player as the meter once did."""
    a = payoffs.entries
    x_learner, y_learner = cls(payoffs.m, rates[0]), cls(payoffs.n, rates[1])
    cum_gain, cum_loss = np.zeros(payoffs.m), np.zeros(payoffs.n)
    gain_total = loss_total = dreg_x = dreg_y = last_pair_gap = 0.0
    rounds = []
    for _ in range(horizon):
        x = x_learner.next_strategy()
        y = y_learner.next_strategy()
        g = a @ y
        loss = a.T @ x
        rounds.append((x, y, g, loss))
        cum_gain += g
        cum_loss += loss
        px, py = float(x @ g), float(y @ loss)
        gain_total += px
        loss_total += py
        gmax, lmin = float(g.max()), float(loss.min())
        dreg_x += gmax - px
        dreg_y += py - lmin
        last_pair_gap = gmax - lmin
        x_learner.observe(g)
        y_learner.observe(-loss)
    best_gain, least_loss = float(cum_gain.max()), float(cum_loss.min())
    reg_x, reg_y = best_gain - gain_total, loss_total - least_loss
    row = {
        "t": horizon,
        "reg_x": reg_x,
        "reg_y": reg_y,
        "social": reg_x + reg_y,
        "max_ind": max(reg_x, reg_y),
        "dreg_x": dreg_x,
        "dreg_y": dreg_y,
    }
    averaged = {**row, "nash_gap": (best_gain - least_loss) / horizon}
    return rounds, averaged, {**row, "nash_gap": last_pair_gap}, cum_gain, cum_loss


def stacked_match(payoffs, cls, rates, horizon):
    m = payoffs.m
    meter = RegretMeter(payoffs)
    players = cls((m, payoffs.n), rates)
    rounds = []

    @each_round
    def record(t, z, u):
        rounds.append((z[:m].copy(), z[m:].copy(), u[:m].copy(), -u[m:]))

    def block(t, z, u):
        record(t, z, u)
        meter.update(t, z, u)

    play_match(payoffs, players, horizon, block)
    return rounds, meter, players


def row_bytes(row):
    """A metric row's values as bytes, so a zero's sign counts, as it does
    in the CSVs."""
    return {key: np.float64(value).tobytes() for key, value in row.items()}


def games():
    rng = np.random.default_rng(1313)
    for m, n in ((2, 2), (7, 3), (10, 10), (2, 10000), (100, 100)):
        yield f"adversarial-{m}x{n}", adversarial_matrix(m, n, 1.0)
        yield f"random-{m}x{n}", PayoffMatrix(rng.uniform(-1.0, 1.0, (m, n)))
        # a zero column, a row of -0.0 and rounded entries that cancel exactly
        signed = np.round(rng.uniform(-1.0, 1.0, (m, n)), 1)
        signed[:, 0] = 0.0
        signed[0, :] = -0.0
        yield f"signed-zeros-{m}x{n}", PayoffMatrix(signed)
        yield f"all-zero-{m}x{n}", PayoffMatrix(np.zeros((m, n)))
        alternating = np.zeros((m, n))
        alternating[1::2] = -0.0
        yield f"alternating-zero-rows-{m}x{n}", PayoffMatrix(alternating)
    yield "matching-pennies", matching_pennies()


@pytest.mark.parametrize("payoffs", [g for _, g in games()], ids=[name for name, _ in games()])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_stacked_engine_equals_reference_loop(payoffs, algorithm):
    cls = ALGORITHMS[algorithm]
    m, n = payoffs.m, payoffs.n
    rate_pairs = {(rp.eta_x, rp.eta_y) for rp in (preset_rates(p, m, n) for p in PRESETS)}
    assert any(eta_y == 0.0 for _, eta_y in rate_pairs)  # the *-X-only presets
    floored = one_floored = False
    for rates in sorted(rate_pairs) + [STEEP, ONE_FLOORED]:
        for horizon in (1, 300):
            want, averaged, last_pair, cum_gain, cum_loss = reference_match(
                payoffs, cls, rates, horizon
            )
            got, meter, players = stacked_match(payoffs, cls, rates, horizon)
            for t, (g_round, w_round) in enumerate(zip(got, want, strict=True), start=1):
                for g_vec, w_vec in zip(g_round, w_round, strict=True):
                    assert np.array_equal(g_vec, w_vec), (rates, horizon, t)
            for mode, row in (("averaged_pair", averaged), ("last_pair", last_pair)):
                assert row_bytes(meter.snapshot(mode)) == row_bytes(row), (mode, rates, horizon)
            # the meter's sum keeps the per-player sums' bits, zero signs included
            assert meter.cum[:m].tobytes() == cum_gain.tobytes()
            assert (0.0 - meter.cum[m:]).tobytes() == cum_loss.tobytes()
            if algorithm == "hedge":  # the plain learner sums the same u from zero
                assert meter.cum.tobytes() == players.cum.tobytes()
            floored |= any((x == 0.0).any() or (y == 0.0).any() for x, y, _, _ in got)
            if rates == ONE_FLOORED:
                one_floored |= any((x == 0.0).any() and (y > 0.0).all() for x, y, _, _ in got)
    if algorithm == "hedge" and payoffs.n == 10000 and payoffs.entries[0, 1] == 1.0:
        assert floored  # the adversarial 2x10000 game takes the floor branch
    if algorithm == "hedge" and payoffs.entries[0, 1] == 1.0:
        assert one_floored  # every adversarial game floors the x block alone


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 17, 100, 129, 1000, 10000])
def test_block_view_reads_equal_standalone_reads(size):
    # The stacked step reads each block's extremes and weight sum on a view
    # into the stacked vector; the bits must not depend on where the block
    # starts in memory.
    rng = np.random.default_rng(size)
    for offset in (1, 2, 3, 7, 10):
        stacked = rng.uniform(0.0, 1.0, offset + size + 5) * rng.choice([1e-300, 1.0, 1e10], 1)
        view = stacked[offset : offset + size]
        copy = view.copy()
        assert view.argmax() == copy.argmax()
        assert view.argmin() == copy.argmin()
        assert np.add.reduce(view).tobytes() == np.add.reduce(copy).tobytes()


def final_row_bytes(payoffs, cls, rates, horizon):
    meter = RegretMeter(payoffs)
    play_match(payoffs, cls((payoffs.m, payoffs.n), rates), horizon, meter.update)
    return row_bytes(meter.snapshot())


@pytest.mark.parametrize("shape", [(2, 2), (7, 3)], ids=["2x2", "7x3"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_engine_counts_its_utilities_unchecked(monkeypatch, shape, algorithm):
    # play_match builds u from a checked matrix and two strategies, so it
    # counts u through the players' unchecked update; only an outside
    # caller's utilities go through the range check.
    payoffs = PayoffMatrix(np.random.default_rng(2020).uniform(-1.0, 1.0, shape))
    cls, rates = ALGORITHMS[algorithm], (0.7, 0.4)
    want = final_row_bytes(payoffs, cls, rates, 300)

    def refuse(utilities, dim):
        raise AssertionError("the engine range-checked its own utilities")

    monkeypatch.setattr("hedgelab.learners._checked_utilities", refuse)
    assert final_row_bytes(payoffs, cls, rates, 300) == want


@pytest.mark.parametrize("shape", [(2, 2), (10, 10), (2, 10000)], ids=["2x2", "10x10", "2x10000"])
@pytest.mark.parametrize("instance", ["adversarial", "random"])
def test_engine_utilities_lie_within_the_range_check(shape, instance):
    # What makes the unchecked update sound: every u the engine makes would
    # pass observe's range check, for every preset's rates and both dynamics.
    if instance == "adversarial":
        payoffs = adversarial_matrix(*shape, 1.0)
    else:
        payoffs = PayoffMatrix(np.random.default_rng(2021).uniform(-1.0, 1.0, shape))
    largest = 0.0

    def observer(t, z, u):
        nonlocal largest
        largest = max(largest, top(np.abs(u)))

    for preset in PRESETS:
        rp = preset_rates(preset, *shape)
        for cls in ALGORITHMS.values():
            play_match(payoffs, cls(shape, (rp.eta_x, rp.eta_y)), 200, observer)
    assert 0.0 < largest <= 1.0 + UTILITY_SLACK
