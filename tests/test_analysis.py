import math

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
    matching_pennies,
    play_match,
    preset_rates,
)
from hedgelab.analysis import _row_tops, _wide
from hedgelab.errors import DimensionMismatchError
from hedgelab.harness import run_metered
from hedgelab.learners import top
from hedgelab.rates import RateParams

from oracles import adversarial_top_prob, each_round, matrix, nash_gap, record_match


def hedge_match(m, n, eta_x, eta_y, delta, horizon):
    a = adversarial_matrix(m, n, delta)
    return a, record_match(a, OptimisticHedge((m, n), (eta_x, eta_y)), horizon)


def test_zero_horizon_report_is_all_zero():
    _, trace = hedge_match(2, 2, 0.5, 0.5, 1.0, 0)
    report = trace.row
    assert report["reg_x"] == report["reg_y"] == report["social"] == 0.0
    assert report["dreg_x"] == report["dreg_y"] == report["max_ind"] == 0.0


def test_zero_matrix_play_has_no_regret():
    a = matrix(3, 3, np.zeros(9))
    trace = record_match(a, OptimisticHedge((3, 3), (0.5, 0.5)), 40)
    report = trace.row
    assert report["reg_x"] == 0.0 and report["reg_y"] == 0.0
    assert report["dreg_x"] == 0.0 and report["dreg_y"] == 0.0


def test_meter_matches_trace_report():
    rng = np.random.default_rng(14)
    a = matrix(5, 4, rng.uniform(-1, 1, 20))
    # the same match twice: live-metered, then recorded and metered as it plays
    meter = RegretMeter(a)
    play_match(a, OptimisticHedge((5, 4), (0.5, 0.3)), 120, observer=meter.update)
    trace = record_match(a, OptimisticHedge((5, 4), (0.5, 0.3)), 120)
    report = trace.row
    row = meter.snapshot()
    assert row["reg_x"] == report["reg_x"]
    assert row["reg_y"] == report["reg_y"]
    assert report["social"] == report["reg_x"] + report["reg_y"]
    assert report["max_ind"] == max(report["reg_x"], report["reg_y"])
    assert report["dreg_x"] >= report["reg_x"] - 1e-10
    assert report["dreg_y"] >= report["reg_y"] - 1e-10


def test_worst_scaled_pair_gap_is_max_over_recorded_rounds():
    rng = np.random.default_rng(16)
    a = matrix(6, 9, rng.uniform(-1, 1, 54))
    trace = record_match(a, AveragedHedge((6, 9), (0.4, 0.3)), 300)
    meter = RegretMeter(a)
    assert meter.worst_scaled_pair_gap == -math.inf
    # every recorded round as one block
    z = np.concatenate((trace.x, trace.y), axis=1)
    meter.update(trace.horizon, z, np.concatenate((trace.gains, -trace.losses), axis=1))
    expected = max(
        (i + 1) * (float(trace.gains[i].max()) - float(trace.losses[i].min()))
        for i in range(trace.horizon)
    )
    assert meter.worst_scaled_pair_gap == expected


def test_averaged_pair_gap_is_nash_gap_of_averages():
    rng = np.random.default_rng(15)
    a = matrix(4, 6, rng.uniform(-1, 1, 24))
    meter = RegretMeter(a)
    play_match(a, OptimisticHedge((4, 6), (0.5, 0.5)), 90, observer=meter.update)
    trace = record_match(a, OptimisticHedge((4, 6), (0.5, 0.5)), 90)
    x_bar = trace.x.mean(axis=0)
    y_bar = trace.y.mean(axis=0)
    averaged_pair_gap = meter.snapshot("averaged_pair")["nash_gap"]
    assert averaged_pair_gap == pytest.approx(nash_gap(a, x_bar, y_bar), abs=1e-12)
    # regret-to-equilibrium conversion
    report = trace.row
    assert averaged_pair_gap <= report["social"] / trace.horizon + 1e-9


def test_snapshot_rows():
    a = adversarial_matrix(2, 2, 1.0)
    meter = RegretMeter(a)
    play_match(a, OptimisticHedge((2, 2), (0.5, 0.5)), 7, observer=meter.update)
    row = meter.snapshot()
    assert row["t"] == 7
    assert set(row) == {"t", "reg_x", "reg_y", "social", "max_ind", "dreg_x", "dreg_y", "nash_gap"}
    assert meter.snapshot("last_pair")["nash_gap"] != row["nash_gap"]
    with pytest.raises(ValueError):
        meter.snapshot("nearest_pair")


def test_meter_rejects_a_running_sum_of_the_wrong_shape():
    a = adversarial_matrix(3, 4, 1.0)
    for shape in ((6,), (8,), (7, 1), (1, 7), ()):
        with pytest.raises(DimensionMismatchError):
            RegretMeter(a, np.zeros(shape))
    cum = np.zeros(7)
    assert RegretMeter(a, cum).cum is cum


def row_bytes(row):
    return {key: np.float64(value).tobytes() for key, value in row.items()}


def signed_rows(size, rows=6):
    """Random rows in [-1, 1] with +0.0 and -0.0 entries, two rows whose
    largest entries are tied zeros of either sign, and a row of equal
    entries."""
    v = np.random.default_rng(size).uniform(-1.0, 1.0, (rows, size))
    v[:, ::3] = 0.0
    v[:, 1::3] = -0.0
    v[1:3] = -np.abs(v[1:3])
    v[1, 3::3] = 0.0  # -0.0 comes first among the tied zeros
    v[2, 0] = 0.0  # +0.0 comes first
    v[3] = 0.25
    return v


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("size", [4, 20, 200, 10002])
def test_row_wise_calls_have_the_bits_of_the_one_dimensional_calls(size):
    # RegretMeter.update counts a block of rounds with these row-wise calls;
    # each must give, row by row, the bits of the call it replaces.
    a, b = signed_rows(size), signed_rows(size + 1)[:, 1:]
    cut = size // 2
    # stacked matmul of two vectors is ndarray.dot, on whole rows and on
    # the two halves a row of z or u splits into
    for x, y in ((a, b), (a[:, :cut], b[:, :cut]), (a[:, cut:], b[:, cut:])):
        rows = np.empty(len(x))
        np.matmul(x[:, None, :], y[:, :, None], out=rows[:, None, None])
        assert bits(rows) == bits([float(xi.dot(yi)) for xi, yi in zip(x, y)])
    # argmax(axis=1) with take_along_axis is learners.top, signed zeros kept
    for v in (a, a[:, cut:], -a):
        assert bits(_row_tops(v)) == bits([top(row) for row in v])
    # np.add.accumulate along a row, and along axis 0, is sequential +=
    for row in a:
        total, want = 0.25, []
        for value in row.tolist():
            total += value
            want.append(total)
        assert bits(np.add.accumulate(np.concatenate(([0.25], row)))[1:]) == bits(want)
    sums = np.concatenate((b[:1], a))
    np.add.accumulate(sums, axis=0, out=sums)
    cum = b[0].copy()
    for i, row in enumerate(a, start=1):
        cum += row
        assert bits(sums[i]) == bits(cum)
    # np.where(y > x, y, x) is max(x, y): x wins a tie, whatever its sign
    x, y = a.ravel(), np.concatenate((b.ravel()[: size * 2], a.ravel()[size * 2 :]))
    x[:4], y[:4] = (0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, 0.0, -0.0)
    want = [max(xi, yi) for xi, yi in zip(x.tolist(), y.tolist())]
    assert bits(np.where(y > x, y, x)) == bits(want)


@pytest.mark.parametrize("shape", [(2, 2), (7, 3), (2, 10000)], ids=["2x2", "7x3", "2x10000"])
def test_meter_reading_the_learners_sum_equals_a_meter_keeping_its_own(shape):
    # play_match calls the observer after the players have counted the
    # block's rounds, so the plain learner's cum already holds round t and
    # its last is the block's last u; a meter handed that cum reads, every
    # block, the bytes of a meter summing u.
    payoffs = PayoffMatrix(np.random.default_rng(2222).uniform(-1.0, 1.0, shape))
    for preset in PRESETS:
        rp = preset_rates(preset, *shape)
        players = OptimisticHedge(shape, (rp.eta_x, rp.eta_y))
        shared, own = RegretMeter(payoffs, players.cum), RegretMeter(payoffs)
        before = players.cum.copy()
        seen = []

        def observer(t, z, u):
            assert players.last.tobytes() == u[-1].tobytes() and np.shares_memory(players.last, u)
            for row in u:
                before[:] += row
            assert players.cum.tobytes() == before.tobytes()
            if seen:  # the rows are the engine's own, rewritten block after block
                last_t, last_z, last_u = seen[-1]
                assert np.shares_memory(z, last_z) and np.shares_memory(u, last_u)
                assert t - len(z) == last_t
            seen.append((t, z, u))
            for meter in (shared, own):
                meter.update(t, z, u)
            for mode in ("averaged_pair", "last_pair"):
                assert row_bytes(shared.snapshot(mode)) == row_bytes(own.snapshot(mode))

        play_match(payoffs, players, 200, observer)
        assert seen[-1][0] == 200 and shared.cum is players.cum, preset


@pytest.mark.parametrize("cadence", [1, 7])
@pytest.mark.parametrize("algorithm", ["hedge", "averaged"])
def test_rows_of_wide_blocks_equal_per_round_snapshots(monkeypatch, algorithm, cadence):
    # A 2x1000 match is played in blocks of 30 rounds, whose rows are over
    # 32 times as long as a block is deep, so the meter adds them to its own
    # sum one by one; every row run_metered streams must have the bits of a
    # snapshot of a meter fed the same match a round at a time.
    shape, horizon = (2, 1000), 100
    payoffs = PayoffMatrix(np.random.default_rng(1000).uniform(-1.0, 1.0, shape))
    rp = preset_rates("A-Social", *shape)
    wide, add = [], RegretMeter._add

    def spy(meter, u, due):
        wide.append(_wide(u))
        return add(meter, u, due)

    monkeypatch.setattr(RegretMeter, "_add", spy)
    streamed = []
    run_metered(payoffs, algorithm, rp, horizon, streamed.append, cadence)
    monkeypatch.undo()
    assert len(wide) == 4 and all(wide)  # blocks of 30, 30, 30 and 10 rounds

    cls = AveragedHedge if algorithm == "averaged" else OptimisticHedge
    mode = "last_pair" if algorithm == "averaged" else "averaged_pair"
    meter, want = RegretMeter(payoffs), []

    def observer(t, z, u):
        meter.update(t, z[None], u[None])
        if t % cadence == 0 or t == horizon:
            want.append(meter.snapshot(mode))

    play_match(payoffs, cls(shape, (rp.eta_x, rp.eta_y)), horizon, each_round(observer))
    assert [row["t"] for row in streamed] == [row["t"] for row in want]
    assert [row_bytes(row) for row in streamed] == [row_bytes(row) for row in want]


def test_snapshot_matches_reference_formulas():
    rng = np.random.default_rng(21)
    a = matrix(5, 4, rng.uniform(-1, 1, 20))
    meter = RegretMeter(a)
    # per-player sums of the gains g = A y and the losses A^T x, kept here
    cum_gain, cum_loss = np.zeros(5), np.zeros(4)
    gain_total = loss_total = dreg_x = dreg_y = last_pair_gap = 0.0

    def check(t):
        best_gain, least_loss = float(cum_gain.max()), float(cum_loss.min())
        reg_x, reg_y = best_gain - gain_total, loss_total - least_loss
        averaged = (best_gain - least_loss) / t if t else 0.0
        want = {
            "t": t,
            "reg_x": reg_x,
            "reg_y": reg_y,
            "social": reg_x + reg_y,
            "max_ind": max(reg_x, reg_y),
            "dreg_x": dreg_x,
            "dreg_y": dreg_y,
        }
        assert meter.snapshot("averaged_pair") == {**want, "nash_gap": averaged}, t
        assert meter.snapshot("last_pair") == {**want, "nash_gap": last_pair_gap}, t

    checked = [0]
    check(0)

    def observer(t, z, u):
        nonlocal cum_gain, cum_loss, gain_total, loss_total, dreg_x, dreg_y, last_pair_gap
        meter.update(t, z[None], u[None])
        x, y, g, loss = z[:5], z[5:], u[:5], -u[5:]
        cum_gain += g
        cum_loss += loss
        px, py = float(x @ g), float(y @ loss)
        gain_total += px
        loss_total += py
        gmax, lmin = float(g.max()), float(loss.min())
        dreg_x += gmax - px
        dreg_y += py - lmin
        last_pair_gap = gmax - lmin
        if t in (1, 37):
            check(t)
            checked.append(t)

    play_match(a, OptimisticHedge((5, 4), (0.5, 0.3)), 37, each_round(observer))
    assert checked == [0, 1, 37]


def test_nash_gap_values():
    mp = matching_pennies()
    u = np.full(2, 0.5)
    assert nash_gap(mp, u, u) == pytest.approx(0.0, abs=1e-15)
    e1 = np.array([1.0, 0.0])
    assert nash_gap(mp, e1, e1) == pytest.approx(2.0, abs=1e-15)
    rng = np.random.default_rng(16)
    a = matrix(3, 5, rng.uniform(-1, 1, 15))
    for _ in range(20):
        assert nash_gap(a, rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(5))) >= 0.0
    with pytest.raises(DimensionMismatchError):
        nash_gap(mp, np.ones(3) / 3, u)


def test_top_prob_closed_form():
    assert adversarial_top_prob(2, 0.5, 1.0, 1) == 0.5
    assert adversarial_top_prob(5, 0.5, 1.0, 1) == pytest.approx(0.2, abs=1e-15)
    assert adversarial_top_prob(2, 0.5, 1.0, 4) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), rel=1e-14
    )
    for bad in [(1, 0.5, 1.0, 3), (2, -0.5, 1.0, 3), (2, 0.5, 0.0, 3), (2, 0.5, 1.0, 0)]:
        with pytest.raises(ValueError):
            adversarial_top_prob(*bad)


def test_top_prob_matches_simulation():
    m, n, eta_x, eta_y, delta, horizon = 3, 4, 0.3, 0.7, 0.5, 200
    _, trace = hedge_match(m, n, eta_x, eta_y, delta, horizon)
    for t in range(2, horizon + 1):
        want_x = adversarial_top_prob(m, eta_x, delta, t)
        want_y = adversarial_top_prob(n, eta_y, delta, t)
        assert abs(trace.x[t - 1][0] - want_x) <= 1e-9 * want_x
        assert abs(trace.y[t - 1][0] - want_y) <= 1e-9 * want_y


def test_regret_equals_top_prob_sum():
    m, delta, eta, horizon = 4, 0.8, 0.25, 500
    _, trace = hedge_match(m, m, eta, eta, delta, horizon)
    report = trace.row
    expected = sum(
        delta * (1.0 - adversarial_top_prob(m, eta, delta, t)) for t in range(1, horizon + 1)
    )
    assert report["reg_x"] == pytest.approx(expected, abs=1e-9)


def test_flagship_regret_spot_value():
    _, trace = hedge_match(2, 2, 0.5, 0.5, 1.0, 2000)
    report = trace.row
    assert report["reg_x"] == pytest.approx(1.2692, abs=1e-3)


def test_external_lower_bound_spot_values():
    lb = external_regret_lower_bound(2, 0.5, 2000)
    log_term = math.log(2001.0)
    assert lb.branch == "large_rate"
    assert lb.delta_star == pytest.approx(log_term / (0.5 * 2001.0), rel=1e-14)
    assert lb.value == pytest.approx(math.log(2.0) / 0.5 - (log_term + 1.0) / (0.5 * 2001.0),
                                     rel=1e-14)
    assert lb.value == pytest.approx(1.377697, abs=1e-6)

    slow = external_regret_lower_bound(2, 0.001, 2000)
    assert slow.branch == "small_rate"
    assert slow.delta_star == 1.0
    assert slow.value == pytest.approx(556.947, abs=1e-3)


def test_external_lower_bound_branch_threshold():
    threshold = math.log(2001.0) / 2001.0
    assert external_regret_lower_bound(2, threshold * 1.01, 2000).branch == "large_rate"
    assert external_regret_lower_bound(2, threshold * 0.99, 2000).branch == "small_rate"


def test_external_lower_bound_approaches_log_m_over_eta():
    lb = external_regret_lower_bound(2, 0.5, 10**6)
    gap = math.log(2.0) / 0.5 - lb.value
    assert 0.0 < gap < 5e-5


def test_dynamic_lower_bound_spot_values():
    lb = dynamic_regret_lower_bound(2, 0.5, 2000)
    kappa = math.sqrt(2001.0) + 1.0
    log_term = math.log(kappa)
    want = math.log(2.0) * math.log(2001.0) / 1.0 - (log_term + 1.0) / (0.5 * kappa)
    assert lb.branch == "large_rate"
    assert lb.value == pytest.approx(want, rel=1e-14)
    assert lb.value == pytest.approx(5.057991, abs=5e-5)

    lb10 = dynamic_regret_lower_bound(10, 0.5, 2000)
    assert lb10.value == pytest.approx(17.19607, abs=3e-4)


def test_dynamic_lower_bound_branches():
    # the threshold at m = 2, T = 2000 sits near 0.0836
    assert dynamic_regret_lower_bound(2, 0.09, 2000).branch == "large_rate"
    assert dynamic_regret_lower_bound(2, 0.08, 2000).branch == "small_rate"


def test_lower_bound_argument_validation():
    for fn in (external_regret_lower_bound, dynamic_regret_lower_bound):
        with pytest.raises(ValueError):
            fn(1, 0.5, 100)
        with pytest.raises(ValueError):
            fn(2, 0.0, 100)
        with pytest.raises(ValueError):
            fn(2, 0.5, 0)


def test_measured_regret_clears_external_floor():
    m, eta, horizon = 2, 0.25, 400
    lb = external_regret_lower_bound(m, eta, horizon)
    a = adversarial_matrix(m, m, lb.delta_star)
    row, _ = run_metered(a, "hedge", RateParams(eta, eta, 0.5, 0.5), horizon)
    assert row["reg_x"] >= lb.value - 1e-9


def test_measured_dynamic_regret_clears_floor():
    m, eta, horizon = 2, 0.5, 300
    lb = dynamic_regret_lower_bound(m, eta, horizon)
    a = adversarial_matrix(m, m, lb.delta_star)
    _, meter = run_metered(a, "averaged", RateParams(eta, eta, 0.5, 0.5), horizon)
    assert meter.dreg_x >= lb.value - 1e-9
