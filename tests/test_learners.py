import numpy as np
import pytest

from hedgelab import AveragedHedge, OptimisticHedge, uniform_strategy
from hedgelab.analysis import RegretMeter
from hedgelab.errors import (
    DimensionMismatchError,
    NonFiniteWeightError,
    UtilityOutOfRangeError,
)
from hedgelab.game import adversarial_matrix, play_match
from hedgelab.learners import EXP_FLOOR, _kahan_add, bottom, top
from hedgelab.rates import preset_rates

from oracles import keep_inner, matrix

TINY = np.finfo(np.float64).tiny


def softmax(scores):
    shifted = scores - scores.max()
    w = np.exp(shifted)
    return w / w.sum()


def test_first_strategy_is_uniform():
    learner = OptimisticHedge(3, 0.5)
    assert learner.next_strategy() == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_zero_rate_plays_uniform_forever():
    learner = OptimisticHedge(4, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(25):
        assert learner.next_strategy() == pytest.approx([0.25] * 4, abs=1e-15)
        learner.observe(rng.uniform(-1, 1, 4))


def test_second_round_hand_value():
    learner = OptimisticHedge(2, 0.5)
    learner.observe(np.array([0.5, -0.5]))
    x = learner.next_strategy()
    assert x[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-12)
    assert x[1] == pytest.approx(np.exp(-1.0) / (1.0 + np.exp(-1.0)), rel=1e-12)


def test_observe_zero_keeps_uniform():
    learner = OptimisticHedge(5, 0.7)
    learner.observe(np.zeros(5))
    assert learner.next_strategy() == pytest.approx([0.2] * 5, abs=1e-15)


def test_two_observations_weight_latest_twice():
    rng = np.random.default_rng(1)
    g1, g2 = rng.uniform(-1, 1, (2, 6))
    learner = OptimisticHedge(6, 0.3)
    learner.observe(g1)
    learner.observe(g2)
    expected = softmax(0.3 * (g1 + g2 + g2))
    assert learner.next_strategy() == pytest.approx(expected, abs=1e-14)


def test_shift_invariance():
    rng = np.random.default_rng(2)
    plain = OptimisticHedge(6, 0.5)
    shifted = OptimisticHedge(6, 0.5)
    for _ in range(50):
        u = rng.uniform(-0.5, 0.5, 6)
        c = rng.uniform(-0.5, 0.5)
        plain.observe(u)
        shifted.observe(u + c)
        assert np.abs(plain.next_strategy() - shifted.next_strategy()).max() <= 1e-12


def test_cumulative_and_incremental_forms_agree():
    # incremental form: the log-weight moves by rate * (2 u_t - u_{t-1})
    rng = np.random.default_rng(3)
    rate, dim = 0.4, 5
    learner = OptimisticHedge(dim, rate)
    log_w = np.zeros(dim)
    prev = np.zeros(dim)
    for _ in range(120):
        u = rng.uniform(-1, 1, dim)
        learner.observe(u)
        log_w += rate * (2.0 * u - prev)
        prev = u
        assert np.abs(learner.next_strategy() - softmax(log_w)).max() <= 1e-12


def test_outputs_stay_on_simplex_under_extreme_history():
    # constant gains for 1500 rounds would overflow raw weights near e^750
    learner = OptimisticHedge(3, 0.5)
    for _ in range(1500):
        learner.observe(np.array([1.0, -1.0, 1.0]))
    x = learner.next_strategy()
    assert np.all(x >= 0)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(x))


def test_observe_validation():
    learner = OptimisticHedge(3, 0.5)
    with pytest.raises(DimensionMismatchError):
        learner.observe(np.zeros(4))
    with pytest.raises(UtilityOutOfRangeError):
        learner.observe(np.array([0.0, 1.5, 0.0]))
    with pytest.raises(UtilityOutOfRangeError):
        learner.observe(np.array([0.0, np.nan, 0.0]))
    with pytest.raises(UtilityOutOfRangeError):
        learner.observe(np.array([0.0, np.inf, 0.0]))
    with pytest.raises(UtilityOutOfRangeError):
        learner.observe(np.array([-1.5, 0.0, 0.0]))
    # reconstructed utilities may carry a hair of float drift past 1
    learner.observe(np.array([0.0, 1.0 + 5e-10, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
# inf - inf in the shift warns before the raise
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_non_finite_scores_raise(bad):
    learner = OptimisticHedge(2, 0.5)
    learner.cum[0] = bad
    with pytest.raises(NonFiniteWeightError):
        learner.next_strategy()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "dims, rates, at",
    [
        ((2, 3), (0.5, 0.7), 3),  # in the second block
        ((2, 3, 2), (0.5, 0.0, 0.7), 3),  # in a rate-0 block inside the stepped span
    ],
    ids=["second-block", "rate-0-inside-span"],
)
# inf - inf in the shift and inf * 0 in the rate-0 block warn before the raise
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_scores_raise_in_any_stepped_block(bad, dims, rates, at):
    learner = OptimisticHedge(dims, rates)
    learner.cum[at] = bad
    with pytest.raises(NonFiniteWeightError):
        learner.next_strategy()


def test_rate_0_end_blocks_are_written_once():
    # a rate-0 block outside the stepped span never reads its sums
    learner = OptimisticHedge((3, 2, 4), (0.0, 0.5, 0.0))
    learner.cum[[0, 8]] = np.nan
    z = learner.next_strategy()
    assert np.array_equal(z[:3], uniform_strategy(3))
    assert np.array_equal(z[5:], uniform_strategy(4))


def test_strategies_are_fresh_arrays():
    learner = OptimisticHedge(3, 0.5)
    learner.observe(np.array([0.5, -0.5, 0.0]))
    first = learner.next_strategy()
    kept = first.copy()
    learner.observe(np.array([-1.0, 1.0, 0.0]))
    second = learner.next_strategy()
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


def extreme_cases():
    """Seeded vectors of length 1 to 10,000: random, with ties, with +-inf,
    and with a NaN at the first, middle and last index."""
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 10, 101, 1000, 10000):
        plain = rng.uniform(-1, 1, size)
        # rounding gives ties; + 0.0 turns the -0.0 it makes into +0.0
        tied = np.round(plain, 1) + 0.0
        yield plain
        yield tied
        yield -np.abs(tied)
        for special in (np.inf, -np.inf):
            v = tied.copy()
            v[rng.integers(size)] = special
            yield v
        v = plain.copy()
        v[0], v[-1] = np.inf, -np.inf
        yield v
        for at in (0, size // 2, size - 1):
            v = plain.copy()
            v[at] = np.nan
            yield v
    yield np.full(5, 0.25)
    yield np.full(4, np.inf)


def test_top_and_bottom_equal_the_ufunc_reduce():
    # Only a tie of +0.0 and -0.0 at the extreme is left out: there max/min
    # and argmax/argmin may return either zero, and no round produces -0.0.
    for v in extreme_cases():
        for helper, reduce in ((top, np.maximum.reduce), (bottom, np.minimum.reduce)):
            got, want = helper(v), float(reduce(v))
            assert isinstance(got, float)
            if np.isnan(v).any():
                assert np.isnan(got) and np.isnan(want)
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_scores_below_floor_get_exactly_zero_weight():
    scores = np.linspace(-2000.0, 0.0, 401)
    learner = OptimisticHedge(scores.size, 1.0)
    learner.cum[:] = scores
    x = learner.next_strategy()
    plain = np.exp(scores) / np.exp(scores).sum()
    dropped = scores < EXP_FLOOR
    assert dropped.any() and not dropped.all()
    assert np.all(x[dropped] == 0.0)
    assert np.array_equal(x[~dropped], plain[~dropped])
    assert np.all(plain[dropped] < 1e-299)
    assert np.all((x == 0.0) | (x >= TINY))


class PlainExpHedge(OptimisticHedge):
    """Reference step: softmax over every score of each block, underflowing
    lanes included."""

    below_floor = False

    def next_strategy(self):
        strategies = []
        cuts = np.cumsum(self.dims)[:-1]
        for cum, last, rate in zip(np.split(self.cum, cuts), np.split(self.last, cuts), self.rates):
            scores = rate * (cum + last)
            scores -= scores.max()
            self.below_floor |= bool(scores.min() < EXP_FLOOR)
            np.exp(scores, out=scores)
            strategies.append(scores / scores.sum())
        return np.concatenate(strategies)


@pytest.mark.parametrize("instance", ["adversarial", "uniform"])
def test_floor_leaves_match_regrets_bit_identical(instance):
    m, n, horizon = 2, 2000, 2000
    if instance == "adversarial":
        payoffs = adversarial_matrix(m, n, 1.0)
    else:
        rng = np.random.default_rng(11)
        payoffs = matrix(m, n, rng.uniform(-1, 1, m * n))
    reports = []
    for cls in (OptimisticHedge, PlainExpHedge):
        players = cls((m, n), (2.0, 2.0))
        meter = RegretMeter(payoffs)
        play_match(payoffs, players, horizon, observer=meter.update)
        reports.append(meter.snapshot())
    # the rate drives some column weights below the floor within the horizon
    assert players.below_floor
    guarded, plain = reports
    assert guarded == plain


def test_constructor_validation():
    with pytest.raises(ValueError):
        OptimisticHedge(0, 0.5)
    with pytest.raises(ValueError):
        OptimisticHedge(2, -0.1)
    with pytest.raises(ValueError):
        OptimisticHedge(2, np.nan)
    with pytest.raises(ValueError):
        uniform_strategy(0)
    for dims, rates in (((2, 3), (0.5,)), ((), ()), ((2, 0), (0.5, 0.5)), ((2, 3), (0.5, -0.1))):
        with pytest.raises(ValueError):
            OptimisticHedge(dims, rates)
        with pytest.raises(ValueError):
            AveragedHedge(dims, rates)


def test_uniform_player():
    # a rate-0 learner is the uniform player, exactly, also as one block of two
    player = OptimisticHedge(4, 0.0)
    assert np.array_equal(player.next_strategy(), uniform_strategy(4))
    player.observe(np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        player.observe(np.zeros(3))
    for dims, rates in (((4, 3), (0.0, 0.5)), ((3, 4), (0.5, 0.0)), ((3, 4, 2), (0.5, 0.0, 0.7))):
        pair = OptimisticHedge(dims, rates)
        for _ in range(5):
            z = pair.next_strategy()
            start = sum(dims[: dims.index(4)])
            assert np.array_equal(z[start : start + 4], uniform_strategy(4))
            pair.observe(np.linspace(-1.0, 1.0, sum(dims)))


def averaged_self_play(m, n, rate_x, rate_y, horizon, seed=9):
    rng = np.random.default_rng(seed)
    a = matrix(m, n, rng.uniform(-1, 1, m * n)).entries
    xl, yl = AveragedHedge(m, rate_x), AveragedHedge(n, rate_y)
    x_inner, y_inner = keep_inner(xl), keep_inner(yl)
    for t in range(1, horizon + 1):
        x = xl.next_strategy()
        y = yl.next_strategy()
        g = a @ y
        loss = a.T @ x
        xl.observe(g)
        yl.observe(-loss)
        yield t, a, xl, yl, x, x_inner.last, y_inner.last


def test_averaged_first_round_uniform():
    learner = AveragedHedge(4, 0.5)
    assert learner.next_strategy() == pytest.approx([0.25] * 4, abs=1e-15)
    # calling again without feedback must not advance the average
    assert learner.next_strategy() == pytest.approx([0.25] * 4, abs=1e-15)


def test_averaged_output_is_running_mean():
    inners = []
    for t, _, _, _, x, x_inner, _ in averaged_self_play(5, 7, 0.5, 0.5, 60):
        inners.append(x_inner.copy())
        mean = np.mean(inners, axis=0)
        assert np.abs(x - mean).max() <= 1e-12
        assert x.min() >= 1.0 / (t * 5) - 1e-15


def test_averaged_reconstruction_identity():
    for _, a, xl, yl, _, x_inner, y_inner in averaged_self_play(5, 7, 0.5, 0.3, 300):
        assert np.abs(xl.inner.last - a @ y_inner).max() <= 1e-10
        assert np.abs(yl.inner.last + a.T @ x_inner).max() <= 1e-10


def test_averaged_two_round_inversion():
    learner = AveragedHedge(2, 0.5)
    learner.next_strategy()
    g1 = np.array([0.2, -0.1])
    learner.observe(g1)
    assert np.array_equal(learner.inner.last, g1)

    learner.next_strategy()
    g2 = np.array([0.3, 0.1])
    learner.observe((g1 + g2) / 2.0)
    assert learner.inner.last == pytest.approx(g2, abs=1e-15)


def test_averaged_observe_requires_next_strategy():
    learner = AveragedHedge(3, 0.5)
    with pytest.raises(RuntimeError):
        learner.observe(np.zeros(3))


@pytest.mark.parametrize("bad", [1.5, -1.5, np.nan, np.inf])
def test_averaged_observe_range_check(bad):
    learner = AveragedHedge(3, 0.5)
    learner.next_strategy()
    learner.observe(np.array([0.5, -0.5, 0.0]))
    learner.next_strategy()
    with pytest.raises(UtilityOutOfRangeError):
        learner.observe(np.array([0.0, bad, 0.0]))


def test_averaged_dimension_check():
    learner = AveragedHedge(3, 0.5)
    learner.next_strategy()
    with pytest.raises(DimensionMismatchError):
        learner.observe(np.zeros(2))


class KahanHatAveragedHedge(AveragedHedge):
    """Reference averaged learner that keeps its own compensated sum of the
    reconstructed utilities instead of reading the inner learner's sum."""

    def __init__(self, dim, rate):
        super().__init__(dim, rate)
        self.hat_sum = np.zeros(dim)
        self.hat_comp = np.zeros(dim)

    def observe(self, utilities):
        u = np.asarray(utilities, dtype=np.float64)
        recon = self.round * u - self.hat_sum
        self.inner.observe(recon)
        _kahan_add(self.hat_sum, self.hat_comp, recon, np.empty(self.dim), np.empty(self.dim))
        self.round += 1
        self._pending = None


def averaged_trajectory(cls, a, rate_x, rate_y, horizon):
    m, n = a.shape
    xl, yl = cls(m, rate_x), cls(n, rate_y)
    x_inner, y_inner = keep_inner(xl), keep_inner(yl)
    for _ in range(horizon):
        x, y = xl.next_strategy(), yl.next_strategy()
        xl.observe(a @ y)
        yl.observe(-(a.T @ x))
        yield x, y, x_inner.last, y_inner.last, xl.inner.last, yl.inner.last


@pytest.mark.parametrize("instance", ["adversarial", "random-3", "random-4"])
def test_averaged_matches_compensated_hat_sum_reference(instance):
    if instance == "adversarial":
        a = adversarial_matrix(2, 10000, 1.0).entries
    else:
        rng = np.random.default_rng(int(instance[-1]))
        a = rng.uniform(-1, 1, (7, 12) if instance == "random-3" else (22, 28))
    rp = preset_rates("U-Social", *a.shape)
    derived = averaged_trajectory(AveragedHedge, a, rp.eta_x, rp.eta_y, 2000)
    reference = averaged_trajectory(KahanHatAveragedHedge, a, rp.eta_x, rp.eta_y, 2000)
    for t, (got, want) in enumerate(zip(derived, reference, strict=True), start=1):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w), t


@pytest.mark.parametrize("seed", range(20))
def test_averaged_late_start_has_no_false_range_error(seed):
    # Start at round 1e7 as if that many rounds had been played against a
    # 3x3 game whose first row is constantly +1. The reconstruction then
    # carries ~t * eps of rounding, above UTILITY_SLACK, on a valid game.
    t0 = 10**7
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (3, 3))
    a[0] = 1.0
    ybar = rng.dirichlet(np.ones(3))
    learner = AveragedHedge(3, 0.5)
    learner.round = t0
    learner.inner.cum[:] = (t0 - 1) * (a @ ybar)
    learner._iter_sum[:] = (t0 - 1) / 3
    for t in range(t0, t0 + 50):
        assert learner.next_strategy().sum() == pytest.approx(1.0, abs=1e-12)
        y = rng.dirichlet(np.ones(3))
        ybar = ((t - 1) * ybar + y) / t
        learner.observe(a @ ybar)
        assert np.abs(learner.inner.last - a @ y).max() <= 1e-7
