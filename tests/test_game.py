import numpy as np
import pytest

from hedgelab import (
    OptimisticHedge,
    PayoffMatrix,
    adversarial_matrix,
    load_matrix_file,
    matching_pennies,
    play_match,
)
from hedgelab.errors import (
    DimensionMismatchError,
    EntryOutOfRangeError,
    InvalidDeltaError,
    MatrixFormatError,
    TooFewActionsError,
)

from oracles import SIGNED_DUPLICATES, each_round, matrix, record_match


def test_payoff_matrix_errors():
    for shape in ((3,), (0, 2), (2, 0), (1, 2, 2)):
        with pytest.raises(DimensionMismatchError):
            PayoffMatrix(np.zeros(shape))
    with pytest.raises(EntryOutOfRangeError):
        PayoffMatrix([[0.0, 2.0], [-1.0, 0.0]])
    with pytest.raises(EntryOutOfRangeError):
        PayoffMatrix([[0.0, np.nan]])
    with pytest.raises(EntryOutOfRangeError):
        PayoffMatrix([[0.0, -np.inf]])


def test_payoff_matrix_is_read_only():
    a = matching_pennies()
    with pytest.raises(ValueError):
        a.entries[0, 0] = 0.0


def test_adversarial_matrix_layout():
    a = adversarial_matrix(2, 2, 1.0)
    assert np.array_equal(a.entries, [[0.0, 1.0], [-1.0, 0.0]])

    b = adversarial_matrix(3, 2, 0.5)
    assert np.array_equal(b.entries, [[0.0, 0.5], [-0.5, 0.0], [-0.5, 0.0]])


def classes_by_search(a):
    """Row classes of `a` by comparing every pair of rows: each class's
    first member and size, classes in order of first member."""
    first, counts = [], []
    for i, row in enumerate(a):
        for k, j in enumerate(first):
            if np.array_equal(a[j], row):
                counts[k] += 1
                break
        else:
            first.append(i)
            counts.append(1)
    return first, counts


def class_lists(payoffs):
    return [(c.first.tolist(), c.counts.tolist()) for c in payoffs.classes]


def test_classes_of_duplicated_rows_and_columns(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text(SIGNED_DUPLICATES)
    a = load_matrix_file(path)
    # +0.0 and -0.0 are one value: rows 0 and 2 are one class, and so are
    # columns 0 and 2
    assert class_lists(a) == [([0, 1, 3], [2, 2, 1]), ([0, 1, 3], [2, 1, 1])]
    q, counts = a.quotient()
    assert np.array_equal(q.entries, a.entries[np.ix_([0, 1, 3], [0, 1, 3])])
    assert counts.tolist() == [2, 2, 1, 2, 1, 1]
    for c in a.classes:
        assert not (c.first.flags.writeable or c.counts.flags.writeable)


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (6, 5), (40, 30), (2, 300)])
def test_classes_equal_a_pairwise_search(shape):
    # few distinct values, so random games repeat rows and columns
    rng = np.random.default_rng(sum(shape))
    entries = rng.choice([-0.5, -0.0, 0.0, 0.5], size=shape)
    entries[rng.integers(shape[0])] = entries[0]
    a = PayoffMatrix(entries)
    assert class_lists(a) == [classes_by_search(a.entries), classes_by_search(a.entries.T)]


def test_quotient_of_a_game_with_distinct_actions_is_the_game():
    a = PayoffMatrix(np.random.default_rng(2).uniform(-1.0, 1.0, (4, 6)))
    q, counts = a.quotient()
    assert q is a and counts is None
    assert class_lists(a) == [(list(range(4)), [1] * 4), (list(range(6)), [1] * 6)]


@pytest.mark.parametrize("m, n", [(2, 2), (2, 5), (7, 3), (30, 2)])
def test_adversarial_matrix_hands_over_its_classes(m, n):
    a = adversarial_matrix(m, n, 0.3)
    assert class_lists(a) == class_lists(PayoffMatrix(a.entries))
    assert a.quotient()[0].entries.tolist() == [[0.0, 0.3], [-0.3, 0.0]]


def test_adversarial_matrix_errors():
    with pytest.raises(InvalidDeltaError):
        adversarial_matrix(2, 2, 0.0)
    with pytest.raises(InvalidDeltaError):
        adversarial_matrix(2, 2, 1.5)
    with pytest.raises(TooFewActionsError):
        adversarial_matrix(1, 2, 0.5)
    with pytest.raises(TooFewActionsError):
        adversarial_matrix(2, 1, 0.5)


def first_feedback(payoffs):
    """The gain and loss vectors of play_match's first round, in which both
    players play uniform."""
    seen = []
    players = OptimisticHedge((payoffs.m, payoffs.n), (0.5, 0.5))
    play_match(payoffs, players, 1, each_round(lambda t, z, u: seen.append(u.copy())))
    (u,) = seen
    return u[: payoffs.m], -u[payoffs.m :]


def test_play_match_feedback_hand_values():
    g, loss = first_feedback(adversarial_matrix(2, 2, 1.0))
    assert g == pytest.approx([0.5, -0.5])
    assert loss == pytest.approx([-0.5, 0.5])

    g, loss = first_feedback(matrix(2, 3, np.zeros(6)))
    assert not g.any() and not loss.any()

    g, loss = first_feedback(matching_pennies())
    assert g == pytest.approx([0.0, 0.0])
    assert loss == pytest.approx([0.0, 0.0])


def test_play_match_zero_rounds():
    trace = record_match(matching_pennies(), OptimisticHedge((2, 2), (0.5, 0.5)), 0)
    assert trace.horizon == 0


def test_play_match_first_round_uniform():
    a = adversarial_matrix(2, 3, 1.0)
    trace = record_match(a, OptimisticHedge((2, 3), (0.5, 0.5)), 1)
    assert trace.x[0] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert trace.y[0] == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_play_match_second_round_closed_form():
    a = adversarial_matrix(2, 2, 1.0)
    trace = record_match(a, OptimisticHedge((2, 2), (0.5, 0.5)), 2)
    assert trace.x[1][0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-12)


def test_play_match_trace_consistency():
    rng = np.random.default_rng(11)
    a = matrix(5, 7, rng.uniform(-1, 1, 35))
    trace = record_match(a, OptimisticHedge((5, 7), (0.4, 0.2)), 50)
    assert trace.horizon == 50
    for i in range(50):
        g, loss = a.entries @ trace.y[i], a.entries.T @ trace.x[i]
        assert np.abs(g - trace.gains[i]).max() <= 1e-12
        assert np.abs(loss - trace.losses[i]).max() <= 1e-12
        # zero-sum consistency
        assert trace.x[i] @ trace.gains[i] == pytest.approx(
            trace.y[i] @ trace.losses[i], abs=1e-12
        )


def test_play_match_deterministic():
    a = adversarial_matrix(3, 4, 0.7)
    traces = [
        record_match(a, OptimisticHedge((3, 4), (0.3, 0.6)), 80) for _ in range(2)
    ]
    assert np.array_equal(traces[0].x, traces[1].x)
    assert np.array_equal(traces[0].y, traces[1].y)
    assert np.array_equal(traces[0].gains, traces[1].gains)
    assert np.array_equal(traces[0].losses, traces[1].losses)


def test_play_match_rejects_mismatched_learners():
    def ignore(*_):
        pass

    a = matching_pennies()
    with pytest.raises(DimensionMismatchError):
        play_match(a, OptimisticHedge((3, 2), (0.5, 0.5)), 1, ignore)
    with pytest.raises(ValueError):
        play_match(a, OptimisticHedge((2, 2), (0.5, 0.5)), -1, ignore)
    with pytest.raises(ValueError):
        record_match(a, OptimisticHedge((2, 2), (0.5, 0.5)), -1)


def test_play_match_observer_and_memory_mode():
    a = adversarial_matrix(2, 2, 1.0)
    seen = []
    out = play_match(
        a,
        OptimisticHedge((2, 2), (0.5, 0.5)),
        5,
        observer=each_round(lambda t, z, u: seen.append(t)),
    )
    assert out is None
    assert seen == [1, 2, 3, 4, 5]


def test_uniform_opponent_gives_constant_gradient():
    rng = np.random.default_rng(3)
    a = matrix(4, 5, rng.uniform(-1, 1, 20))
    trace = record_match(a, OptimisticHedge((4, 5), (0.0, 0.5)), 30)
    # the column player's observed loss vector never moves
    assert np.abs(trace.losses - trace.losses[0]).max() <= 1e-15


def test_load_matrix_file(tmp_path):
    path = tmp_path / "game.txt"
    path.write_text("# demo game\n2 3\n0.1 -0.2 0.3  # row 1\n\n-1 1 0\n")
    a = load_matrix_file(path)
    assert a.m == 2 and a.n == 3
    assert a.entries[0] == pytest.approx([0.1, -0.2, 0.3])
    assert a.entries[1] == pytest.approx([-1.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "content",
    [
        "",
        "2\n0 0\n0 0\n",
        "x y\n0 0\n0 0\n",
        "2 2\n0 0\n",
        "2 2\n0 0 0\n0 0\n",
        "2 2\n0 zero\n0 0\n",
        "0 2\n",
    ],
)
def test_load_matrix_file_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MatrixFormatError):
        load_matrix_file(path)


def test_load_matrix_file_skips_a_byte_order_mark(tmp_path):
    text = "# game\n2 3\n0.5 -1 0\n1 0.25 -0.75\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = load_matrix_file(plain).entries
    assert load_matrix_file(marked).entries.tobytes() == want.tobytes()
    marked.write_bytes(b"\xef\xbb\xbf" + text.split("\n", 1)[1].encode())  # mark before the header
    assert load_matrix_file(marked).entries.tobytes() == want.tobytes()


def test_load_matrix_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("1 2\n0 1.5\n")
    with pytest.raises(EntryOutOfRangeError):
        load_matrix_file(path)
