import csv
import math
import tracemalloc

import numpy as np
import pytest

from hedgelab import OptimisticHedge, adversarial_matrix, harness
from hedgelab.analysis import RegretMeter
from hedgelab.errors import ConfigError, InvalidGammaError
from hedgelab.harness import (
    METRIC_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    build_config,
    instance_matrix,
    load_config_file,
    plan_matches,
    run_experiment,
    run_metered,
    sweep_gamma,
    verify_bounds,
)
from hedgelab.rates import (
    PRESET_TARGETS,
    PRESETS,
    SOCIAL_PRESETS,
    RateParams,
    preset_rates,
    theoretical_upper,
)

from oracles import record_match


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_build_config_defaults():
    cfg = build_config({})
    assert cfg.m == 2 and cfg.n == 100
    assert cfg.horizon == 2000 and cfg.cadence == 1
    assert cfg.instance == "adversarial" and cfg.algorithm == "hedge"
    assert len(cfg.presets) == 8


@pytest.mark.parametrize(
    "values",
    [
        {"bogus": "1"},
        {"m": "two"},
        {"T": "0"},
        {"delta": "1.5"},
        {"delta": "zero"},
        {"instance": "random"},
        {"algo": "newton"},
        {"presets": " , "},
        {"presets": "U-Social,No-Such"},
        {"instance": "file"},
        {"instance": "adversarial", "m": "1"},
        {"presets": "U-Social,A-Social,U-Social"},
    ],
)
def test_build_config_rejects(values):
    with pytest.raises(ConfigError):
        build_config(values)


@pytest.mark.parametrize(
    "bad",
    [
        {"cadence": 0},
        {"cadence": -3},
        {"algorithm": "newton"},
        {"instance": "random"},
        {"presets": ()},
        {"presets": ("U-Social", "No-Such")},
        {"horizon": -5},
        {"delta": 0.0},
        {"instance": "file"},
        {"m": 1},
        {"instance": "matching_pennies", "n": 0},
        {"horizon": 0},
        {"presets": ("U-Social", "U-Social")},
        {"m": 2.5},
        {"n": True},
        {"horizon": 3.0},
        {"cadence": 2.5},
        {"out_dir": 5},
        {"delta": "0.5"},
        {"delta": False},
        {"instance": None},
        {"algorithm": 1},
        {"matrix_path": 3},
        {"presets": "U-Social"},
        {"presets": ["U-Social"]},
        {"presets": ("U-Social", 1)},
    ],
)
def test_experiment_config_rejects(bad):
    good = dict(m=2, n=3, horizon=10, presets=("U-Social",))
    ExperimentConfig(**good)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, **bad})


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"m": 2.5}, "m must be an integer, got 2.5"),
        ({"horizon": True}, "T must be an integer, got True"),
        ({"delta": "0.5"}, "delta must be a real number, got '0.5'"),
        ({"out_dir": 5}, "out must be a string, got 5"),
        ({"matrix_path": 5}, "matrix_file must be a string, got 5"),
        ({"presets": "U-Social"}, "presets must be a tuple of preset names, got 'U-Social'"),
    ],
)
def test_experiment_config_type_messages_name_the_config_key(bad, message):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**bad)
    assert str(err.value) == message


def test_experiment_config_accepts_an_integer_delta_and_numpy_integers():
    assert ExperimentConfig(delta=1).delta == 1
    cfg = ExperimentConfig(m=np.int64(3), n=np.int32(4), horizon=np.int64(5))
    assert (cfg.m, cfg.n, cfg.horizon) == (3, 4, 5)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# flagship run\nm = 2\nn=16\nT=50  # rounds\n\npresets=U-Social\n")
    values = load_config_file(path)
    assert values == {"m": "2", "n": "16", "T": "50", "presets": "U-Social"}
    cfg = build_config(values)
    assert cfg.n == 16 and cfg.presets == ("U-Social",)

    path.write_text("m 2\n")
    with pytest.raises(ConfigError):
        load_config_file(path)
    path.write_text("speed=11\n")
    with pytest.raises(ConfigError):
        load_config_file(path)
    path.write_text("T=5\n# later\nT = 7\n")
    with pytest.raises(ConfigError, match="line 3: key 'T' given twice"):
        load_config_file(path)


def test_instance_matrix_variants(tmp_path):
    mp = instance_matrix(build_config({"instance": "matching_pennies"}))
    assert np.array_equal(mp.entries, [[1.0, -1.0], [-1.0, 1.0]])

    path = tmp_path / "m.txt"
    path.write_text("2 2\n0 0.25\n-0.25 0\n")
    cfg = build_config({"instance": "file", "matrix_file": str(path)})
    assert instance_matrix(cfg).entries[0, 1] == 0.25

    adv = instance_matrix(build_config({"delta": "0.5", "n": "3"}))
    assert np.array_equal(adv.entries, adversarial_matrix(2, 3, 0.5).entries)


def test_run_experiment_single_round(tmp_path):
    cfg = ExperimentConfig(m=2, n=2, horizon=1, presets=("U-Social",), out_dir=str(tmp_path))
    summary = run_experiment(cfg)
    assert len(summary) == 1
    row = summary[0]
    # uniform first round on the adversarial instance
    assert row["reg_x"] == pytest.approx(0.5, abs=1e-12)
    assert row["reg_y"] == pytest.approx(0.5, abs=1e-12)
    assert row["target_metric"] == "social"
    assert row["measured_target"] == pytest.approx(1.0, abs=1e-12)
    rows = read_csv(tmp_path / "metrics_U-Social.csv")
    assert rows[0] == list(METRIC_COLUMNS)
    assert len(rows) == 2 and rows[1][0] == "1"


def test_run_experiment_outputs_are_reproducible(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_experiment(ExperimentConfig(m=2, n=6, horizon=40, out_dir=str(d)))
    for name in [f"metrics_{p}.csv" for p in build_config({}).presets] + ["summary.csv"]:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name


def test_run_experiment_upper_bounds_hold_at_small_horizon(tmp_path):
    cfg = ExperimentConfig(m=2, n=6, horizon=40, out_dir=str(tmp_path))
    for row in run_experiment(cfg):
        assert row["measured_target"] < row["theoretical_upper"], row["preset"]
    summary = read_csv(tmp_path / "summary.csv")
    assert summary[0] == list(SUMMARY_COLUMNS)
    assert len(summary) == 9


def test_metrics_cadence(tmp_path):
    cfg = ExperimentConfig(
        m=2, n=4, horizon=40, presets=("U-Social",), out_dir=str(tmp_path), cadence=7
    )
    run_experiment(cfg)
    rows = read_csv(tmp_path / "metrics_U-Social.csv")
    assert [r[0] for r in rows[1:]] == ["7", "14", "21", "28", "35", "40"]


def test_run_experiment_snapshots_once_per_row(tmp_path, monkeypatch):
    calls = []
    snapshot = RegretMeter.snapshot

    def counting_snapshot(self, *args, **kwargs):
        calls.append(self.rounds)
        return snapshot(self, *args, **kwargs)

    monkeypatch.setattr(RegretMeter, "snapshot", counting_snapshot)
    cfg = ExperimentConfig(
        m=2, n=4, horizon=40, presets=("U-Social", "A-Social"), out_dir=str(tmp_path), cadence=7
    )
    run_experiment(cfg)
    assert calls == [7, 14, 21, 28, 35, 40] * 2


@pytest.mark.parametrize("algorithm", ["hedge", "averaged"])
def test_summary_metrics_equal_last_metric_rows(tmp_path, algorithm):
    presets = ("U-Social", "A-Social")
    cfg = ExperimentConfig(
        m=2,
        n=5,
        horizon=40,
        presets=presets,
        algorithm=algorithm,
        out_dir=str(tmp_path),
        cadence=7,
    )
    run_experiment(cfg)
    summary = read_csv(tmp_path / "summary.csv")
    assert [row[0] for row in summary[1:]] == list(presets)
    metric_cols = METRIC_COLUMNS[1:]
    for row in summary[1:]:
        cells = dict(zip(SUMMARY_COLUMNS, row))
        header, *rows = read_csv(tmp_path / f"metrics_{cells['preset']}.csv")
        last = dict(zip(header, rows[-1]))
        assert last["t"] == "40"
        assert [cells[c] for c in metric_cols] == [last[c] for c in metric_cols]


def test_run_experiment_memory_does_not_grow_with_horizon(tmp_path):
    peaks = []
    for horizon in (1000, 10000):
        cfg = ExperimentConfig(
            m=2, n=2, horizon=horizon, presets=("U-Social",), out_dir=str(tmp_path / str(horizon))
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


def test_run_metered_matches_recorded_trace():
    a = adversarial_matrix(3, 5, 0.8)
    rp = RateParams(0.4, 0.2, 0.5, 0.5)
    row, _ = run_metered(a, "hedge", rp, 60)
    trace = record_match(a, OptimisticHedge((3, 5), (0.4, 0.2)), 60)
    assert trace.row == row
    assert row["t"] == 60


def test_run_metered_zero_rounds_writes_its_t0_row():
    # a match of no rounds writes only its t = 0 row, the final one
    rows = []
    rp = RateParams(0.4, 0.2, 0.5, 0.5)
    row, _ = run_metered(adversarial_matrix(2, 3, 1.0), "hedge", rp, 0, rows.append)
    assert rows == [row] and row["t"] == 0 and row["social"] == 0.0


@pytest.mark.parametrize("algorithm", ["hedge", "averaged"])
def test_plan_matches_holds_each_preset_to_its_bound(algorithm):
    cfg = ExperimentConfig(m=3, n=7, horizon=50, algorithm=algorithm)
    plan = plan_matches(cfg, instance_matrix(cfg))
    assert [match[0] for match in plan] == list(cfg.presets)
    for preset, rp, target, bound in plan:
        assert rp == preset_rates(preset, 3, 7)
        if algorithm == "hedge":
            assert (target, bound) == (PRESET_TARGETS[preset], theoretical_upper(preset, 3, 7))
        elif preset in SOCIAL_PRESETS:
            assert target == "max_dreg"
            assert bound == theoretical_upper(preset, 3, 7, 50)
        else:
            assert (target, bound) == ("max_dreg", "")


def test_averaged_experiment_summary(tmp_path):
    cfg = ExperimentConfig(
        m=2,
        n=8,
        horizon=60,
        presets=("U-Social", "A-Social"),
        algorithm="averaged",
        out_dir=str(tmp_path),
    )
    for row in run_experiment(cfg):
        assert row["target_metric"] == "max_dreg"
        assert row["measured_target"] <= row["theoretical_upper"]
        assert row["measured_target"] == pytest.approx(
            max(row["dreg_x"], row["dreg_y"]), abs=1e-15
        )


def test_sweep_gamma_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = sweep_gamma(10, 10, grid=(0.25, 0.5, 0.75), out_path=out)
    assert len(rows) == 4
    for row in rows[:3]:
        g = row["gamma"]
        assert row["weighted_bound"] == pytest.approx(
            g * row["x_bound"] + (1 - g) * row["y_bound"], rel=1e-12
        )
        assert row["max_bound"] == max(row["x_bound"], row["y_bound"])
    assert rows[3]["objective"] == "max"
    # swapping the weight swaps the per-player optima on a symmetric game
    assert rows[0]["x_bound"] == pytest.approx(rows[2]["y_bound"], abs=1e-6)
    assert rows[0]["y_bound"] == pytest.approx(rows[2]["x_bound"], abs=1e-6)
    header = read_csv(out)[0]
    assert header[:2] == ["objective", "gamma"]

    with pytest.raises(InvalidGammaError):
        sweep_gamma(4, 4, grid=(0.0, 0.5))
    with pytest.raises(InvalidGammaError):
        sweep_gamma(4, 4, grid=(0.5, 1.0))
    with pytest.raises(InvalidGammaError):
        sweep_gamma(4, 4, grid=())


def test_sweep_gamma_warns_on_unconverged_solves(caplog):
    caplog.set_level("WARNING", logger="hedgelab")
    sweep_gamma(10, 10, grid=(0.25, 0.5, 0.75))
    assert caplog.records == []
    rows = sweep_gamma(2, 3, grid=(1e-300,))
    assert [r.getMessage() for r in caplog.records] == [
        "sweep-gamma: weighted solve at gamma=1e-300 did not converge after 14 iterations"
    ]
    assert caplog.records[0].name == "hedgelab"
    assert rows[0]["x_bound"] > 1e7  # the row is still written as solved


def test_verify_bounds_hedge(tmp_path):
    cfg = ExperimentConfig(
        m=2,
        n=10,
        horizon=120,
        presets=("U-Social", "A-Social", "A-X-only"),
        out_dir=str(tmp_path),
    )
    checks = verify_bounds(cfg)
    assert all(c.passed for c in checks)
    kinds = {c.check for c in checks}
    assert kinds == {"upper[social]", "upper[reg_x]", "lower[reg_x]"}
    for c in checks:
        assert c.line().startswith("PASS ")
    assert (tmp_path / "verify_report.txt").read_text().count("PASS") == len(checks)


@pytest.mark.parametrize("algorithm", ["hedge", "averaged"])
def test_verify_bounds_hedge_takes_one_snapshot_per_match(tmp_path, monkeypatch, algorithm):
    # every check reads the final meter (the averaged gap checks its running
    # worst), so no per-round rows are built
    calls = []
    snapshot = RegretMeter.snapshot

    def counting_snapshot(self, *args, **kwargs):
        calls.append(self.rounds)
        return snapshot(self, *args, **kwargs)

    monkeypatch.setattr(RegretMeter, "snapshot", counting_snapshot)
    cfg = ExperimentConfig(
        m=2,
        n=6,
        horizon=80,
        presets=("U-Social", "A-Social"),
        algorithm=algorithm,
        out_dir=str(tmp_path),
    )
    verify_bounds(cfg)
    # one upper-bound match and one floor match per preset, each snapshotted at t = T
    assert calls == [80] * 4


@pytest.mark.parametrize("algorithm, presets", [("hedge", PRESETS), ("averaged", SOCIAL_PRESETS)])
def test_every_planned_match_is_one_full_play_match_call(tmp_path, monkeypatch, algorithm, presets):
    # benchmarks/tracing.py::_counted_play_match counts game.rounds by adding
    # horizon once per harness.play_match call, and benchmarks/run.py checks
    # that sum against presets x T; so every planned match, duplicates
    # included (U-MaxInd-Num's rates equal U-MaxInd-Cl's, and a tuned
    # instance with delta* = 1 equals the configured one), is one call that
    # plays the full horizon.
    horizons = []
    play_match = harness.play_match

    def counted(payoffs, players, horizon, observer):
        horizons.append(horizon)
        return play_match(payoffs, players, horizon, observer)

    monkeypatch.setattr(harness, "play_match", counted)
    cfg = ExperimentConfig(
        m=2, n=5, horizon=30, presets=presets, algorithm=algorithm, out_dir=str(tmp_path)
    )
    run_experiment(cfg)
    assert horizons == [cfg.horizon] * len(presets)
    horizons.clear()
    verify_bounds(cfg)
    assert horizons == [cfg.horizon] * (2 * len(presets))


def test_verify_report_is_recomputable(tmp_path):
    cfg = ExperimentConfig(
        m=2, n=6, horizon=80, presets=("U-Social",), out_dir=str(tmp_path)
    )
    verify_bounds(cfg)
    rows = read_csv(tmp_path / "verify_report.csv")
    assert rows[0] == ["check", "preset", "measured", "bound", "relation", "result"]
    for _, _, measured, bound, relation, result in rows[1:]:
        measured, bound = float(measured), float(bound)
        if relation == "<=":
            assert (measured <= bound) == (result == "PASS")
        else:
            assert (measured >= bound - 1e-9) == (result == "PASS")


def test_verify_bounds_averaged(tmp_path):
    cfg = ExperimentConfig(
        m=2,
        n=9,
        horizon=100,
        presets=("U-Social", "A-Social"),
        algorithm="averaged",
        out_dir=str(tmp_path),
    )
    checks = verify_bounds(cfg)
    assert all(c.passed for c in checks)
    kinds = [c.check for c in checks]
    assert kinds.count("upper[max_dreg]") == 2
    assert kinds.count("lower[dreg_x]") == 2
    assert "gap[2log(mn)]" in kinds
    assert "gap[plus-half]" in kinds and "gap[plus-4]" in kinds
    # the loose published constant never beats the tight one
    tight = next(c for c in checks if c.check == "gap[plus-half]")
    loose = next(c for c in checks if c.check == "gap[plus-4]")
    assert tight.bound < loose.bound
    assert tight.measured == loose.measured


def test_verify_averaged_gap_ignores_cadence(tmp_path):
    # the worst scaled gap is taken over every round, not every cadence-th
    rng = np.random.default_rng(4)
    m, n = 6, 9
    path = tmp_path / "game.txt"
    body = "\n".join(" ".join(repr(float(v)) for v in row) for row in rng.uniform(-1, 1, (m, n)))
    path.write_text(f"{m} {n}\n{body}\n")
    gaps = []
    for cadence in (1, 7):
        cfg = ExperimentConfig(
            m=m,
            n=n,
            horizon=300,
            instance="file",
            matrix_path=str(path),
            presets=("U-Social", "A-Social"),
            algorithm="averaged",
            out_dir=str(tmp_path / f"cadence{cadence}"),
            cadence=cadence,
        )
        checks = verify_bounds(cfg)
        gaps.append([(c.check, c.preset, c.measured) for c in checks if "gap[" in c.check])
    assert len(gaps[0]) == 3
    assert gaps[0] == gaps[1]


def test_verify_plans_every_floor_before_play(tmp_path, monkeypatch):
    floor_of = harness.external_regret_lower_bound
    rates, played = [], []

    def second_floor_fails(m, rate, horizon):
        rates.append(rate)
        if len(rates) == 2:
            raise ValueError("no floor for the second preset")
        return floor_of(m, rate, horizon)

    monkeypatch.setattr(harness, "external_regret_lower_bound", second_floor_fails)
    monkeypatch.setattr(harness, "play_match", lambda *args: played.append(args))
    out = tmp_path / "out"
    cfg = ExperimentConfig(m=2, n=6, horizon=40, presets=("U-Social", "A-Social"), out_dir=str(out))
    with pytest.raises(ValueError, match="second preset"):
        verify_bounds(cfg)
    assert played == []
    assert not out.exists()


def test_verify_bounds_averaged_rejects_uncovered_presets():
    cfg = ExperimentConfig(presets=("U-X-only",), algorithm="averaged")
    with pytest.raises(ConfigError):
        verify_bounds(cfg)


def test_gap_constants_match_formulas():
    from hedgelab.harness import _gap_constants

    ((label, const),) = _gap_constants("U-Social", 2, 10)
    assert label == "2log(mn)"
    assert const == pytest.approx(2.0 * math.log(20.0), rel=1e-14)
    (t_label, tight), (l_label, loose) = _gap_constants("A-Social", 2, 10000)
    m_log, n_log = math.log(2.0), math.log(10000.0)
    assert tight == pytest.approx(
        2.0 * math.sqrt(m_log * (n_log + 0.5)) + 2.0 * math.sqrt(n_log * (m_log + 0.5)),
        rel=1e-14,
    )
    assert loose == pytest.approx(
        2.0 * math.sqrt(m_log * (n_log + 4.0)) + 2.0 * math.sqrt(n_log * (m_log + 4.0)),
        rel=1e-14,
    )


def test_preset_rates_used_by_experiment_are_cached():
    first = preset_rates("A-MaxInd-Num", 4, 4)
    second = preset_rates("A-MaxInd-Num", 4, 4)
    assert first == second
