import argparse
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hedgelab
from hedgelab.analysis import RegretMeter
from hedgelab.cli import _add_config_flags, _gather_config, main
from hedgelab.harness import CONFIG_KEYS, ExperimentConfig, build_config, load_config_file

RANDOM_10X10 = str(Path(__file__).parent / "golden" / "random_10x10.txt")


def test_rates_prints_preset_table(capsys):
    assert main(["rates", "U-Social", "--m", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "preset       U-Social" in out
    assert "target       social" in out
    assert "eta_x        5.000000000000000e-01" in out
    upper = 4.0 * math.log(2.0) + 1.0
    assert f"upper_bound  {upper:.15e}" in out


def test_rates_requires_action_counts():
    with pytest.raises(SystemExit) as exc:
        main(["rates", "U-Social", "--n", "4"])
    assert exc.value.code == 2


def test_rates_rejects_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        main(["rates", "Q-Social", "--m", "2", "--n", "2"])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["explain"])
    assert exc.value.code == 2


def test_simulate_writes_outputs(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--m", "2", "--n", "4", "--T", "30",
            "--preset", "U-Social",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "metrics_U-Social.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "U-Social: social=" in out
    assert "wrote 1 metric files" in out


def test_config_file_flags_take_precedence(tmp_path):
    game = tmp_path / "game.txt"
    game.write_text("2 3\n0 0.5 -0.5\n0.25 0 1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "instance=file\nmatrix_file=%s\nT=10\npresets=U-Social\nout=%s\n"
        % (tmp_path / "absent.txt", tmp_path)
    )
    argv = ["simulate", "--config", str(cfg), "--T", "25", "--preset", "A-Social"]
    rc = main(argv + ["--matrix-file", str(game)])
    assert rc == 0
    with open(tmp_path / "metrics_A-Social.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][0] == "25"
    assert not (tmp_path / "metrics_U-Social.csv").exists()


def test_simulate_config_error(tmp_path, capsys):
    rc = main(["simulate", "--delta", "2.0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")

    config = tmp_path / "run.cfg"
    config.write_text("T=5\nT=7\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: key 'T' given twice\n"
    assert not out.exists()

    config.write_text("instance=matching_pennies\nn=4\n")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: instance=matching_pennies takes its size from the game, not n\n"
    assert not out.exists()

    config.write_text(f"instance=file\nmatrix_file={RANDOM_10X10}\ndelta=0.3\n")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: instance=file takes no delta\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [
        ["--m", "abc"],
        ["--cadence", "0"],
        ["--algo", "bogus"],
        ["--preset", "U-Social,U-Social"],
        ["--instance", "matching_pennies", "--m", "9", "--n", "9"],
        ["--instance", "file", "--matrix-file", RANDOM_10X10, "--m", "5"],
        ["--instance", "file", "--matrix-file", RANDOM_10X10, "--delta", "0.3"],
        ["--instance", "matching_pennies", "--delta", "0.5"],
        ["--m", "2", "--n", "3", "--matrix-file", RANDOM_10X10],
    ],
)
def test_simulate_bad_flag_is_one_line_error(flag, tmp_path, capsys):
    assert main(["simulate", *flag, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cadence", [8, 7])
def test_simulate_snapshots_once_per_metric_row(cadence, tmp_path, monkeypatch):
    # rows every cadence rounds before T, each made once by the meter's
    # update of the block holding its round, then the final row by one
    # snapshot, whether or not the cadence divides T
    calls, snapshots = [], []
    snapshot, update = RegretMeter.snapshot, RegretMeter.update

    def counting_snapshot(self, *args, **kwargs):
        calls.append(self.rounds)
        snapshots.append(self.rounds)
        return snapshot(self, *args, **kwargs)

    def counting_update(self, *args, **kwargs):
        rows = update(self, *args, **kwargs)
        calls.extend(row["t"] for row in rows)
        return rows

    monkeypatch.setattr(RegretMeter, "snapshot", counting_snapshot)
    monkeypatch.setattr(RegretMeter, "update", counting_update)
    argv = ["simulate", "--m", "2", "--n", "6", "--T", "80", "--cadence", str(cadence)]
    assert main([*argv, "--preset", "U-Social,A-X-only", "--out", str(tmp_path)]) == 0
    written = []
    for preset in ("U-Social", "A-X-only"):
        with open(tmp_path / f"metrics_{preset}.csv", newline="") as fh:
            written += [int(row[0]) for row in list(csv.reader(fh))[1:]]
    assert calls == written and snapshots == [80, 80]
    assert written[-1] == 80 and len(written) == 2 * -(-80 // cadence)


# one value per config key, none of them its default; a key that one
# instance alone reads is given with that instance (SAMPLE_INSTANCE)
CONFIG_SAMPLES = {
    "m": "3",
    "n": "5",
    "T": "40",
    "delta": "0.5",
    "instance": "matching_pennies",
    "matrix_file": "game.txt",
    "presets": "U-Social,A-Social",
    "algo": "averaged",
    "out": "runs",
    "cadence": "7",
}
SAMPLE_INSTANCE = {"matrix_file": "file"}


def test_config_flag_and_file_values_parse_alike(tmp_path):
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    flag_of = {action.dest: action.option_strings[0] for action in parser._actions}
    assert set(CONFIG_SAMPLES) == set(CONFIG_KEYS)
    for key, text in CONFIG_SAMPLES.items():
        given = {key: text}
        if key in SAMPLE_INSTANCE:
            given["instance"] = SAMPLE_INSTANCE[key]
        path = tmp_path / f"{key}.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in given.items()))
        from_file = build_config(load_config_file(path))
        argv = [arg for k, v in given.items() for arg in (flag_of[k], v)]
        from_flag = build_config(_gather_config(parser.parse_args(argv)))
        assert from_file == from_flag != ExperimentConfig(), key


def test_verify_exits_zero_on_pass(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--m", "2", "--n", "5", "--T", "60",
            "--preset", "U-Social",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS upper[social] U-Social:" in out
    assert (tmp_path / "verify_report.csv").exists()


def test_sweep_gamma_cli(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    rc = main(
        ["sweep-gamma", "--m", "3", "--n", "3", "--gamma-grid", "0.3,0.7", "--out", str(out_file)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma=0.3:" in out and "max:" in out
    with open(out_file, newline="") as fh:
        assert len(list(csv.reader(fh))) == 4


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --m 3 --n 4 --T 20 --cadence 7 --out out",
        "simulate --m 3 --n 4 --T 20 --cadence 7 --algo averaged --out out",
        "verify --m 3 --n 4 --T 20 --out out",
        "verify --m 3 --n 4 --T 20 --algo averaged --preset U-Social,A-Social --out out",
        "sweep-gamma --m 3 --n 4 --out out/sweep.csv",
    ],
)
def test_every_csv_line_is_its_fields_joined_by_commas(argv, tmp_path, monkeypatch, capsys):
    # No field is quoted, so a label holding a comma, quote or line break
    # would corrupt the file: csv.reader must read each line as split on
    # commas, into one field per column.
    monkeypatch.chdir(tmp_path)
    main(argv.split())
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert paths
    for path in paths:
        text = path.read_bytes().decode()
        assert '"' not in text
        *lines, last = text.split("\r\n")
        assert last == "" and len(lines) > 1
        rows = [line.split(",") for line in lines]
        assert {len(row) for row in rows} == {len(rows[0])}
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == rows


def test_sweep_gamma_cli_bad_grid(capsys):
    assert main(["sweep-gamma", "--m", "2", "--n", "2", "--gamma-grid", "0.3,oops"]) == 2
    assert main(["sweep-gamma", "--m", "2", "--n", "2", "--gamma-grid", "0.5,1.0"]) == 2
    assert main(["sweep-gamma", "--m", "2", "--n", "3", "--gamma-grid", ","]) == 2
    assert main(["sweep-gamma", "--m", "2", "--n", "3", "--gamma-grid", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 4 and captured.err.count("\n") == 4
    assert "max:" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "A-Social", "--m", "1", "--n", "5"],
        ["sweep-gamma", "--m", "1", "--n", "5"],
        ["sweep-gamma", "--m", "0", "--n", "5"],
        ["rates", "U-Social", "--m", "abc", "--n", "3"],
        ["sweep-gamma", "--m", "x", "--n", "3"],
    ],
)
def test_bad_action_counts_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_unallocatable_size_is_usage_error(command, exc, message, tmp_path, monkeypatch, capsys):
    # exit 1 means a verify check failed, so a game too large to allocate
    # exits 2 with one line; the allocation itself is faked, since whether a
    # huge one fails at once depends on the host's overcommit mode
    def too_large(cfg):
        raise exc

    monkeypatch.setattr(hedgelab.harness, "instance_matrix", too_large)
    out = tmp_path / "out"
    assert main([command, "--m", "1000000", "--n", "1000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_missing_matrix_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    rc = main(
        ["simulate", "--instance", "file", "--matrix-file", str(missing), "--out", str(tmp_path)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


ONE_ROW = "1 5\n0.1 -0.2 0.3 0.4 -0.5\n"
ONE_COLUMN = "5 1\n0.1\n-0.2\n0.3\n0.4\n-0.5\n"


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("matrix", [ONE_ROW, ONE_COLUMN], ids=["1x5", "5x1"])
def test_single_action_game_fails_before_play(command, matrix, tmp_path, capsys):
    # the A-* presets and verify's floors need two actions a side, and the
    # run must say so before it plays a match or writes a file
    path = tmp_path / "game.txt"
    path.write_text(matrix)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--instance", "file", "--matrix-file", str(path), "--T", "20"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "(1, 5)" in err or "(5, 1)" in err
    assert not any(out.iterdir())


def test_matrix_check(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2 2\n0 1\n-1 0\n")
    assert main(["matrix-check", str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n-1 torn\n")
    assert main(["matrix-check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out


def test_module_entry_point():
    # The child must import the same hedgelab, installed or not.
    src = str(Path(hedgelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hedgelab", "rates", "A-Social", "--m", "2", "--n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "eta_x" in proc.stdout
