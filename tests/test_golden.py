"""Golden outputs: every CLI call in tests/golden/runs.txt gives the bytes
recorded in tests/golden/digests.json (argv, exit code, stdout and written
files). Rerun tests/golden/regenerate.py only when outputs change on purpose."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORD = json.loads(regenerate.DIGESTS.read_text())


def test_digests_cover_the_run_list():
    assert list(RECORD["runs"]) == regenerate.load_runs()


@pytest.mark.parametrize("argv", regenerate.load_runs())
def test_golden_output(argv, tmp_path):
    made_with = {key: RECORD[key] for key in ("numpy", "blas")}
    here = regenerate.versions()
    if here != made_with:
        pytest.skip(f"digests were made with {made_with}; this run has {here}")
    assert regenerate.run_digest(argv, tmp_path) == RECORD["runs"][argv]


def test_check_names_changed_runs_and_rewrites_nothing(tmp_path, monkeypatch, capsys):
    runs = ["rates U-Social --m 7 --n 5", "rates A-Social --m 7 --n 5"]
    made = {}
    for i, argv in enumerate(runs):
        (tmp_path / str(i)).mkdir()
        made[argv] = regenerate.run_digest(argv, tmp_path / str(i))
    record = {"numpy": "", "blas": "", "runs": {**made, runs[1]: "0" * 64}}
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(record))
    monkeypatch.setattr(regenerate, "DIGESTS", digests)
    monkeypatch.setattr(regenerate, "load_runs", lambda: runs)
    monkeypatch.setattr("sys.argv", ["regenerate.py", "--check"])
    assert regenerate.main() == 1
    assert capsys.readouterr().out == runs[1] + "\n"
    assert json.loads(digests.read_text()) == record
    record["runs"] = made
    digests.write_text(json.dumps(record))
    assert regenerate.main() == 0
    assert capsys.readouterr().out == ""
