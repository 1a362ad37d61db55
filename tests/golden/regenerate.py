"""Golden outputs of the hedgelab CLI: run each call in runs.txt and hash it.

Usage, from the root of a source checkout:

    PYTHONPATH=src python3 tests/golden/regenerate.py [--check]

rewrites digests.json; with --check it rewrites nothing, prints the argv of
each run whose digest differs from digests.json, and exits 1 if any does.
Each call runs in-process in an empty directory that holds a copy of
signed_zero.txt, random_10x10.txt and random_2x1000.txt; its digest is the
SHA-256 of its argv, exit code, stdout and every file it writes. The bits
rest on numpy's and the BLAS's summation order, so digests.json also
records the numpy and BLAS versions it was made with. A change that alters
outputs on purpose reruns this script and says why in CHANGES.md;
tests/test_golden.py checks the digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from hedgelab.cli import main as cli_main

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs.txt"
DIGESTS = HERE / "digests.json"
INPUTS = tuple(HERE / f for f in ("signed_zero.txt", "random_10x10.txt", "random_2x1000.txt"))


def load_runs() -> list:
    """The CLI calls of runs.txt, one argv string per line."""
    lines = (line.strip() for line in RUNS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def versions() -> dict:
    """The numpy and BLAS versions the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def run_digest(argv: str, workdir: Path) -> str:
    """Run one CLI call in `workdir` (empty but for the inputs) and hash it."""
    for path in INPUTS:
        shutil.copy(path, workdir / path.name)
    before = set(workdir.rglob("*"))
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv.split())
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()

    def part(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    part(argv.encode())
    part(str(code).encode())
    part(stdout.getvalue().encode())
    for path in sorted(p for p in workdir.rglob("*") if p.is_file() and p not in before):
        part(path.relative_to(workdir).as_posix().encode())
        part(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    digests = {}
    for argv in load_runs():
        with tempfile.TemporaryDirectory() as tmp:
            digests[argv] = run_digest(argv, Path(tmp))
    if check:
        recorded = json.loads(DIGESTS.read_text())["runs"]
        changed = [argv for argv, digest in digests.items() if recorded.get(argv) != digest]
        for argv in changed:
            print(argv)
        print(f"{len(changed)} of {len(digests)} digests differ", file=sys.stderr)
        return 1 if changed else 0
    DIGESTS.write_text(json.dumps({**versions(), "runs": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
