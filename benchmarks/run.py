#!/usr/bin/env python3
"""hedgelab benchmark: closed-loop CLI batches with checked outputs.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload compliance-small --seed 1 --seconds 58 --trace 0

One process per run drives `hedgelab.cli.main(argv)` through a workload's
batch of CLI calls (a pass) again and again for at most `--seconds`. Every
pass clears hedgelab's memo caches, so each does the work of one fresh CLI
process. `setup_s` is the median over several fresh processes that import
hedgelab and write the seed's matrix files. Every output is checked; a
failed check, a CLI exit code other than 0, or a CSV whose SHA-256 differs
from another pass or run of the same code and seed counts in `failed`.

End-to-end metrics: `wall_s` (first CLI call to last checked output of a
pass, the mean over the run's passes; see `mean_pass_s`), `throughput_per_s`
(match rounds per second on the match workloads, bound-surface solves per
second on planner-sweep), `setup_s` and `peak_rss_mb`. The share of failed
checks is `failed / attempted`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics from the traced ones
(medians over the traced passes; counts from the first, checked to repeat),
with `trace_overhead_frac` = mean traced pass / mean untraced pass - 1.

The last stdout line is the result object; the line before it names the
full record (machine, seed, pass times, digests, spans) written under
benchmarks/.work/results/.
"""

from __future__ import annotations

import os

# One BLAS thread for every run: at most nproc on any machine, and the same
# setting on both sides of a comparison. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 7

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HARNESS_HOOKS = (
    "harness.run_experiment",
    "harness.verify_bounds",
    "harness.sweep_gamma",
    "harness.run_metered",
)
PLAY = ("game.play_match",)
HEDGE_NEXT = ("learners.hedge.next_strategy",)
WRITE_CSV = ("harness.write_csv",)
MINIMIZE = ("optim.minimize",)

# Per-layer metric -> (unit, hooks without which its value is unknown).
PER_LAYER = {
    "cli.self_s": ("s", ()),
    "harness.self_s": ("s", HARNESS_HOOKS),
    "harness.write_csv.self_s": ("s", WRITE_CSV),
    "harness.csv_rows": ("count", WRITE_CSV),
    "harness.csv_bytes": ("B", WRITE_CSV),
    "game.play_match.calls": ("count", PLAY),
    "game.rounds": ("count", PLAY),
    "game.play_match.self_s": ("s", PLAY),
    "game.matvec_bytes_per_round.computed": ("B/round", PLAY),
    "game.load_matrix_file.s": ("s", ("game.load_matrix_file",)),
    "learners.hedge.next_strategy.calls": ("count", HEDGE_NEXT),
    "learners.hedge.next_strategy.self_s": ("s", HEDGE_NEXT),
    "learners.hedge.observe.calls": ("count", ("learners.hedge.observe",)),
    "learners.hedge.observe.self_s": ("s", ("learners.hedge.observe",)),
    "learners.averaged.next_strategy.self_s": ("s", ("learners.averaged.next_strategy",)),
    "learners.averaged.observe.self_s": ("s", ("learners.averaged.observe",)),
    "learners.underflow_frac": ("frac", HEDGE_NEXT),
    "analysis.meter.update.calls": ("count", ("analysis.meter.update",)),
    "analysis.meter.update.self_s": ("s", ("analysis.meter.update",)),
    "analysis.meter.snapshot.calls": ("count", ("analysis.meter.snapshot",)),
    "analysis.meter.snapshot.self_s": ("s", ("analysis.meter.snapshot",)),
    "rates.preset_rates.self_s": ("s", ("rates.preset_rates",)),
    "rates.theoretical_upper.self_s": ("s", ("rates.theoretical_upper",)),
    "optim.minimize.calls": ("count", MINIMIZE),
    "optim.minimize.self_s": ("s", MINIMIZE),
    "optim.iterations": ("count", MINIMIZE),
    "optim.unconverged": ("count", MINIMIZE),
    "optim.minimize_unaware.self_s": ("s", ("optim.minimize_unaware",)),
    "trace_overhead_frac": ("frac", ()),
}

# Counts must repeat exactly across passes and runs of one code and seed.
COUNT_METRICS = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B", "B/round") or name == "learners.underflow_frac"
)


def fail(message: str) -> NoReturn:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import hedgelab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "hedgelab" / "__init__.py").is_file():
        fail(f"no hedgelab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hedgelab
    import hedgelab.cli

    if Path(hedgelab.__file__).resolve().parent != (SRC / "hedgelab").resolve():
        fail(f"imported hedgelab from {hedgelab.__file__}, not from {SRC}")
    return hedgelab.cli


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "hedgelab", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def write_matrices(workload, mdir: Path) -> None:
    mdir.mkdir(parents=True, exist_ok=True)
    for name, a in workload.matrices.items():
        workloads.write_matrix_file(mdir / name, a)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    import numpy as np

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Checks and passes
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def clear_memo_caches() -> None:
    """Drop hedgelab's functools caches, as a fresh CLI process would start."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "hedgelab":
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def csv_digests(pass_dir: Path) -> dict:
    return {
        str(p.relative_to(pass_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pass_dir.rglob("*.csv"))
    }


def run_pass(cli, workload, pass_dir: Path, check, tracer=None):
    """One pass over the workload's CLI calls; returns (wall_s, digests).

    The clock runs from the first CLI call to the last checked output.
    """
    pass_dir.mkdir(parents=True)
    clear_memo_caches()
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        t0 = time.perf_counter()
        for call in workload.calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            label = " ".join(call.argv)
            main = cli.main
            if tracer is not None:
                main = tracer.wrap("cli.main", main, coarse=True)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed check, not a failed run
                code = "exception: " + traceback.format_exc(limit=3)
            check(f"exit code of {label}", code == 0, f"{code!r} {stderr.getvalue()[-300:]}")
            if code == 0:
                try:
                    workloads.check_call(call, pass_dir, stdout.getvalue(), check)
                except (OSError, KeyError, ValueError) as exc:
                    check(f"outputs of {label}", False, repr(exc))
        digests = csv_digests(pass_dir)
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    shutil.rmtree(pass_dir)
    return wall, digests


def mean_pass_s(walls: list) -> float:
    """The run's pass time: its measured time over its number of passes.

    On a shared host a pass's time swings widely and about evenly either way,
    seldom by one lone outlier, so the mean of a run's passes varies less
    from run to run than their median does.
    """
    return statistics.fmean(walls)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass; None marks a hook that is absent."""
    c = tracer.counters
    rounds = c["rounds"]
    # The harness's per-round observer callback is harness code too.
    harness_self = sum(tracer.self_s(k) for k in HARNESS_HOOKS + ("harness.observer",))
    values = {
        "cli.self_s": tracer.self_s("cli.main"),
        "harness.self_s": harness_self,
        "harness.write_csv.self_s": tracer.self_s("harness.write_csv"),
        "harness.csv_rows": c["csv_rows"],
        "harness.csv_bytes": c["csv_bytes"],
        "game.play_match.calls": tracer.calls("game.play_match"),
        "game.rounds": rounds,
        "game.play_match.self_s": tracer.self_s("game.play_match"),
        "game.matvec_bytes_per_round.computed": c["matvec_bytes"] / rounds if rounds else 0.0,
        "game.load_matrix_file.s": tracer.self_s("game.load_matrix_file"),
        "learners.hedge.next_strategy.calls": tracer.calls("learners.hedge.next_strategy"),
        "learners.hedge.next_strategy.self_s": tracer.self_s("learners.hedge.next_strategy"),
        "learners.hedge.observe.calls": tracer.calls("learners.hedge.observe"),
        "learners.hedge.observe.self_s": tracer.self_s("learners.hedge.observe"),
        "learners.averaged.next_strategy.self_s": tracer.self_s("learners.averaged.next_strategy"),
        "learners.averaged.observe.self_s": tracer.self_s("learners.averaged.observe"),
        "learners.underflow_frac": (
            c["underflow_entries"] / c["strategy_entries"] if c["strategy_entries"] else 0.0
        ),
        "analysis.meter.update.calls": tracer.calls("analysis.meter.update"),
        "analysis.meter.update.self_s": tracer.self_s("analysis.meter.update"),
        "analysis.meter.snapshot.calls": tracer.calls("analysis.meter.snapshot"),
        "analysis.meter.snapshot.self_s": tracer.self_s("analysis.meter.snapshot"),
        "rates.preset_rates.self_s": tracer.self_s("rates.preset_rates"),
        "rates.theoretical_upper.self_s": tracer.self_s("rates.theoretical_upper"),
        "optim.minimize.calls": tracer.calls("optim.minimize"),
        "optim.minimize.self_s": tracer.self_s("optim.minimize"),
        "optim.iterations": c["optim_iterations"],
        "optim.unconverged": c["optim_unconverged"],
        "optim.minimize_unaware.self_s": tracer.self_s("optim.minimize_unaware"),
    }
    for name, (_, hooks) in PER_LAYER.items():
        if any(h in tracer.absent for h in hooks):
            values[name] = None
    return values


# ---------------------------------------------------------------------------
# Setup time
# ---------------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int, mdir: Path) -> None:
    """Child-process body: import hedgelab and write the seed's matrix files."""
    import_cli()
    write_matrices(workloads.WORKLOADS[workload_name](seed, str(mdir)), mdir)


def measure_setup(workload_name: str, seed: int, run_dir: Path):
    """Wall times of fresh processes that start, import hedgelab and write the
    seed's matrix files, up to where the first CLI call would be made."""
    times = []
    for k in range(SETUP_PROBES):
        mdir = run_dir / f"probe{k}"
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload_name, "--seed", str(seed), "--seconds", "0",
            "--matrix-dir", str(mdir),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.decode()[-500:]}")
        shutil.rmtree(mdir)
    return times


# ---------------------------------------------------------------------------
# Ledger: what earlier runs of the same code and seed produced
# ---------------------------------------------------------------------------


def check_ledger(key: str, record: dict, check) -> None:
    path = WORK / "ledger" / f"{key}.json"
    previous = json.loads(path.read_text()) if path.is_file() else {}
    for field in ("digests", "counts"):
        now, before = record.get(field), previous.get(field)
        if now is None:
            continue
        if before is None:
            previous[field] = now
            continue
        for name, value in now.items():
            check(f"{field}[{name}] repeats across runs", before.get(name) == value,
                  f"{value!r} != {before.get(name)!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(previous, indent=1, sort_keys=True))
    tmp.replace(path)


def compare_passes(label: str, items: list, check) -> None:
    """Every pass must match the first one exactly."""
    for i, item in enumerate(items[1:], start=2):
        for name, value in items[0].items():
            check(f"{label}[{name}] pass {i} equals pass 1", item.get(name) == value,
                  f"{item.get(name)!r} != {value!r}")


def measure(cli, workload, run_dir: Path, seconds: float, trace: int, check):
    """Run whole passes for at most `seconds` (at least one); with `trace`,
    each untraced pass is followed by a traced one. Returns the untraced and
    traced wall times, every pass's CSV digests, and each traced pass's
    layer values and tracer."""
    untraced, traced, digests, layer_passes, tracers = [], [], [], [], []
    start = time.perf_counter()
    while True:
        wall, dig = run_pass(cli, workload, run_dir / f"pass{len(digests)}", check)
        untraced.append(wall)
        digests.append(dig)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall, dig = run_pass(
                    cli, workload, run_dir / f"pass{len(digests)}", check, tracer
                )
            finally:
                tracer.uninstall()
            traced.append(wall)
            digests.append(dig)
            layer_passes.append(layer_metrics(tracer))
            tracers.append(tracer)
        # Start another round only if it should end by `seconds`, so a run
        # never lasts much longer than `seconds` whatever a pass costs.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced, digests, layer_passes, tracers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--matrix-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.matrix_dir))
        return 0

    cli = import_cli()
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_times = measure_setup(args.workload, args.seed, run_dir)
        mdir = run_dir / "matrices"
        workload = workloads.WORKLOADS[args.workload](args.seed, str(mdir))
        write_matrices(workload, mdir)

        check = Checks()
        untraced, traced, digests, layer_passes, tracers = measure(
            cli, workload, run_dir, args.seconds, args.trace, check
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    compare_passes("digest", digests, check)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "code_sha256": code_digest(),
        "machine": machine_record(),
        "planned": {"rounds": workload.rounds, "solves": workload.solves,
                    "cli_calls": len(workload.calls)},
        "setup_s": setup_times,
        "untraced_wall_s": untraced,
        "digests": digests[0],
    }
    wall_s = mean_pass_s(untraced)
    if args.trace:
        counts = [{n: p[n] for n in COUNT_METRICS} for p in layer_passes]
        compare_passes("count", counts, check)
        check("game.rounds equals the planned rounds",
              counts[0]["game.rounds"] in (None, workload.rounds),
              f"{counts[0]['game.rounds']} != {workload.rounds}")
        record["counts"] = counts[0]
        record["traced_wall_s"] = traced
        record["absent"] = tracers[0].absent
        origin = tracers[0].spans[0][3] if tracers[0].spans else 0.0
        record["spans"] = [[i, name, parent, start - origin, end - origin]
                           for i, name, parent, start, end in tracers[0].spans]
        record["hook_stats"] = tracers[0].stats
        values = {}
        for name in PER_LAYER:
            if name == "trace_overhead_frac":
                values[name] = mean_pass_s(traced) / wall_s - 1.0
            elif name in COUNT_METRICS:
                values[name] = layer_passes[0][name]
            else:
                samples = [layer[name] for layer in layer_passes]
                values[name] = None if None in samples else statistics.median(samples)
        metrics = {}
        for name, value in values.items():
            unit, hooks = PER_LAYER[name]
            metrics[name] = {"value": value, "unit": unit}
            if value is None:
                notes = [tracers[0].absent[h] for h in hooks if h in tracers[0].absent]
                metrics[name]["note"] = "absent: " + "; ".join(notes)
    else:
        work = workload.rounds or workload.solves
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "throughput_per_s": {"value": work / wall_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    ledger_key = f"{record['code_sha256'][:16]}-{args.workload}-{args.seed}"
    check_ledger(ledger_key, record, check)

    record["attempted"] = check.attempted
    record["failures"] = check.failures
    record["metrics"] = metrics
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    for failure in check.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": str(out.relative_to(ROOT)), "seed": args.seed,
                      "machine": record["machine"]}))
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
