"""The benchmark's workloads: seeded inputs, CLI call plans and output checks.

Each workload is a closed-loop batch: one caller runs its CLI calls one after
another, each starting when the previous one returns. Random games reach the
program only as matrix files written here from the workload seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HORIZON = 2000
ALL_PRESETS = 8


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its outputs must look like.

    `out` is the output directory (simulate/verify) or CSV path (sweep-gamma)
    relative to the pass directory; `rounds` and `solves` are the match rounds
    and bound-surface solves the call performs, known from the plan.
    """

    kind: str
    argv: tuple
    out: str | None = None
    rounds: int = 0
    solves: int = 0
    report_lines: int = 0
    presets: int = 0
    cadence: int = 1
    grid: tuple = ()


@dataclass
class Workload:
    name: str
    matrices: dict = field(default_factory=dict)  # file name -> ndarray
    calls: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return sum(c.rounds for c in self.calls)

    @property
    def solves(self) -> int:
        return sum(c.solves for c in self.calls)


def _random_matrix(rng, m: int, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (m, n))


def write_matrix_file(path: Path, a: np.ndarray) -> None:
    """Matrix file format: an 'm n' header, then one line of n reals per row.

    '.17g' round-trips every float64, so the loaded matrix equals `a`.
    """
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in a.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _verify(out, m, n, *, rounds_per_preset, presets, report_lines, extra=()):
    argv = ("verify", "--T", str(HORIZON), "--out", out, *extra)
    if m is not None:
        argv += ("--m", str(m), "--n", str(n))
    return Call(
        "verify",
        argv,
        out=out,
        rounds=rounds_per_preset * presets * HORIZON,
        report_lines=report_lines,
        presets=presets,
    )


def compliance_small(seed: int, mdir: str) -> Workload:
    # The C2 shape: many short matches at small sizes, where per-round Python
    # overhead dominates. The random games keep every weight normal.
    rng = np.random.default_rng([seed, 1])
    w = Workload("compliance-small")
    for m, n in ((10, 10), (100, 100)):
        w.calls.append(
            _verify(
                f"verify_{m}x{n}",
                m,
                n,
                rounds_per_preset=2,
                presets=ALL_PRESETS,
                report_lines=2 * ALL_PRESETS,
                extra=("--instance", "adversarial", "--delta", "1", "--preset", "all"),
            )
        )
        for k in range(4):
            name = f"random_{m}x{n}_{k}.txt"
            w.matrices[name] = _random_matrix(rng, m, n)
            out = f"simulate_{m}x{n}_{k}"
            argv = (
                "simulate", "--instance", "file", "--matrix-file", f"{mdir}/{name}",
                "--T", str(HORIZON), "--cadence", str(HORIZON), "--preset", "all",
                "--out", out,
            )
            w.calls.append(
                Call("simulate", argv, out=out, rounds=ALL_PRESETS * HORIZON,
                     presets=ALL_PRESETS, cadence=HORIZON)
            )
    return w


def flagship(seed: int, mdir: str) -> Workload:
    # Wide vectors: exp over 1e4 entries dominates and a quarter of the
    # strategy entries underflow to 0. Only workload writing per-round CSVs
    # and running the averaged learner.
    rng = np.random.default_rng([seed, 2])
    w = Workload("flagship-2x10000")
    w.matrices["random_2x10000.txt"] = _random_matrix(rng, 2, 10000)
    argv = (
        "simulate", "--m", "2", "--n", "10000", "--T", str(HORIZON),
        "--instance", "adversarial", "--out", "simulate_adversarial",
    )
    w.calls.append(
        Call("simulate", argv, out="simulate_adversarial", rounds=ALL_PRESETS * HORIZON,
             presets=ALL_PRESETS, cadence=1)
    )
    w.calls.append(
        _verify(
            "verify_random",
            None,
            None,
            rounds_per_preset=2,
            presets=ALL_PRESETS,
            report_lines=2 * ALL_PRESETS,
            extra=("--instance", "file", "--matrix-file", f"{mdir}/random_2x10000.txt"),
        )
    )
    # Averaged verify: upper + lower per preset, plus one gap check for
    # U-Social and two for A-Social.
    w.calls.append(
        _verify(
            "verify_averaged",
            2,
            10000,
            rounds_per_preset=2,
            presets=2,
            report_lines=3 + 4,
            extra=("--algo", "averaged", "--preset", "U-Social,A-Social"),
        )
    )
    return w


DEFAULT_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
MINMAX_RTOL = 1e-9
SHORT_GRID = (0.25, 0.5, 0.75)


def planner_sweep(seed: int, mdir: str) -> Workload:
    # No match is played: the optimizer's solves are the whole cost, and most
    # weighted solves run out their iteration budget. The inputs are fixed
    # sizes, so the seed does not change them.
    w = Workload("planner-sweep")
    for m, n, grid in ((100, 100, None), (2, 10000, SHORT_GRID), (10000, 10000, SHORT_GRID)):
        out = f"sweep_{m}x{n}.csv"
        argv = ("sweep-gamma", "--m", str(m), "--n", str(n), "--out", out)
        if grid is not None:
            argv += ("--gamma-grid", ",".join(str(g) for g in grid))
        grid = grid or DEFAULT_GRID
        w.calls.append(Call("sweep", argv, out=out, solves=len(grid) + 1, grid=grid))
    w.calls.append(Call("rates", ("rates", "U-MaxInd-Num", "--m", "10", "--n", "10"), solves=1))
    w.calls.append(Call("rates", ("rates", "A-MaxInd-Num", "--m", "2", "--n", "10000"), solves=1))
    return w


WORKLOADS = {
    "compliance-small": compliance_small,
    "flagship-2x10000": flagship,
    "planner-sweep": planner_sweep,
}


# ---------------------------------------------------------------------------
# Output checks. Each `check(name, ok, detail)` call is one attempted check.
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _metric_rows(horizon: int, cadence: int) -> int:
    return horizon // cadence + (1 if horizon % cadence else 0)


def check_simulate(call: Call, out: Path, check) -> None:
    rows = _read_csv(out / "summary.csv")
    check(f"{call.out}: summary rows", len(rows) == call.presets, f"{len(rows)} rows")
    expected = _metric_rows(HORIZON, call.cadence)
    for row in rows:
        preset = row["preset"]
        measured = float(row["measured_target"])
        bound = float(row["theoretical_upper"])
        check(
            f"{call.out}: {preset} measured_target < theoretical_upper",
            measured < bound,
            f"{measured!r} vs {bound!r}",
        )
        with open(out / f"metrics_{preset}.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        check(f"{call.out}: {preset} metric rows", n_rows == expected, f"{n_rows} != {expected}")


def check_verify(call: Call, out: Path, check) -> None:
    lines = (out / "verify_report.txt").read_text().splitlines()
    check(f"{call.out}: report lines", len(lines) == call.report_lines, f"{len(lines)} lines")
    for line in lines:
        check(f"{call.out}: {line}", line.startswith("PASS "), line)


def check_sweep(call: Call, out: Path, check) -> None:
    rows = _read_csv(out)
    weighted = [r for r in rows if r["objective"] == "weighted"]
    minmax = [r for r in rows if r["objective"] == "max"]
    check(
        f"{call.out}: rows",
        len(weighted) == len(call.grid) and len(minmax) == 1,
        f"{len(weighted)} weighted, {len(minmax)} max",
    )
    gammas = [float(r["gamma"]) for r in weighted]
    check(f"{call.out}: grid", gammas == list(call.grid), str(gammas))
    xs = [float(r["x_bound"]) for r in weighted]
    ys = [float(r["y_bound"]) for r in weighted]
    # More weight on x can only lower x's optimal bound and raise y's.
    # Same slack as the optimizer's own monotone-tradeoff test.
    for i in range(1, len(weighted)):
        check(f"{call.out}: x_bound monotone at gamma={gammas[i]}", xs[i] <= xs[i - 1] + 1e-6,
              f"{xs[i]!r} > {xs[i - 1]!r}")
        check(f"{call.out}: y_bound monotone at gamma={gammas[i]}", ys[i] >= ys[i - 1] - 1e-6,
              f"{ys[i]!r} < {ys[i - 1]!r}")
    if minmax:
        # The min-max and weighted solves stop at different points of their
        # own tolerance; at the balanced weight of a square game they reach
        # the same optimum and differ by ~4e-10 relative.
        value = float(minmax[0]["max_bound"])
        for g, r in zip(gammas, weighted):
            other = float(r["max_bound"])
            check(f"{call.out}: min-max <= max_bound at gamma={g}",
                  value <= other * (1.0 + MINMAX_RTOL), f"{value!r} > {other!r}")


def parse_rates(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        values[key] = value.strip()
    return values


def aware_maxind_closed_form(m: int, n: int) -> float:
    """A-MaxInd-Cl's bound, (20/3)(sqrt(log m (log n + 1/2)) + sqrt((log m + 1/2) log n))."""
    lm, ln = math.log(m), math.log(n)
    return (20.0 / 3.0) * (math.sqrt(lm * (ln + 0.5)) + math.sqrt((lm + 0.5) * ln))


def unaware_maxind_closed_form(m: int, n: int) -> float:
    """Size-unaware max-individual bound, 3 sqrt(3) (log m + log n) + 1/sqrt(3)."""
    return 3.0 * math.sqrt(3.0) * (math.log(m) + math.log(n)) + 1.0 / math.sqrt(3.0)


def check_rates(call: Call, stdout: str, check) -> None:
    preset, m, n = call.argv[1], int(call.argv[3]), int(call.argv[5])
    v = parse_rates(stdout)
    try:
        eta_x, eta_y = float(v["eta_x"]), float(v["eta_y"])
        c_x, c_y = float(v["c_x"]), float(v["c_y"])
        upper = float(v["upper_bound"])
    except (KeyError, ValueError):
        check(f"rates {preset}: output parses", False, stdout[:200])
        return
    check(f"rates {preset}: rates positive", eta_x > 0 and eta_y > 0, f"{eta_x!r}, {eta_y!r}")
    check(f"rates {preset}: splits in (0, 1]", 0 < c_x <= 1 and 0 < c_y <= 1, f"{c_x!r}, {c_y!r}")
    if preset == "A-MaxInd-Num":
        cl = aware_maxind_closed_form(m, n)
        check(f"rates {preset}: bound <= A-MaxInd-Cl", upper <= cl, f"{upper!r} > {cl!r}")
    else:
        cf = unaware_maxind_closed_form(m, n)
        check(f"rates {preset}: bound matches closed form",
              abs(upper - cf) <= 1e-12 * cf, f"{upper!r} vs {cf!r}")


def check_call(call: Call, pass_dir: Path, stdout: str, check) -> None:
    if call.kind == "simulate":
        check_simulate(call, pass_dir / call.out, check)
    elif call.kind == "verify":
        check_verify(call, pass_dir / call.out, check)
    elif call.kind == "sweep":
        check_sweep(call, pass_dir / call.out, check)
    else:
        check_rates(call, stdout, check)
