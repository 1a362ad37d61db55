"""Command-line front end.

Exit codes: 0 on success (and all-PASS for verify/matrix-check), 1 when any
verification check fails or matrix-check finds the file invalid, 2 on usage
or configuration errors. Any other command given bad input, such as action
counts below 2 or a missing or malformed --matrix-file, prints one
"error: ..." line and exits 2.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .game import load_matrix_file
from .harness import (
    ALGORITHMS,
    CONFIG_KEYS,
    INSTANCES,
    _parse,
    build_config,
    load_config_file,
    run_experiment,
    sweep_gamma,
    verify_bounds,
)
from .rates import PRESETS, PRESET_TARGETS, preset_rates, theoretical_upper


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Flags for the config keys; values stay strings for build_config."""
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--m", help="row player's action count")
    parser.add_argument("--n", help="column player's action count")
    parser.add_argument("--T", help="number of rounds")
    parser.add_argument("--delta", help="adversarial instance gap")
    parser.add_argument("--instance", help=f"one of {', '.join(INSTANCES)}")
    parser.add_argument("--matrix-file", dest="matrix_file", help="path for instance=file")
    parser.add_argument("--preset", dest="presets", help="comma-separated preset names or 'all'")
    parser.add_argument("--algo", help=f"one of {', '.join(ALGORITHMS)}")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--cadence", help="simulate: one metric row per k rounds; verify ignores it"
    )


def _gather_config(args) -> dict:
    """Config file values, overridden by every flag given; each flag's dest
    is its config key."""
    values = load_config_file(args.config) if args.config else {}
    values.update((k, getattr(args, k)) for k in CONFIG_KEYS if getattr(args, k) is not None)
    return values


def _cmd_rates(args) -> int:
    m, n = _parse("m", args.m), _parse("n", args.n)
    rp = preset_rates(args.preset, m, n)
    upper = theoretical_upper(args.preset, m, n)
    print(f"preset       {args.preset}")
    print(f"target       {PRESET_TARGETS[args.preset]}")
    print(f"eta_x        {rp.eta_x:.15e}")
    print(f"eta_y        {rp.eta_y:.15e}")
    print(f"c_x          {rp.c_x:.15e}")
    print(f"c_y          {rp.c_y:.15e}")
    print(f"upper_bound  {upper:.15e}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = build_config(_gather_config(args))
    summary = run_experiment(cfg)
    for row in summary:
        bound = row["theoretical_upper"]
        bound_txt = f"{bound:.9g}" if bound != "" else "n/a"
        print(
            f"{row['preset']}: {row['target_metric']}={row['measured_target']:.9g} "
            f"bound={bound_txt}"
        )
    print(f"wrote {len(summary)} metric files + summary.csv under {cfg.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    grid = None
    if args.gamma_grid is not None:
        try:
            grid = tuple(float(v) for v in args.gamma_grid.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"gamma-grid must be comma-separated reals, got {args.gamma_grid!r}")
    m, n = _parse("m", args.m), _parse("n", args.n)
    rows = sweep_gamma(m, n, grid=grid, out_path=args.out)
    for row in rows:
        tag = f"gamma={row['gamma']}" if row["objective"] == "weighted" else "max"
        print(f"{tag}: x_bound={row['x_bound']:.9g} y_bound={row['y_bound']:.9g}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cfg = build_config(_gather_config(args))
    checks = verify_bounds(cfg)
    for c in checks:
        print(c.line())
    print(f"wrote verify_report.csv and verify_report.txt under {cfg.out_dir}")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_matrix_check(args) -> int:
    try:
        payoffs = load_matrix_file(args.file)
    except (ValueError, OSError) as exc:
        print(f"FAIL {args.file}: {exc}")
        return 1
    print(f"PASS {args.file}: {payoffs.m} x {payoffs.n} matrix, entries in [-1, 1]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hedgelab",
        description="Optimistic Hedge dynamics in zero-sum matrix games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="print a preset's rates and bound")
    p_rates.add_argument("preset", choices=PRESETS)
    p_rates.add_argument("--m", required=True)
    p_rates.add_argument("--n", required=True)

    p_sim = sub.add_parser("simulate", help="run presets and write metric CSVs")
    _add_config_flags(p_sim)

    p_sweep = sub.add_parser("sweep-gamma", help="tradeoff sweep over bound weights")
    p_sweep.add_argument("--m", required=True)
    p_sweep.add_argument("--n", required=True)
    p_sweep.add_argument("--gamma-grid", dest="gamma_grid", help="comma-separated weights")
    p_sweep.add_argument("--out", help="CSV output path")

    p_verify = sub.add_parser("verify", help="check measured regrets against bounds")
    _add_config_flags(p_verify)

    p_check = sub.add_parser("matrix-check", help="validate a matrix file")
    p_check.add_argument("file")

    args = parser.parse_args(argv)
    handlers = {
        "rates": _cmd_rates,
        "simulate": _cmd_simulate,
        "sweep-gamma": _cmd_sweep,
        "verify": _cmd_verify,
        "matrix-check": _cmd_matrix_check,
    }
    try:
        return handlers[args.command](args)
    # Every hedgelab.errors class is a ValueError; OSError covers unreadable files.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
