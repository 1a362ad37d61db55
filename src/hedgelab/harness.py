"""Batch experiment driver: preset matches, CSV emission, tradeoff sweeps,
and bound-verification reports.

Everything here is deterministic: fixed column orders, sequential evaluation,
floats printed as %.15e, no timestamps, so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path

from .analysis import (
    METRIC_COLUMNS,
    RegretMeter,
    dynamic_regret_lower_bound,
    external_regret_lower_bound,
)
from .errors import ConfigError, InvalidGammaError, content_lines, require_count, require_real
from .game import PayoffMatrix, adversarial_matrix, load_matrix_file, matching_pennies, play_match
from .learners import AveragedHedge, OptimisticHedge
from .optim import BoundInputs, minimize, warn_unconverged
from .rates import PRESET_TARGETS, PRESETS, SOCIAL_PRESETS, preset_rates, theoretical_upper

# A metric row as one CSV line: the bytes csv.writer writes for the row's
# _fmt fields, since t is an int, the rest are floats, and no field needs
# quoting.
_METRIC_LINE = "%d" + ",%.15e" * (len(METRIC_COLUMNS) - 1) + "\r\n"
_metric_values = itemgetter(*METRIC_COLUMNS)
SUMMARY_COLUMNS = (
    "preset", "target_metric", "measured_target", "theoretical_upper", *METRIC_COLUMNS[1:]
)
SWEEP_COLUMNS = (
    "objective",
    "gamma",
    "x_bound",
    "y_bound",
    "weighted_bound",
    "max_bound",
    "eta_x",
    "eta_y",
    "c_x",
    "c_y",
)
VERIFY_COLUMNS = ("check", "preset", "measured", "bound", "relation", "result")

# Slack granted to measured-vs-floor comparisons, covering float summation drift.
LOWER_SLACK = 1e-9

INSTANCES = ("adversarial", "matching_pennies", "file")
ALGORITHMS = ("hedge", "averaged")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one simulate/verify run; a bad field raises ConfigError."""

    m: int = 2
    n: int = 100
    horizon: int = 2000
    instance: str = "adversarial"
    delta: float = 1.0
    matrix_path: str | None = None
    presets: tuple = PRESETS
    algorithm: str = "hedge"
    out_dir: str = "results"
    cadence: int = 1

    def __post_init__(self):
        # Each field has its default's type. The counts are >= 1 (verify's
        # floors and the averaged dynamic's bound need at least one round),
        # delta, the one real field, lies in (0, 1], and matrix_path may
        # stay None.
        for f in fields(self):
            key, value, kind = _KEY_OF.get(f.name, f.name), getattr(self, f.name), type(f.default)
            if kind is int:
                require_count(key, value, 1, ConfigError)
            elif kind is float:
                require_real(key, value, "(0, 1]", ConfigError)
            elif kind is tuple:
                if not (isinstance(value, tuple) and all(isinstance(p, str) for p in value)):
                    raise ConfigError(f"{key} must be a tuple of preset names, got {value!r}")
            elif not (isinstance(value, str) or (value is None and f.default is None)):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        for key, value, choices in (
            ("instance", self.instance, INSTANCES),
            ("algo", self.algorithm, ALGORITHMS),
        ):
            if value not in choices:
                raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        if not self.presets:
            raise ConfigError("presets must name at least one preset")
        for i, p in enumerate(self.presets):
            if p not in PRESETS:
                raise ConfigError(f"unknown preset {p!r}")
            if p in self.presets[:i]:
                raise ConfigError(f"preset {p!r} is named twice")
        if self.instance == "file" and not self.matrix_path:
            raise ConfigError("instance=file needs matrix_file")
        if self.instance == "adversarial" and (self.m < 2 or self.n < 2):
            raise ConfigError(
                f"adversarial instance needs m >= 2 and n >= 2, got ({self.m}, {self.n})"
            )


# The config keys (and CLI flag dests) named apart from their field; every
# other field is a config key under its own name.
_KEY_OF = {"horizon": "T", "matrix_path": "matrix_file", "algorithm": "algo", "out_dir": "out"}
_FIELD_OF = {_KEY_OF.get(f.name, f.name): f for f in fields(ExperimentConfig)}
CONFIG_KEYS = tuple(_FIELD_OF)
# The config keys that only one instance reads, and that instance.
_INSTANCE_OF = dict(m="adversarial", n="adversarial", delta="adversarial", matrix_file="file")


def load_config_file(path) -> dict:
    """Flat key=value file, read by errors.content_lines (UTF-8, '#'
    comments, blank lines skipped)."""
    values = {}
    for lineno, line in content_lines(path):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        values[key] = value
    return values


def _parse(key: str, text: str):
    """A config key's string value, typed as its ExperimentConfig default;
    text that does not convert is handed on as is, for the number rule to
    name."""
    kind = type(_FIELD_OF[key].default)
    if kind is tuple:
        return PRESETS if text == "all" else tuple(p.strip() for p in text.split(",") if p.strip())
    if kind in (int, float):
        with suppress(ValueError):
            return kind(text)
    return text


def build_config(values: dict) -> ExperimentConfig:
    """Checked config from raw string values (file contents and/or CLI flags);
    a key not given keeps its ExperimentConfig default. A key that only
    another instance reads (_INSTANCE_OF) is rejected."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {_FIELD_OF[key].name: _parse(key, text) for key, text in values.items()}
    cfg = ExperimentConfig(**kwargs)
    for key, instance in _INSTANCE_OF.items():
        if key in values and instance != cfg.instance:
            why = "takes its size from the game, not" if key in ("m", "n") else "takes no"
            raise ConfigError(f"instance={cfg.instance} {why} {key}")
    return cfg


def instance_matrix(cfg: ExperimentConfig) -> PayoffMatrix:
    if cfg.instance == "adversarial":
        return adversarial_matrix(cfg.m, cfg.n, cfg.delta)
    if cfg.instance == "matching_pennies":
        return matching_pennies()
    return load_matrix_file(cfg.matrix_path)


def run_metered(
    payoffs: PayoffMatrix, algorithm: str, rp, horizon: int, write_row=None, cadence: int = 1
):
    """One match under live metering; returns (final metric row, meter).

    The final row is taken once, after the match. With write_row, a row
    due every `cadence` rounds before the last goes to write_row as the
    block holding its round is metered, and the final row follows them;
    without it, or with no row due before the last round
    (cadence >= horizon), the meter alone observes. No row is kept, so
    memory is O(m + n) beyond play_match's block at any horizon. The
    nash_gap column describes the time-averaged pair for the plain dynamic
    and the played (already averaged) pair for the averaged dynamic.

    A game with two equal rows or two equal columns is played as its
    quotient (PayoffMatrix.quotient), one action per class of identical
    actions, by learners whose counts are the class sizes, and metered on
    the quotient: identical actions get identical scores, so each class
    plays the mass its actions would, and every metric reads the same
    values, to rounding, as on the full game; the meter returned is then
    the quotient's. Any other game is played as it is.

    With no rows due, the plain dynamic's meter reads the learner's running
    sum of u, which play_match updates before it calls the observer. The
    averaged learner sums reconstructed utilities, and a row inside a block
    needs the sum at its own round, so otherwise the meter keeps its own.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {', '.join(ALGORITHMS)}, got {algorithm!r}")
    require_count("cadence", cadence, 1)
    payoffs, counts = payoffs.quotient()
    learner = AveragedHedge if algorithm == "averaged" else OptimisticHedge
    players = learner((payoffs.m, payoffs.n), (rp.eta_x, rp.eta_y), counts)
    rows_due = write_row and cadence < horizon
    shared = None if rows_due or algorithm == "averaged" else players.cum
    meter = RegretMeter(payoffs, shared)
    gap_mode = "last_pair" if algorithm == "averaged" else "averaged_pair"

    def observer(t, z, u):
        # offsets into the block of its rounds t - j + 1 .. t that are due
        first = t - len(z) + 1
        due = range(-first % cadence, min(t + 1, horizon) - first, cadence)
        for row in meter.update(t, z, u, due, gap_mode):
            write_row(row)

    play_match(payoffs, players, horizon, observer if rows_due else meter.update)
    final = meter.snapshot(gap_mode)
    if write_row:
        write_row(final)
    return final, meter


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".15e")


@contextmanager
def csv_writer(path, columns):
    """Create `path` (and its directory), write the header, and yield a
    function that writes one row dict in column order. Rows of
    METRIC_COLUMNS, one per round at cadence 1, are written as _METRIC_LINE,
    the same bytes in one format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        if columns == METRIC_COLUMNS:
            write = fh.write
            yield lambda row: write(_METRIC_LINE % _metric_values(row))
        else:
            yield lambda row: writer.writerow([_fmt(row[c]) for c in columns])


def write_csv(path, columns, rows) -> None:
    with csv_writer(path, columns) as write_row:
        for row in rows:
            write_row(row)


def plan_matches(cfg: ExperimentConfig, payoffs: PayoffMatrix):
    """Each configured preset's (preset, rates, target metric, bound), all
    worked out before any match is played, so a size some preset cannot
    take fails before any file is written. The averaged dynamic is held to
    max_dreg, which has a bound only for the social presets."""
    m, n = payoffs.m, payoffs.n
    plan = []
    for preset in cfg.presets:
        rp = preset_rates(preset, m, n)
        if cfg.algorithm == "hedge":
            target, bound = PRESET_TARGETS[preset], theoretical_upper(preset, m, n)
        elif preset in SOCIAL_PRESETS:
            target, bound = "max_dreg", theoretical_upper(preset, m, n, cfg.horizon)
        else:
            target, bound = "max_dreg", ""
        plan.append((preset, rp, target, bound))
    return plan


def _measured(row: dict, target: str) -> float:
    """A final metric row's value of a planned target metric."""
    return max(row["dreg_x"], row["dreg_y"]) if target == "max_dreg" else row[target]


def run_experiment(cfg: ExperimentConfig):
    """Play the planned matches, stream each one's metric rows to its CSV,
    write a summary CSV, and return the summary rows."""
    payoffs = instance_matrix(cfg)
    out = Path(cfg.out_dir)
    summary = []
    for preset, rp, target, bound in plan_matches(cfg, payoffs):
        with csv_writer(out / f"metrics_{preset}.csv", METRIC_COLUMNS) as write_row:
            final, _ = run_metered(payoffs, cfg.algorithm, rp, cfg.horizon, write_row, cfg.cadence)
        summary.append(
            {
                "preset": preset,
                "target_metric": target,
                "measured_target": _measured(final, target),
                "theoretical_upper": bound,
                **final,
            }
        )
    write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary)
    return summary


DEFAULT_GAMMA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def sweep_gamma(m: int, n: int, grid=None, out_path=None):
    """Tradeoff sweep: optimal per-player bounds along a weight grid, then the
    min-max point as a final row. Returns the rows; writes a CSV if asked."""
    b = BoundInputs.from_actions(m, n)
    grid = tuple(grid) if grid is not None else DEFAULT_GAMMA_GRID
    if not grid:
        raise InvalidGammaError("sweep weight grid is empty")
    for g in grid:
        require_real("sweep weight", g, "(0, 1)", InvalidGammaError)
    rows = []
    for g in grid:
        res = minimize("weighted", b, gamma=g)
        rows.append(_sweep_row("weighted", g, res))
    res = minimize("max", b)
    rows.append(_sweep_row("max", "", res))
    if out_path is not None:
        write_csv(out_path, SWEEP_COLUMNS, rows)
    return rows


def _sweep_row(objective, gamma, res):
    """One solve's sweep row. The row is written even when the solve did not
    converge, so that is logged as a warning."""
    if not res.converged:
        at = f" at gamma={gamma!r}" if objective == "weighted" else ""
        warn_unconverged(f"sweep-gamma: {objective} solve{at}", res.iterations)
    return {
        "objective": objective,
        "gamma": gamma,
        "x_bound": res.x_bound,
        "y_bound": res.y_bound,
        "weighted_bound": res.objective_value if objective == "weighted" else "",
        "max_bound": max(res.x_bound, res.y_bound),
        "eta_x": res.rates.eta_x,
        "eta_y": res.rates.eta_y,
        "c_x": res.rates.c_x,
        "c_y": res.rates.c_y,
    }


@dataclass(frozen=True)
class CheckResult:
    check: str
    preset: str
    measured: float
    bound: float
    relation: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check} {self.preset}: "
            f"measured={self.measured:.9g} {self.relation} bound={self.bound:.9g}"
        )


def verify_bounds(cfg: ExperimentConfig):
    """Compare measured regrets against upper bounds and adversarial floors.

    Per preset: (a) the target regret on the configured instance against the
    preset's bound; (b) the x-player's regret (dynamic, for the averaged
    dynamic) on the adversarial instance tuned to the preset's rate against
    the matching floor; (c) for the averaged dynamic, the worst t * (Nash gap
    of the round-t pair) against its guaranteed constants (the two published
    readings of the cardinality-aware constant are separate checks). Every
    bound, floor and constant is worked out before the first match; each
    tuned instance is built only when its match is played. Checks read the
    final meter, so cfg.cadence plays no part. Writes verify_report.csv and
    verify_report.txt under cfg.out_dir and returns the checks.
    """
    payoffs = instance_matrix(cfg)
    m, n = payoffs.m, payoffs.n
    if m < 2 or n < 2:
        raise ConfigError(f"verify's adversarial floors need m >= 2 and n >= 2, got ({m}, {n})")
    averaged = cfg.algorithm == "averaged"
    if averaged:
        bad = [p for p in cfg.presets if p not in SOCIAL_PRESETS]
        if bad:
            raise ConfigError(
                f"algorithm=averaged carries bounds only for {' and '.join(SOCIAL_PRESETS)}; "
                f"cannot verify: {', '.join(bad)}"
            )
        floor_of, floor_metric = dynamic_regret_lower_bound, "dreg_x"
    else:
        floor_of, floor_metric = external_regret_lower_bound, "reg_x"
    plan = []
    for preset, rp, target, bound in plan_matches(cfg, payoffs):
        gaps = _gap_constants(preset, m, n) if averaged else ()
        plan.append((preset, rp, target, bound, floor_of(m, rp.eta_x, cfg.horizon), gaps))
    checks = []
    for preset, rp, target, bound, floor, gaps in plan:
        row, meter = run_metered(payoffs, cfg.algorithm, rp, cfg.horizon)
        measured = _measured(row, target)
        checks.append(
            CheckResult(f"upper[{target}]", preset, measured, bound, "<=", measured <= bound)
        )
        tuned = adversarial_matrix(m, n, floor.delta_star)
        lb = run_metered(tuned, cfg.algorithm, rp, cfg.horizon)[0][floor_metric]
        passed = lb >= floor.value - LOWER_SLACK
        checks.append(CheckResult(f"lower[{floor_metric}]", preset, lb, floor.value, ">=", passed))
        worst = meter.worst_scaled_pair_gap
        for label, const in gaps:
            checks.append(CheckResult(f"gap[{label}]", preset, worst, const, "<=", worst <= const))
    out = Path(cfg.out_dir)
    rows = [{**vars(c), "result": c.passed} for c in checks]
    write_csv(out / "verify_report.csv", VERIFY_COLUMNS, rows)
    (out / "verify_report.txt").write_text("\n".join(c.line() for c in checks) + "\n")
    return checks


def _gap_constants(preset: str, m: int, n: int):
    """Constants bounding t * nash_gap for the averaged social presets."""
    b = BoundInputs.from_actions(m, n)
    if preset == "U-Social":
        return (("2log(mn)", 2.0 * (b.log_m + b.log_n)),)
    tight = theoretical_upper("A-Social", m, n)
    loose = 2.0 * math.sqrt(b.log_m * (b.log_n + 4.0)) + 2.0 * math.sqrt(
        b.log_n * (b.log_m + 4.0)
    )
    return (("plus-half", tight), ("plus-4", loose))
