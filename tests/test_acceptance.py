"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line with the measured margins; run
`pytest tests/test_acceptance.py -s` to stream them. The heavyweight sweeps
(C2, C10) take tens of seconds; everything else finishes in seconds.
"""

import math
import time

import numpy as np

from hedgelab import (
    PRESET_TARGETS,
    PRESETS,
    AveragedHedge,
    BoundInputs,
    OptimisticHedge,
    PayoffMatrix,
    RegretMeter,
    TransformedParams,
    adversarial_matrix,
    dynamic_regret_lower_bound,
    eval_log_bounds,
    external_regret_lower_bound,
    from_transformed,
    minimize,
    minimize_unaware_coefficients,
    play_match,
    preset_rates,
    theoretical_upper,
)
from hedgelab.harness import ExperimentConfig, run_experiment, run_metered

from oracles import gradient_check, individual_bounds, keep_inner, log_coords, record_match

HORIZON = 2000
SIZE_GRID = (2, 10, 100, 10000)


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")


def _closed_social(b: BoundInputs) -> float:
    return 2.0 * math.sqrt(b.log_m * b.log_n_plus) + 2.0 * math.sqrt(
        b.log_m_plus * b.log_n
    )


def test_c01_trajectory_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for m, n in ((2, 2), (2, 10), (10, 10)):
        for eta_x in (0.1, 0.5):
            for eta_y in (0.1, 0.5):
                for delta in (0.1, 1.0):
                    a = adversarial_matrix(m, n, delta)
                    trace = record_match(
                        a, OptimisticHedge((m, n), (eta_x, eta_y)), HORIZON
                    )
                    ts = np.arange(2.0, HORIZON + 1.0)
                    want = 1.0 / (1.0 + (m - 1) * np.exp(-eta_x * delta * ts))
                    got = trace.x[1:, 0]
                    worst = max(worst, float(np.max(np.abs(got - want) / want)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _line("C1 trajectory oracle", ok, f"max rel err {worst:.3g}, {elapsed:.2f}s")
    assert ok


def test_c02_upper_bound_compliance():
    sizes = ((2, 10000), (10, 10), (100, 100))
    runs = 0
    min_slack = math.inf
    failures = []
    for m, n in sizes:
        rng = np.random.default_rng(8900 + m)
        instances = [adversarial_matrix(m, n, 1.0)]
        instances += [PayoffMatrix(rng.uniform(-1.0, 1.0, (m, n))) for _ in range(20)]
        for preset in PRESETS:
            rp = preset_rates(preset, m, n)
            bound = theoretical_upper(preset, m, n)
            target = PRESET_TARGETS[preset]
            for inst in instances:
                row, _ = run_metered(inst, "hedge", rp, HORIZON)
                measured = row[target]
                runs += 1
                min_slack = min(min_slack, bound - measured)
                if not measured < bound:
                    failures.append((preset, m, n, measured, bound))
    ok = not failures
    _line("C2 upper-bound compliance", ok, f"{runs} runs, min slack {min_slack:.4g}")
    assert ok, failures


def test_c03_adversarial_floor():
    spot_half = external_regret_lower_bound(2, 0.5, HORIZON)
    spot_tiny = external_regret_lower_bound(2, 0.001, HORIZON)
    spots_ok = math.isclose(spot_half.value, 1.377697, abs_tol=1e-6) and math.isclose(
        spot_tiny.value, 556.947, abs_tol=1e-3
    )
    worst_margin = math.inf
    for m in (2, 10, 100):
        for eta in (0.05, 0.1, 0.25, 0.5, 1.0):
            lb = external_regret_lower_bound(m, eta, HORIZON)
            a = adversarial_matrix(m, 3, lb.delta_star)
            meter = RegretMeter(a)
            play_match(a, OptimisticHedge((m, 3), (eta, eta)), HORIZON, observer=meter.update)
            worst_margin = min(worst_margin, meter.snapshot()["reg_x"] - lb.value)
    ok = spots_ok and worst_margin >= -1e-9
    _line(
        "C3 adversarial floor",
        ok,
        f"15 runs, worst margin {worst_margin:.4g}, spot values "
        f"{spot_half.value:.6f}/{spot_tiny.value:.3f}",
    )
    assert ok


def test_c04_social_regret_sandwich():
    results = []
    for m in (2, 10, 100):
        lb = external_regret_lower_bound(m, 0.5, HORIZON)
        a = adversarial_matrix(m, m, lb.delta_star)
        rp = preset_rates("U-Social", m, m)
        row, _ = run_metered(a, "hedge", rp, HORIZON)
        low = 2.0 * lb.value
        high = theoretical_upper("U-Social", m, m)
        social = row["social"]
        results.append((m, low, social, high))
    ok = all(low - 1e-9 <= social <= high for _, low, social, high in results)
    spans = "; ".join(f"m={m}: {lo:.3f} <= {s:.3f} <= {hi:.3f}" for m, lo, s, hi in results)
    _line("C4 social sandwich", ok, spans)
    assert ok, results


def test_c05_planner_matches_closed_forms():
    worst_val = 0.0
    worst_rate = 0.0
    for m in SIZE_GRID:
        for n in SIZE_GRID:
            b = BoundInputs.from_actions(m, n)
            res = minimize("social", b)
            closed = _closed_social(b)
            ref = preset_rates("A-Social", m, n)
            worst_val = max(worst_val, abs(res.objective_value - closed) / closed)
            pairs = (
                (res.rates.eta_x, ref.eta_x),
                (res.rates.eta_y, ref.eta_y),
                (res.rates.c_x, ref.c_x),
                (res.rates.c_y, ref.c_y),
            )
            worst_rate = max(worst_rate, max(abs(g - w) / w for g, w in pairs))
    point, kappa = minimize_unaware_coefficients()
    kappa_err = abs(kappa - 3.0 * math.sqrt(3.0))
    root = 1.0 / math.sqrt(3.0)
    coords = (point.a_x, point.a_y, point.s_x, point.s_y)
    point_err = max(
        abs(g - w) for g, w in zip(coords, (root, root, 2 * root, 2 * root))
    )
    ok = worst_val <= 1e-6 and worst_rate <= 1e-4 and kappa_err <= 1e-6 and point_err <= 1e-5
    _line(
        "C5 planner vs closed forms",
        ok,
        f"16 sizes: value err {worst_val:.2g}, rate err {worst_rate:.2g}; "
        f"coefficient err {kappa_err:.2g}, point err {point_err:.2g}",
    )
    assert ok


def test_c06_bound_chain():
    worst_mid = 0.0
    worst_max = 0.0
    ok = True
    for m in SIZE_GRID:
        for n in SIZE_GRID:
            b = BoundInputs.from_actions(m, n)
            cap = (10.0 / 3.0) * (
                math.sqrt(b.log_m * b.log_n_plus) + math.sqrt(b.log_m_plus * b.log_n)
            )
            mid = minimize("weighted", b, gamma=0.5).objective_value
            top_res = minimize("max", b)
            top = top_res.objective_value
            ok = ok and top_res.converged and mid <= cap + 1e-9 and top <= 2.0 * mid + 1e-9
            worst_mid = max(worst_mid, mid / cap)
            worst_max = max(worst_max, top / (2.0 * mid))
    _line(
        "C6 bound chain",
        ok,
        f"16 sizes: midpoint/cap <= {worst_mid:.4f}, max/(2*midpoint) <= {worst_max:.4f}",
    )
    assert ok


def test_c07_gradient_check():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        b = BoundInputs(rng.uniform(0.3, 10.0), rng.uniform(0.3, 10.0))
        z = rng.uniform(-2.0, 2.0, 4)
        worst = max(worst, gradient_check(z, b, 1e-5))
    ok = worst <= 1e-6
    _line("C7 gradient check", ok, f"100 points, max rel err {worst:.3g}")
    assert ok


def test_c08_averaging_reconstruction_and_scaled_gap():
    m, n = 2, 10000
    a = adversarial_matrix(m, n, 1.0)
    b = BoundInputs.from_actions(m, n)
    worst_recon = 0.0
    gaps = {}
    for preset in ("U-Social", "A-Social"):
        rp = preset_rates(preset, m, n)
        x = AveragedHedge(m, rp.eta_x)
        y = AveragedHedge(n, rp.eta_y)
        x_inner, y_inner = keep_inner(x), keep_inner(y)
        worst_scaled = 0.0
        for t in range(1, HORIZON + 1):
            xs = x.next_strategy()
            ys = y.next_strategy()
            g = a.entries @ ys
            loss = a.entries.T @ xs
            worst_scaled = max(worst_scaled, t * float(g.max() - loss.min()))
            x.observe(g)
            y.observe(-loss)
            recon_x = np.max(np.abs(x.inner.last - a.entries @ y_inner.last))
            recon_y = np.max(np.abs(y.inner.last + a.entries.T @ x_inner.last))
            worst_recon = max(worst_recon, float(recon_x), float(recon_y))
        gaps[preset] = worst_scaled
    uniform_cap = 2.0 * (b.log_m + b.log_n)
    tight_cap = _closed_social(b)
    loose_cap = 2.0 * math.sqrt(b.log_m * (b.log_n + 4.0)) + 2.0 * math.sqrt(
        b.log_n * (b.log_m + 4.0)
    )
    ok = (
        worst_recon <= 1e-10
        and gaps["U-Social"] <= uniform_cap
        and gaps["A-Social"] <= tight_cap
        and gaps["A-Social"] <= loose_cap
    )
    _line(
        "C8 averaging reconstruction + scaled gap",
        ok,
        f"recon err {worst_recon:.2g}; uniform {gaps['U-Social']:.4g} <= {uniform_cap:.4g}; "
        f"aware {gaps['A-Social']:.4g} <= {tight_cap:.4g} (tight) and {loose_cap:.4g} (loose)",
    )
    assert ok


def test_c09_dynamic_regret_sandwich():
    spot = dynamic_regret_lower_bound(2, 0.5, HORIZON)
    spot_ok = abs(spot.value - 5.057991) <= 5e-5
    results = []
    for m in (2, 10):
        lb = dynamic_regret_lower_bound(m, 0.5, HORIZON)
        a = adversarial_matrix(m, m, lb.delta_star)
        rp = preset_rates("U-Social", m, m)
        _, meter = run_metered(a, "averaged", rp, HORIZON)
        upper = theoretical_upper("U-Social", m, m, HORIZON)
        results.append((m, lb.value, meter.dreg_x, upper))
    ok = spot_ok and all(lo - 1e-9 <= d <= hi for _, lo, d, hi in results)
    spans = "; ".join(f"m={m}: {lo:.3f} <= {d:.3f} <= {hi:.1f}" for m, lo, d, hi in results)
    _line("C9 dynamic sandwich", ok, f"spot {spot.value:.6f}; {spans}")
    assert ok, results


def test_c10_flagship_experiment(tmp_path):
    start = time.perf_counter()
    summary = run_experiment(ExperimentConfig(n=10000, out_dir=str(tmp_path)))
    elapsed = time.perf_counter() - start
    socials = {row["preset"]: row["social"] for row in summary}
    rest = min(v for p, v in socials.items() if p != "A-Social")
    ok = socials["A-Social"] < rest and elapsed < 60.0
    _line(
        "C10 flagship experiment",
        ok,
        f"A-Social social {socials['A-Social']:.4f} vs next best {rest:.4f}, {elapsed:.1f}s",
    )
    assert ok, socials


def test_c11_property_suites():
    rng = np.random.default_rng(411)

    z = rng.uniform(1e-9, 10.0, 10000)
    ar = rng.uniform(1e-9, 10.0, 10000)
    lhs = z / (1.0 + z)
    rhs = (np.log1p(z) - np.log1p(z * np.exp(-ar))) / ar
    telescoping = bool(np.all(lhs - rhs >= -1e-12) and np.all(rhs >= -1e-12))

    plain = OptimisticHedge(4, 0.7)
    shifted = OptimisticHedge(4, 0.7)
    shift_ok = True
    for _ in range(50):
        u = rng.uniform(-0.5, 0.5, 4)
        a = plain.next_strategy()
        s = shifted.next_strategy()
        shift_ok = shift_ok and np.all(np.abs(a - s) <= 1e-12 * np.maximum(a, 1e-300))
        plain.observe(u)
        shifted.observe(u + 0.5)

    learner = OptimisticHedge(5, 0.3)
    log_w = np.zeros(5)
    prev = np.zeros(5)
    forms_ok = True
    for _ in range(120):
        w = np.exp(log_w - log_w.max())
        forms_ok = forms_ok and np.all(
            np.abs(learner.next_strategy() - w / w.sum()) <= 1e-12
        )
        u = rng.uniform(-1.0, 1.0, 5)
        learner.observe(u)
        log_w = log_w + 0.3 * (2.0 * u - prev)
        prev = u

    amgm_ok = True
    for _ in range(100):
        m, n = int(rng.integers(2, 3000)), int(rng.integers(2, 3000))
        amgm_ok = amgm_ok and theoretical_upper("A-Social", m, n) < theoretical_upper(
            "U-Social", m, n
        )

    b = BoundInputs(math.log(3.0), math.log(40.0))
    coord_err = 0.0
    for _ in range(1000):
        tp = TransformedParams(
            rng.uniform(0.2, 3.0),
            rng.uniform(0.2, 3.0),
            rng.uniform(0.05, 3.0),
            rng.uniform(0.05, 3.0),
        )
        direct = individual_bounds(from_transformed(tp), b)
        via_coords = eval_log_bounds(log_coords(tp), b)[:2]
        for d, v in zip(direct, via_coords):
            coord_err = max(coord_err, abs(d - v) / abs(v))
    coords_ok = coord_err <= 1e-10

    ok = telescoping and shift_ok and forms_ok and amgm_ok and coords_ok
    _line(
        "C11 property suites",
        ok,
        f"telescoping {telescoping}, shift invariance {shift_ok}, form equivalence "
        f"{forms_ok}, aware<unaware {amgm_ok}, coordinate agreement err {coord_err:.2g}",
    )
    assert ok
