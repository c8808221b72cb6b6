"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with the quantities it checked (run with ``pytest -s`` or read the
captured output on failure).  Tolerances are stated inline.
"""

import math
import time

import numpy as np
import pytest

from hrtwist import (
    Lognormal,
    SumProblem,
    Weibull,
    efficiency_indicator,
    is_estimate,
    naive_mc,
    relative_error_is,
    solve_pprime,
    tail_convolution_2,
    theta_sensitivity_sweep,
)
from hrtwist.cli import main as cli_main

from conftest import lognormal_pair, weibull_pair
from grid_oracle import grid_oracle_pprime

SEED = 1234


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_lognormal_pair_table():
    """Two iid Lognormal(0 dB, 6 dB), M = 1e5 for both estimators."""
    start = time.perf_counter()
    checks = []

    p20 = lognormal_pair(20.0)
    sol20 = solve_pprime(p20)
    r_is = is_estimate(p20, sol20.theta_star, 100_000, SEED, stream_id=0)
    r_mc = naive_mc(p20, 100_000, SEED, stream_id=1)
    oracle20 = tail_convolution_2(*p20.components, p20.gamma)
    checks.append(("alpha_is in [7e-4, 1.2e-3]",
                   7e-4 <= r_is.alpha_hat <= 1.2e-3))
    checks.append(("alpha_is within 3 SE of oracle",
                   abs(r_is.alpha_hat - oracle20) <= 3 * r_is.std_error))
    checks.append(("IS freq in [24000, 31000]",
                   24_000 <= r_is.hit_frequency <= 31_000))
    checks.append(("naive freq in [60, 140]",
                   60 <= r_mc.hit_frequency <= 140))

    p30 = lognormal_pair(30.0)
    sol30 = solve_pprime(p30)
    r_is30 = is_estimate(p30, sol30.theta_star, 100_000, SEED, stream_id=2)
    r_mc30 = naive_mc(p30, 100_000, SEED, stream_id=3)
    oracle30 = tail_convolution_2(*p30.components, p30.gamma)
    checks.append(("30dB alpha_is within 3 SE of oracle",
                   abs(r_is30.alpha_hat - oracle30) <= 3 * r_is30.std_error))
    checks.append(("30dB naive freq == 0", r_mc30.hit_frequency == 0))

    elapsed = time.perf_counter() - start
    checks.append(("runtime < 60 s", elapsed < 60.0))
    ok = all(c[1] for c in checks)
    failed = [c[0] for c in checks if not c[1]]
    _report("criterion-1 lognormal table", ok,
            f"alpha20={r_is.alpha_hat:.3e} (oracle {oracle20:.3e}), "
            f"freq_is={r_is.hit_frequency}, freq_mc={r_mc.hit_frequency}, "
            f"alpha30={r_is30.alpha_hat:.3e} (oracle {oracle30:.3e}), "
            f"t={elapsed:.1f}s"
            + (f", failed: {failed}" if failed else ""))


def test_criterion_2_weibull_pair_table():
    """Two iid Weibull(0.5, 1), M = 1e5; deep tail checked against quadrature."""
    start = time.perf_counter()
    checks = []

    p20 = weibull_pair(20.0)
    r20 = is_estimate(p20, solve_pprime(p20).theta_star, 100_000, SEED,
                      stream_id=0)
    checks.append(("alpha_is in [0.9e-4, 1.25e-4]",
                   0.9e-4 <= r20.alpha_hat <= 1.25e-4))
    checks.append(("IS freq in [26000, 31000]",
                   26_000 <= r20.hit_frequency <= 31_000))

    p30 = weibull_pair(30.0)
    r30 = is_estimate(p30, solve_pprime(p30).theta_star, 100_000, SEED,
                      stream_id=2)
    oracle30 = tail_convolution_2(*p30.components, p30.gamma)
    checks.append(("30dB alpha_is within 3 SE of quadrature oracle",
                   abs(r30.alpha_hat - oracle30) <= 3 * r30.std_error))

    elapsed = time.perf_counter() - start
    checks.append(("runtime < 60 s", elapsed < 60.0))
    ok = all(c[1] for c in checks)
    failed = [c[0] for c in checks if not c[1]]
    _report("criterion-2 weibull table", ok,
            f"alpha20={r20.alpha_hat:.3e}, freq={r20.hit_frequency}, "
            f"alpha30={r30.alpha_hat:.3e} (oracle {oracle30:.3e}), "
            f"t={elapsed:.1f}s"
            + (f", failed: {failed}" if failed else ""))


def test_criterion_3_solver_vs_grid_oracle():
    """12 regression problems; solver objective <= grid + 1e-6 relative."""
    start = time.perf_counter()
    ln = Lognormal.from_db(0.0, 6.0)
    families = {
        "wb-single": lambda g: SumProblem((Weibull(0.5, 1.0),), g),
        "ln-pair": lambda g: SumProblem((ln, ln), g),
        "mixed-triple": lambda g: SumProblem(
            (Weibull(0.5, 1.0), Weibull(0.7, 1.0), ln), g),
    }
    grid_points = {1: 2, 2: 4001, 3: 161}
    worst = 0.0
    for name, make in families.items():
        for gdb in (15.0, 20.0, 25.0, 30.0):
            problem = make(10.0 ** (gdb / 10.0))
            sol = solve_pprime(problem)
            _, grid_obj = grid_oracle_pprime(problem,
                                             grid_points[problem.n])
            rel = (sol.objective - grid_obj) / abs(grid_obj)
            worst = max(worst, rel)
            assert rel <= 1e-6, (name, gdb, sol.objective, grid_obj)

    sol_wb20 = solve_pprime(weibull_pair(20.0))
    exact = (sol_wb20.theta_star == pytest.approx(0.8, abs=1e-12)
             and sol_wb20.objective == pytest.approx(10.0, abs=1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and exact and elapsed < 120.0
    _report("criterion-3 solver vs oracle", ok,
            f"12 problems, worst excess {worst:.2e} (tol 1e-6 rel), "
            f"weibull-pair 20dB theta*={sol_wb20.theta_star} "
            f"A={sol_wb20.objective}, t={elapsed:.1f}s")


def test_criterion_4_unbiasedness():
    """N=1 Weibull(0.5,1), gamma=4, alpha=e^-2; 20 seeds x 4 thetas."""
    start = time.perf_counter()
    problem = SumProblem((Weibull(0.5, 1.0),), 4.0)
    alpha = math.exp(-2.0)
    within = total = 0
    for theta in (0.0, 0.3, 0.6, 0.9):
        for seed in range(20):
            r = is_estimate(problem, theta, 100_000, 5000 + seed,
                            stream_id=int(theta * 10))
            total += 1
            if r.std_error > 0 and abs(r.alpha_hat - alpha) <= 3 * r.std_error:
                within += 1
    elapsed = time.perf_counter() - start
    frac = within / total
    ok = frac >= 0.90 and elapsed < 60.0
    _report("criterion-4 unbiasedness", ok,
            f"{within}/{total} runs within 3 SE of e^-2 "
            f"(need >= 90%), t={elapsed:.1f}s")


def test_criterion_5_per_sample_bound_certificate():
    """1e6 IS samples per table configuration; no exceeding weight."""
    violations = []
    for label, make in (("lognormal", lognormal_pair),
                        ("weibull", weibull_pair)):
        for gdb in (20.0, 30.0):
            problem = make(gdb)
            sol = solve_pprime(problem)
            r = is_estimate(problem, sol.theta_star, 1_000_000, SEED,
                            stream_id=7)
            log_bound = (-problem.n * math.log1p(-sol.theta_star)
                         - sol.theta_star * sol.objective
                         + math.log1p(1e-12))
            if r.max_log_weight_hit > log_bound:
                violations.append((label, gdb, r.max_log_weight_hit,
                                   log_bound))
    ok = not violations
    _report("criterion-5 bound certificate", ok,
            "4e6 samples over 4 configs, max hit weight <= "
            "(1-theta*)^-N exp(-theta* A) (1+1e-12) everywhere"
            + (f"; violations: {violations}" if violations else ""))


def test_criterion_6_theta_sweep():
    """Weibull pair, grid step 0.02, M=1e5 per point, three thresholds."""
    start = time.perf_counter()
    grid = np.round(np.arange(0.50, 0.981, 0.02), 10)
    failures = []
    argmin_gap = None
    for gdb in (15.0, 20.0, 25.0):
        problem = weibull_pair(gdb)
        rows, sol = theta_sensitivity_sweep(problem, grid, 100_000,
                                            SEED + int(gdb))
        for theta, m2, bound, se in rows:
            if m2 > bound + 5 * se:
                failures.append((gdb, theta))
        if gdb == 25.0:
            grid_rows = [r for r in rows if r[0] in grid]
            best_theta = min(grid_rows, key=lambda r: r[1])[0]
            argmin_gap = abs(best_theta - sol.theta_star)
            if argmin_gap > 2 * 0.02 + 1e-12:
                failures.append(("argmin", best_theta, sol.theta_star))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report("criterion-6 theta sweep", ok,
            f"all grid points obey bound + 5 SE; 25dB argmin within "
            f"{argmin_gap:.3f} of theta* (tol 0.04), t={elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_efficiency_growth():
    """Lognormal pair: k strictly increasing, k > 1, bounded IS error spread."""
    m_is = 50_000
    ks, eps = [], []
    for idx, gdb in enumerate((15.0, 20.0, 25.0)):
        problem = lognormal_pair(gdb)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, m_is, SEED, stream_id=idx)
        ks.append(efficiency_indicator(r.alpha_hat, r.variance_weight))
        eps.append(relative_error_is(r))
    increasing = all(b > a for a, b in zip(ks[:-1], ks[1:]))
    above_one = all(k > 1.0 for k in ks)
    spread = max(eps) / min(eps)
    ok = increasing and above_one and spread < 10.0
    _report("criterion-7 efficiency", ok,
            f"k={['%.3g' % k for k in ks]} (strictly increasing, > 1), "
            f"eps_IS spread max/min = {spread:.2f} (tol < 10)")


def test_criterion_8_optimality_ratio_trend():
    """Weibull pair at theta*, M=1e6: ratio increases, >= 1.5 at 30 dB."""
    ratios = []
    for idx, gdb in enumerate((15.0, 20.0, 25.0, 30.0)):
        problem = weibull_pair(gdb)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 1_000_000, SEED,
                        stream_id=idx)
        ratios.append(math.log(r.second_moment_weight) / math.log(r.alpha_hat))
    increasing = all(b > a for a, b in zip(ratios[:-1], ratios[1:]))
    ok = increasing and ratios[-1] >= 1.5
    _report("criterion-8 optimality ratio", ok,
            f"ratios={['%.4f' % x for x in ratios]} over 15/20/25/30 dB "
            "(monotone increasing, >= 1.5 at 30 dB)")


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical CSV across repeated runs and worker counts."""
    import json
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "components": [{"family": "weibull", "shape": 0.5, "scale": 1.0,
                        "count": 2}],
        "thresholds_db": [20.0],
        "samples_is": 50_000,
        "samples_naive": 50_000,
        "seed": SEED,
    }))
    payloads = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "3"), ("d", "8")):
        out = tmp_path / tag
        code = cli_main(["ccdf", "--config", str(cfg_path),
                         "--output", str(out), "--workers", workers])
        assert code == 0
        payloads.append((out / "ccdf.csv").read_bytes())
    ok = all(p == payloads[0] for p in payloads)
    _report("criterion-9 determinism", ok,
            "ccdf.csv byte-identical over 2 repeat runs and worker "
            "counts {1, 3, 8}")
