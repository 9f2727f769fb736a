"""End-to-end checks of the package's headline guarantees.

Every test below prints one human-readable line

    criterion NN: PASS - <what was verified>

(visible under ``pytest -s``) and then asserts the same condition, so a
broken guarantee is both machine-checked and easy to spot in a log.
Monte Carlo checks use fixed seeds with 3-sigma margins: a false alarm
is a ~0.3% event per rate even if the seeds are changed.

Several tests measure wall-clock time.  The budgets are generous on
purpose; a loaded machine can still slow the timing-ratio checks, so
those pool minima over interleaved rounds, which is robust to bursts
of background load.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from evalcomb.betting import optimize_lambda, product_value
from evalcomb.core import validate_evalues
from evalcomb.simlab import (
    AdversarialScenario,
    IidLognormal,
    default_factor_scenario,
    g_clipped_identity,
    g_constant,
    g_threshold_indicator,
    mc_demimartingale_sweep,
    mc_type1,
    two_point_scenario,
)
from evalcomb.sympoly import identity_residuals, log_esp, symmetric_averages
from evalcomb.testkit import StatKind, test_max_average, test_optimized_betting
from oracles import naive_symmetric_sums

BATCH_KINDS = (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING)


def _report(num: int, ok: bool, description: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {description}", flush=True)


def _run_cli(*args: str) -> tuple[subprocess.CompletedProcess, float]:
    cmd = [sys.executable, "-m", "evalcomb", *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, timeout=120)
    return proc, time.perf_counter() - start


def _best_times(fns, rounds: int) -> list[float]:
    """Pooled minimum CPU time of the calling thread per callable,
    interleaving the rounds.  Thread CPU time leaves out the time other
    processes hold the core, which wall time on a shared machine does
    not."""
    for fn in fns:
        fn()  # warm caches and allocators outside the measurement
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.thread_time()
            fn()
            best[i] = min(best[i], time.thread_time() - t0)
    return best


# ------------------------------------------------------------------
# vector generators for the property-style criteria
# ------------------------------------------------------------------


def _mixed_vector(rng: np.random.Generator, max_n: int = 30) -> np.ndarray:
    """Lognormal body, 10% huge entries (up to 1e6), 15% exact zeros."""
    n = int(rng.integers(1, max_n + 1))
    vals = np.exp(rng.normal(0.0, 1.0, n))
    big = rng.random(n) < 0.10
    if big.any():
        vals[big] = rng.uniform(1e3, 1e6, int(big.sum()))
    vals[rng.random(n) < 0.15] = 0.0
    return vals


def _smooth_vector(rng: np.random.Generator) -> np.ndarray:
    """Entries in [0.1, 5] plus zeros: keeps the objective's curvature
    small enough that a 1e-5 grid pitch resolves the maximum to 1e-8."""
    n = int(rng.integers(2, 31))
    vals = np.clip(np.exp(rng.normal(0.0, 0.6, n)), 0.1, 5.0)
    vals[rng.random(n) < 0.15] = 0.0
    return vals


# ------------------------------------------------------------------
# 1. exact enumeration of the sequential counterexample
# ------------------------------------------------------------------


def test_criterion_01_exact_counterexample():
    warm, _ = _run_cli(
        "enumerate", "--scenario", "adversarial", "--threshold", "2",
        "--stat", "max_average",
    )
    assert warm.returncode == 0
    assert warm.stdout == b"9/16 = 0.5625\n"

    proc, elapsed = _run_cli(
        "enumerate", "--scenario", "adversarial", "--threshold", "2",
        "--stat", "optimized_betting",
    )
    ok = proc.returncode == 0 and proc.stdout == b"9/16 = 0.5625\n" and elapsed < 1.0
    _report(1, ok, f"adversarial enumeration prints 9/16 = 0.5625 in {elapsed:.2f}s")
    assert proc.returncode == 0
    assert proc.stdout == b"9/16 = 0.5625\n"
    assert elapsed < 1.0


# ------------------------------------------------------------------
# 2. the same 9/16 via Monte Carlo
# ------------------------------------------------------------------


def test_criterion_02_counterexample_monte_carlo():
    margin = 3.0 * math.sqrt(0.5625 * 0.4375 / 100_000)
    start = time.perf_counter()
    summary = mc_type1(AdversarialScenario(), alpha=0.5, replications=100_000, seed=2026)
    elapsed = time.perf_counter() - start
    rates = [summary.rejection_rate[k] for k in BATCH_KINDS]
    ok = all(abs(r - 0.5625) <= margin for r in rates) and elapsed < 10.0
    _report(
        2,
        ok,
        f"adversarial rates {rates[0]:.4f}/{rates[1]:.4f} within "
        f"{margin:.4f} of 0.5625 in {elapsed:.1f}s",
    )
    for rate in rates:
        assert abs(rate - 0.5625) <= margin
    assert elapsed < 10.0


# ------------------------------------------------------------------
# 3. type-I error control for both batch statistics
# ------------------------------------------------------------------


def test_criterion_03_type1_bounds():
    scenarios = [
        ("two_point n=10", two_point_scenario(p=0.5, n=10, lo=0.0, mean=1.0)),
        ("factor n=8", default_factor_scenario(8)),
    ]
    alphas = (0.05, 0.1, 0.25)
    start = time.perf_counter()
    worst_excess = -math.inf
    failures = []
    for label, scenario in scenarios:
        for alpha in alphas:
            bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / 100_000)
            summary = mc_type1(scenario, alpha=alpha, replications=100_000, seed=77)
            for kind in BATCH_KINDS:
                rate = summary.rejection_rate[kind]
                worst_excess = max(worst_excess, rate - bound)
                if rate > bound:
                    failures.append(f"{label} alpha={alpha} {kind.value}: {rate:.5f} > {bound:.5f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        3,
        ok,
        f"12 null rates all below alpha + 3*SE (worst slack {-worst_excess:.5f}) "
        f"in {elapsed:.0f}s",
    )
    assert not failures, failures
    assert elapsed < 120.0


# ------------------------------------------------------------------
# 4. type-I error control on a heavy-tailed continuous null
# ------------------------------------------------------------------


def test_criterion_04_lognormal_null():
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)
    summary = mc_type1(IidLognormal(sigma=1.0, n=50), alpha=0.05, replications=10_000, seed=404)
    rate = summary.rejection_rate[StatKind.OPTIMIZED_BETTING]
    ok = rate <= bound
    _report(4, ok, f"lognormal n=50 betting rate {rate:.4f} <= {bound:.4f}")
    assert rate <= bound


# ------------------------------------------------------------------
# 5. the max statistic dominates every fixed-fraction bet
# ------------------------------------------------------------------


def test_criterion_05_pathwise_dominance():
    rng = np.random.default_rng(5150)
    grid = np.linspace(0.0, 1.0, 101)
    alpha = 0.05
    worst_gap = -math.inf
    implication_breaks = 0
    rejections = 0
    for _ in range(10_000):
        ev = validate_evalues(_mixed_vector(rng))
        log_max = symmetric_averages(ev).log_max.log_magnitude
        for lam in grid:
            gap = product_value(ev, lam).log_magnitude - log_max
            if gap > worst_gap and not math.isnan(gap):
                worst_gap = gap
        gap = optimize_lambda(ev).log_value.log_magnitude - log_max
        worst_gap = max(worst_gap, gap)
        bet = test_optimized_betting(ev, alpha)
        if bet.reject:
            rejections += 1
            if not test_max_average(ev, alpha).reject:
                implication_breaks += 1
    ok = worst_gap <= 1e-12 and implication_breaks == 0
    _report(
        5,
        ok,
        f"max average beats every bet on 10^4 vectors (worst log gap "
        f"{worst_gap:.2e}); betting rejection implied max rejection in "
        f"all {rejections} rejecting cases",
    )
    assert worst_gap <= 1e-12
    assert implication_breaks == 0


# ------------------------------------------------------------------
# 6. recursion agrees with brute-force subset enumeration
# ------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(1, 13))
        vals = np.exp(rng.normal(0.0, 1.0, n))
        vals[rng.random(n) < 0.15] = 0.0
        ev = validate_evalues(vals)
        fast = log_esp(ev.log_values)
        slow = naive_symmetric_sums(ev)
        for a, b in zip(fast, slow):
            if a == b.log_magnitude:
                continue
            worst = max(worst, abs(a - b.log_magnitude))
    ok = worst <= 1e-10
    _report(6, ok, f"recursion vs 2^n enumeration, worst relative gap {worst:.2e}")
    assert worst <= 1e-10


# ------------------------------------------------------------------
# 7. telescoping identity residuals
# ------------------------------------------------------------------


def test_criterion_07_identity_residuals():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(2, 51))
        vals = np.exp(rng.normal(0.0, 1.0, n))
        vals[rng.random(n) < 0.15] = 0.0
        ev = validate_evalues(vals)
        worst = max(worst, float(np.max(np.abs(identity_residuals(ev)))))
    ok = worst <= 1e-10
    _report(7, ok, f"identity residual over all k, worst {worst:.2e}")
    assert worst <= 1e-10


# ------------------------------------------------------------------
# 8. optimizer against a dense grid and a closed form
# ------------------------------------------------------------------


def test_criterion_08_optimizer_correctness():
    rng = np.random.default_rng(808)
    grid = np.linspace(0.0, 1.0, 100_001)
    worst = 0.0
    with np.errstate(divide="ignore"):
        for _ in range(1_000):
            vals = _smooth_vector(rng)
            ev = validate_evalues(vals)
            grid_best = float(np.max(np.log1p(np.outer(grid, vals - 1.0)).sum(axis=1)))
            grid_best = max(grid_best, 0.0)
            opt = optimize_lambda(ev).log_value.log_magnitude
            worst = max(worst, abs(opt - grid_best))

    closed = optimize_lambda(validate_evalues([0.0, 8.0]))
    lam_err = abs(closed.lambda_star - 3.0 / 7.0)
    val_err = abs(closed.log_value.value - 16.0 / 7.0)
    ok = worst <= 1e-8 and lam_err <= 1e-9 and val_err <= 1e-9
    _report(
        8,
        ok,
        f"grid search gap {worst:.2e}; closed form (0,8): lambda off by "
        f"{lam_err:.1e}, value off by {val_err:.1e}",
    )
    assert worst <= 1e-8
    assert lam_err <= 1e-9
    assert val_err <= 1e-9


# ------------------------------------------------------------------
# 9. complexity: quadratic averages, linear optimizer
# ------------------------------------------------------------------


def test_criterion_09_complexity():
    rng = np.random.default_rng(909)
    ev_1k = validate_evalues(np.exp(rng.normal(0.0, 0.5, 1_000)))
    ev_2k = validate_evalues(np.exp(rng.normal(0.0, 0.5, 2_000)))
    t_1k, t_2k = _best_times(
        [lambda: symmetric_averages(ev_1k), lambda: symmetric_averages(ev_2k)],
        rounds=11,
    )
    quad_ratio = t_2k / t_1k

    # Both sizes sit above the last cache cliff, so time per entry is
    # flat and the doubling ratio cleanly separates linear growth
    # (about 2, observed up to ~5 with cache drift) from quadratic
    # growth (16 for a 4x size step).
    ev_100k = validate_evalues(np.exp(rng.normal(0.0, 0.5, 100_000)))
    ev_400k = validate_evalues(np.exp(rng.normal(0.0, 0.5, 400_000)))
    t_100k, t_400k = _best_times(
        [lambda: optimize_lambda(ev_100k), lambda: optimize_lambda(ev_400k)],
        rounds=7,
    )
    lin_ratio = t_400k / t_100k

    ok = 3.5 <= quad_ratio <= 4.5 and 1.5 <= lin_ratio <= 9.0 and t_2k < 1.0
    _report(
        9,
        ok,
        f"averages 1k->2k ratio {quad_ratio:.2f} (in [3.5, 4.5]), n=2000 in "
        f"{t_2k * 1e3:.0f}ms; optimizer 100k->400k ratio {lin_ratio:.2f} "
        f"(linear-like, quadratic would be 16)",
    )
    assert 3.5 <= quad_ratio <= 4.5
    assert t_2k < 1.0
    assert 1.5 <= lin_ratio <= 9.0


# ------------------------------------------------------------------
# 10. averages behave as a demimartingale under iid mean-1 nulls
# ------------------------------------------------------------------


def test_criterion_10_demimartingale():
    scenarios = [
        ("two_point", two_point_scenario(p=0.5, n=6, lo=0.0, mean=1.0)),
        ("lognormal", IidLognormal(sigma=0.8, n=6)),
    ]
    gs = [g_constant(), g_threshold_indicator(), g_clipped_identity()]
    failures = []
    worst_sigmas = math.inf
    for label, scenario in scenarios:
        estimates = mc_demimartingale_sweep(
            scenario, ks=range(6), gs=gs, replications=100_000, seed=1010
        )
        for est in estimates:
            if est.standard_error > 0.0:
                worst_sigmas = min(worst_sigmas, est.estimate / est.standard_error)
            if est.estimate < -3.0 * est.standard_error:
                failures.append(f"{label} k={est.k} g={est.g_label}: {est.estimate:.2e}")
    ok = not failures
    _report(
        10,
        ok,
        f"36 increment estimates all above -3*SE (worst at "
        f"{worst_sigmas:+.2f} sigma)",
    )
    assert not failures, failures


# ------------------------------------------------------------------
# 11. byte-identical output under a fixed seed
# ------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    sim_args = (
        "simulate", "--scenario", "adversarial", "--alpha", "0.5",
        "--reps", "2000", "--seed", "5",
    )
    first, _ = _run_cli(*sim_args)
    second, _ = _run_cli(*sim_args)

    data = tmp_path / "evalues.txt"
    data.write_text("e_value\n2.0\n0.5\n1.25\n0\n3.5\n")
    combine_args = (
        "combine", "--input", str(data), "--alpha", "0.05",
        "--stat", "max_average,optimized_betting",
    )
    third, _ = _run_cli(*combine_args)
    fourth, _ = _run_cli(*combine_args)

    ok = (
        first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and third.returncode == fourth.returncode == 0
        and third.stdout == fourth.stdout
    )
    _report(
        11,
        ok,
        "simulate and combine reruns with identical seeds are byte-identical",
    )
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert third.returncode == 0 and fourth.returncode == 0
    assert third.stdout == fourth.stdout
    for line in third.stdout.splitlines():
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True).encode() == line
