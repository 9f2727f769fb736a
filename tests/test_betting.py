import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalcomb.betting import (
    LAMBDA_TOL,
    BettingOptimum,
    Boundary,
    log_wealth,
    optimize_lambda,
    optimize_lambda_batch,
)
from evalcomb.core import LOG_INF, LOG_ZERO, EValueVector, validate_evalues
from evalcomb.errors import ConfigError
from evalcomb.sympoly import symmetric_averages
from oracles import score_derivative


def _final_wealth(values, lam):
    """log M_n(lam): the last column of one row of log_wealth."""
    return float(log_wealth(validate_evalues(values).log_values[None], lam)[0, -1])


def test_product_value_oracle():
    # (1 - l + 2 l)(1 - l + 0.5 l) at l = 1/2 is 1.5 * 0.75
    assert math.exp(_final_wealth([2.0, 0.5], 0.5)) == pytest.approx(1.125, rel=1e-12)


def test_product_value_endpoints():
    assert _final_wealth([3.0, 0.0], 0.0) == 0.0
    assert _final_wealth([3.0, 0.0], 1.0) == LOG_ZERO


def test_product_value_with_infinity():
    assert _final_wealth([math.inf, 2.0], 0.5) == LOG_INF
    assert _final_wealth([math.inf, 2.0], 0.0) == 0.0


def test_product_zero_entry_kills_all_in_product_at_one():
    # 0 * inf = 0 under the working convention
    assert _final_wealth([0.0, math.inf], 1.0) == LOG_ZERO


def _relative_factor_errors(log_e, lam):
    """Relative error of log_wealth's one-step factors against ln(1 - lam
    + lam E) at 40 digits, and each factor's sensitivity kappa to a
    relative change in lam (E - 1), which is 1 as lam (E - 1) -> 0."""
    got = log_wealth(log_e[:, None], lam)[:, 0]
    errors, kappas = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        d_lam = Decimal(lam)
        for x, g in zip(log_e, got):
            excess = d_lam * (Decimal(x).exp() - 1)
            exact = (1 + excess).ln()
            errors.append(float(abs((Decimal(g) - exact) / exact)))
            kappas.append(float(abs(excess / ((1 + excess) * exact))))
    return np.array(errors), np.array(kappas)


@pytest.mark.parametrize(
    "draw, lam",
    [
        (lambda rng: np.log1p(rng.uniform(-1e-6, 1e-6, 300)), 0.5),
        (lambda rng: rng.normal(-0.5, 1.0, 300), 1e-6),
        (lambda rng: rng.normal(-0.5, 1.0, 300), 0.999),
    ],
    ids=["near_one", "small_bet", "large_bet"],
)
def test_factors_are_accurate(draw, lam):
    """Each factor log1p(lam (E - 1)) is within two ulps of the exact log,
    times kappa: 1 + lam (E - 1) cancels as lam -> 1 and E -> 0."""
    errors, kappas = _relative_factor_errors(draw(np.random.default_rng(17)), lam)
    assert (errors <= 4.5e-16 * np.maximum(kappas, 1.0)).all()


def test_per_step_fractions_zero_and_one_are_exact():
    """A step betting everything multiplies the wealth by E exactly, one
    betting nothing by 1, also against E = inf (0 * inf == 0)."""
    log_e = np.log([3.0, 0.7, 2.5, math.inf, 0.25, 1e-3])
    lam = np.array([1.0, 1.0, 0.5, 0.0, 0.0, 1.0])
    wealth = log_wealth(log_e[None], lam)[0]
    assert wealth[0] == log_e[0]
    for i in (1, 5):
        assert wealth[i] == wealth[i - 1] + log_e[i]
    assert wealth[3] == wealth[4] == wealth[2]
    assert math.copysign(1.0, log_wealth(log_e[None, 4:], 0.0)[0, 0]) == 1.0


def test_saturated_excess_keeps_the_optimum():
    """E = e^800 overflows E - 1, so its factor is log(lam) + log E: next
    to a zero the optimum is lam = 1/2, worth E / 4."""
    log_rows = np.array([[800.0, LOG_ZERO]])
    best = optimize_lambda_batch(log_rows)
    assert abs(best.lambda_star[0] - 0.5) <= LAMBDA_TOL
    assert best.log_value[0] == pytest.approx(800.0 - 2.0 * math.log(2.0), rel=1e-15)
    assert best.log_value[0] == log_wealth(log_rows, best.lambda_star[:, None])[0, -1]


def test_product_rejects_bad_lambda():
    for lam in (-0.01, 1.01, float("nan")):
        with pytest.raises(ConfigError):
            _final_wealth([1.0], lam)


def test_derivative_oracle_at_zero():
    # d/dl log M at 0 is sum(e - 1)
    ev = validate_evalues([0.5, 0.5])
    assert score_derivative(ev, 0.0) == pytest.approx(-1.0, rel=1e-14)
    ev2 = validate_evalues([2.0, 1.0])
    assert score_derivative(ev2, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_derivative_matches_finite_difference():
    values = [0.3, 5.0, 1.1]
    ev = validate_evalues(values)
    h = 1e-7
    for lam in (0.2, 0.5, 0.8):
        fd = (_final_wealth(values, lam + h) - _final_wealth(values, lam - h)) / (2 * h)
        assert score_derivative(ev, lam) == pytest.approx(fd, rel=1e-6)


class TestOptimizeLambda:
    def test_closed_form_zero_eight(self):
        """E = (0, 8): the optimum is lambda = 3/7 with value 16/7."""
        opt = optimize_lambda(validate_evalues([0.0, 8.0]))
        assert opt.boundary is Boundary.INTERIOR
        assert opt.lambda_star == pytest.approx(3.0 / 7.0, abs=1e-9)
        assert opt.log_value.value == pytest.approx(16.0 / 7.0, rel=1e-9)
        assert not opt.infinite_evidence

    def test_all_below_one_stays_at_zero(self):
        opt = optimize_lambda(validate_evalues([0.5, 0.9]))
        assert opt.boundary is Boundary.AT_ZERO
        assert opt.lambda_star == 0.0
        assert opt.log_value.value == 1.0
        assert opt.iterations == 0

    def test_strong_evidence_pushes_to_one(self):
        opt = optimize_lambda(validate_evalues([2.0, 1.0]))
        assert opt.boundary is Boundary.AT_ONE
        assert opt.lambda_star == 1.0
        assert opt.log_value.value == pytest.approx(2.0, rel=1e-14)

    def test_single_large_evalue(self):
        # n = 1: sup over lambda of 1 - l + l e is max(1, e)
        opt = optimize_lambda(validate_evalues([7.0]))
        assert opt.boundary is Boundary.AT_ONE
        assert opt.log_value.value == pytest.approx(7.0, rel=1e-14)
        opt2 = optimize_lambda(validate_evalues([0.7]))
        assert opt2.boundary is Boundary.AT_ZERO
        assert opt2.log_value.value == 1.0

    def test_infinite_entry_short_circuits(self):
        opt = optimize_lambda(validate_evalues([math.inf, 0.5]))
        assert opt.infinite_evidence
        assert opt.log_value.is_infinite

    def test_tolerance_respected(self):
        opt = optimize_lambda(validate_evalues([0.0, 8.0]))
        assert opt.achieved_tol <= LAMBDA_TOL
        assert abs(opt.lambda_star - 3.0 / 7.0) <= LAMBDA_TOL + 1e-12

    @pytest.mark.parametrize("gap", [1e-13, 1e-11, 1e-9])
    def test_root_next_to_one_takes_few_steps(self, gap):
        """(0.5, 2 - gap, 2 - gap) peaks at lam = (4 - 1/(1 - gap)) / 3,
        about gap/3 below 1, where Newton steps from below overshoot
        lam = 1: the search must not fall back to thirty-odd bisections."""
        opt = optimize_lambda(validate_evalues([0.5, 2.0 - gap, 2.0 - gap]))
        exact = (4.0 - 1.0 / (1.0 - gap)) / 3.0
        assert opt.boundary is Boundary.INTERIOR
        assert opt.iterations <= 12
        assert abs(opt.lambda_star - exact) <= opt.achieved_tol + 1e-15
        log_value = 2.0 * math.log1p(exact * (1.0 - gap)) + math.log1p(-0.5 * exact)
        assert opt.log_value.log_magnitude == pytest.approx(log_value, rel=1e-12)

    def test_zero_eight_value_is_close_to_log_16_7(self):
        """The value of (0, 8) is log(16/7); it must be no farther from it
        than 0.8266785731844677, which is 2.42e-16 off."""
        value = optimize_lambda(validate_evalues([0.0, 8.0])).log_value.log_magnitude
        with localcontext() as ctx:
            ctx.prec = 40
            exact = (Decimal(16) / Decimal(7)).ln()
            assert abs(Decimal(value) - exact) <= abs(Decimal(0.8266785731844677) - exact)

    def test_value_never_below_one(self):
        # sup includes lambda = 0, whose value is exactly 1
        rng = np.random.default_rng(21)
        for _ in range(40):
            values = rng.lognormal(sigma=1.0, size=rng.integers(1, 10))
            opt = optimize_lambda(validate_evalues(values))
            assert opt.log_value.log_magnitude >= 0.0


@st.composite
def evalue_lists(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    entry = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    )
    return draw(st.lists(entry, min_size=n, max_size=n))


@given(evalue_lists())
@settings(max_examples=150, deadline=None)
def test_optimum_beats_a_coarse_grid(values):
    ev = validate_evalues(values)
    opt = optimize_lambda(ev)
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    wealth = log_wealth(np.broadcast_to(ev.log_values, (grid.size, ev.n)), grid)
    assert (opt.log_value.log_magnitude >= wealth[:, -1] - 1e-9).all()


@given(evalue_lists())
@settings(max_examples=150, deadline=None)
def test_optimum_dominated_by_max_average(values):
    """The betting product is a mixture of the symmetric averages, so its
    supremum cannot beat their maximum."""
    ev = validate_evalues(values)
    opt = optimize_lambda(ev)
    cap = symmetric_averages(ev).log_max.log_magnitude
    assert opt.log_value.log_magnitude <= cap + 1e-10


@given(evalue_lists())
@settings(max_examples=100, deadline=None)
def test_interior_optimum_has_flat_derivative(values):
    ev = validate_evalues(values)
    opt = optimize_lambda(ev)
    if opt.boundary is not Boundary.INTERIOR:
        return
    # the sign must flip inside the final bracket
    lo = max(0.0, opt.lambda_star - 10 * LAMBDA_TOL)
    hi = min(1.0 - 1e-12, opt.lambda_star + 10 * LAMBDA_TOL)
    assert score_derivative(ev, lo) >= 0.0 or score_derivative(ev, hi) <= 0.0


def test_optimum_is_frozen_record():
    opt = optimize_lambda(validate_evalues([2.0, 3.0]))
    assert isinstance(opt, BettingOptimum)
    with pytest.raises(AttributeError):
        opt.lambda_star = 0.0


def _regular_pool(seed, rows):
    """Rows like the regular batches of the combine-small benchmark: n
    log-uniform in [2, 64]; lognormal null and alternative rows, and
    two-point rows whose low point is 0."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(rows):
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(64)))))
        kind = rng.choice(3, p=(0.2, 0.4, 0.4))
        if kind == 2:
            p, mean = rng.choice([0.25, 0.5]), rng.choice([1.5, 2.0])
            pool.append(np.where(rng.random(n) < p, mean / p, 0.0))
        else:
            sigma = rng.uniform(0.3, 2.0)
            shift = 0.0 if kind == 0 else rng.uniform(0.05, 0.6)
            pool.append(np.exp(sigma * rng.standard_normal(n) - 0.5 * sigma * sigma + shift))
    return pool


def test_interior_optima_take_few_evaluations():
    """Halley steps seeded from lam = 0 need at most 5 derivative
    evaluations per interior row on average and 12 on any row."""
    steps = []
    for values in _regular_pool(12, 600):
        opt = optimize_lambda(validate_evalues(values))
        assert opt.achieved_tol <= LAMBDA_TOL
        if opt.boundary is Boundary.INTERIOR:
            steps.append(opt.iterations)
    assert len(steps) > 200
    assert np.mean(steps) <= 5.0
    assert max(steps) <= 12


@pytest.mark.parametrize(
    "values",
    [(0.0, 4.1e284, 9e282, 0.0), (0.0, 1e300, 1e300, 0.0), (1e-300, 1e300, 1e-300, 1e300)],
)
def test_exact_root_at_one_half_closes_at_once(values):
    """The first Halley step from 0 overflows and bisection lands on the
    root 1/2 itself, where the derivative is exactly 0: the search must
    close the bracket from there instead of bisecting towards it."""
    opt = optimize_lambda(validate_evalues(values))
    assert opt.boundary is Boundary.INTERIOR
    assert opt.iterations <= 5
    assert abs(opt.lambda_star - 0.5) <= opt.achieved_tol <= LAMBDA_TOL


# Rows of 1e+-300, subnormals, 0 next to huge entries and exact roots at
# 1/2, padded with ones (which leave the derivative unchanged), and each
# row's lambda* as the bracket-and-Newton search found it.
EXTREME_ROWS = [
    ((0.0, 4.1e284, 9e282, 0.0, 1.0, 1.0), 0.5000000000125),
    ((1e-300, 1e300, 1e-300, 1e300, 1.0, 1.0), 0.5000000000125),
    ((0.0, 1e300, 1e300, 0.0, 1.0, 1.0), 0.5000000000125),
    ((1 / 3, 3.0, 1.0, 1.0, 1.0, 1.0), 0.4999999999999995),
    ((0.25, 4.0, 0.25, 4.0, 1.0, 1.0), 0.4999999999992367),
    ((1e300, 1e-300, 0.5, 1.0, 1.0, 1.0), 0.4226497308103742),
    ((1e-300, 1e-300, 1e300, 1.0, 1.0, 1.0), 0.33333333333329973),
    ((0.0, 1e308, 0.0, 1.0, 1.0, 1.0), 0.33333333333329973),
    ((5e-324, 3.0, 1e-310, 1.0, 1.0, 1.0), 2.5000037007434156e-11),
    ((2.5e-310, 1e290, 0.3, 4.0, 1.0, 1.0), 0.5116121505923027),
    ((0.0, 0.0, 0.0, 1e200, 1e-200, 7.0), 0.29017283318680287),
    ((5e-324, 5e-324, 1e300, 2.0, 0.5, 1e-300), 0.2605205185310171),
    ((0.0, 1e-310, 8.0, 1e300, 0.1, 1.0), 0.37720634033199796),
]


def test_extreme_rows_keep_their_optima():
    """On a mixed batch of extreme rows, lambda* stays within LAMBDA_TOL
    of the recorded optimum, and each row's batch result is its
    single-row result bit for bit."""
    with np.errstate(divide="ignore"):
        log_rows = np.log(np.array([row for row, _ in EXTREME_ROWS]))
    batch = optimize_lambda_batch(log_rows)
    for i, (row, recorded) in enumerate(EXTREME_ROWS):
        assert batch.boundary[i] is Boundary.INTERIOR
        assert abs(batch.lambda_star[i] - recorded) <= LAMBDA_TOL
        assert batch.achieved_tol[i] <= LAMBDA_TOL
        assert batch.iterations[i] <= 12
        single = optimize_lambda(EValueVector(log_rows[i]))
        assert single.lambda_star == batch.lambda_star[i]
        assert single.log_value.log_magnitude == batch.log_value[i]
        assert single.iterations == batch.iterations[i]
        assert single.achieved_tol == batch.achieved_tol[i]
