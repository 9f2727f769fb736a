import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from evalcomb._ratpoly import (
    betting_poly,
    count_roots_between,
    esp_fractions,
    poly_max_reaches,
    sturm_chain,
    two_point_betting_reaches,
    two_point_max_average_reaches,
)
from evalcomb.betting import optimize_lambda_batch
from evalcomb.sympoly import log_averages_batch
from evalcomb.testkit import decide_batch
from oracles import poly_derivative, poly_divmod, poly_eval, poly_mul

F = Fraction


def test_poly_eval_horner():
    # 2 + 3x + x^2 at x = 2 is 12
    assert poly_eval([F(2), F(3), F(1)], F(2)) == F(12)


def test_poly_mul():
    # (1 + x)(1 - x) = 1 - x^2
    assert poly_mul([F(1), F(1)], [F(1), F(-1)]) == [F(1), F(0), F(-1)]


def test_poly_derivative():
    assert poly_derivative([F(5), F(3), F(2)]) == [F(3), F(4)]
    # the zero polynomial is represented as [0], never the empty list
    assert poly_derivative([F(7)]) == [F(0)]


def test_poly_divmod_reconstructs():
    p = [F(1), F(0), F(-3), F(2), F(1)]
    q = [F(-1), F(1)]
    quot, rem = poly_divmod(p, q)
    rebuilt = poly_mul(quot, q)
    rebuilt = [a + b for a, b in zip(rebuilt + [F(0)] * len(p), rem + [F(0)] * len(p))][
        : len(p)
    ]
    assert rebuilt == p
    assert len(rem) < len(q) or rem == []


rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=20
)


@given(
    st.lists(rational, min_size=1, max_size=5),
    st.lists(rational, min_size=2, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_poly_divmod_property(p, q):
    if all(c == 0 for c in q):
        return
    quot, rem = poly_divmod(p, q)
    full = poly_mul(quot, q)
    width = max(len(full), len(rem), len(p))
    full = full + [F(0)] * (width - len(full))
    rem_padded = rem + [F(0)] * (width - len(rem))
    p_padded = list(p) + [F(0)] * (width - len(p))
    assert [a + b for a, b in zip(full, rem_padded)] == p_padded


class TestSturm:
    def test_two_roots_in_unit_interval(self):
        # (x - 1/2)(x - 1/4)
        p = poly_mul([F(-1, 2), F(1)], [F(-1, 4), F(1)])
        assert count_roots_between(p, F(0), F(1)) == 2

    def test_root_outside_interval(self):
        p = [F(-2), F(1)]  # x - 2
        assert count_roots_between(p, F(0), F(1)) == 0

    def test_right_endpoint_included(self):
        p = [F(-1), F(1)]  # x - 1
        assert count_roots_between(p, F(0), F(1)) == 1

    def test_left_endpoint_excluded(self):
        p = [F(0), F(1)]  # x
        assert count_roots_between(p, F(0), F(1)) == 0

    def test_double_root_counted_once(self):
        # (x - 1/3)^2 has one distinct root
        p = poly_mul([F(-1, 3), F(1)], [F(-1, 3), F(1)])
        assert count_roots_between(p, F(0), F(1)) == 1

    def test_chain_starts_with_squarefree_part(self):
        p = poly_mul([F(-1, 3), F(1)], [F(-1, 3), F(1)])
        chain = sturm_chain(p)
        assert len(chain[0]) == 2  # degree dropped from 2 to 1


def test_betting_poly_zero_eight():
    # (1 - lam)(1 + 7 lam) = 1 + 6 lam - 7 lam^2
    assert betting_poly([F(0), F(8)]) == ([1, 6, -7], 1)


def test_betting_poly_trivial():
    assert betting_poly([F(1), F(1)]) == ([1], 1)


def test_betting_poly_clears_denominators_once():
    # (1 - lam/2)(1 + lam/3) = (2 - lam)(3 + lam) / 6 over D = 6:
    # D^2 times it is (6 - 3 lam)(6 + 2 lam) = 36 - 6 lam - 6 lam^2
    assert betting_poly([F(1, 2), F(4, 3)]) == ([36, -6, -6], 36)


def test_esp_fractions_oracle():
    assert esp_fractions([F(1), F(2), F(3)]) == [F(1), F(6), F(11), F(6)]
    assert esp_fractions([F(0), F(8)]) == [F(1), F(8), F(0)]


class TestPolyMaxReaches:
    def test_interior_maximum_reached_exactly(self):
        # sup of (1 - lam)(1 + 7 lam) is 16/7 at lam = 3/7: tangency counts
        assert poly_max_reaches([F(0), F(8)], F(16, 7))

    def test_just_above_the_maximum_fails(self):
        assert not poly_max_reaches([F(0), F(8)], F(16, 7) + F(1, 10**9))

    def test_threshold_at_most_one_always_reached(self):
        # lam = 0 gives the product 1
        assert poly_max_reaches([F(1, 2), F(1, 2)], F(1))
        assert poly_max_reaches([F(1, 2)], F(1, 2))

    def test_endpoint_maximum(self):
        # (2, 1): increasing in lam, sup at lam = 1 with value 2
        assert poly_max_reaches([F(2), F(1)], F(2))
        assert not poly_max_reaches([F(2), F(1)], F(2) + F(1, 10**12))

    def test_all_ones_reaches_nothing_above_one(self):
        assert not poly_max_reaches([F(1), F(1), F(1)], F(1) + F(1, 10**9))

    def test_agrees_with_dense_rational_grid(self):
        values = [F(0), F(3), F(1, 2), F(5)]
        poly = oracles.betting_poly(values)
        grid_max = max(poly_eval(poly, F(j, 400)) for j in range(401))
        # the grid maximum is a lower bound for the true supremum
        assert poly_max_reaches(values, grid_max)
        # and a midpoint refinement is still below anything the sup misses
        assert not poly_max_reaches(values, grid_max + F(1, 2))


# ----- the integer kernel against the Fraction reference -----

entry = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=0, max_value=6, max_denominator=8),
)
# zeros, ones and repeated values: each drawn entry appears 1-3 times
entries = st.lists(st.tuples(entry, st.integers(1, 3)), min_size=1, max_size=4).map(
    lambda pairs: [v for v, times in pairs for _ in range(times)]
)
threshold = st.fractions(min_value=0, max_value=12, max_denominator=16)


@given(entries, threshold)
@settings(max_examples=300, deadline=None)
def test_decisions_match_the_fraction_reference(values, t):
    assert poly_max_reaches(values, t) == oracles.poly_max_reaches(values, t)


@given(entries, st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_level_met_at_a_rational_bet_is_reached(values, j):
    # M - t has a root at lam = j/16 itself, possibly an endpoint
    t = poly_eval(oracles.betting_poly(values), F(j, 16))
    assert poly_max_reaches(values, t)
    assert oracles.poly_max_reaches(values, t)


@given(
    st.fractions(min_value=F(41, 20), max_value=50, max_denominator=20),
    st.integers(1, 3),
)
@example(F(8), 1)
@settings(max_examples=60, deadline=None)
def test_tangent_maximum_matches_the_fraction_reference(b, copies):
    # ((1 - lam)(1 + (b - 1) lam))^copies peaks at (b^2 / (4 (b - 1)))^copies
    # inside (0, 1) for b > 2, where M - t has a double root; (0, 8)
    # peaks at 16/7.
    values = [F(0), b] * copies
    top = (b * b / (4 * (b - 1))) ** copies
    for t, reached in ((top, True), (top + F(1, 10**9), False)):
        assert poly_max_reaches(values, t) is reached
        assert oracles.poly_max_reaches(values, t) is reached


point = st.fractions(min_value=-1, max_value=2, max_denominator=6)


@given(
    st.lists(point, min_size=1, max_size=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    point,
    point,
)
@settings(max_examples=150, deadline=None)
def test_root_counts_match_the_fraction_reference(roots, lead, a, b):
    # repeated roots are common: there are only 55 distinct points
    a, b = sorted((a, b))
    poly = [lead]
    for r in roots:
        poly = poly_mul(poly, [-r, F(1)])
    expected = len({r for r in roots if a < r <= b})
    assert count_roots_between(poly, a, b) == expected
    assert oracles.count_roots_between(poly, a, b) == expected


@given(st.lists(rational, min_size=1, max_size=7), point, point)
@settings(max_examples=150, deadline=None)
def test_root_counts_of_any_polynomial_match_the_fraction_reference(poly, a, b):
    a, b = sorted((a, b))
    assert count_roots_between(poly, a, b) == oracles.count_roots_between(poly, a, b)


# ----- the float pipeline's verdicts against the exact decisions -----

GRID = [F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3), F(4), F(8)]
ALPHAS = (0.5, 1 / 3, 0.25, 0.2, 0.1, 0.05, 0.01)


def _tangent(b: int, copies: int) -> tuple[list[Fraction], list[Fraction]]:
    """(0, b) repeated, with its betting supremum (b^2 / (4 (b - 1)))^copies."""
    return [F(0), F(b)] * copies, [F(b * b, 4 * (b - 1)) ** copies]


vectors = st.one_of(
    st.lists(st.sampled_from(GRID), min_size=1, max_size=8).map(lambda v: (v, [])),
    st.builds(_tangent, st.sampled_from([3, 4, 8]), st.integers(1, 4)),
)


@given(vectors)
@example(([F(0), F(8)], [F(4), F(16, 7)]))
@example(([F(1)] * 8, []))
@settings(max_examples=300, deadline=None)
def test_float_verdicts_match_exact_verdicts(case):
    """decide_batch on the float kernels gives the exact verdicts of the
    integer kernels wherever the log statistic is more than the snap band
    from the log threshold.  The thresholds are a grid of levels, the
    exact max average itself and, for (0, b) repeated, the exact betting
    supremum; each is decided exactly at 1/Fraction(alpha) for the float
    alpha that the float path uses."""
    values, known_maxima = case
    sums = esp_fractions(values)
    top = max(s / math.comb(len(values), k) for k, s in enumerate(sums))
    alphas = [*ALPHAS, *(float(1 / t) for t in (top, *known_maxima))]
    with np.errstate(divide="ignore"):
        log_rows = np.log(np.array(values, dtype=float))[None]
    log_statistics = {
        oracles.max_average_reaches: log_averages_batch(log_rows)[1].max(axis=1),
        poly_max_reaches: optimize_lambda_batch(log_rows).log_value,
    }
    for alpha in (a for a in alphas if 0.0 < a < 1.0):
        for exact_reaches, log_statistic in log_statistics.items():
            _, log_threshold, reject = decide_batch(log_statistic, alpha)
            if abs(log_statistic[0] - log_threshold) > 5e-13:
                assert bool(reject[0]) == exact_reaches(values, 1 / Fraction(alpha))


# ----- closed forms for two-point rows against the generic deciders -----

TWO_POINTS = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(8)]
GRID_THRESHOLDS = [F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2), F(16, 7), F(4), F(10)]


def _betting_peak(count: int, n: int, hi: Fraction, lo: Fraction) -> Fraction:
    """The betting product at its best of 0, 1 and the stationary point
    of its log, each evaluated as the product of the row's factors."""
    row = [hi] * count + [lo] * (n - count)
    bets = [F(0), F(1)]
    curvature = n * (hi - 1) * (1 - lo)
    if curvature:
        bets.append((count * (hi - 1) + (n - count) * (lo - 1)) / curvature)
    return max(
        math.prod(1 + (e - 1) * lam for e in row) for lam in bets if 0 <= lam <= 1
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_two_point_deciders_match_the_generic_ones(n):
    """Every count of every pair of support points (hi == lo, and hi < lo,
    included) at a grid of thresholds, t <= 1 among them, and at the exact
    ties: the max average itself and the betting peak, and just above each."""
    disagreements = []
    for hi, lo in itertools.product(TWO_POINTS, repeat=2):
        for count in range(n + 1):
            row = [hi] * count + [lo] * (n - count)
            top = max(s / math.comb(n, k) for k, s in enumerate(esp_fractions(row)))
            peak = _betting_peak(count, n, hi, lo)
            ties = [top, peak, top + F(1, 10**9), peak + F(1, 10**9)]
            for t in GRID_THRESHOLDS + ties:
                for closed, generic in (
                    (two_point_max_average_reaches, oracles.max_average_reaches),
                    (two_point_betting_reaches, poly_max_reaches),
                ):
                    if closed(count, n, hi, lo, t) != generic(row, t):
                        disagreements.append((closed.__name__, count, hi, lo, t))
    assert disagreements == []


def test_two_point_max_average_stops_at_the_first_descent():
    # ten 2s and ten 0s: A_k = 2^k C(10, k) / C(20, k) is 1 at k = 0 and
    # k = 1, and the scan stops at A_2 = 18/19
    assert two_point_max_average_reaches(10, 20, 2, 0, 1)
    assert not two_point_max_average_reaches(10, 20, 2, 0, 1 + F(1, 10**12))
    # all 2s never descend: A_20 = 2^20
    assert two_point_max_average_reaches(20, 20, 2, 0, 2**20)
    assert not two_point_max_average_reaches(20, 20, 2, 0, 2**20 + 1)


@given(
    st.fractions(min_value=0, max_value=6, max_denominator=12),
    st.fractions(min_value=0, max_value=6, max_denominator=12),
    st.integers(1, 30),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_two_point_deciders_match_on_random_rows(hi, lo, n, data):
    count = data.draw(st.integers(0, n))
    t = data.draw(st.fractions(min_value=0, max_value=40, max_denominator=16))
    row = [hi] * count + [lo] * (n - count)
    reaches = oracles.max_average_reaches(row, t)
    assert two_point_max_average_reaches(count, n, hi, lo, t) == reaches
    assert two_point_betting_reaches(count, n, hi, lo, t) == poly_max_reaches(row, t)
