import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalcomb.betting import log_wealth
from evalcomb.core import LOG_INF, LOG_ZERO, validate_evalues
from evalcomb.errors import ValidationError
from evalcomb.sympoly import (
    log_binomials,
    log_esp,
    log_esp_batch,
    symmetric_averages,
)
from oracles import identity_residuals, mixture_value, naive_symmetric_sums


def _log_vals(values):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=float))


# ----- frozen oracles -----


def test_symmetric_sums_oracle_123():
    # (1+x)(2+x)(3+x) style sums: S = (1, 6, 11, 6)
    ev = validate_evalues([1.0, 2.0, 3.0])
    sums = np.exp(log_esp(ev.log_values))
    np.testing.assert_allclose(sums, [1.0, 6.0, 11.0, 6.0], rtol=1e-12)


def test_symmetric_sums_oracle_all_ones():
    ev = validate_evalues([1.0] * 4)
    sums = np.exp(log_esp(ev.log_values))
    np.testing.assert_allclose(sums, [1.0, 4.0, 6.0, 4.0, 1.0], rtol=1e-12)


def test_averages_oracle_two_one():
    sa = symmetric_averages(validate_evalues([2.0, 1.0]))
    np.testing.assert_allclose(np.exp(sa.log_S), [1.0, 3.0, 2.0], rtol=1e-12)
    np.testing.assert_allclose(np.exp(sa.log_A), [1.0, 1.5, 2.0], rtol=1e-12)
    assert sa.argmax_k == 2
    assert not sa.trivial_max


def test_averages_oracle_zero_eight():
    sa = symmetric_averages(validate_evalues([0.0, 8.0]))
    np.testing.assert_allclose(np.exp(sa.log_A), [1.0, 4.0, 0.0], rtol=1e-12)
    assert sa.argmax_k == 1
    assert sa.log_max.value == pytest.approx(4.0, rel=1e-12)


def test_averages_oracle_balanced_pair():
    # (2, 0.5): A_2 = exactly 1, no evidence beyond A_1 = 1.25
    sa = symmetric_averages(validate_evalues([2.0, 0.5]))
    np.testing.assert_allclose(np.exp(sa.log_A), [1.0, 1.25, 1.0], rtol=1e-12)


def test_averages_all_ones_ties_resolve_to_smallest_k():
    sa = symmetric_averages(validate_evalues([1.0, 1.0, 1.0]))
    assert sa.argmax_k == 0
    assert sa.trivial_max
    assert sa.log_max.value == 1.0


def test_averages_last_equals_full_product_exactly():
    """A_n is the plain product; the log-domain path must hit it exactly
    for the closed thresholds used by the tests to behave."""
    ev = validate_evalues([0.0, 8.0])
    sa = symmetric_averages(ev)
    assert sa.log_A[-1] == LOG_ZERO
    ev2 = validate_evalues([2.0, 1.0])
    sa2 = symmetric_averages(ev2)
    assert sa2.log_A[-1] == math.log(2.0) + math.log(1.0)


def test_log_binomials_match_comb():
    for n in (1, 2, 5, 17, 40):
        got = np.exp(log_binomials(n))
        want = [math.comb(n, k) for k in range(n + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        # the ends carry no rounding at all
        assert log_binomials(n)[0] == 0.0
        assert log_binomials(n)[-1] == 0.0


def test_infinite_entry_propagates():
    sa = symmetric_averages(validate_evalues([math.inf, 1.0]))
    assert sa.log_A[1] == LOG_INF
    assert sa.log_max.is_infinite


def test_zero_times_infinity_is_zero_in_top_coefficient():
    # S_2 = 0 * inf, which the convention sends to 0
    sa = symmetric_averages(validate_evalues([0.0, math.inf]))
    assert sa.log_S[2] == LOG_ZERO
    assert sa.log_S[1] == LOG_INF


# ----- naive cross-check -----


@st.composite
def evalue_arrays(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    return draw(st.lists(entry, min_size=n, max_size=n))


@given(evalue_arrays())
@settings(max_examples=120, deadline=None)
def test_recursion_matches_naive_enumeration(values):
    ev = validate_evalues(values)
    fast = log_esp(ev.log_values)
    slow = naive_symmetric_sums(ev)
    assert len(fast) == len(slow) == ev.n + 1
    for f, s in zip(fast, slow):
        if s.is_zero or s.is_infinite:
            assert f == s.log_magnitude
        else:
            assert f == pytest.approx(s.log_magnitude, abs=1e-10)


def test_naive_handles_infinity_like_recursion():
    ev = validate_evalues([0.0, math.inf, 2.0])
    fast = log_esp(ev.log_values)
    slow = naive_symmetric_sums(ev)
    for f, s in zip(fast, slow):
        assert f == s.log_magnitude


# ----- batch kernel -----


def test_batch_esp_identical_to_per_row():
    rng = np.random.default_rng(5)
    rows = rng.lognormal(size=(25, 8))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    log_rows = _log_vals(rows)
    batch = log_esp_batch(log_rows)
    for i in range(rows.shape[0]):
        np.testing.assert_array_equal(batch[i], log_esp(log_rows[i]))


def test_batch_esp_rejects_one_dimensional_input():
    with pytest.raises(ValidationError):
        log_esp_batch(np.zeros(4))


# ----- mixture -----


def test_mixture_endpoints():
    ev = validate_evalues([3.0, 0.5, 2.0])
    assert mixture_value(ev, 0.0).value == 1.0
    sa = symmetric_averages(ev)
    assert mixture_value(ev, 1.0).log_magnitude == sa.log_A[-1]


def test_mixture_equals_betting_product():
    """The defining identity: the betting product is the binomial mixture
    of the symmetric averages."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(1, 12)
        values = rng.lognormal(size=n)
        values[rng.random(n) < 0.15] = 0.0
        ev = validate_evalues(values)
        for lam in (0.03, 0.25, 0.5, 0.77, 0.99):
            mix = mixture_value(ev, lam).log_magnitude
            prod = log_wealth(ev.log_values[None], lam)[0, -1]
            if math.isinf(prod):
                assert mix == prod
            else:
                assert mix == pytest.approx(prod, abs=1e-10)


def test_mixture_never_exceeds_max_average():
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(30):
        values = rng.lognormal(size=7)
        ev = validate_evalues(values)
        cap = symmetric_averages(ev).log_max.log_magnitude
        for lam in grid:
            assert mixture_value(ev, float(lam)).log_magnitude <= cap + 1e-12


# ----- telescoping identity -----


def test_identity_residuals_small_oracle():
    ev = validate_evalues([1.0, 2.0, 3.0])
    res = identity_residuals(ev)
    # one residual per consecutive pair (A_k, A_{k+1}), k = 0..n-1
    assert res.shape == (3,)
    assert np.max(np.abs(res)) < 1e-13


@given(evalue_arrays(max_n=8))
@settings(max_examples=80, deadline=None)
def test_identity_residuals_vanish(values):
    ev = validate_evalues(values)
    if ev.n < 2:
        return
    res = identity_residuals(ev)
    assert np.max(np.abs(res)) < 1e-10


def test_identity_rejects_infinite_entries():
    ev = validate_evalues([math.inf, 1.0])
    with pytest.raises(ValidationError):
        identity_residuals(ev)
