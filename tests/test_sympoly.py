import contextlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalcomb import _esp
from evalcomb._ratpoly import esp_fractions
from evalcomb.betting import log_wealth
from evalcomb.core import LOG_INF, LOG_ZERO, validate_evalues
from evalcomb.errors import ValidationError
from evalcomb.sympoly import (
    log_averages_batch,
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
        # cached, so no caller may change it for the others
        assert not log_binomials(n).flags.writeable


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


@contextlib.contextmanager
def small_blocks(base):
    """Run the kernel with base blocks of at most ``base`` entries, so
    that short vectors already span several blocks and fold levels."""
    _esp._layout.cache_clear()
    try:
        with mock.patch.object(_esp, "_BASE", base):
            yield
    finally:
        _esp._layout.cache_clear()


EDGE_ENTRIES = st.sampled_from(
    [0.0, math.inf, 5e-324, 1e-310, 1e-300, 1e300, 1.7e308, 0.5, 2.0, 3.0, 1.0]
)


@st.composite
def wide_evalue_arrays(draw, max_n=12):
    """Vectors mixing ordinary entries with 0, inf, subnormals and
    magnitudes near 1e+-300, so that both the linear-domain kernel and
    the log-domain fallback run."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(
        EDGE_ENTRIES, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    )
    return draw(st.lists(entry, min_size=n, max_size=n))


def _assert_matches_naive(values):
    ev = validate_evalues(values)
    fast = log_esp(ev.log_values)
    slow = naive_symmetric_sums(ev)
    assert len(fast) == len(slow) == ev.n + 1
    for f, s in zip(fast, slow):
        if s.is_zero or s.is_infinite:
            assert f == s.log_magnitude
        else:
            assert f == pytest.approx(s.log_magnitude, abs=1e-10, rel=1e-13)


@given(wide_evalue_arrays())
@settings(max_examples=150, deadline=None)
def test_recursion_matches_naive_enumeration(values):
    _assert_matches_naive(values)
    # base blocks of 1 to 3 entries: up to 12 blocks in two fold levels
    for base in (1, 2, 3):
        with small_blocks(base):
            _assert_matches_naive(values)


def test_naive_handles_infinity_like_recursion():
    ev = validate_evalues([0.0, math.inf, 2.0])
    fast = log_esp(ev.log_values)
    slow = naive_symmetric_sums(ev)
    for f, s in zip(fast, slow):
        assert f == s.log_magnitude


# ----- batch kernel -----


def _mixed_rows(rng, rows, n):
    """Lognormal rows with zeros, plus rows that take the fallback (an
    inf, a 1e300 next to a 1e-300, a subnormal among large entries) and
    rows that need base-block scaling (entries near 1e+-100)."""
    values = rng.lognormal(sigma=2.0, size=(rows, n))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[1, rng.integers(n)] = math.inf
    values[2, :2] = [1e300, 1e-300][: min(n, 2)]
    values[3, -1] = 5e-324
    values[3, 0] = 1e200
    values[4] *= 1e100
    values[5] *= 1e-100
    return _log_vals(values)


def test_batch_esp_identical_to_per_row():
    """n = b - 1, b, b + 1 and 2b + 1 around the largest base block b,
    and a two-level layout; rows mix the fast kernel and the fallback,
    and the batch is large enough to change how columns are sliced."""
    rng = np.random.default_rng(5)
    for n in (1, 7, 63, 64, 65, 129, 600):
        log_rows = _mixed_rows(rng, 40, n)
        batch = log_esp_batch(log_rows)
        for i in range(log_rows.shape[0]):
            np.testing.assert_array_equal(batch[i], log_esp(log_rows[i]))
        np.testing.assert_array_equal(log_esp_batch(log_rows[::7]), batch[::7])


@pytest.mark.parametrize("n", [9, 20])
def test_batch_esp_identical_to_per_row_small_blocks(n):
    rng = np.random.default_rng(6)
    log_rows = _mixed_rows(rng, 12, n)
    with small_blocks(2):
        batch = log_esp_batch(log_rows)
        for i in range(log_rows.shape[0]):
            np.testing.assert_array_equal(batch[i], log_esp(log_rows[i]))


def _exact_log(x: Fraction) -> float:
    if x == 0:
        return LOG_ZERO
    with localcontext() as ctx:
        ctx.prec = 60
        return float(Decimal(x.numerator).ln() - Decimal(x.denominator).ln())


@pytest.mark.parametrize("n, bound", [(100, 2e-14), (300, 1.7e-13)])
def test_esp_matches_exact_sums_on_dyadic_entries(n, bound):
    """Entries in {0, 1/8, ..., 23/8} are exact floats, so the exact
    rational sums are the sums of the very inputs the kernel sees.  The
    log-domain recursion misses these bounds on the same vectors (errors
    up to 4.3e-14 and 2.6e-13); 2e-14 is under two units in the last
    place of log S_k ~ 100."""
    for seed in range(3):
        rng = np.random.default_rng([seed, n])
        values = [Fraction(int(i), 8) for i in rng.integers(0, 24, n)]
        got = log_esp(_log_vals([float(v) for v in values]))
        want = [_exact_log(s) for s in esp_fractions(values)]
        for g, w in zip(got, want):
            if w == LOG_ZERO:
                assert g == w
            else:
                assert abs(g - w) <= bound


def test_fast_kernel_matches_log_domain_fallback_at_large_n():
    rng = np.random.default_rng(11)
    log_rows = rng.normal(0.0, 1.5, size=(1, 3000))
    fast = log_esp_batch(log_rows)[0]
    slow = _esp._log_domain_esp(log_rows)[0]
    np.testing.assert_allclose(fast, slow, rtol=1e-12)


def _takes_fallback(values) -> bool:
    log_rows = _log_vals(values)[None]
    with mock.patch.object(
        _esp, "_log_domain_esp", wraps=_esp._log_domain_esp
    ) as fallback:
        log_esp_batch(log_rows)
    return fallback.called


def test_range_test_edges():
    """A base block of b entries runs in linear domain exactly when its
    binary exponents span at most 2h, h = _BLOCK_BITS // b - 1, and the
    result agrees with the log-domain recursion right at that edge."""
    b = 8
    h = _esp._BLOCK_BITS // b - 1
    for spread, fallback in [(2 * h, False), (2 * h + 1, True)]:
        values = np.full(b, 3.0)
        values[0] = math.ldexp(0.75, spread + 2)  # binary exponents 2 and spread + 2
        assert _takes_fallback(values) is fallback
        log_rows = _log_vals(values)[None]
        np.testing.assert_allclose(
            log_esp_batch(log_rows), _esp._log_domain_esp(log_rows), rtol=1e-13
        )
    assert _takes_fallback([1.0, math.inf, 2.0])
    assert _takes_fallback([1e-310, 2.0])  # subnormal: not a normal float
    assert not _takes_fallback([1e-300, 1e-300, 0.0])  # scaled by 2^-664
    assert not _takes_fallback([0.0, 1e10] * 32)
    with mock.patch.object(_esp, "_MAX_FAST_N", 4):
        assert _takes_fallback([1.0] * 5)
        assert not _takes_fallback([1.0] * 4)


def test_batch_esp_rejects_one_dimensional_input():
    with pytest.raises(ValidationError):
        log_esp_batch(np.zeros(4))


@pytest.mark.parametrize("n", [0, 10, 100, 600])
def test_empty_batch_has_no_rows(n):
    """Sizes with no fold, one fold and two folds."""
    log_S, log_A = log_averages_batch(np.empty((0, n)))
    assert log_S.shape == log_A.shape == (0, n + 1)
    assert log_esp_batch(np.empty((0, n))).shape == (0, n + 1)


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
