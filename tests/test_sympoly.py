import contextlib
import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalcomb import _esp
from evalcomb._ratpoly import esp_fractions
from evalcomb.betting import log_wealth, optimize_lambda_batch
from evalcomb.core import LOG_INF, LOG_ZERO, validate_evalues
from evalcomb.errors import ConfigError, ValidationError
from evalcomb.sympoly import (
    _MARGIN,
    _max_average_rows,
    log_averages_batch,
    log_binomials,
    log_esp,
    log_esp_batch,
    symmetric_averages,
)
from evalcomb.testkit import test_max_average
from oracles import identity_residuals, log_domain_esp, mixture_value, naive_symmetric_sums


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


def test_log_binomials_refuse_a_negative_n():
    with pytest.raises(ConfigError, match="n must be nonnegative"):
        log_binomials(-1)


def test_log_binomials_cache_holds_sixty_four_sizes():
    """After a first pass over n = 1..64, a second pass is all hits."""
    log_binomials.cache_clear()
    for _ in range(2):
        for n in range(1, 65):
            log_binomials(n)
    info = log_binomials.cache_info()
    assert (info.hits, info.misses) == (64, 64)


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
    magnitudes near 1e+-300, so that every path of the kernel runs:
    unscaled, scaled, one-entry blocks and the closed form for inf."""
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


def _within_kernel_tolerance(got, want, slack=1.0):
    """got equals want where either is 0 or inf, and lies within ``slack``
    times the kernel's tolerance of it elsewhere."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= slack * (1e-10 + 1e-13 * abs(want))


def _sums_at_every_layout(values):
    """log S_k of one vector with the kernel's own base blocks and with
    base blocks of at most 2 entries."""
    log_values = _log_vals(values)
    with small_blocks(2):
        small = log_esp(log_values)
    return log_esp(log_values), small


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_permuting_a_row_leaves_its_sums(data):
    values = data.draw(wide_evalue_arrays())
    permuted = data.draw(st.permutations(values))
    for got, want in zip(_sums_at_every_layout(permuted), _sums_at_every_layout(values)):
        assert all(_within_kernel_tolerance(g, w, slack=2.0) for g, w in zip(got, want))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_raising_an_entry_never_lowers_a_sum(data):
    values = data.draw(wide_evalue_arrays())
    i = data.draw(st.integers(0, len(values) - 1))
    raised = list(values)
    raised[i] = max(values[i], data.draw(EDGE_ENTRIES | st.floats(1e-3, 1e3)))
    for high, low in zip(_sums_at_every_layout(raised), _sums_at_every_layout(values)):
        for h, lo in zip(high, low):
            assert h >= lo or _within_kernel_tolerance(h, lo, slack=2.0)


def test_naive_handles_infinity_like_recursion():
    ev = validate_evalues([0.0, math.inf, 2.0])
    fast = log_esp(ev.log_values)
    slow = naive_symmetric_sums(ev)
    for f, s in zip(fast, slow):
        assert f == s.log_magnitude


# ----- batch kernel -----


def _mixed_rows(rng, rows, n):
    """Lognormal rows with zeros, plus a row with an inf (the closed
    form), rows with a 1e300 next to a 1e-300 or a subnormal among large
    entries (one-entry blocks) and rows that need base-block scaling
    (entries near 1e+-100)."""
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
    and a two-level layout; rows mix every path of the kernel, and the
    batch is large enough to change how columns are sliced."""
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


def _decimal_log_sums(values) -> list[float]:
    """log S_0 .. log S_n of float entries by the one-pass recursion in
    60-digit decimal arithmetic.  Every term is nonnegative and each
    float converts exactly, so each sum is within n 10^-59 relative of
    the exact one: exact for a float comparison, at any magnitude."""
    with localcontext() as ctx:
        ctx.prec = 60
        sums = [Decimal(1)] + [Decimal(0)] * len(values)
        for v in map(Decimal, values):
            for j in range(len(values), 0, -1):
                sums[j] += v * sums[j - 1]
        return [float(x.ln()) if x else LOG_ZERO for x in sums]


@pytest.mark.parametrize("n", [12, 100, 300])
def test_esp_is_accurate_on_dyadic_entries_across_the_float_range(n):
    """Entries k/8 2^s, s in {-1040, -700, 0, 700, 900}: subnormals and
    magnitudes near 1e+-300 in one row, which runs in blocks of one
    entry.  Every log S_k is within one unit in the last place of the
    row's largest |log S_k|; the log-domain recursion that such rows ran
    before missed that at n = 100 and 300 (errors of 1.5 and 2 units)."""
    for seed in range(3):
        rng = np.random.default_rng([seed, n, 5])
        values = np.ldexp(rng.integers(0, 24, n) / 8.0, rng.choice([-1040, -700, 0, 700, 900], n))
        got = log_esp(_log_vals(values))
        want = _decimal_log_sums(values.tolist())
        ulp = math.ulp(max(abs(w) for w in want if w != LOG_ZERO))
        for g, w in zip(got, want):
            assert g == w if w == LOG_ZERO else abs(g - w) <= ulp


def test_max_average_across_the_float_range_is_correctly_rounded():
    """1500 entries 1e300, 1500 entries 1e-300 and a 5e-324: the maximum
    is A_1500 = 1e300^1500 / C(3001, 1500) to about 1e-590 relative,
    whose log is 1034087.38655009671669..."""
    values = [1e300] * 1500 + [1e-300] * 1500 + [5e-324]
    report = test_max_average(validate_evalues(values), 0.05)
    want = 1034087.38655009671669
    assert report.detail.argmax_k == 1500
    assert abs(report.log_statistic.log_magnitude - want) <= 4 * math.ulp(want)


def test_logs_beyond_the_float_range():
    """Logs of +-1e15 take int64 exponents and match the log-domain
    recursion within n units in the last place of the largest |log|;
    past int64's budget for the exponents of the sums a row is refused."""
    log_rows = np.array([[1e15, -1e15, math.log(3.0)]])
    want = log_domain_esp(log_rows)
    np.testing.assert_allclose(log_esp_batch(log_rows), want, rtol=0, atol=3 * math.ulp(1e15))
    # S_3 = e^L e^-L 3: the reduction of L by k ln 2, k up to 2^51, is exact
    for big in (1e12, 1e15):
        got = log_esp_batch(np.array([[big, -big, math.log(3.0)]]))[0, 3]
        assert abs(got - math.log(3.0)) <= 1e-6, (big, got)
    got = log_esp_batch(np.array([[1e17, 0.0]]))[0]
    np.testing.assert_allclose(got, [0.0, 1e17, 1e17], rtol=0, atol=2 * math.ulp(1e17))
    with pytest.raises(ValidationError, match="too large"):
        log_esp_batch(np.array([[1e18, 0.0]]))


def test_kernel_matches_log_domain_oracle_at_large_n():
    rng = np.random.default_rng(11)
    log_rows = rng.normal(0.0, 1.5, size=(1, 3000))
    np.testing.assert_allclose(log_esp_batch(log_rows), log_domain_esp(log_rows), rtol=1e-12)


def _kernel_path(values) -> str:
    """The path the kernel takes on one vector: "unscaled", "scaled",
    "one-entry blocks" (for a vector that fails the range test at its
    layout's base block size) or "closed form" (an inf entry)."""
    log_rows = _log_vals(values)[None]
    with mock.patch.object(_esp, "_fast_sums", wraps=_esp._fast_sums) as fast:
        log_esp_batch(log_rows)
    if not fast.called:
        return "closed form"
    tau, b0 = fast.call_args.args[2:4]
    if tau is None:
        return "unscaled"
    return "scaled" if b0 == _esp._layout(len(values), _esp._BASE)[0] else "one-entry blocks"


def test_range_test_edges():
    """A vector of one base block of b entries runs in that block, scaled
    by a power of two, exactly when its binary exponents span at most 2h,
    h = _BLOCK_BITS // b - 1, and in blocks of one entry past that; the
    result agrees with the log-domain recursion on both sides of the
    edge."""
    b = 8
    h = _esp._BLOCK_BITS // b - 1
    for spread, path in [(2 * h, "scaled"), (2 * h + 1, "one-entry blocks")]:
        values = np.full(b, 3.0)
        values[0] = math.ldexp(0.75, spread + 2)  # binary exponents 2 and spread + 2
        assert _kernel_path(values) == path
        log_rows = _log_vals(values)[None]
        np.testing.assert_allclose(log_esp_batch(log_rows), log_domain_esp(log_rows), rtol=1e-13)
    assert _kernel_path([1.0, math.inf, 2.0]) == "closed form"
    assert _kernel_path([1e-310, 2.0]) == "one-entry blocks"  # exponents -1029 and 2
    assert _kernel_path([1e-300, 1e-300, 0.0]) == "scaled"  # by 2^-664
    assert _kernel_path([0.0, 1e10] * 32) == "scaled"
    assert _kernel_path([0.0, 1.5] * 32) == "unscaled"


def test_exponent_width_does_not_change_the_sums():
    """Rows of every path give the same sums, and the same max average,
    with int64 binary exponents as with int32 ones."""
    rng = np.random.default_rng(12)
    for n in (9, 100, 600):
        log_rows = _mixed_rows(rng, 8, n)
        want = log_esp_batch(log_rows), _max_average_rows(log_rows)[:2]
        with mock.patch.dict(_esp._EXP_BUDGET, {np.int32: 0}):
            got = log_esp_batch(log_rows), _max_average_rows(log_rows)[:2]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_batch_esp_rejects_one_dimensional_input():
    with pytest.raises(ValidationError):
        log_esp_batch(np.zeros(4))


@pytest.mark.parametrize("n", [0, 10, 100, 600])
def test_empty_batch_has_no_rows(n):
    """Sizes with no fold, one fold and two folds."""
    log_S, log_A = log_averages_batch(np.empty((0, n)))
    assert log_S.shape == log_A.shape == (0, n + 1)
    assert log_esp_batch(np.empty((0, n))).shape == (0, n + 1)


# ----- column limit and first descent -----


def _path_rows(rng, n):
    """Rows for each kernel path: unscaled (lognormal sigma 1), scaled
    (sigma 1 times 1e100), scaled at n <= 1000 and in one-entry blocks
    at n = 3000, whose base blocks span more binades (sigma 4 and 6),
    one-entry blocks at every n (subnormals among large entries) and the
    closed form (an inf, a 0 next to an inf)."""
    rows = np.exp(rng.standard_normal((7, n)) * [[1.0], [4.0], [1.0], [6.0], [1.0], [1.0], [1.0]])
    rows[2] *= 1e100
    rows[4, rng.integers(n)] = math.inf
    rows[5, :: max(1, n // 4)] = 5e-324
    rows[5, -1] = 1e200
    rows[6, :2] = [0.0, math.inf][: min(n, 2)]
    return _log_vals(rows)


def _limits(n):
    """Every column limit up to n + 1 for n <= 600; beyond, every limit
    up to 66, those at and just past the first and last block edges of
    each fold level, a stride, and n, n + 1."""
    if n <= 600:
        return list(range(1, n + 2))
    b0, fans = _esp._layout(n, _esp._BASE)
    limits = set(range(1, 67)) | set(range(1, n + 2, 293)) | {n, n + 1}
    for level in range(len(fans)):
        d = b0 * math.prod(fans[:level])
        edges = list(range(d, n + 1, d))
        limits |= {m + e for m in edges[:3] + edges[-1:] for e in (0, 1, 2)}
    return sorted(limits)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 100, 600, 1000, 2000, 3000])
def test_column_limit_gives_the_prefix_of_the_full_kernel(n):
    """In every fold output column j reads only input columns <= j, so a
    run limited to c columns gives the first c sums of the full run bit
    for bit: on an unscaled and a scaled row at every limit of
    ``_limits``, and on every path alone and in a mixed batch at a
    sample of them."""
    log_rows = _path_rows(np.random.default_rng(n), n)
    full = _esp.prefix_sums(log_rows, n + 1)
    limits = _limits(n)
    for c in limits:
        np.testing.assert_array_equal(_esp.prefix_sums(log_rows[::2][:2], c), full[::2][:2, :c])
    for c in limits[:: max(1, len(limits) // 6)] + [n + 1]:
        np.testing.assert_array_equal(_esp.prefix_sums(log_rows, c), full[:, :c])
        for row, want in zip(log_rows, full):
            np.testing.assert_array_equal(_esp.prefix_sums(row[None], c)[0], want[:c])
    if n == 3000:  # the paths the rows are meant to take
        paths = [_kernel_path(np.exp(row)) for row in log_rows]
        one, closed = "one-entry blocks", "closed form"
        assert paths == ["unscaled", one, "scaled", one, closed, one, closed]


def _strong_rows(rng, n):
    """Rows whose maximum sits at n / 2 or beyond, and at n."""
    shifts = np.array([[0.6], [0.8], [2.0]])
    return rng.standard_normal((3, n)) - 0.5 + shifts


@pytest.mark.parametrize("n", [2, 30, 64, 65, 200, 1000, 2000, 3000])
def test_first_descent_is_the_argmax(n):
    """The first k with log A_(k+1) <= log A_k is np.argmax of the full
    array, with the identical value, and the prefix is the full sums."""
    rng = np.random.default_rng([n, 1])
    null = rng.standard_normal((4, n)) * [[0.3], [1.0], [2.0], [4.0]]
    null -= null.var(axis=1, keepdims=True) / 2
    log_rows = np.vstack([null, null[:2] + 0.02, _strong_rows(rng, n)])
    log_S, log_A = log_averages_batch(log_rows)
    argmax_k, log_max, prefix_S, prefix_A = _max_average_rows(log_rows)
    np.testing.assert_array_equal(argmax_k, np.argmax(log_A, axis=1))
    np.testing.assert_array_equal(log_max, np.max(log_A, axis=1))
    if n >= 2000:
        assert (argmax_k[-3:-1] >= n / 2).all() and argmax_k[-1] == n
    for r, k in enumerate(argmax_k):
        np.testing.assert_array_equal(prefix_S[r, : k + 2], log_S[r, : k + 2])
        np.testing.assert_array_equal(prefix_A[r, : k + 2], log_A[r, : k + 2])


@pytest.mark.parametrize("n", [7, 64, 600, 3000])
def test_max_average_batch_rows_equal_single_rows(n):
    rng = np.random.default_rng([n, 2])
    log_rows = np.vstack([_path_rows(rng, n), _strong_rows(rng, n)])
    batch = _max_average_rows(log_rows)
    for i, row in enumerate(log_rows):
        argmax_k, log_max, log_S, log_A = _max_average_rows(row[None])
        k = batch[0][i]
        assert (argmax_k[0], log_max[0]) == (k, batch[1][i])
        np.testing.assert_array_equal(log_S[0, : k + 2], batch[2][i, : k + 2])
        np.testing.assert_array_equal(log_A[0, : k + 2], batch[3][i, : k + 2])


@contextlib.contextmanager
def _counted_limits():
    """The column limits the search runs at, through a wrapper of
    ``_esp.prefix_sums``."""
    prefix_sums, limits = _esp.prefix_sums, []

    def counted(rows, columns):
        limits.append(columns)
        return prefix_sums(rows, columns)

    with mock.patch.object(_esp, "prefix_sums", counted):
        yield limits


@pytest.mark.parametrize("n", [65, 1000, 3000])
def test_first_limit_from_the_betting_optimum(n):
    """The first limit, ceil(n lambda*) + _MARGIN columns, is one round
    for a null row, a row with an inf entry (lambda* counts as 0, and
    its maximum sits at k = 1), all twos (lambda* = 1: every sum at
    once) and the strong rows, whose maximum sits at n / 2 or beyond."""
    rng = np.random.default_rng([n, 4])
    null = rng.standard_normal(n) * 0.5 - 0.125
    with_inf = np.where(np.arange(n) == n // 2, math.inf, rng.standard_normal(n))
    cases = [(null, None), (with_inf, _MARGIN), (np.full(n, math.log(2.0)), n + 1)]
    cases += [(row, None) for row in _strong_rows(rng, n)]
    for row, first in cases:
        with _counted_limits() as limits:
            argmax_k, log_max, log_S, log_A = _max_average_rows(row[None])
        assert len(limits) == 1, limits
        assert argmax_k[0] < limits[0] - 1 or limits[0] == n + 1
        if first == _MARGIN:
            assert limits[0] <= _MARGIN and argmax_k[0] == 1
        elif first is not None:
            assert limits == [first] and argmax_k[0] == n
        np.testing.assert_array_equal(log_A[0], log_averages_batch(row[None])[1][0, : limits[0]])


@pytest.mark.parametrize("n", [65, 1000, 3000])
def test_rows_past_the_first_limit_take_larger_limits(n):
    """A first limit too small for most rows (the optimum read as
    lambda* = 0 for every row, so _MARGIN columns) only costs more
    rounds, each four times the last until every sum is run: the
    results are those of one round at the limit from the true optimum."""
    rng = np.random.default_rng([n, 3])
    log_rows = np.vstack([_path_rows(rng, n), _strong_rows(rng, n)])
    want = _max_average_rows(log_rows)

    def at_zero(rows):
        best = optimize_lambda_batch(rows)
        return dataclasses.replace(best, lambda_star=np.zeros_like(best.lambda_star))

    with mock.patch("evalcomb.sympoly.optimize_lambda_batch", at_zero), _counted_limits() as limits:
        got = _max_average_rows(log_rows)
    assert limits[0] == _MARGIN and limits[-1] == n + 1 and len(limits) >= 2
    for before, after in zip(limits, limits[1:-1]):
        assert after == 4 * before
    assert 8 * limits[-2] > n + 1
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for r, k in enumerate(want[0]):
        for g, w in zip(got[2:], want[2:]):
            np.testing.assert_array_equal(g[r, : k + 2], w[r, : k + 2])


def test_every_fold_level_runs_at_the_search_limit():
    """The search runs each fold level, the first included, at its one
    round's limit, and returns no more columns than that; the full
    averages run every level whole."""
    n = 3000
    row = np.random.default_rng(5).standard_normal(n) * 0.5 - 0.125
    fold, calls = _esp._fold, []

    def spy(mu, g, columns):
        out = fold(mu, g, columns)
        calls.append((mu.shape, columns, out[0].shape[1]))
        return out

    with mock.patch.object(_esp, "_fold", spy), _counted_limits() as limits:
        _max_average_rows(row[None])
    assert len(limits) == 1 and limits[0] < n + 1, limits
    assert len(calls) == len(_esp._layout(n, _esp._BASE)[1])
    for shape, columns, width in calls:
        assert columns == limits[0] and width <= columns, (shape, columns, width)
    calls.clear()
    with mock.patch.object(_esp, "_fold", spy):
        symmetric_averages(validate_evalues(np.exp(row)))
    assert len(calls) == len(_esp._layout(n, _esp._BASE)[1])
    for (groups, fan, d1), columns, width in calls:
        assert columns == n + 1 and width == min(fan * (d1 - 1) + 1, n + 1)
    assert calls[-1][2] == n + 1


@pytest.mark.parametrize("n", [5, 200, 2000, 3000])
def test_all_ones_have_no_evidence(n):
    """Every A_k of n ones is exactly 1, and A_1 = n / n is exact in
    floats, so the first descent is at k = 0.  The full array's
    np.argmax would pick a rounding bump instead; this is the one input
    where the two differ."""
    ev = validate_evalues([1.0] * n)
    report = test_max_average(ev, 0.999999999999)
    for averages in (symmetric_averages(ev), report.detail):
        assert averages.argmax_k == 0
        assert averages.log_max.log_magnitude == 0.0
        assert averages.trivial_max
        assert averages.n == n
    assert report.log_statistic.log_magnitude == 0.0
    assert not report.reject


def test_report_detail_is_the_prefix_through_the_descent():
    rng = np.random.default_rng(9)
    for n, shift in [(10, 0.3), (1000, 0.0), (1000, 0.2), (3000, 2.0)]:
        ev = validate_evalues(np.exp(rng.standard_normal(n) - 0.5 + shift))
        whole, detail = symmetric_averages(ev), test_max_average(ev, 0.05).detail
        k = whole.argmax_k
        assert (detail.argmax_k, detail.log_max, detail.n) == (k, whole.log_max, n)
        assert whole.log_S.size == whole.log_A.size == n + 1
        np.testing.assert_array_equal(detail.log_S, whole.log_S[: k + 2])
        np.testing.assert_array_equal(detail.log_A, whole.log_A[: k + 2])


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
