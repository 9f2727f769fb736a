"""Reference implementations that the package's fast paths are checked
against.

Each reference shares no code with the path it checks, with one
exception: :func:`identity_residuals` reads the symmetric sums and
averages from the package's own kernel and checks a property of that
output, the telescoping identity between consecutive averages.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from evalcomb.core import LOG_INF, LOG_ZERO, EValueVector, LogValue
from evalcomb.errors import ValidationError
from evalcomb.sympoly import log_averages_batch, log_binomials, log_esp_batch

_NAIVE_MAX_N = 22
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def logsumexp_1d(log_terms: np.ndarray) -> float:
    """log(sum(exp(t))) over a nonempty 1-D array, stable against
    overflow.  All-(-inf) input returns -inf; any +inf term returns +inf."""
    m = float(np.max(log_terms))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(log_terms - m))))


def naive_symmetric_sums(E: EValueVector) -> tuple[LogValue, ...]:
    """S_0 .. S_n by brute-force subset enumeration (oracle path).

    Walks all 2^n subsets and sums each subset's product explicitly,
    sharing no code with :func:`evalcomb.sympoly.log_esp`, whose log
    sums it checks.  Refuses n > 22.
    """
    n = E.n
    if n > _NAIVE_MAX_N:
        raise ValidationError(
            f"subset enumeration is limited to n <= {_NAIVE_MAX_N}, got {n}"
        )
    logs = [float(v) for v in E.log_values]
    out = [LogValue(0.0)]
    for k in range(1, n + 1):
        terms = []
        for combo in itertools.combinations(logs, k):
            if LOG_ZERO in combo:
                terms.append(LOG_ZERO)
            else:
                terms.append(sum(combo))
        out.append(LogValue(logsumexp_1d(np.array(terms))))
    return tuple(out)


def log_domain_esp(log_rows: np.ndarray, columns: int | None = None) -> np.ndarray:
    """log S_0 .. log S_(columns - 1) (default all n + 1) of each row of
    a (rows, n) matrix of log e-values, by the one-pass recursion
    s_j <- s_j + E_m s_(j-1) with a log-sum-exp per cell.

    Shares no code with the linear-domain kernel of
    :func:`evalcomb.sympoly.log_esp_batch`, and takes every legal row,
    logs far outside the float range among them.  The NaN patch applies
    the 0 * inf = 0 rule: IEEE turns those products (-inf plus +inf) into
    NaN, and the convention says zero.
    """
    rows, n = log_rows.shape
    columns = n + 1 if columns is None else columns
    s = np.full((rows, columns), LOG_ZERO)
    s[:, 0] = 0.0
    buf = np.empty((rows, columns - 1))
    lo, hi = s[:, :-1], s[:, 1:]
    patch_products = bool((log_rows == LOG_INF).any())
    with np.errstate(invalid="ignore"):
        for column in log_rows.T[:, :, None]:
            np.add(lo, column, out=buf)
            if patch_products:
                buf[np.isnan(buf)] = LOG_ZERO
            np.logaddexp(hi, buf, out=hi)
    return s


def mixture_value(E: EValueVector, lam: float) -> LogValue:
    """The betting product at fraction lam in [0, 1], via the mixture
    identity.

    prod_i (lam E_i + 1 - lam) equals sum_k C(n,k) lam^k (1-lam)^(n-k)
    A_k, a binomial-weighted average of the A_k.  It reaches the product
    through the symmetric averages instead of the per-factor wealth of
    :func:`evalcomb.betting.log_wealth`, and makes the dominance
    sup_lam M_n(lam) <= max_k A_k transparent: the weights are a
    probability vector.
    """
    log_A = log_averages_batch(E.log_values[None])[1][0]
    if lam == 0.0:
        return LogValue(0.0)
    if lam == 1.0:
        return LogValue(float(log_A[-1]))
    n = E.n
    k = np.arange(n + 1, dtype=float)
    log_weights = log_binomials(n) + k * math.log(lam) + (n - k) * math.log1p(-lam)
    return LogValue(logsumexp_1d(log_weights + log_A))


def identity_residuals(E: EValueVector) -> np.ndarray:
    """Normalized residuals of the telescoping identity, all k at once.

    The identity ties consecutive averages to leave-one-out symmetric
    sums:

        A_{k+1} - A_k = (1 / (n C(n-1, k))) * sum_i (E_i - 1) S_k(E_-i)

    where E_-i drops entry i.  Both sides are evaluated in linear
    domain (the right side is a signed sum, so log tricks do not
    apply), so every symmetric sum S_k must fit in a float; that also
    bounds the averages and the leave-one-out sums.  Entry k of the
    result is (lhs - rhs) / max(1, A_k, A_{k+1}).
    """
    n = E.n
    log_S, log_A = (v[0] for v in log_averages_batch(E.log_values[None]))
    if not (log_S < _LOG_FLOAT_MAX).all():
        raise ValidationError(
            "identity check requires finite e-values whose symmetric sums "
            "fit in linear scale"
        )
    e = E.values
    A = np.exp(log_A)
    loo = np.empty((n, n - 1))
    for i in range(n):
        loo[i, :i] = E.log_values[:i]
        loo[i, i:] = E.log_values[i + 1 :]
    loo_S = np.exp(log_esp_batch(loo))
    residuals = np.empty(n)
    for k in range(n):
        lhs = A[k + 1] - A[k]
        rhs = float((e - 1.0) @ loo_S[:, k]) / (n * math.comb(n - 1, k))
        scale = max(1.0, A[k], A[k + 1])
        residuals[k] = (lhs - rhs) / scale
    return residuals


def score_derivative(E: EValueVector, lam: float) -> float:
    """d/dlam log M_n(lam) = sum_i (E_i - 1) / ((1 - lam) + lam E_i),
    summed as written, for finite e-values and lam in [0, 1)."""
    e = E.values
    return float(np.sum((e - 1.0) / ((1.0 - lam) + lam * e)))


# ------------------------------------------------------------------
# exact decisions in Fraction arithmetic on dense polynomials (index =
# degree), with the rational Sturm chain: the reference for the integer
# kernel in evalcomb._ratpoly


Poly = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _is_zero(p: Poly) -> bool:
    return len(p) == 1 and p[0] == 0


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_derivative(p: Sequence[Fraction]) -> Poly:
    if len(p) <= 1:
        return [_ZERO]
    return _trim([c * k for k, c in enumerate(p)][1:])


def poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Poly, Poly]:
    q = _trim(q)
    if _is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [_ZERO] * max(1, len(rem) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(_trim(rem)) - 1 >= dq and not _is_zero(_trim(rem)):
        rem = _trim(rem)
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for j, c in enumerate(q):
            rem[shift + j] -= factor * c
    return _trim(quot), _trim(rem)


def _poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = _trim(p), _trim(q)
    while not _is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if _is_zero(a):
        return a
    lead = a[-1]
    return [c / lead for c in a]


def _squarefree(p: Poly) -> Poly:
    p = _trim(p)
    if len(p) <= 1:
        return p
    g = _poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        return p
    quot, rem = poly_divmod(p, g)
    assert _is_zero(rem), "gcd must divide exactly"
    return quot


def sturm_chain(p: Sequence[Fraction]) -> list[Poly]:
    """The Sturm chain of the squarefree part of p."""
    p0 = _squarefree(_trim(list(p)))
    chain = [p0]
    if len(p0) <= 1:
        return chain
    chain.append(poly_derivative(p0))
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if _is_zero(r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(p: Sequence[Fraction], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    chain = sturm_chain(p)
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def betting_poly(values: Sequence[Fraction]) -> Poly:
    """Coefficients of prod_i (1 + (E_i - 1) lam) as a polynomial in lam."""
    poly: Poly = [_ONE]
    for v in values:
        poly = poly_mul(poly, [_ONE, Fraction(v) - 1])
    return poly


def esp_fractions(values: Sequence[Fraction]) -> list[Fraction]:
    """Exact elementary symmetric sums S_0 .. S_n of rational values."""
    s: list[Fraction] = [_ONE]
    for v in values:
        v = Fraction(v)
        s.append(_ZERO)
        for j in range(len(s) - 1, 0, -1):
            s[j] += v * s[j - 1]
    return s


def poly_max_reaches(values: Sequence[Fraction], t: Fraction) -> bool:
    """Does sup over lam in [0, 1] of the betting product reach t?
    Endpoints directly, the interior by a Sturm root count of M - t."""
    t = Fraction(t)
    values = [Fraction(v) for v in values]
    at_zero = _ONE
    if at_zero >= t:
        return True
    poly = betting_poly(values)
    at_one = poly_eval(poly, _ONE)
    if at_one >= t:
        return True
    shifted = list(poly)
    shifted[0] -= t
    return count_roots_between(shifted, Fraction(0), Fraction(1)) > 0


def max_average_reaches(values: Sequence[Fraction], t: Fraction) -> bool:
    """Does max over k of S_k / C(n, k) reach t?  Fraction arithmetic."""
    n = len(values)
    sums = esp_fractions(values)
    return any(s >= Fraction(t) * math.comb(n, k) for k, s in enumerate(sums))
