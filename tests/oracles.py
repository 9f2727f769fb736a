"""Reference implementations that the package's fast paths are checked
against.  They share no code with the paths they check."""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from evalcomb.core import LOG_ZERO, EValueVector, LogValue, logsumexp_1d
from evalcomb.errors import ValidationError

_NAIVE_MAX_N = 22


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
