"""Exact decisions on rational e-values: symmetric sums, betting
polynomials, Sturm chains, and closed forms for two-point rows.

Support for the exact enumerator.  Entries a_i / D are brought to one
common denominator D once; after that every step works on Python ints:

* the elementary symmetric sums are e_k(a) / D^k, so "does the average
  A_k reach t = tn / td" is td e_k(a) >= tn C(n, k) D^k;
* the betting product prod_i (1 + (E_i - 1) lam) is P(lam) / D^n with
  P = prod_i (D + (a_i - D) lam), so "does sup over [0, 1] reach t"
  asks whether td P - tn D^n is >= 0 at an endpoint or has a root in
  (0, 1).  Interior roots are counted with a Sturm chain on the
  squarefree part, which also counts a tangent (touch-only) maximum
  exactly once.

The Sturm chain is a primitive pseudo-remainder sequence (Collins,
"Subresultants and reduced polynomial remainder sequences", 1967): the
next member is the remainder of |lc|^(delta + 1) times the dividend,
which is integral, negated and divided by its positive content.
Positive factors change no sign, so the chain counts roots exactly like
the rational one, and no fraction is ever formed.

A two-point row, c entries hi = a / D and n - c entries lo = b / D, has
closed forms that need neither the row nor a chain, and the enumerator
decides its outcome classes with them:

* its sums e_k are the coefficients of (1 + a z)^c (1 + b z)^(n - c),
  which follow a three-term recurrence, and by Newton's inequalities
  the A_k are log-concave, so the scan over k stops at the first k
  with A_(k+1) <= A_k: no later average is larger;
* log M(lam) = c log(1 + (hi - 1) lam) + (n - c) log(1 + (lo - 1) lam)
  is concave with its stationary point at the rational
  lam* = (c (hi - 1) + (n - c)(lo - 1)) / (n (hi - 1)(1 - lo)), so the
  supremum is 1, M(1) or M(lam*), each one comparison of integer
  powers.

The generic betting decider, :func:`poly_max_reaches`, stays the
oracle for arbitrary rational rows.

Polynomials are dense lists of ints, index = degree of the term; the
zero polynomial is ``[0]``.  The public functions also take Fraction
coefficients and values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "sturm_chain",
    "count_roots_between",
    "betting_poly",
    "esp_fractions",
    "poly_max_reaches",
    "two_point_max_average_reaches",
    "two_point_betting_reaches",
]

Poly = list[int]


def _trim(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: Poly) -> Poly:
    """p divided by its positive content (the gcd of its coefficients)."""
    g = math.gcd(*p)
    return p if g <= 1 else [c // g for c in p]


def _derivative(p: Poly) -> Poly:
    if len(p) <= 1:
        return [0]
    return [k * c for k, c in enumerate(p)][1:]


def _pseudo_remainder(a: Poly, b: Poly) -> Poly:
    """The remainder of a positive multiple of a divided by b.

    Each step scales the running remainder by |lc(b)|, so the result is
    |lc(b)|^s a mod b for the s <= delta + 1 steps taken: a positive
    multiple of the remainder of |lc(b)|^(delta + 1) a.
    """
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    while len(r) - 1 >= db and r != [0]:
        shift = len(r) - 1 - db
        factor = sign * r[-1]
        r = [scale * c for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= factor * c
        _trim(r)
    return r


def _exact_quotient(a: Poly, b: Poly) -> Poly:
    """a / b for an integer polynomial b that divides a with an integer
    quotient."""
    r = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for shift in range(len(quot) - 1, -1, -1):
        factor = r[shift + db] // b[-1]
        quot[shift] = factor
        for j, c in enumerate(b):
            r[shift + j] -= factor * c
    return quot


def _remainder_sequence(p0: Poly) -> list[Poly]:
    """p0, p0', then negated primitive pseudo-remainders until one
    vanishes; the last member is gcd(p0, p0') up to a constant."""
    chain = [p0, _primitive(_derivative(p0))]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _rational(x: int | Fraction) -> int | Fraction:
    """x as an int or Fraction, converting anything else exactly."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _common_numerators(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Integers a_i and one D > 0 with values[i] == a_i / D."""
    values = [_rational(v) for v in values]
    # A set, not a generator: CPython builds the argument tuple from a
    # generator at a guessed size and resizes it, and the resized tuples
    # pile up in its per-size free lists (megabytes over a few thousand
    # calls).
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def sturm_chain(p: Sequence[int | Fraction]) -> list[Poly]:
    """The Sturm chain of the squarefree part of p, as a primitive
    pseudo-remainder sequence of integer polynomials."""
    # integer coefficients of a positive multiple of p
    p0 = _primitive(_trim(_common_numerators(p)[0]))
    if len(p0) <= 1:
        return [p0]
    chain = _remainder_sequence(p0)
    if len(chain[-1]) > 1:
        # p0 has a repeated root: restart from p0 / gcd(p0, p0'), which
        # Gauss's lemma makes an integer polynomial.
        chain = _remainder_sequence(_primitive(_exact_quotient(p0, chain[-1])))
    return chain


def _sign_changes(chain: list[Poly], x: int | Fraction) -> int:
    """Sign changes along the chain at x = num / den, zeros skipped.

    Each member is evaluated as den^d p(num / den), which has the sign
    of p(x) because den > 0.
    """
    num, den = x.numerator, x.denominator
    changes, last = 0, 0
    for p in chain:
        acc, power = p[-1], 1
        for c in reversed(p[:-1]):
            power *= den
            acc = acc * num + c * power
        if acc:
            sign = 1 if acc > 0 else -1
            changes += last == -sign
            last = sign
    return changes


def count_roots_between(
    p: Sequence[int | Fraction], a: int | Fraction, b: int | Fraction
) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    chain = sturm_chain(p)
    return _sign_changes(chain, _rational(a)) - _sign_changes(chain, _rational(b))


def betting_poly(values: Sequence[int | Fraction]) -> tuple[Poly, int]:
    """(P, scale) with prod_i (1 + (E_i - 1) lam) == P(lam) / scale.

    P has integer coefficients, index = degree, and scale = D^n for the
    common denominator D of the entries.
    """
    nums, den = _common_numerators(values)
    poly = [1]
    for a in nums:
        slope = a - den
        poly = [den * c + slope * b for c, b in zip(poly + [0], [0] + poly)]
    return _trim(poly), den ** len(nums)


def _esp_integers(nums: Sequence[int]) -> list[int]:
    s = [1]
    for a in nums:
        s.append(0)
        for j in range(len(s) - 1, 0, -1):
            s[j] += a * s[j - 1]
    return s


def esp_fractions(values: Sequence[int | Fraction]) -> list[Fraction]:
    """Exact elementary symmetric sums S_0 .. S_n of rational values."""
    nums, den = _common_numerators(values)
    return [Fraction(s, den**k) for k, s in enumerate(_esp_integers(nums))]


def poly_max_reaches(values: Sequence[int | Fraction], t: int | Fraction) -> bool:
    """Exact decision: does sup over lam in [0, 1] of the betting
    product reach the threshold t (closed comparison)?

    Checks both endpoints, then asks whether the level t is crossed or
    touched anywhere inside (0, 1) by root-counting.  The product is
    continuous, so an interior root of M - t means the supremum is at
    least t; no root and both endpoints below t means it never gets
    there.
    """
    t = _rational(t)
    poly, scale = betting_poly(values)
    # td P(lam) - tn D^n has the sign of M(lam) - t.
    shifted = [t.denominator * c for c in poly]
    shifted[0] -= t.numerator * scale
    if shifted[0] >= 0 or sum(shifted) >= 0:  # lam = 0, lam = 1
        return True
    return count_roots_between(shifted, 0, 1) > 0


def two_point_max_average_reaches(
    count: int, n: int, hi: int | Fraction, lo: int | Fraction, t: int | Fraction
) -> bool:
    """Exact decision: does max over k of A_k = S_k / C(n, k) reach the
    threshold t (closed comparison) on the row of ``count`` entries hi
    and n - count entries lo (nonnegative)?  The row is never built.

    With hi = a / D and lo = b / D, the sums e_k of the integers are the
    coefficients of G(z) = (1 + a z)^c (1 + b z)^m, m = n - c, that is
    sum_i C(c, i) C(m, k - i) a^i b^(k - i).  Matching coefficients in
    (1 + a z)(1 + b z) G' = (c a (1 + b z) + m b (1 + a z)) G gives

        (k + 1) e_(k+1) = (c a + m b - (a + b) k) e_k + a b (n - k + 1) e_(k-1),

    two small-by-large products per step.  A_(k+1) <= A_k is
    (k + 1) e_(k+1) <= (n - k) D e_k; the A_k are log-concave (Newton),
    so no average past the first such descent is larger than A_k.
    """
    t = _rational(t)
    (a, b), den = _common_numerators((hi, lo))
    m = n - count
    slope, cross = count * a + m * b, a * b
    previous, current = 0, 1  # e_(k-1), e_k
    scale = 1  # C(n, k) D^k
    for k in range(n):
        if t.denominator * current >= t.numerator * scale:
            return True
        scaled = (slope - (a + b) * k) * current + cross * (n - k + 1) * previous
        bound = (n - k) * den
        if scaled <= bound * current:  # first descent: A_(k+1) <= A_k
            return False
        previous, current = current, scaled // (k + 1)
        scale = scale * bound // (k + 1)
    return t.denominator * current >= t.numerator * scale


def two_point_betting_reaches(
    count: int, n: int, hi: int | Fraction, lo: int | Fraction, t: int | Fraction
) -> bool:
    """:func:`poly_max_reaches` on the row of ``count`` entries hi and
    n - count entries lo (nonnegative), without a polynomial or a chain.

    With a = D hi >= b = D lo (swapped if need be), c = count and
    m = n - count: log M is concave on [0, 1), and D times its slope at
    0 is s = c (a - D) + m (b - D).  If s <= 0, M never rises above
    M(0) = 1.  Otherwise M rises up to lam* = D s / (n (a - D)(D - b))
    when b < D, and all the way when b >= D, so the supremum is
    M(1) = a^c b^m / D^n when D s >= n (a - D)(D - b), whose right side
    is at most 0 when b >= D, and else

        M(lam*) = (a - b)^n c^c m^m / (n^n (D - b)^c (a - D)^m),

    where 1 + (hi - 1) lam* = c (a - b) / (n (D - b)) and
    1 + (lo - 1) lam* = m (a - b) / (n (a - D)).
    """
    t = _rational(t)
    if t <= 1:  # M(0) = 1
        return True
    (a, b), den = _common_numerators((hi, lo))
    if a < b:
        a, b, count = b, a, n - count
    m = n - count
    slope = count * (a - den) + m * (b - den)
    if slope <= 0:
        return False
    if den * slope >= n * (a - den) * (den - b):  # lam* >= 1, or b >= D
        return t.denominator * a**count * b**m >= t.numerator * den**n
    return (
        t.denominator * (a - b) ** n * count**count * m**m
        >= t.numerator * n**n * (den - b) ** count * (a - den) ** m
    )
