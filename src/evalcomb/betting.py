"""Constant-fraction betting products and their exact maximization.

Betting a fixed fraction lam of current wealth on each e-value yields
the product M_n(lam) = prod_i ((1 - lam) + lam E_i), whose log factors
log1p(lam (E_i - 1)) have one implementation.  As a function of lam on
[0, 1] its logarithm is concave (strictly, away from the all-ones
vector), so its maximum is where the decreasing derivative

    d/dlam log M_n(lam) = sum_i (E_i - 1) / ((1 - lam) + lam E_i)

changes sign.  The boundary cases are decided in closed form first: the
derivative at 0 is sum(E_i - 1), so a sample mean <= 1 pins the maximum
at lam = 0 (value 1), and the sign of sum(1 - 1/E_i) decides whether it
sits at lam = 1.  Interior maxima are found by safeguarded Halley steps
seeded from the derivative's moments at lam = 0: the terms of the
derivative give its first and second derivatives too, and a step that
leaves the sign bracket or converges too slowly is replaced by bisection.

Each statistic here is one row-wise kernel over a (rows, n) matrix of
log e-values; the single-vector functions are its rows = 1 case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import LOG_INF, LOG_ZERO, EValueVector, LogValue, _checked_rows
from .errors import ConfigError

__all__ = [
    "Boundary",
    "BettingOptimum",
    "BettingOptima",
    "log_wealth",
    "optimize_lambda",
    "optimize_lambda_batch",
    "LAMBDA_TOL",
]

LAMBDA_TOL = 1e-10
_MAX_STEPS = 100


class Boundary(enum.Enum):
    """Where the maximizing betting fraction landed."""

    INTERIOR = "interior"
    AT_ZERO = "at_zero"
    AT_ONE = "at_one"


@dataclass(frozen=True)
class BettingOptimum:
    """Result of maximizing log M_n(lam) over lam in [0, 1].

    ``log_value`` is never below 0: betting nothing always achieves
    M_n(0) = 1, so the supremum is at least 1.  When the input contains
    an infinite e-value every interior fraction gives an infinite
    product; ``infinite_evidence`` marks that case and ``lambda_star``
    is then just a representative witness (1/2).
    """

    lambda_star: float
    log_value: LogValue
    boundary: Boundary
    iterations: int
    achieved_tol: float
    infinite_evidence: bool = False


@dataclass(frozen=True)
class BettingOptima:
    """Row-wise results of :func:`optimize_lambda_batch`.

    Each field holds one entry per row, with the meaning of the field of
    the same name in :class:`BettingOptimum`; ``log_value`` holds plain
    logs and ``boundary`` holds :class:`Boundary` members.
    """

    lambda_star: np.ndarray
    log_value: np.ndarray
    boundary: np.ndarray
    iterations: np.ndarray
    achieved_tol: np.ndarray
    infinite_evidence: np.ndarray


def _log_factors(log_values: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """The betting factor log((1 - lam) + lam E) = log1p(lam (E - 1)),
    entrywise for lam in [0, 1] broadcast against log E.

    The ends are exact: lam = 0 gives 0, also against E = inf (0 * inf
    == 0), and lam = 1 gives log E.  Where E - 1 overflows, the factor
    is log(lam) + log E, within (1 - lam) / (lam E).  Callers silence
    numpy's divide, invalid and overflow warnings.
    """
    factors = np.log1p(lam * np.expm1(log_values))
    saturated = factors == LOG_INF
    if np.count_nonzero(saturated):
        factors = np.where(saturated, np.log(lam) + log_values, factors)
    if np.size(lam) > 1 or not 0.0 < lam < 1.0:
        np.copyto(factors, 0.0, where=lam == 0.0)
        np.copyto(factors, log_values, where=lam == 1.0)
    return factors


def log_wealth(log_rows: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Running log wealth from betting fraction lam on each row of e-values.

    Entry (r, i) is log prod_{j <= i} ((1 - lam) + lam E_rj).  ``lam``
    broadcasts against the (rows, n) matrix: a scalar, an (n,) vector of
    per-step fractions, or a (rows, 1) column of per-row fractions, all
    in [0, 1].  Each factor is log1p(lam (E - 1)) from :func:`_log_factors`.
    A zero factor ruins the bettor for good: the wealth stays zero from
    then on, even if an infinite factor follows.
    """
    log_rows = _checked_rows(log_rows)
    lam = np.asarray(lam, dtype=float)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise ConfigError(f"betting fractions must lie in [0, 1], got {lam}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factors = _log_factors(log_rows, lam)
        wealth = np.cumsum(factors, axis=1)
    ruined = factors == LOG_ZERO
    if ruined.any():
        wealth[np.logical_or.accumulate(ruined, axis=1)] = LOG_ZERO
    return wealth


_CODE_LAMBDA = np.array([0.0, 0.5, 1.0])
_BOUNDARIES = np.array([Boundary.AT_ZERO, Boundary.INTERIOR, Boundary.AT_ONE], dtype=object)


def _interior_roots(excess: np.ndarray) -> np.ndarray:
    """Root of the derivative for each row whose maximum is interior,
    given the rows' excesses E - 1.

    The derivative is f = sum(t), with terms t = (E - 1) / ((1 - lam) +
    lam E) written as 1 / (1/(E - 1) + lam): an entry of 1 contributes 0,
    and one whose linear value saturates to inf contributes its limit
    1/lam.  The same terms give f' = -sum(t^2) and f'' = 2 sum(t^3).
    Each step is a Halley step on g = (1 + b lam) f, b = min(E) - 1 in
    [-1, 0): g has f's sign on [0, 1) without the pole of the smallest
    entry's term, the pole nearest to 1 (a zero entry's term becomes the
    constant -1), so g is close to the Moebius functions on which a
    Halley step is exact.  At lam = 0 the terms are the excesses, so the
    first point is the Halley step from 0, taken without an evaluation.

    Every row keeps a bracket [lo, hi] with a non-negative derivative at
    lo and a negative one at hi, starting from [0, 1].  With tol =
    LAMBDA_TOL, the next point is the Halley step carried tol/2 past the
    predicted root, so that the bracket closes from both sides.
    Bisection replaces the step when it would leave the bracket, is NaN
    (a term overflowed) or is longer than the step before last, which
    stops slow one-sided crawls.  No target lies past 1 - tol/2, because
    lam = 1 is never evaluated: a step that would reach it tries
    1 - tol/2 instead, which settles a root within tol/2 of 1 at once
    and costs any other row at most one evaluation.  A row is done once
    its bracket is at most 2 tol wide (or after _MAX_STEPS derivative
    evaluations); its root is the bracket's midpoint and achieved_tol
    the bracket's half-width.

    Returns the rows lambda, derivative evaluations and achieved_tol;
    callers silence numpy's divide, overflow and invalid warnings.
    """
    k, n = excess.shape
    out = np.empty((3, k))
    inverse_excess = 1.0 / excess
    bottom = excess.min(axis=1)
    rows = np.arange(k, dtype=float)
    lo, x = np.zeros((2, k))
    hi, step, prev_step = np.ones((3, k))
    # t, t^2 and t^3: their sums are f, -f' and f''/2, added without
    # BLAS, whose dot products may start threads on long rows
    stack = np.empty((3, k, n))
    stack[0] = excess
    tol, nudge = LAMBDA_TOL, 0.5 * LAMBDA_TOL
    for evaluation in range(_MAX_STEPS + 1):
        np.multiply(stack[0], stack[0], out=stack[1])
        np.multiply(stack[1], stack[0], out=stack[2])
        moments = np.add.reduce(stack, axis=2)
        if evaluation:
            rising = moments[0] >= 0.0
            np.copyto(lo, x, where=rising)
            np.copyto(hi, x, where=~rising)
            done = hi - lo <= 2.0 * tol
            if evaluation == _MAX_STEPS:
                done[:] = True
            if np.count_nonzero(done):
                finished = rows[done].astype(int)
                out[0, finished] = 0.5 * (lo[done] + hi[done])
                out[1, finished] = evaluation
                out[2, finished] = 0.5 * (hi[done] - lo[done])
                if done.all():
                    break
                state = np.vstack((lo, hi, x, step, prev_step, rows, bottom, moments))[:, ~done]
                lo, hi, x, step, prev_step, rows, bottom = state[:7]
                moments, inverse_excess = state[7:], inverse_excess[~done]
                stack = stack[:, : rows.size]
        # g, -g' and g''/2 from f, f' and f''
        weighted = moments * (1.0 + bottom * x)
        slope, bend = weighted[1:] - bottom * moments[:2]
        newton = weighted[0] / slope
        halley = newton / (1.0 - newton * (bend / slope))
        target = np.minimum(x + (halley + np.copysign(nudge, halley)), 1.0 - nudge)
        inside = (lo < target) & (target < hi) & (np.abs(halley) <= prev_step)
        following = np.where(inside, target, 0.5 * (lo + hi))
        prev_step, step = step, np.abs(following - x)
        x = following
        np.divide(1.0, inverse_excess + x[:, None], out=stack[0])
    return out


def optimize_lambda_batch(log_rows: np.ndarray) -> BettingOptima:
    """Maximize log M_n(lam) over lam in [0, 1] for every row, to within
    LAMBDA_TOL in lam.

    Rows with an infinite entry are flagged (every interior lam already
    gives an infinite product) instead of searched.  Boundary maxima are
    resolved exactly.  A zero entry makes the slope at one -inf, so
    such a row is never put at lam = 1, where its product vanishes.
    Interior maxima come from safeguarded Halley steps on the
    derivative, seeded from its moments at lam = 0, which bracket its
    sign change to within ``achieved_tol``.  A row's value is the final
    column of :func:`log_wealth` at the returned lam, the sum of the
    factors log1p(lam (E - 1)), and at least 0 (the value of lam = 0).
    """
    log_rows = _checked_rows(log_rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        excess = np.expm1(log_rows)
        infinite = (log_rows == LOG_INF).any(axis=1)
        undecided = ~infinite & (excess.sum(axis=1) > 0.0)
        at_one = undecided & (np.expm1(-log_rows).sum(axis=1) <= 0.0)
        interior = undecided & ~at_one
        code = np.add(undecided | infinite, at_one, dtype=int)
        lam = _CODE_LAMBDA[code]
        iterations, achieved_tol = np.zeros(code.size, dtype=int), np.zeros(code.size)
        log_value = np.where(infinite, LOG_INF, 0.0)
        if np.count_nonzero(interior):
            roots = _interior_roots(excess[interior])
            lam[interior], iterations[interior], achieved_tol[interior] = roots
        if np.count_nonzero(undecided):
            factors = _log_factors(log_rows[undecided], lam[undecided][:, None])
            log_value[undecided] = np.maximum(np.cumsum(factors, axis=1)[:, -1], 0.0)
    return BettingOptima(lam, log_value, _BOUNDARIES[code], iterations, achieved_tol, infinite)


def optimize_lambda(E: EValueVector) -> BettingOptimum:
    """Maximize log M_n(lam) over lam in [0, 1] to within LAMBDA_TOL in
    lam: the rows = 1 case of :func:`optimize_lambda_batch`."""
    best = optimize_lambda_batch(E.log_values[None])
    return BettingOptimum(
        lambda_star=float(best.lambda_star[0]),
        log_value=LogValue(float(best.log_value[0])),
        boundary=best.boundary[0],
        iterations=int(best.iterations[0]),
        achieved_tol=float(best.achieved_tol[0]),
        infinite_evidence=bool(best.infinite_evidence[0]),
    )
