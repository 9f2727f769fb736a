"""Constant-fraction betting products and their exact maximization.

Betting a fixed fraction lam of current wealth on each e-value yields
the product M_n(lam) = prod_i ((1 - lam) + lam E_i).  As a function of
lam on [0, 1] its logarithm is concave (strictly, away from the all-ones
vector), so its maximum is where the decreasing derivative

    d/dlam log M_n(lam) = sum_i (E_i - 1) / ((1 - lam) + lam E_i)

changes sign.  The boundary cases are decided in closed form first: the
derivative at 0 is sum(E_i - 1), so a sample mean <= 1 pins the maximum
at lam = 0 (value 1), and the sign of sum(1 - 1/E_i) decides whether it
sits at lam = 1.  Interior maxima are found by safeguarded Newton
steps: the second derivative is minus the sum of the squared terms,
and a step that leaves the sign bracket or converges too slowly is
replaced by bisection.

Each statistic here is one row-wise kernel over a (rows, n) matrix of
log e-values; the single-vector functions are its rows = 1 case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import LOG_INF, LOG_ZERO, EValueVector, LogValue
from .errors import ConfigError, ValidationError

__all__ = [
    "Boundary",
    "BettingOptimum",
    "BettingOptima",
    "log_wealth",
    "product_value",
    "score_derivative",
    "optimize_lambda",
    "optimize_lambda_batch",
    "DEFAULT_LAMBDA_TOL",
]

DEFAULT_LAMBDA_TOL = 1e-10
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


def _checked_rows(log_rows: np.ndarray) -> np.ndarray:
    log_rows = np.asarray(log_rows, dtype=float)
    if log_rows.ndim != 2:
        raise ValidationError("expected a 2-D matrix of log e-values")
    return log_rows


def log_wealth(log_rows: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Running log wealth from betting fraction lam on each row of e-values.

    Entry (r, i) is log prod_{j <= i} ((1 - lam) + lam E_rj).  ``lam``
    broadcasts against the (rows, n) matrix: a scalar, an (n,) vector of
    per-step fractions, or a (rows, 1) column of per-row fractions, all
    in [0, 1].

    Each factor is logaddexp(log(1 - lam), log(lam) + log E), which is
    exact at both betting extremes: lam = 0 gives exactly 1, also
    against an infinite e-value (0 * inf == 0), and lam = 1 gives
    exactly the e-value.  A zero factor ruins the bettor for good: the
    wealth stays zero from then on, even if an infinite factor follows.
    """
    log_rows = _checked_rows(log_rows)
    lam = np.asarray(lam, dtype=float)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise ConfigError(f"betting fractions must lie in [0, 1], got {lam}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factors = np.logaddexp(np.log1p(-lam), np.log(lam) + log_rows)
        # NaN arises only where lam = 0 meets an infinite e-value: a factor of 1
        factors[np.isnan(factors)] = 0.0
        wealth = np.cumsum(factors, axis=1)
    ruined = factors == LOG_ZERO
    if ruined.any():
        wealth[np.logical_or.accumulate(ruined, axis=1)] = LOG_ZERO
    return wealth


def product_value(E: EValueVector, lam: float) -> LogValue:
    """log M_n(lam) for one fraction lam in [0, 1]: the final wealth of
    :func:`log_wealth`, so lam = 0 returns exactly 1 and a zero factor
    forces the whole product to zero even next to infinite entries."""
    return LogValue(float(log_wealth(E.log_values[None], float(lam))[0, -1]))


def _inverse_excess(log_rows: np.ndarray) -> np.ndarray:
    """1 / (E - 1) entrywise: inf for E = 1, 0 for E too large for a float."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.expm1(log_rows)


def _slope_terms(inverse_excess: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """The derivative's terms (E - 1) / ((1 - lam) + lam E), written as
    1 / (1/(E - 1) + lam).

    That form needs no special cases: an entry of 1 contributes 0, and
    an entry whose linear value saturates to inf contributes its limit
    1/lam.  Minus the squared terms are the second derivative's terms.
    Callers silence the divide-by-zero of lam = 0 against such an entry.
    """
    return 1.0 / (inverse_excess + lam)


def score_derivative(E: EValueVector, lam: float) -> float:
    """The derivative of log M_n at lam, an extended real.

    Defined for lam in [0, 1) and finite e-values (every factor is then
    at least 1 - lam > 0).
    """
    lam = float(lam)
    if math.isnan(lam) or not (0.0 <= lam < 1.0):
        raise ConfigError(f"lambda must lie in [0, 1) for the derivative, got {lam}")
    if np.isposinf(E.log_values).any():
        raise ValidationError("derivative requires finite e-values")
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.sum(_slope_terms(_inverse_excess(E.log_values), lam)))


def _interior_roots(
    log_rows: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root of the derivative for each row whose maximum is interior.

    Every row keeps a bracket [lo, hi] with a positive derivative at lo
    and a non-positive one at hi, starting from [0, 1].  The next point
    is the Newton step carried tol/2 past the predicted root, so that
    the bracket closes from both sides.  Bisection replaces the step
    when it would leave the bracket or is longer than the step before
    last, which stops slow one-sided crawls.  A row is done once its bracket is at most 2 tol wide
    (or after _MAX_STEPS derivative evaluations); its root is the
    bracket's midpoint and achieved_tol the bracket's half-width.

    Returns (lambda, derivative evaluations, achieved_tol) per row.
    """
    inverse_excess = _inverse_excess(log_rows)
    k = log_rows.shape[0]
    out_lam, out_tol = np.empty(k), np.empty(k)
    out_steps = np.empty(k, dtype=int)
    active = np.arange(k)
    lo, hi, x = np.zeros(k), np.ones(k), np.zeros(k)
    step, prev_step = np.ones(k), np.ones(k)
    nudge = 0.5 * tol
    # Infinite terms (lam = 0 against a saturated entry) and the NaN
    # steps they make only ever send a row to bisection.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for evaluation in range(1, _MAX_STEPS + 1):
            terms = _slope_terms(inverse_excess, x[:, None])
            slope = terms.sum(axis=1)
            curvature = np.einsum("ij,ij->i", terms, terms)
            rising = slope > 0.0
            lo = np.where(rising, x, lo)
            hi = np.where(rising, hi, x)
            done = hi - lo <= 2.0 * tol
            if evaluation == _MAX_STEPS:
                done[:] = True
            if done.any():
                rows = active[done]
                out_lam[rows] = 0.5 * (lo[done] + hi[done])
                out_tol[rows] = 0.5 * (hi[done] - lo[done])
                out_steps[rows] = evaluation
                keep = ~done
                if not keep.any():
                    break
                active, inverse_excess = active[keep], inverse_excess[keep]
                lo, hi, x, slope, curvature, rising, step, prev_step = (
                    v[keep]
                    for v in (lo, hi, x, slope, curvature, rising, step, prev_step)
                )
            newton = slope / curvature
            target = x + (newton + np.copysign(nudge, newton))
            use_newton = (
                (lo < target) & (target < hi) & (np.abs(newton) <= prev_step)
            )
            following = np.where(use_newton, target, 0.5 * (lo + hi))
            prev_step, step = step, np.abs(following - x)
            x = following
    return out_lam, out_steps, out_tol


def optimize_lambda_batch(
    log_rows: np.ndarray, tol: float = DEFAULT_LAMBDA_TOL
) -> BettingOptima:
    """Maximize log M_n(lam) over lam in [0, 1] for every row, to within
    tol in lam.

    Rows with an infinite entry are flagged (every interior lam already
    gives an infinite product) instead of searched.  Boundary maxima are
    resolved exactly.  A zero entry makes the slope at one -inf, so
    such a row is never put at lam = 1, where its product vanishes.
    Interior maxima come from safeguarded Newton steps on the
    derivative, whose sign change they bracket to within
    ``achieved_tol``.  The value of a row at one or inside is its final
    wealth at the returned lam, and at least 0 (the value of lam = 0).
    """
    tol = float(tol)
    if not tol > 0.0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    log_rows = _checked_rows(log_rows)
    rows = log_rows.shape[0]
    infinite = (log_rows == LOG_INF).any(axis=1)
    with np.errstate(over="ignore"):
        slope_at_zero = np.expm1(log_rows).sum(axis=1)
        slope_at_one = -np.expm1(-log_rows).sum(axis=1)
    undecided = ~infinite & (slope_at_zero > 0.0)
    at_one = undecided & (slope_at_one >= 0.0)
    interior = undecided & ~at_one

    lam = np.zeros(rows)
    boundary = np.full(rows, Boundary.AT_ZERO, dtype=object)
    iterations = np.zeros(rows, dtype=int)
    achieved_tol = np.zeros(rows)
    log_value = np.where(infinite, LOG_INF, 0.0)
    lam[infinite] = 0.5
    boundary[infinite | interior] = Boundary.INTERIOR
    lam[at_one] = 1.0
    boundary[at_one] = Boundary.AT_ONE
    if interior.any():
        lam[interior], iterations[interior], achieved_tol[interior] = _interior_roots(
            log_rows[interior], tol
        )
    if undecided.any():
        final = log_wealth(log_rows[undecided], lam[undecided, None])[:, -1]
        log_value[undecided] = np.maximum(final, 0.0)
    return BettingOptima(lam, log_value, boundary, iterations, achieved_tol, infinite)


def optimize_lambda(
    E: EValueVector, tol: float = DEFAULT_LAMBDA_TOL
) -> BettingOptimum:
    """Maximize log M_n(lam) over lam in [0, 1] to within tol in lam:
    the rows = 1 case of :func:`optimize_lambda_batch`."""
    best = optimize_lambda_batch(E.log_values[None], tol)
    return BettingOptimum(
        lambda_star=float(best.lambda_star[0]),
        log_value=LogValue(float(best.log_value[0])),
        boundary=best.boundary[0],
        iterations=int(best.iterations[0]),
        achieved_tol=float(best.achieved_tol[0]),
        infinite_evidence=bool(best.infinite_evidence[0]),
    )
