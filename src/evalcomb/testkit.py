"""Level-alpha tests built on the combined statistics, with uniform reports.

Three decision rules share one report shape:

* ``max_average``: reject when max_k A_k >= 1/alpha.  Valid for
  independent or simultaneous e-values.
* ``optimized_betting``: reject when sup_lam M_n(lam) >= 1/alpha.
  Valid under the same regimes and never more powerful than
  ``max_average``, because the betting product is a binomial mixture of
  the A_k (see :func:`evalcomb.sympoly.mixture_value`).
* ``ville_sequential``: reject when the running betting product under a
  predictable fraction sequence ever reaches 1/alpha.  Valid for
  sequential e-values, i.e. under the weakest of the three regimes.

All comparisons happen in log domain with a closed threshold: a
statistic exactly equal to 1/alpha rejects.  The log-domain comparison
is authoritative; the reported p-value bound is reconciled to it when
exp() rounding would disagree at an exact-equality boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .betting import BettingOptimum, log_wealth, optimize_lambda
from .core import GUARANTEED_REGIMES, EValueVector, LogValue, Regime
from .errors import ConfigError, ValidationError
from .sympoly import SymmetricAverages, symmetric_averages

__all__ = [
    "StatKind",
    "VilleDetail",
    "TestReport",
    "test_max_average",
    "test_optimized_betting",
    "test_ville",
    "decide_batch",
    "e_to_p",
]


class StatKind(enum.Enum):
    MAX_AVERAGE = "max_average"
    OPTIMIZED_BETTING = "optimized_betting"
    VILLE_SEQUENTIAL = "ville_sequential"


@dataclass(frozen=True, eq=False)
class VilleDetail:
    """Trajectory record for the sequential betting test.

    ``log_trajectory`` (the running log products) and ``strategy`` (the
    fraction bet at each step) are read-only float64 arrays.
    ``hitting_index`` is the 1-based index of the first running product
    at or above the threshold, or None if it never gets there.
    ``attested`` echoes the caller's claim that a supplied fraction
    sequence is predictable (None for a constant fraction, where there
    is nothing to attest).
    """

    log_trajectory: np.ndarray
    hitting_index: int | None
    strategy: np.ndarray
    attested: bool | None


Detail = Union[SymmetricAverages, BettingOptimum, VilleDetail]


@dataclass(frozen=True)
class TestReport:
    """Outcome of one level-alpha test.

    ``reject`` is exactly the event log_statistic >= log_threshold
    (= -log alpha).  ``p_bound`` is min(1, 1/statistic), the tail bound
    the statistic implies, kept consistent with ``reject`` at rounding
    boundaries.  ``warnings`` carries regime and attestation caveats;
    they never suppress the computation.
    """

    statistic_kind: StatKind
    log_statistic: LogValue
    alpha: float
    log_threshold: float
    reject: bool
    p_bound: float
    detail: Detail
    warnings: tuple[str, ...] = ()


def _checked_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _reconciled_p_bound(log_statistic: LogValue, alpha: float, reject: bool) -> float:
    """The bound :func:`e_to_p`, nudged to agree with the log-domain
    verdict.

    exp can round across alpha when the statistic sits exactly on the
    threshold; the decision is taken in log domain, so the bound is
    clamped by at most one ulp to keep reject <=> p_bound <= alpha true
    in every report.
    """
    p = e_to_p(log_statistic)
    if reject and p > alpha:
        p = alpha
    elif not reject and p <= alpha:
        p = math.nextafter(alpha, 1.0)
    return p


_BOUNDARY_SNAP = 5e-13
"""Absolute log-domain width within which a statistic is taken to sit
exactly on the rejection threshold.

The decision rule is closed (statistic == 1/alpha rejects), and the
interesting boundary cases are exact in real arithmetic: for (0, 8) at
alpha = 1/4 the best average is exactly 4.  The log-domain pipeline
reproduces such values only to a couple of ulps, which would otherwise
turn mathematical equality into a coin flip of rounding directions.
Snapping also keeps the published invariant (reject iff log_statistic
>= log_threshold) literally true in every report.  The width is far
below every documented tolerance and inflates the rejection region by
a relative 5e-13, which is invisible next to the 1/t guarantee."""


def decide_batch(
    log_statistics: np.ndarray, alpha: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """The closed rule, statistic >= 1/alpha rejects, elementwise.

    Returns the log statistics with those within ``_BOUNDARY_SNAP`` of
    the threshold moved onto it, the log threshold -log(alpha), and the
    verdicts.  Every test here and every Monte Carlo rate decides
    through this one function; alpha must already be checked.
    """
    log_threshold = -math.log(alpha)
    snapped = np.array(log_statistics, dtype=float)
    snapped[np.abs(snapped - log_threshold) <= _BOUNDARY_SNAP] = log_threshold
    return snapped, log_threshold, snapped >= log_threshold


def _report(
    kind: StatKind,
    alpha: float,
    log_statistic: float,
    detail: Detail,
    warnings: tuple[str, ...],
) -> TestReport:
    """Decide one statistic by the closed rule and build its report.

    Every test reports through here; alpha must already be checked.
    """
    snapped, log_threshold, reject = decide_batch(log_statistic, alpha)
    statistic, reject = LogValue(snapped), bool(reject)
    return TestReport(
        statistic_kind=kind,
        log_statistic=statistic,
        alpha=alpha,
        log_threshold=log_threshold,
        reject=reject,
        p_bound=_reconciled_p_bound(statistic, alpha, reject),
        detail=detail,
        warnings=warnings,
    )


def _batch_regime_warnings(E: EValueVector) -> tuple[str, ...]:
    if E.regime in GUARANTEED_REGIMES:
        return ()
    return (
        "the 1/t tail guarantee for this statistic holds for independent or "
        f"simultaneous e-values; this vector's regime is '{E.regime.value}'",
    )


def test_max_average(E: EValueVector, alpha: float) -> TestReport:
    """Reject when the largest symmetric average reaches 1/alpha."""
    alpha = _checked_alpha(alpha)
    averages = symmetric_averages(E)
    return _report(
        StatKind.MAX_AVERAGE,
        alpha,
        averages.log_max.log_magnitude,
        averages,
        _batch_regime_warnings(E),
    )


def test_optimized_betting(E: EValueVector, alpha: float) -> TestReport:
    """Reject when the best constant-fraction product reaches 1/alpha."""
    alpha = _checked_alpha(alpha)
    optimum = optimize_lambda(E)
    return _report(
        StatKind.OPTIMIZED_BETTING,
        alpha,
        optimum.log_value.log_magnitude,
        optimum,
        _batch_regime_warnings(E),
    )


def _resolve_strategy(
    E: EValueVector, strategy: float | Sequence[float]
) -> tuple[np.ndarray, bool]:
    """Return (per-step fractions, is_constant)."""
    if np.isscalar(strategy) or isinstance(strategy, (int, float)):
        lam = float(strategy)
        if math.isnan(lam) or not (0.0 <= lam <= 1.0):
            raise ValidationError(f"betting fraction must lie in [0, 1], got {lam}")
        return np.full(E.n, lam), True
    lams = np.asarray(list(strategy), dtype=float)
    if lams.ndim != 1 or lams.size != E.n:
        raise ValidationError(
            f"betting sequence must have one fraction per e-value "
            f"({E.n}), got {lams.size}"
        )
    if np.isnan(lams).any() or (lams < 0).any() or (lams > 1).any():
        bad = np.where(np.isnan(lams) | (lams < 0) | (lams > 1))[0][0]
        raise ValidationError(
            f"betting fraction at position {bad} is outside [0, 1]: {lams[bad]}"
        )
    return lams, False


def test_ville(
    E: EValueVector,
    strategy: float | Sequence[float],
    alpha: float,
    *,
    attested: bool = False,
) -> TestReport:
    """Sequential betting test: reject if the running product ever
    reaches 1/alpha.

    ``strategy`` is either one constant fraction or a sequence of
    per-step fractions.  A sequence is only a valid betting strategy
    when each fraction depends on nothing later than the preceding
    e-values; that property is invisible in the numbers, so the caller
    attests it via ``attested`` and the report echoes the attestation
    (with a warning when it is absent).
    """
    alpha = _checked_alpha(alpha)
    lams, is_constant = _resolve_strategy(E, strategy)
    trajectory = log_wealth(E.log_values[None], lams)[0]
    crossed = decide_batch(trajectory, alpha)[2]
    warnings: tuple[str, ...] = ()
    if E.regime is Regime.UNKNOWN:
        warnings += (
            "the sequential guarantee assumes sequential e-values; this "
            "vector's regime is 'unknown'",
        )
    if not is_constant and not attested:
        warnings += (
            "predictability of the supplied betting sequence was not "
            "attested by the caller",
        )
    trajectory.flags.writeable = False
    lams.flags.writeable = False
    detail = VilleDetail(
        log_trajectory=trajectory,
        hitting_index=int(np.argmax(crossed)) + 1 if crossed.any() else None,
        strategy=lams,
        attested=None if is_constant else attested,
    )
    # snapping is monotone, so the path's maximum decides the whole path
    return _report(
        StatKind.VILLE_SEQUENTIAL, alpha, float(np.max(trajectory)), detail, warnings
    )


def e_to_p(log_statistic: LogValue | float) -> float:
    """The p-value bound min(1, 1/statistic) implied by a statistic."""
    if isinstance(log_statistic, LogValue):
        ls = log_statistic.log_magnitude
    else:
        ls = float(log_statistic)
        if math.isnan(ls):
            raise ValidationError("log statistic must not be NaN")
    return 1.0 if ls <= 0.0 else math.exp(-ls)


# The decision procedures are library entry points that happen to carry a
# test_ prefix; stop pytest from collecting them when a test module imports
# them by name.
test_max_average.__test__ = False
test_optimized_betting.__test__ = False
test_ville.__test__ = False
