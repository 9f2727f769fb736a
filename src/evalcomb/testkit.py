"""Level-alpha tests built on the combined statistics, with uniform reports.

Three decision rules share one report shape:

* ``max_average``: reject when max_k A_k >= 1/alpha.  Valid for
  independent or simultaneous e-values.
* ``optimized_betting``: reject when sup_lam M_n(lam) >= 1/alpha.
  Valid under the same regimes and never more powerful than
  ``max_average``, because the betting product is a binomial mixture of
  the A_k: M_n(lam) = sum_k C(n, k) lam^k (1 - lam)^(n - k) A_k.
* ``ville_sequential``: reject when the running betting product under a
  predictable fraction sequence ever reaches 1/alpha.  Valid for
  sequential e-values, i.e. under the weakest of the three regimes.

Every test, and ``evalcomb combine`` with any set of statistics,
reports through one private function, ``_reports``.  It checks alpha
once, runs the betting optimizer at most once and starts the
max-average search from its optimum, and it decides every statistic in
one :func:`decide_batch` call.

All comparisons happen in log domain with a closed threshold: a
statistic exactly equal to 1/alpha rejects.  The log-domain comparison
is authoritative; the reported p-value bound is reconciled to it when
exp() rounding would disagree at an exact-equality boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .betting import BettingOptimum, log_wealth, optimize_lambda
from .core import GUARANTEED_REGIMES, EValueVector, LogValue, Regime, _checked_number
from .errors import ConfigError, ValidationError
from .sympoly import SymmetricAverages, _averages

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
    alpha = _checked_number("alpha", alpha)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _reconciled_p_bound(log_statistic: float, alpha: float, reject: bool) -> float:
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


def _batch_regime_warnings(E: EValueVector) -> tuple[str, ...]:
    if E.regime in GUARANTEED_REGIMES:
        return ()
    return (
        "the 1/t tail guarantee for this statistic holds for independent or "
        f"simultaneous e-values; this vector's regime is '{E.regime.value}'",
    )


def _reports(
    E: EValueVector,
    alpha: float,
    kinds: Sequence[StatKind],
    strategy: float | Sequence[float] | None = None,
    attested: bool = False,
) -> list[TestReport]:
    """One report per kind, in order (module docstring); ``strategy``
    and ``attested`` are those of :func:`test_ville`."""
    alpha = _checked_alpha(alpha)
    optimum = optimize_lambda(E) if StatKind.OPTIMIZED_BETTING in kinds else None
    results = []  # (log statistic, detail, warnings) for each kind
    for kind in kinds:
        if kind is StatKind.VILLE_SEQUENTIAL:
            detail, warnings = _ville_detail(E, strategy, alpha, attested)
            # snapping is monotone, so the path's maximum decides the whole path
            results.append((np.max(detail.log_trajectory), detail, warnings))
        elif kind is StatKind.OPTIMIZED_BETTING:
            results.append((optimum.log_value.log_magnitude, optimum, _batch_regime_warnings(E)))
        else:
            averages = _averages(E, full=False, best=optimum)
            results.append((averages.log_max.log_magnitude, averages, _batch_regime_warnings(E)))
    snapped, log_threshold, rejects = decide_batch([r[0] for r in results], alpha)
    return [
        TestReport(
            statistic_kind=kind,
            log_statistic=LogValue(log_statistic),
            alpha=alpha,
            log_threshold=log_threshold,
            reject=bool(reject),
            p_bound=_reconciled_p_bound(log_statistic, alpha, reject),
            detail=detail,
            warnings=warnings,
        )
        for kind, log_statistic, reject, (_, detail, warnings) in zip(
            kinds, snapped, rejects, results
        )
    ]


def test_max_average(E: EValueVector, alpha: float) -> TestReport:
    """Reject when the largest symmetric average reaches 1/alpha.

    The detail is a :class:`~evalcomb.sympoly.SymmetricAverages` whose
    ``log_S`` and ``log_A`` stop at k = argmax_k + 1, the first descent
    (or at n): the averages are log-concave in k, so the later ones
    cannot exceed the maximum and are not computed.
    """
    return _reports(E, alpha, [StatKind.MAX_AVERAGE])[0]


def test_optimized_betting(E: EValueVector, alpha: float) -> TestReport:
    """Reject when the best constant-fraction product reaches 1/alpha."""
    return _reports(E, alpha, [StatKind.OPTIMIZED_BETTING])[0]


def _resolve_strategy(
    E: EValueVector, strategy: float | Sequence[float]
) -> tuple[np.ndarray, bool]:
    """Return (fractions, is_constant): a 0-d array of one fraction for
    every step, or a 1-D array of a fraction per step."""
    if isinstance(strategy, Iterable) and not isinstance(strategy, (str, bytes, np.ndarray)):
        strategy = list(strategy)  # generators and other one-pass iterables
    try:
        lams = np.asarray(strategy, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"betting fractions must be numbers: {exc}") from exc
    if lams.ndim == 0:
        if not 0.0 <= lams <= 1.0:
            raise ValidationError(f"betting fraction must lie in [0, 1], got {strategy!r}")
        return lams, True
    if lams.shape != (E.n,):
        raise ValidationError(
            f"betting sequence must have one fraction per e-value "
            f"({E.n}), got shape {lams.shape}"
        )
    if np.isnan(lams).any() or (lams < 0).any() or (lams > 1).any():
        bad = np.where(np.isnan(lams) | (lams < 0) | (lams > 1))[0][0]
        raise ValidationError(
            f"betting fraction at position {bad} is outside [0, 1]: {lams[bad]}"
        )
    return lams, False


def _ville_detail(
    E: EValueVector, strategy: float | Sequence[float], alpha: float, attested: bool
) -> tuple[VilleDetail, tuple[str, ...]]:
    """The running log wealth under ``strategy`` with its hitting index,
    and the caveats of the sequential test."""
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
    lams = np.full(E.n, lams)
    lams.flags.writeable = False
    detail = VilleDetail(
        log_trajectory=trajectory,
        hitting_index=int(np.argmax(crossed)) + 1 if crossed.any() else None,
        strategy=lams,
        attested=None if is_constant else attested,
    )
    return detail, warnings


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
    return _reports(E, alpha, [StatKind.VILLE_SEQUENTIAL], strategy, attested)[0]


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
