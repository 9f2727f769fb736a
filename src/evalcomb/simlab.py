"""Scenario generators, an exact enumerator, and a Monte Carlo harness.

The lab answers three kinds of question at desk scale:

* Do the batch combination rules keep their promised type-I error on
  independent and common-factor (simultaneous) nulls?  (They must.)
* Do they break on merely sequential e-values?  (They do: the
  adversarial two-step scenario rejects at level 1/2 with probability
  exactly 9/16, and the enumerator reproduces that rational exactly.)
* Do the symmetric averages behave like a demimartingale under iid
  mean-1 sampling, i.e. E[(A_{k+1} - A_k) g(A_0..A_k)] >= 0 for
  increasing g?

Reproducibility contract: replication r draws from a dedicated stream
seeded by (seed, r), so estimates do not depend on execution order and
can be merged across workers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from ._ratpoly import esp_fractions, poly_max_reaches
from .betting import log_wealth, optimize_lambda_batch
from .core import EValueVector, Regime
from .errors import ConfigError
from .sympoly import log_averages_batch
from .testkit import StatKind, decide_batch

__all__ = [
    "IidTwoPoint",
    "IidLognormal",
    "FactorLevel",
    "FactorScenario",
    "AdversarialScenario",
    "Scenario",
    "two_point_scenario",
    "default_factor_scenario",
    "replication_stream",
    "generate",
    "MonteCarloSummary",
    "EstimateWithError",
    "mc_type1",
    "mc_power",
    "mc_demimartingale",
    "mc_demimartingale_sweep",
    "g_constant",
    "g_threshold_indicator",
    "g_clipped_identity",
    "enumerate_exact",
    "VILLE_DEFAULT_LAMBDA",
    "MAX_ENUMERATION_OUTCOMES",
]

VILLE_DEFAULT_LAMBDA = 0.5
"""Betting fraction used for the sequential statistic inside the Monte
Carlo harness, which needs one fixed predictable strategy to report a
third rate alongside the two batch statistics."""

MAX_ENUMERATION_OUTCOMES = 10**6


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or not (0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def _check_support_point(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or value < 0.0 or math.isinf(value):
        raise ConfigError(f"{name} must be a finite nonnegative value, got {value}")
    return value


@dataclass(frozen=True)
class IidTwoPoint:
    """Independent draws from the two-point law P(hi) = p, P(lo) = 1-p.

    The extremal null family: with lo = 0 and hi = 1/p the law has mean
    exactly 1 with all of its mass budget on one atom, which stresses
    the tail bounds hardest.  ``is_null`` is derived from the mean.
    """

    p: float
    hi: float
    lo: float
    n: int

    def __post_init__(self) -> None:
        _check_prob("p", self.p)
        _check_support_point("hi", self.hi)
        _check_support_point("lo", self.lo)
        if int(self.n) < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def mean(self) -> float:
        return self.p * self.hi + (1.0 - self.p) * self.lo

    @property
    def is_null(self) -> bool:
        return self.mean <= 1.0


def two_point_scenario(
    p: float,
    n: int,
    lo: float = 0.0,
    hi: float | None = None,
    mean: float | None = None,
) -> IidTwoPoint:
    """Build a two-point scenario from either hi or a target mean.

    Given a target mean, the upper support point is solved from
    p * hi + (1-p) * lo = mean.  Supplying both hi and mean is allowed
    only when they agree.
    """
    p = _check_prob("p", p)
    lo = _check_support_point("lo", lo)
    if hi is None and mean is None:
        raise ConfigError("two_point needs either hi or mean")
    if mean is not None:
        if p == 0.0:
            raise ConfigError("cannot derive hi from mean when p = 0")
        derived = (float(mean) - (1.0 - p) * lo) / p
        if derived < 0.0 or math.isnan(derived):
            raise ConfigError(
                f"mean {mean} is not reachable with p={p}, lo={lo}"
            )
        if hi is not None and abs(derived - float(hi)) > 1e-12 * max(1.0, abs(derived)):
            raise ConfigError(
                f"hi={hi} and mean={mean} disagree (mean implies hi={derived})"
            )
        hi = derived
    return IidTwoPoint(p=p, hi=float(hi), lo=lo, n=n)


@dataclass(frozen=True)
class IidLognormal:
    """Independent exp(sigma Z - sigma^2/2) draws, mean exactly 1.

    The smooth counterpart of the two-point family: continuous support
    on (0, inf), calibrated so the null holds with equality.
    """

    sigma: float
    n: int

    def __post_init__(self) -> None:
        if math.isnan(self.sigma) or not (self.sigma > 0.0) or math.isinf(self.sigma):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if int(self.n) < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def mean(self) -> float:
        return 1.0

    @property
    def is_null(self) -> bool:
        return True


@dataclass(frozen=True)
class FactorLevel:
    """One value of the common factor: its probability and the
    conditional two-point law each entry follows given that value."""

    prob: float
    p: float
    hi: float
    lo: float

    def __post_init__(self) -> None:
        _check_prob("level prob", self.prob)
        _check_prob("conditional p", self.p)
        _check_support_point("conditional hi", self.hi)
        _check_support_point("conditional lo", self.lo)

    @property
    def conditional_mean(self) -> float:
        return self.p * self.hi + (1.0 - self.p) * self.lo


@dataclass(frozen=True)
class FactorScenario:
    """Entries conditionally iid two-point given a shared factor level.

    Conditional validity given the factor makes the entries
    simultaneous e-values: each one stays valid conditionally on all
    the others, because dependence flows only through the factor.
    """

    levels: tuple[FactorLevel, ...]
    n: int

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("factor scenario needs at least one level")
        object.__setattr__(self, "levels", tuple(self.levels))
        total = sum(level.prob for level in self.levels)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"factor level probabilities must sum to 1, got {total}")
        if int(self.n) < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def mean(self) -> float:
        return sum(level.prob * level.conditional_mean for level in self.levels)

    @property
    def is_null(self) -> bool:
        return all(level.conditional_mean <= 1.0 for level in self.levels)


def default_factor_scenario(n: int) -> FactorScenario:
    """The stock common-factor null: a fair coin picks a volatile or a
    calm conditional law, both with conditional mean exactly 1.

    Volatile: two-point {0, 4} with P(4) = 1/4.  Calm: two-point
    {0.5, 1.5} with P(1.5) = 1/2.  Marginally every entry has mean 1,
    but entries are strongly positively dependent through the shared
    level.
    """
    return FactorScenario(
        levels=(
            FactorLevel(prob=0.5, p=0.25, hi=4.0, lo=0.0),
            FactorLevel(prob=0.5, p=0.5, hi=1.5, lo=0.5),
        ),
        n=n,
    )


@dataclass(frozen=True)
class AdversarialScenario:
    """The two-step sequential construction that breaks the batch rules.

    E_1 is 2 or 0 with probability 1/2 each.  If E_1 = 2 then E_2 = 1;
    if E_1 = 0 then E_2 = 8 with probability 1/8, else 0.  Each step
    has conditional mean 1 given the past, so these are valid
    sequential e-values, yet P(max_k A_k >= 2) = P(sup M >= 2) = 9/16,
    which no level-1/2 test with the 1/t guarantee may reach.
    """

    @property
    def n(self) -> int:
        return 2

    @property
    def mean(self) -> float:
        return 1.0

    @property
    def is_null(self) -> bool:
        return True


Scenario = Union[IidTwoPoint, IidLognormal, FactorScenario, AdversarialScenario]


# --------------------------------------------------------------------
# sampling


def replication_stream(seed: int, replication: int) -> np.random.Generator:
    """The dedicated RNG stream for one replication.

    Seeding with the pair (seed, replication) makes every replication's
    stream a pure function of those two integers: results cannot depend
    on how replications are ordered or distributed.
    """
    seed = int(seed)
    replication = int(replication)
    if seed < 0 or replication < 0:
        raise ConfigError("seed and replication index must be nonnegative")
    return np.random.default_rng([seed, replication])


def _sample_row(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Draw one replication's e-values (linear scale) from a scenario."""
    if isinstance(scenario, IidTwoPoint):
        return np.where(rng.random(scenario.n) < scenario.p, scenario.hi, scenario.lo)
    if isinstance(scenario, IidLognormal):
        sigma = scenario.sigma
        return np.exp(sigma * rng.standard_normal(scenario.n) - 0.5 * sigma * sigma)
    if isinstance(scenario, FactorScenario):
        u = rng.random()
        acc = 0.0
        level = scenario.levels[-1]
        for candidate in scenario.levels:
            acc += candidate.prob
            if u < acc:
                level = candidate
                break
        return np.where(rng.random(scenario.n) < level.p, level.hi, level.lo)
    if isinstance(scenario, AdversarialScenario):
        if rng.random() < 0.5:
            return np.array([2.0, 1.0])
        second = 8.0 if rng.random() < 0.125 else 0.0
        return np.array([0.0, second])
    raise ConfigError(f"unknown scenario type: {type(scenario).__name__}")


def generate(scenario: Scenario, rng: np.random.Generator) -> EValueVector:
    """Draw one replication from any scenario, tagged with its regime:
    independent for the iid families, simultaneous for the common
    factor and sequential for the adversarial pair."""
    values = _sample_row(scenario, rng)
    if isinstance(scenario, FactorScenario):
        regime = Regime.SIMULTANEOUS
    elif isinstance(scenario, AdversarialScenario):
        regime = Regime.SEQUENTIAL
    else:
        regime = Regime.INDEPENDENT
    with np.errstate(divide="ignore"):
        return EValueVector(np.log(values), regime)


def _sample_matrix(scenario: Scenario, seed: int, replications: int) -> np.ndarray:
    """Stack the per-replication draws into a (replications, n) matrix."""
    rows = np.empty((replications, scenario.n))
    for r in range(replications):
        rows[r] = _sample_row(scenario, replication_stream(seed, r))
    return rows


# --------------------------------------------------------------------
# batch decisions


def _reject_rows(log_rows: np.ndarray, alpha: float) -> dict[StatKind, np.ndarray]:
    """Every statistic's verdict on every row: the kernels and the
    decision rule of the single-vector tests, applied to all rows."""
    log_statistics = {
        StatKind.MAX_AVERAGE: log_averages_batch(log_rows)[1].max(axis=1),
        StatKind.OPTIMIZED_BETTING: optimize_lambda_batch(log_rows).log_value,
        StatKind.VILLE_SEQUENTIAL: log_wealth(log_rows, VILLE_DEFAULT_LAMBDA).max(axis=1),
    }
    return {kind: decide_batch(ls, alpha)[2] for kind, ls in log_statistics.items()}


# --------------------------------------------------------------------
# Monte Carlo summaries


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate rejection rates with binomial standard errors.

    ``standard_error[k] = sqrt(r (1-r) / replications)`` for each rate
    r.  ``dominance_violations`` counts replications where the betting
    test rejected but the max-average test did not; it is populated by
    power runs and must be zero (the betting product never exceeds the
    best symmetric average).  ``elapsed`` is wall-clock seconds; it is
    the one field that varies between identically seeded runs, so
    serialized reports omit it.
    """

    replications: int
    seed: int
    alpha: float
    rejection_rate: dict[StatKind, float]
    standard_error: dict[StatKind, float]
    elapsed: float
    dominance_violations: int | None = None


@dataclass(frozen=True)
class EstimateWithError:
    """One Monte Carlo expectation estimate with its standard error."""

    estimate: float
    standard_error: float
    replications: int
    seed: int
    k: int
    g_label: str


def _checked_mc_args(alpha: float, replications: int, seed: int) -> tuple[float, int, int]:
    alpha = float(alpha)
    if math.isnan(alpha) or not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    replications = int(replications)
    if replications < 1:
        raise ConfigError(f"replications must be at least 1, got {replications}")
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return alpha, replications, seed


def _rate_with_se(reject: np.ndarray) -> tuple[float, float]:
    rate = float(np.mean(reject))
    return rate, math.sqrt(rate * (1.0 - rate) / reject.size)


def _run_batch(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> tuple[MonteCarloSummary, np.ndarray, np.ndarray]:
    started = time.perf_counter()
    rows = _sample_matrix(scenario, seed, replications)
    with np.errstate(divide="ignore"):
        log_rows = np.log(rows)
    reject = _reject_rows(log_rows, alpha)
    rates: dict[StatKind, float] = {}
    errors: dict[StatKind, float] = {}
    for kind, flags in reject.items():
        rates[kind], errors[kind] = _rate_with_se(flags)
    summary = MonteCarloSummary(
        replications=replications,
        seed=seed,
        alpha=alpha,
        rejection_rate=rates,
        standard_error=errors,
        elapsed=time.perf_counter() - started,
    )
    return summary, reject[StatKind.MAX_AVERAGE], reject[StatKind.OPTIMIZED_BETTING]


def mc_type1(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Empirical rejection rates of all three statistics under a null.

    For independent and common-factor scenarios the two batch rates
    must stay within Monte Carlo noise of at most alpha; the
    adversarial sequential scenario is the documented exception (its
    rate is 9/16 at alpha = 1/2).
    """
    alpha, replications, seed = _checked_mc_args(alpha, replications, seed)
    if not scenario.is_null:
        raise ConfigError(
            "type-I verification requires a null scenario (mean at most 1); "
            "use mc_power for alternatives"
        )
    summary, _, _ = _run_batch(scenario, alpha, replications, seed)
    return summary


def mc_power(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Rejection rates under any scenario, plus a dominance audit.

    Counts replications where the betting test rejected while the
    max-average test did not.  That count is reported, and it must be
    zero: pathwise, the betting product is a mixture of the symmetric
    averages and can never exceed their maximum.
    """
    alpha, replications, seed = _checked_mc_args(alpha, replications, seed)
    summary, reject_max, reject_bet = _run_batch(scenario, alpha, replications, seed)
    violations = int(np.sum(reject_bet & ~reject_max))
    return MonteCarloSummary(
        replications=summary.replications,
        seed=summary.seed,
        alpha=summary.alpha,
        rejection_rate=summary.rejection_rate,
        standard_error=summary.standard_error,
        elapsed=summary.elapsed,
        dominance_violations=violations,
    )


# --------------------------------------------------------------------
# demimartingale estimates


def g_constant(c: float = 1.0) -> Callable[[np.ndarray], float]:
    """g identically c (the weakest increasing function)."""

    def g(prefix: np.ndarray) -> float:
        return c

    g.label = f"constant({c:g})"  # type: ignore[attr-defined]
    return g


def g_threshold_indicator(t: float = 1.2) -> Callable[[np.ndarray], float]:
    """g = 1 when the latest average has reached t, else 0 (increasing)."""

    def g(prefix: np.ndarray) -> float:
        return 1.0 if prefix[-1] >= t else 0.0

    g.label = f"indicator(A_k >= {t:g})"  # type: ignore[attr-defined]
    return g


def g_clipped_identity(cap: float = 10.0) -> Callable[[np.ndarray], float]:
    """g = min(latest average, cap): increasing and bounded."""

    def g(prefix: np.ndarray) -> float:
        return float(min(prefix[-1], cap))

    g.label = f"min(A_k, {cap:g})"  # type: ignore[attr-defined]
    return g


def _check_demimartingale_scenario(scenario: Scenario) -> None:
    if not isinstance(scenario, (IidTwoPoint, IidLognormal)):
        raise ConfigError(
            "demimartingale estimates require an iid scenario: the "
            "increment property is claimed only under independence"
        )
    if abs(scenario.mean - 1.0) > 1e-12:
        raise ConfigError(
            f"demimartingale estimates require mean exactly 1, got {scenario.mean}"
        )


def _demimartingale_estimate(
    averages: np.ndarray,
    k: int,
    g: Callable[[np.ndarray], float],
    seed: int,
) -> EstimateWithError:
    replications = averages.shape[0]
    deltas = averages[:, k + 1] - averages[:, k]
    g_values = np.fromiter(
        (g(averages[r, : k + 1]) for r in range(replications)),
        dtype=float,
        count=replications,
    )
    samples = deltas * g_values
    estimate = float(np.mean(samples))
    spread = float(np.std(samples, ddof=1)) if replications > 1 else 0.0
    return EstimateWithError(
        estimate=estimate,
        standard_error=spread / math.sqrt(replications),
        replications=replications,
        seed=seed,
        k=k,
        g_label=getattr(g, "label", getattr(g, "__name__", "g")),
    )


def _averages_matrix(scenario: Scenario, seed: int, replications: int) -> np.ndarray:
    rows = _sample_matrix(scenario, seed, replications)
    with np.errstate(divide="ignore"):
        log_rows = np.log(rows)
    return np.exp(log_averages_batch(log_rows)[1])


def mc_demimartingale(
    scenario: Scenario,
    k: int,
    g: Callable[[np.ndarray], float],
    replications: int,
    seed: int,
) -> EstimateWithError:
    """Monte Carlo estimate of E[(A_{k+1} - A_k) g(A_0, ..., A_k)].

    Under iid mean-1 entries and componentwise increasing bounded g the
    expectation is nonnegative (the averages form a demimartingale), so
    estimates should sit above -3 standard errors.  Monotonicity and
    boundedness of g are the caller's contract; they cannot be checked
    from a black-box callable.
    """
    _check_demimartingale_scenario(scenario)
    _, replications, seed = _checked_mc_args(0.5, replications, seed)
    k = int(k)
    if not 0 <= k <= scenario.n - 1:
        raise ConfigError(f"k must lie in [0, n-1] = [0, {scenario.n - 1}], got {k}")
    averages = _averages_matrix(scenario, seed, replications)
    return _demimartingale_estimate(averages, k, g, seed)


def mc_demimartingale_sweep(
    scenario: Scenario,
    ks: Iterable[int],
    gs: Iterable[Callable[[np.ndarray], float]],
    replications: int,
    seed: int,
) -> list[EstimateWithError]:
    """All (k, g) estimates from one shared sample.

    Identical to calling :func:`mc_demimartingale` for every pair with
    the same seed (the per-replication streams make the samples agree
    draw for draw), but the replication matrix is built once.
    """
    _check_demimartingale_scenario(scenario)
    _, replications, seed = _checked_mc_args(0.5, replications, seed)
    ks = [int(k) for k in ks]
    for k in ks:
        if not 0 <= k <= scenario.n - 1:
            raise ConfigError(
                f"k must lie in [0, n-1] = [0, {scenario.n - 1}], got {k}"
            )
    gs = list(gs)
    averages = _averages_matrix(scenario, seed, replications)
    return [
        _demimartingale_estimate(averages, k, g, seed) for k in ks for g in gs
    ]


# --------------------------------------------------------------------
# exact enumeration


def _decimal_fraction(x: float | int | str | Fraction) -> Fraction:
    """Exact rational for a scenario parameter.

    Floats are converted through their shortest decimal repr, so a
    parameter typed as 0.1 means exactly 1/10 in the enumeration.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ConfigError(f"enumeration parameter must be finite, got {x}")
        return Fraction(repr(x))
    return Fraction(str(x))


def _reject_exact(
    values: Sequence[Fraction], threshold: Fraction, statistic_kind: StatKind
) -> bool:
    if statistic_kind is StatKind.MAX_AVERAGE:
        n = len(values)
        sums = esp_fractions(values)
        return any(
            sums[k] >= threshold * math.comb(n, k) for k in range(n + 1)
        )
    return poly_max_reaches(values, threshold)


def _iid_rejection_probability(
    p: Fraction,
    hi: Fraction,
    lo: Fraction,
    n: int,
    threshold: Fraction,
    statistic_kind: StatKind,
) -> Fraction:
    """Sum of P(outcome class) over rejecting classes of an iid
    two-point law.

    Both batch statistics are permutation invariant, so the 2^n
    outcomes collapse into n+1 classes by the count of hi entries, each
    carrying a binomial weight.
    """
    total = Fraction(0)
    q = 1 - p
    for count in range(n + 1):
        weight = math.comb(n, count) * p**count * q ** (n - count)
        if weight == 0:
            continue
        values = [hi] * count + [lo] * (n - count)
        if _reject_exact(values, threshold, statistic_kind):
            total += weight
    return total


_ADVERSARIAL_LAW: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...] = (
    ((Fraction(2), Fraction(1)), Fraction(1, 2)),
    ((Fraction(0), Fraction(8)), Fraction(1, 16)),
    ((Fraction(0), Fraction(0)), Fraction(7, 16)),
)


def enumerate_exact(
    scenario: Scenario,
    threshold: float | str | Fraction,
    statistic_kind: StatKind | str,
) -> Fraction:
    """Exact rejection probability of a batch statistic at a threshold.

    Walks the scenario's finite outcome space with rational
    probabilities and decides each outcome's statistic exactly, so the
    result is a Fraction with zero numerical error.  Works for the two
    permutation-invariant batch statistics; the sequential statistic
    depends on outcome order and is not offered here.
    """
    if isinstance(statistic_kind, str):
        try:
            statistic_kind = StatKind(statistic_kind)
        except ValueError as exc:
            raise ConfigError(f"unknown statistic: {statistic_kind!r}") from exc
    if statistic_kind is StatKind.VILLE_SEQUENTIAL:
        raise ConfigError(
            "exact enumeration covers the two batch statistics; the "
            "sequential statistic depends on outcome order"
        )
    threshold = _decimal_fraction(threshold)

    if isinstance(scenario, AdversarialScenario):
        total = Fraction(0)
        for values, prob in _ADVERSARIAL_LAW:
            if _reject_exact(list(values), threshold, statistic_kind):
                total += prob
        return total

    if isinstance(scenario, IidTwoPoint):
        if 2**scenario.n > MAX_ENUMERATION_OUTCOMES:
            raise ConfigError(
                f"outcome space 2^{scenario.n} exceeds the enumeration "
                f"limit of {MAX_ENUMERATION_OUTCOMES}"
            )
        return _iid_rejection_probability(
            _decimal_fraction(scenario.p),
            _decimal_fraction(scenario.hi),
            _decimal_fraction(scenario.lo),
            scenario.n,
            threshold,
            statistic_kind,
        )

    if isinstance(scenario, FactorScenario):
        if len(scenario.levels) * 2**scenario.n > MAX_ENUMERATION_OUTCOMES:
            raise ConfigError(
                f"outcome space exceeds the enumeration limit of "
                f"{MAX_ENUMERATION_OUTCOMES}"
            )
        total = Fraction(0)
        for level in scenario.levels:
            total += _decimal_fraction(level.prob) * _iid_rejection_probability(
                _decimal_fraction(level.p),
                _decimal_fraction(level.hi),
                _decimal_fraction(level.lo),
                scenario.n,
                threshold,
                statistic_kind,
            )
        return total

    raise ConfigError(
        f"scenario {type(scenario).__name__} does not have finite support"
    )
