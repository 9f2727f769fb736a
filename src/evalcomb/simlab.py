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

Reproducibility contract: the Monte Carlo loop walks the replications
in blocks of ``_BLOCK`` rows, and block b is drawn row-major from
``replication_stream(seed, b * _BLOCK)``.  Row r is therefore a pure
function of (seed, r), with ``_BLOCK`` part of that function: results
do not depend on how blocks are ordered or distributed, a sample of R
replications is a prefix of any larger one, and memory stays
O(``_BLOCK`` * n) whatever the number of replications.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, Union

import numpy as np

from ._ratpoly import max_average_reaches, poly_max_reaches
from .betting import log_wealth, optimize_lambda_batch
from .core import LOG_ZERO, EValueVector, Regime
from .errors import ConfigError
from .sympoly import log_averages_batch
from .testkit import StatKind, _checked_alpha, decide_batch

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

_BLOCK = 4096
"""Replications per block of the Monte Carlo loop (see the module
docstring: changing it changes which stream each row is drawn from)."""


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
    Sampling and enumeration treat it as a factor scenario with the
    single level ``levels[0]``.
    """

    p: float
    hi: float
    lo: float
    n: int
    regime: ClassVar[Regime] = Regime.INDEPENDENT

    def __post_init__(self) -> None:
        _check_prob("p", self.p)
        _check_support_point("hi", self.hi)
        _check_support_point("lo", self.lo)
        if int(self.n) < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def levels(self) -> tuple[FactorLevel, ...]:
        return (FactorLevel(prob=1.0, p=self.p, hi=self.hi, lo=self.lo),)

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
    regime: ClassVar[Regime] = Regime.INDEPENDENT

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
    regime: ClassVar[Regime] = Regime.SIMULTANEOUS

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

    regime: ClassVar[Regime] = Regime.SEQUENTIAL

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
    """The RNG stream keyed by the pair (seed, replication).

    The Monte Carlo loop draws the block of rows that starts at
    replication r from this stream, so every draw is a pure function of
    those two integers: results cannot depend on how blocks are ordered
    or distributed.
    """
    seed = int(seed)
    replication = int(replication)
    if seed < 0 or replication < 0:
        raise ConfigError("seed and replication index must be nonnegative")
    return np.random.default_rng([seed, replication])


def _sample_rows(scenario: Scenario, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Log e-values of ``rows`` replications, a (rows, n) matrix.

    Draws are taken row-major: n + 1 uniforms per two-point or factor
    row (the level first), n standard normals per lognormal row and 2
    uniforms per adversarial row.  The first R rows of a larger draw
    from the same stream are therefore the R rows of a smaller one.
    """
    with np.errstate(divide="ignore"):
        if isinstance(scenario, (IidTwoPoint, FactorScenario)):
            u = rng.random((rows, scenario.n + 1))
            levels = scenario.levels
            cumulative = np.cumsum([level.prob for level in levels])
            pick = np.searchsorted(cumulative, u[:, :1], side="right")
            pick = np.minimum(pick, len(levels) - 1)
            p, hi, lo = np.array([(lv.p, lv.hi, lv.lo) for lv in levels]).T
            return np.where(u[:, 1:] < p[pick], np.log(hi)[pick], np.log(lo)[pick])
        if isinstance(scenario, IidLognormal):
            sigma = scenario.sigma
            return sigma * rng.standard_normal((rows, scenario.n)) - 0.5 * sigma * sigma
        if isinstance(scenario, AdversarialScenario):
            u = rng.random((rows, 2))
            tails = np.where(u[:, 1:] < 0.125, [LOG_ZERO, math.log(8.0)], LOG_ZERO)
            return np.where(u[:, :1] < 0.5, [math.log(2.0), 0.0], tails)
    raise ConfigError(f"unknown scenario type: {type(scenario).__name__}")


def generate(scenario: Scenario, rng: np.random.Generator) -> EValueVector:
    """Draw one replication from any scenario, tagged with its regime:
    independent for the iid families, simultaneous for the common
    factor and sequential for the adversarial pair.  This is the
    rows = 1 call of the block sampler."""
    log_values = _sample_rows(scenario, rng, 1)[0]
    return EValueVector(log_values, scenario.regime)


def _sample_blocks(scenario: Scenario, seed: int, replications: int) -> Iterator[np.ndarray]:
    """Log e-values of replications 0 .. replications - 1, one block of
    at most ``_BLOCK`` rows at a time; the block starting at
    replication r is drawn from ``replication_stream(seed, r)``."""
    for start in range(0, replications, _BLOCK):
        rows = min(_BLOCK, replications - start)
        yield _sample_rows(scenario, replication_stream(seed, start), rows)


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
    test rejected but the max-average test did not; every run audits
    it, and it must be zero (the betting product never exceeds the
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
    dominance_violations: int


@dataclass(frozen=True)
class EstimateWithError:
    """One Monte Carlo expectation estimate with its standard error."""

    estimate: float
    standard_error: float
    replications: int
    seed: int
    k: int
    g_label: str


def _checked_mc_args(replications: int, seed: int) -> tuple[int, int]:
    replications = int(replications)
    if replications < 1:
        raise ConfigError(f"replications must be at least 1, got {replications}")
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return replications, seed


def _run_batch(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Rejection counts and dominance violations, summed block by block."""
    alpha = _checked_alpha(alpha)
    replications, seed = _checked_mc_args(replications, seed)
    started = time.perf_counter()
    rejected = dict.fromkeys(StatKind, 0)
    violations = 0
    for log_rows in _sample_blocks(scenario, seed, replications):
        reject = _reject_rows(log_rows, alpha)
        for kind, flags in reject.items():
            rejected[kind] += int(np.count_nonzero(flags))
        betting_only = reject[StatKind.OPTIMIZED_BETTING] & ~reject[StatKind.MAX_AVERAGE]
        violations += int(np.count_nonzero(betting_only))
    rates = {kind: count / replications for kind, count in rejected.items()}
    return MonteCarloSummary(
        replications=replications,
        seed=seed,
        alpha=alpha,
        rejection_rate=rates,
        standard_error={
            kind: math.sqrt(rate * (1.0 - rate) / replications)
            for kind, rate in rates.items()
        },
        elapsed=time.perf_counter() - started,
        dominance_violations=violations,
    )


def mc_type1(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Empirical rejection rates of all three statistics under a null.

    For independent and common-factor scenarios the two batch rates
    must stay within Monte Carlo noise of at most alpha; the
    adversarial sequential scenario is the documented exception (its
    rate is 9/16 at alpha = 1/2).  The dominance audit of
    :func:`mc_power` runs here too.
    """
    if not scenario.is_null:
        raise ConfigError(
            "type-I verification requires a null scenario (mean at most 1); "
            "use mc_power for alternatives"
        )
    return _run_batch(scenario, alpha, replications, seed)


def mc_power(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Rejection rates under any scenario, plus a dominance audit.

    Counts replications where the betting test rejected while the
    max-average test did not.  That count is reported, and it must be
    zero: pathwise, the betting product is a mixture of the symmetric
    averages and can never exceed their maximum.
    """
    return _run_batch(scenario, alpha, replications, seed)


# --------------------------------------------------------------------
# demimartingale estimates


def g_constant(c: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """g identically c (the weakest increasing function)."""

    def g(prefix: np.ndarray) -> np.ndarray:
        return np.full(prefix.shape[:-1], float(c))

    g.label = f"constant({c:g})"  # type: ignore[attr-defined]
    return g


def g_threshold_indicator(t: float = 1.2) -> Callable[[np.ndarray], np.ndarray]:
    """g = 1 when the latest average has reached t, else 0 (increasing)."""

    def g(prefix: np.ndarray) -> np.ndarray:
        return (prefix[..., -1] >= t).astype(float)

    g.label = f"indicator(A_k >= {t:g})"  # type: ignore[attr-defined]
    return g


def g_clipped_identity(cap: float = 10.0) -> Callable[[np.ndarray], np.ndarray]:
    """g = min(latest average, cap): increasing and bounded."""

    def g(prefix: np.ndarray) -> np.ndarray:
        return np.minimum(prefix[..., -1], cap)

    g.label = f"min(A_k, {cap:g})"  # type: ignore[attr-defined]
    return g


def mc_demimartingale(
    scenario: Scenario,
    k: int,
    g: Callable[[np.ndarray], np.ndarray],
    replications: int,
    seed: int,
) -> EstimateWithError:
    """Monte Carlo estimate of E[(A_{k+1} - A_k) g(A_0, ..., A_k)]: the
    single-pair call of :func:`mc_demimartingale_sweep`."""
    return mc_demimartingale_sweep(scenario, [k], [g], replications, seed)[0]


def mc_demimartingale_sweep(
    scenario: Scenario,
    ks: Iterable[int],
    gs: Iterable[Callable[[np.ndarray], np.ndarray]],
    replications: int,
    seed: int,
) -> list[EstimateWithError]:
    """Estimates of E[(A_{k+1} - A_k) g(A_0, ..., A_k)] for every pair
    (k, g), k-major, from one shared sample.

    Under iid mean-1 entries and componentwise increasing bounded g the
    expectation is nonnegative (the averages form a demimartingale), so
    estimates should sit above -3 standard errors.  Monotonicity and
    boundedness of g are the caller's contract; they cannot be checked
    from a black-box callable.

    g is row-wise: it receives a block's (rows, k + 1) matrix of the
    averages A_0 .. A_k, one row per replication, and returns one value
    per row (an array that broadcasts to shape (rows,)).  The factories
    here read the last column, ``prefix[..., -1]``.  Each estimate keeps
    only running sums of its samples and their squares, so a pair's
    result does not depend on the other pairs in the sweep.
    """
    if not isinstance(scenario, (IidTwoPoint, IidLognormal)):
        raise ConfigError(
            "demimartingale estimates require an iid scenario: the "
            "increment property is claimed only under independence"
        )
    if abs(scenario.mean - 1.0) > 1e-12:
        raise ConfigError(
            f"demimartingale estimates require mean exactly 1, got {scenario.mean}"
        )
    replications, seed = _checked_mc_args(replications, seed)
    ks = [int(k) for k in ks]
    for k in ks:
        if not 0 <= k <= scenario.n - 1:
            raise ConfigError(
                f"k must lie in [0, n-1] = [0, {scenario.n - 1}], got {k}"
            )
    gs = list(gs)
    pairs = [(k, g) for k in ks for g in gs]
    sums, squares = np.zeros(len(pairs)), np.zeros(len(pairs))
    for log_rows in _sample_blocks(scenario, seed, replications):
        averages = np.exp(log_averages_batch(log_rows)[1])
        for i, (k, g) in enumerate(pairs):
            deltas = averages[:, k + 1] - averages[:, k]
            samples = deltas * np.broadcast_to(g(averages[:, : k + 1]), deltas.shape)
            sums[i] += samples.sum()
            squares[i] += (samples * samples).sum()
    means = sums / replications
    if replications > 1:
        spreads = np.sqrt(np.maximum(squares - sums * means, 0.0) / (replications - 1))
    else:
        spreads = np.zeros(len(pairs))
    return [
        EstimateWithError(
            estimate=float(mean),
            standard_error=float(spread) / math.sqrt(replications),
            replications=replications,
            seed=seed,
            k=k,
            g_label=getattr(g, "label", getattr(g, "__name__", "g")),
        )
        for (k, g), mean, spread in zip(pairs, means, spreads)
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
        return max_average_reaches(values, threshold)
    return poly_max_reaches(values, threshold)


def _level_rejection_probability(
    level: FactorLevel, n: int, threshold: Fraction, statistic_kind: StatKind
) -> Fraction:
    """Sum of P(outcome class) over rejecting classes of n iid draws
    from a level's two-point law.

    Both batch statistics are permutation invariant, so the 2^n
    outcomes collapse into n+1 classes by the count of hi entries, each
    carrying a binomial weight.  Both are also nondecreasing in every
    entry, so with hi >= lo the rejecting classes are those from some
    count on; bisection finds it in about log2(n + 2) exact decisions.
    """
    p, hi, lo = (_decimal_fraction(v) for v in (level.p, level.hi, level.lo))
    if hi < lo:
        p, hi, lo = 1 - p, lo, hi
    first = bisect.bisect_left(
        range(n + 1),
        True,
        key=lambda count: _reject_exact(
            [hi] * count + [lo] * (n - count), threshold, statistic_kind
        ),
    )
    # weight of count c: C(n, c) p^c (1 - p)^(n - c), over one denominator
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    return Fraction(
        sum(math.comb(n, c) * pn**c * qn ** (n - c) for c in range(first, n + 1)),
        pd**n,
    )


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
    probabilities, in outcome classes, and decides the statistic
    exactly wherever the sum needs it, so the result is a Fraction with
    zero numerical error.  Works for the two
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

    if not isinstance(scenario, (IidTwoPoint, FactorScenario)):
        raise ConfigError(
            f"scenario {type(scenario).__name__} does not have finite support"
        )
    if len(scenario.levels) * 2**scenario.n > MAX_ENUMERATION_OUTCOMES:
        raise ConfigError(
            f"outcome space {len(scenario.levels)} x 2^{scenario.n} exceeds "
            f"the enumeration limit of {MAX_ENUMERATION_OUTCOMES}"
        )
    total = Fraction(0)
    for level in scenario.levels:
        total += _decimal_fraction(level.prob) * _level_rejection_probability(
            level, scenario.n, threshold, statistic_kind
        )
    return total
