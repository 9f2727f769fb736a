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

A law with finite support (any scenario but the lognormal one) is a
tuple of levels, each with a probability, support points lo and hi, and
a law of a row's count of hi entries: binomial for the two-point and
factor laws, and exactly 1 for the adversarial law, whose outcome
(E_1, E_2) is the level lo = E_1, hi = E_2 with hi in second position.
Such a law's outcome classes are level * (n + 1) + count, for the
sampler and the exact enumerator alike.  A block is drawn as support
codes, an (n, rows) matrix of small-integer indices into the sorted log
support points, with each row's class.  Both batch statistics are
symmetric and nondecreasing in every entry, so a row's verdict depends
only on its class, and a level's rejecting classes form a tail of its
counts.  A call counts the rows of each class and, after the last
block, finds each level's rejecting tail exactly, as the enumerator
does (:func:`_rejecting_weight`), and sums the counts in it: the
sampled form of the enumerator's exact sum of P(class) * verdict(class).
Lognormal rows are decided by the float kernels, block by block.
The Ville statistic depends on the order of the entries: it is read
from a table of per-support-point log factors, walking the n columns
with a running sum and a running maximum.

Both decide a class without building its row: a class is a two-point
row, c entries hi and n - c entries lo, and
``_ratpoly.two_point_max_average_reaches`` and
``two_point_betting_reaches`` decide it in integers from closed forms
(the sums of (1 + a z)^c (1 + b z)^(n - c) up to their first descent,
and the betting product at 0, 1 or its rational stationary point).  The
generic deciders, with their Sturm chain, remain the oracle for
arbitrary rational rows.  An enumeration is refused up front when its
estimated work (:func:`_enumeration_cost`) exceeds ``_ENUMERATION_BUDGET``.
"""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, TypeVar, Union

import numpy as np

from . import _esp
from ._ratpoly import two_point_betting_reaches, two_point_max_average_reaches
from .betting import _log_factors, log_wealth, optimize_lambda_batch
from .core import EValueVector, Regime, _checked_number
from .errors import ConfigError
from .sympoly import _max_average_rows, log_binomials
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
    "mc_demimartingale_sweep",
    "g_constant",
    "g_threshold_indicator",
    "g_clipped_identity",
    "enumerate_exact",
    "VILLE_DEFAULT_LAMBDA",
]

VILLE_DEFAULT_LAMBDA = 0.5
"""Betting fraction used for the sequential statistic inside the Monte
Carlo harness, which needs one fixed predictable strategy to report a
third rate alongside the two batch statistics."""

_ENUMERATION_BUDGET = 2**31
"""Most work units (see :func:`_enumeration_cost`) one exact enumeration
may take.  Measured on a 2-core x86-64 machine with Python 3.11, a unit
took at most 0.62 ns (a scan that neither reaches the threshold nor
descends, e.g. all entries 1.001 at threshold 1e300), so the largest
accepted call runs about a second; its count law holds at most 64 MB."""

_BLOCK = 4096
"""Replications per block of the Monte Carlo loop (see the module
docstring: changing it changes which stream each row is drawn from)."""

_Block = TypeVar("_Block")


def _checked_int(name: str, value: float, minimum: int) -> int:
    """value as an int of at least minimum.  Ints, numpy ints and floats
    with an integral value pass; anything else, NaN and the infinities
    among it, is a ConfigError rather than silently truncated."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= _checked_number(name, value) <= 1.0):
        raise ConfigError(f"{name} must be a probability in [0, 1], got {value}")


def _check_support_point(name: str, value: float) -> None:
    if not (0.0 <= _checked_number(name, value) < math.inf):
        raise ConfigError(f"{name} must be a finite nonnegative value, got {value}")


@dataclass(frozen=True)
class IidTwoPoint:
    """Independent draws from the two-point law P(hi) = p, P(lo) = 1-p.

    The extremal null family: with lo = 0 and hi = 1/p the law has mean
    exactly 1 with all of its mass budget on one atom, which stresses
    the tail bounds hardest.  ``is_null`` is derived from the exact mean.
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
        object.__setattr__(self, "n", _checked_int("n", self.n, 1))

    @property
    def levels(self) -> tuple[FactorLevel, ...]:
        return (FactorLevel(prob=1.0, p=self.p, hi=self.hi, lo=self.lo),)

    @property
    def mean(self) -> float:
        return self.p * self.hi + (1.0 - self.p) * self.lo

    @cached_property
    def is_null(self) -> bool:
        return _mean_at_most_one(self)


def two_point_scenario(
    p: float,
    n: int,
    lo: float = 0.0,
    hi: float | None = None,
    mean: float | None = None,
) -> IidTwoPoint:
    """Build a two-point scenario from either hi or a target mean.

    Given a target mean, hi is the Fraction that solves
    p * hi + (1-p) * lo = mean, each float read through its shortest
    decimal as :func:`enumerate_exact` reads it, so the law it
    enumerates has exactly that mean.  Supplying both hi and mean is
    allowed only when they agree.  The values are kept as given, so
    Fraction arguments stay exact for :func:`enumerate_exact`.
    """
    _check_prob("p", p)
    _check_support_point("lo", lo)
    if hi is None and mean is None:
        raise ConfigError("two_point needs either hi or mean")
    if hi is not None:
        _check_support_point("hi", hi)
    if mean is not None:
        _check_support_point("mean", mean)
        if p == 0:
            raise ConfigError("cannot derive hi from mean when p = 0")
        exact_p, exact_lo = _decimal_fraction(p), _decimal_fraction(lo)
        derived = (_decimal_fraction(mean) - (1 - exact_p) * exact_lo) / exact_p
        if derived < 0:
            raise ConfigError(
                f"mean {mean} is not reachable with p={p}, lo={lo}"
            )
        if hi is not None and abs(derived - hi) > 1e-12 * max(1.0, abs(derived)):
            raise ConfigError(
                f"hi={hi} and mean={mean} disagree (mean implies hi={derived})"
            )
        hi = derived
    return IidTwoPoint(p=p, hi=hi, lo=lo, n=n)


@dataclass(frozen=True)
class IidLognormal:
    """Independent exp(sigma Z - sigma^2/2) draws, mean exactly 1.

    The smooth counterpart of the two-point family: continuous support
    on (0, inf), calibrated so the null holds with equality.
    """

    sigma: float
    n: int
    regime: ClassVar[Regime] = Regime.INDEPENDENT
    mean: ClassVar[float] = 1.0
    is_null: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (0.0 < _checked_number("sigma", self.sigma) < math.inf):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "n", _checked_int("n", self.n, 1))


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

    def _count_law(self, n: int) -> tuple[list[int], int]:
        """Binomial: P(c hi entries among n) = weights[c] / denominator."""
        pn, pd = _decimal_fraction(self.p).as_integer_ratio()
        qn = pd - pn
        if not qn:
            return [0] * n + [pd**n], pd**n
        # weights[c + 1] = weights[c] (n - c) pn / ((c + 1) qn), exactly:
        # small factors only, no product of two large integers
        weights = [qn**n]
        for c in range(n):
            weights.append(weights[-1] * ((n - c) * pn) // ((c + 1) * qn))
        return weights, pd**n


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
        try:
            levels = tuple(self.levels)
        except TypeError as exc:
            raise ConfigError(f"factor levels must be a sequence, got {self.levels!r}") from exc
        if not levels:
            raise ConfigError("factor scenario needs at least one level")
        for level in levels:
            if not isinstance(level, FactorLevel):
                raise ConfigError(f"factor levels must be FactorLevel, got {level!r}")
        object.__setattr__(self, "levels", levels)
        total = sum(level.prob for level in self.levels)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"factor level probabilities must sum to 1, got {total}")
        object.__setattr__(self, "n", _checked_int("n", self.n, 1))

    @property
    def mean(self) -> float:
        return sum(level.prob * level.conditional_mean for level in self.levels)

    @cached_property
    def is_null(self) -> bool:
        return all(map(_mean_at_most_one, self.levels))


def _mean_at_most_one(law: IidTwoPoint | FactorLevel) -> bool:
    """Whether p hi + (1 - p) lo <= 1, decided in rationals from the
    parameters as :func:`enumerate_exact` reads them, so that a law
    called null is null in the enumeration too.  Scenarios cache it:
    the rationals cost more than a float test."""
    p, hi, lo = map(_decimal_fraction, (law.p, law.hi, law.lo))
    return p * hi + (1 - p) * lo <= 1


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
    n: ClassVar[int] = 2
    mean: ClassVar[float] = 1.0
    is_null: ClassVar[bool] = True


@dataclass(frozen=True)
class _OutcomeLevel:
    """An outcome (E_1, E_2) = (lo, hi) of the adversarial law as a level:
    its row holds one hi entry, second, so its count is 1 for sure."""

    prob: Fraction
    lo: int
    hi: int

    def _count_law(self, n: int) -> tuple[list[int], int]:
        return [int(count == 1) for count in range(n + 1)], 1


# in the order _sample_codes picks them: E_1 = 2; else E_2 = 8; else (0, 0)
_ADVERSARIAL_LEVELS = (
    _OutcomeLevel(Fraction(1, 2), lo=2, hi=1),
    _OutcomeLevel(Fraction(1, 16), lo=0, hi=8),
    _OutcomeLevel(Fraction(7, 16), lo=0, hi=0),
)


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
    seed = _checked_int("seed", seed, 0)
    replication = _checked_int("replication index", replication, 0)
    return np.random.default_rng([seed, replication])


def _levels(scenario: Scenario) -> tuple[FactorLevel | _OutcomeLevel, ...] | None:
    """A finite law's levels (see the module docstring); None for lognormal."""
    if isinstance(scenario, AdversarialScenario):
        return _ADVERSARIAL_LEVELS
    if isinstance(scenario, (IidTwoPoint, FactorScenario)):
        return scenario.levels
    return None


def _level_log_points(levels: Sequence[FactorLevel | _OutcomeLevel]) -> np.ndarray:
    """Each level's (log hi, log lo), a (levels, 2) float matrix."""
    with np.errstate(divide="ignore"):
        return np.log(np.array([[level.hi, level.lo] for level in levels], dtype=float))


def _log_support(scenario: Scenario) -> np.ndarray | None:
    """The sorted distinct log values a scenario's entries can take, or
    None for a law without finite support."""
    levels = _levels(scenario)
    return None if levels is None else np.unique(_level_log_points(levels))


def _sample_codes(
    scenario: Scenario, support: np.ndarray, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Support codes and outcome classes of ``rows`` replications of a
    finite-support law.

    The codes are an (n, rows) matrix whose column r holds row r's
    entries as indices into ``support``, the law's :func:`_log_support`.
    A row draws a level and a hit mask, True at the level's hi entries;
    its class is level * (n + 1) + its count of hits.  Draws are taken
    row-major: n + 1 uniforms per two-point or factor row (the level,
    then one hit per entry), 2 per adversarial row, which pick its
    outcome level; its one hit is fixed, second.  The first R rows of a
    larger draw from the same stream are therefore the R rows of a
    smaller one.  Codes have the smallest signed integer type that holds
    every index and every difference of two indices.
    """
    levels = _levels(scenario)
    code_type = np.min_scalar_type(-len(support))
    hi_code, lo_code = np.searchsorted(support, _level_log_points(levels)).T.astype(code_type)
    if isinstance(scenario, AdversarialScenario):
        u = rng.random((rows, 2))
        pick = np.where(u[:, 0] < 0.5, 0, np.where(u[:, 1] < 0.125, 1, 2))
        hit = np.array([[False], [True]])
    else:
        u = rng.random((rows, scenario.n + 1))
        cumulative = np.cumsum(np.array([level.prob for level in levels], dtype=float))
        pick = np.minimum(np.searchsorted(cumulative, u[:, 0], side="right"), len(levels) - 1)
        p = np.array([level.p for level in levels], dtype=float)
        hit = np.less(u[:, 1:].T, p[pick], order="C")
    # integer arithmetic on the hit mask: a broadcast np.where on it is
    # about twenty times slower on a (20, 4096) block
    codes = lo_code[pick] + (hi_code - lo_code)[pick] * hit
    return codes, pick * (scenario.n + 1) + np.count_nonzero(hit, axis=0)


def _sample_rows(scenario: Scenario, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Log e-values of ``rows`` replications, a (rows, n) matrix.

    A finite-support law's rows are its support points read through
    :func:`_sample_codes`; a lognormal row is n standard normals.  The
    first R rows of a larger draw from the same stream are therefore the
    R rows of a smaller one.
    """
    support = _log_support(scenario)
    if support is not None:
        codes, _ = _sample_codes(scenario, support, rng, rows)
        return np.ascontiguousarray(support[codes].T)
    if isinstance(scenario, IidLognormal):
        sigma = float(scenario.sigma)
        return sigma * rng.standard_normal((rows, scenario.n)) - 0.5 * sigma * sigma
    raise ConfigError(f"unknown scenario type: {type(scenario).__name__}")


def generate(scenario: Scenario, rng: np.random.Generator) -> EValueVector:
    """Draw one replication from any scenario, tagged with its regime:
    independent for the iid families, simultaneous for the common
    factor and sequential for the adversarial pair.  This is the
    rows = 1 call of the block sampler."""
    log_values = _sample_rows(scenario, rng, 1)[0]
    return EValueVector(log_values, scenario.regime)


@contextmanager
def _drawable_blocks(n: int, replications: int, classes: int = 0) -> Iterator[None]:
    """Turn blocks of replications of n entries that are too large to
    draw into a ConfigError: before the first draw when a block's n + 1
    draws per row, or the counts of ``classes`` outcome classes, are
    more 8-byte numbers than numpy can index, and when a block's arrays
    or the counts do not fit in memory."""
    rows = min(_BLOCK, replications)
    too_large = f"a block of {rows} replications of n = {n} entries is too large"
    if max(rows * (n + 1), classes) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{too_large} to index")
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"{too_large} for memory") from exc


def _sample_blocks(
    sample: Callable[[np.random.Generator, int], _Block], seed: int, replications: int
) -> Iterator[_Block]:
    """``sample(rng, rows)`` for replications 0 .. replications - 1, one
    block of at most ``_BLOCK`` rows at a time; the block starting at
    replication r is drawn from ``replication_stream(seed, r)``."""
    for start in range(0, replications, _BLOCK):
        rows = min(_BLOCK, replications - start)
        yield sample(replication_stream(seed, start), rows)


# --------------------------------------------------------------------
# batch decisions


def _reject_rows(log_rows: np.ndarray, alpha: float) -> dict[StatKind, np.ndarray]:
    """Every statistic's verdict on every row: the kernels and the
    decision rule of the single-vector tests, applied to all rows, with
    one optimizer run for both batch statistics."""
    best = optimize_lambda_batch(log_rows)
    log_statistics = {
        StatKind.MAX_AVERAGE: _max_average_rows(log_rows, best=best)[1],
        StatKind.OPTIMIZED_BETTING: best.log_value,
        StatKind.VILLE_SEQUENTIAL: log_wealth(log_rows, VILLE_DEFAULT_LAMBDA).max(axis=1),
    }
    return {kind: decide_batch(ls, alpha)[2] for kind, ls in log_statistics.items()}


def _ville_peaks(codes: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each column's highest Ville log wealth at ``VILLE_DEFAULT_LAMBDA``,
    equal bit for bit to the row maxima of
    ``log_wealth(support[codes].T, VILLE_DEFAULT_LAMBDA)``.

    A table holds log_wealth's factor log1p(lam (E - 1)) for each
    support point, and the walk over the n columns keeps a running sum
    and a running maximum, which makes log_wealth's additions in its
    order.  Finite support points give no +inf factor, so a -inf factor
    (ruin) absorbs every later sum without a NaN, as log_wealth's ruin
    rule does.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        table = _log_factors(support, VILLE_DEFAULT_LAMBDA)
    wealth = table[codes[0]]
    peak = wealth.copy()
    for column in codes[1:]:
        wealth += table[column]
        np.maximum(peak, wealth, out=peak)
    return peak


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
    return _checked_int("replications", replications, 1), _checked_int("seed", seed, 0)


def _run_batch(
    scenario: Scenario, alpha: float, replications: int, seed: int
) -> MonteCarloSummary:
    """Rejection counts and dominance violations: per row for a
    lognormal law, per level's rejecting tail of outcome classes for a
    finite law, at the threshold 1/alpha read as :func:`enumerate_exact`
    reads it (see the module docstring)."""
    alpha = _checked_alpha(alpha)
    replications, seed = _checked_mc_args(replications, seed)
    started = time.perf_counter()
    rejected = dict.fromkeys(StatKind, 0)
    violations = 0
    levels = _levels(scenario)
    classes = 0 if levels is None else len(levels) * (scenario.n + 1)
    with _drawable_blocks(scenario.n, replications, classes):
        if levels is None:
            for log_rows in _sample_blocks(partial(_sample_rows, scenario), seed, replications):
                verdicts = _reject_rows(log_rows, alpha)
                for kind, flags in verdicts.items():
                    rejected[kind] += int(np.count_nonzero(flags))
                max_average, betting, _ = verdicts.values()
                violations += int(np.count_nonzero(betting & ~max_average))
        else:
            support = _log_support(scenario)
            class_counts = np.zeros(classes, dtype=np.int64)
            sample = partial(_sample_codes, scenario, support)
            for codes, block_classes in _sample_blocks(sample, seed, replications):
                # numpy gathers with intp indices: cast once per block, not per gather
                ville = decide_batch(_ville_peaks(codes.astype(np.intp), support), alpha)[2]
                rejected[StatKind.VILLE_SEQUENTIAL] += int(np.count_nonzero(ville))
                class_counts += np.bincount(block_classes, minlength=classes)
            threshold = 1 / _decimal_fraction(alpha)
            for level, counts in zip(levels, class_counts.reshape(len(levels), -1).tolist()):
                hi, lo = _decimal_fraction(level.hi), _decimal_fraction(level.lo)
                max_average, betting = (
                    _rejecting_weight(hi, lo, scenario.n, threshold, kind, counts)
                    for kind in (StatKind.MAX_AVERAGE, StatKind.OPTIMIZED_BETTING)
                )
                rejected[StatKind.MAX_AVERAGE] += max_average
                rejected[StatKind.OPTIMIZED_BETTING] += betting
                # the tails are nested: the betting-only rows are their difference
                violations += max(0, betting - max_average)
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

    A finite law's batch verdicts are the enumerator's exact decisions
    on the outcome classes sampled, and a lognormal law's come from the
    float kernels, row by row (see the module docstring).  Counts
    replications where the betting test rejected while the max-average
    test did not.  That count is reported, and it must be zero:
    pathwise, the betting product is a mixture of the symmetric averages
    and can never exceed their maximum.
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
    ks = [_checked_int("k", k, 0) for k in ks]
    for k in ks:
        if not 0 <= k <= scenario.n - 1:
            raise ConfigError(
                f"k must lie in [0, n-1] = [0, {scenario.n - 1}], got {k}"
            )
    gs = list(gs)
    pairs = [(k, g) for k in ks for g in gs]
    sums, squares = np.zeros(len(pairs)), np.zeros(len(pairs))
    # only A_0 .. A_(max k + 1) are read: a prefix of the sums, as in the search
    columns = max(ks, default=0) + 2
    log_C = log_binomials(scenario.n)[:columns]
    with _drawable_blocks(scenario.n, replications):
        for log_rows in _sample_blocks(partial(_sample_rows, scenario), seed, replications):
            averages = np.exp(_esp.prefix_sums(log_rows, columns) - log_C)
            for i, (k, g) in enumerate(pairs):
                deltas = averages[:, k + 1] - averages[:, k]
                samples = deltas * np.broadcast_to(g(averages[:, : k + 1]), deltas.shape)
                sums[i] += samples.sum()
                squares[i] += (samples * samples).sum()
    means = sums / replications
    spreads = np.sqrt(np.maximum(squares - sums * means, 0.0) / max(replications - 1, 1))
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
    """Exact rational for a scenario parameter or a threshold.

    Floats, numpy's among them, are converted through their shortest
    decimal string, so a parameter typed as 0.1 means exactly 1/10 in
    the enumeration; text is read as a decimal or a fraction.
    """
    try:
        return Fraction(str(x) if isinstance(x, (float, np.floating)) else x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"enumeration parameter must be a number (finite), got {x!r}") from exc


def _enumeration_cost(level: FactorLevel | _OutcomeLevel, n: int) -> int:
    """Work units of enumerating one level's rows of n entries.

    A decision scans up to n + 1 sums of up to n bitlen(max(a, b, D)) + n
    bits, for the support points a / D and b / D, and the bisection makes
    about log2(n + 2) of them: one unit per bit.  The count law's n + 1
    weights of about n bitlen(pd) bits, for p = pn / pd, are held until
    the level is summed: four units per bit, so that they take at most
    ``_ENUMERATION_BUDGET`` / 32 bytes.
    """
    points = [_decimal_fraction(level.hi), _decimal_fraction(level.lo)]
    den = math.lcm(*(x.denominator for x in points))
    entry_bits = (den * max(1, *points)).numerator.bit_length() + 1
    count_bits = 1
    if isinstance(level, FactorLevel):
        count_bits = _decimal_fraction(level.p).denominator.bit_length()
    return (n + 1) * n * (4 * count_bits + (n + 2).bit_length() * entry_bits)


def _rejecting_weight(
    hi: Fraction,
    lo: Fraction,
    n: int,
    threshold: Fraction,
    statistic_kind: StatKind,
    weights: list[int],
) -> int:
    """Sum of weights[count] over the rejecting outcome classes of a
    level's rows of n entries, count of them hi and n - count lo.

    Both batch statistics are nondecreasing in every entry, so with
    hi >= lo the rejecting classes are those from some count on;
    bisection over the counts of positive weight finds it in about
    log2(n + 2) exact decisions, each from the closed forms for
    two-point rows.
    """
    reaches = (
        two_point_max_average_reaches
        if statistic_kind is StatKind.MAX_AVERAGE
        else two_point_betting_reaches
    )
    if hi < lo:
        hi, lo, weights = lo, hi, weights[::-1]
    counts = [count for count, weight in enumerate(weights) if weight]
    first = bisect.bisect_left(
        counts, True, key=lambda count: reaches(count, n, hi, lo, threshold)
    )
    return sum(weights[count] for count in counts[first:])


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
    depends on outcome order and is not offered here.  A call whose
    estimated work exceeds ``_ENUMERATION_BUDGET`` (about a second) is a
    ConfigError before any of it is done.
    """
    try:
        statistic_kind = StatKind(statistic_kind)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"unknown statistic: {statistic_kind!r}") from exc
    if statistic_kind is StatKind.VILLE_SEQUENTIAL:
        raise ConfigError(
            "exact enumeration covers the two batch statistics; the "
            "sequential statistic depends on outcome order"
        )
    threshold = _decimal_fraction(threshold)
    levels = _levels(scenario)
    if levels is None:
        raise ConfigError(
            f"scenario {type(scenario).__name__} does not have finite support"
        )
    cost = sum(_enumeration_cost(level, scenario.n) for level in levels)
    if cost > _ENUMERATION_BUDGET:
        raise ConfigError(
            f"enumerating n = {scenario.n} entries on {len(levels)} level(s) takes over "
            f"2^{cost.bit_length() - 1} work units, past the budget of "
            f"2^{_ENUMERATION_BUDGET.bit_length() - 1}"
        )
    # over the exact total of the decimal probs: 3 x 1/3 reads as 0.9999999999999999
    probs = [_decimal_fraction(level.prob) for level in levels]
    total = Fraction(0)
    for level, prob in zip(levels, probs):
        weights, denominator = level._count_law(scenario.n)
        hi, lo = _decimal_fraction(level.hi), _decimal_fraction(level.lo)
        tail = _rejecting_weight(hi, lo, scenario.n, threshold, statistic_kind, weights)
        total += prob * Fraction(tail, denominator)
    return total / sum(probs)
