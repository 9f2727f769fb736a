"""Log-domain arithmetic on [0, inf] and validated e-value vectors.

Every statistic in this package is a product or sum of nonnegative
numbers that can span thousands of orders of magnitude, so all of them
are carried as natural logarithms.  ``-inf`` encodes an exact zero and
``+inf`` an exact infinity; both are legal e-values.  The one product
convention that the extended reals leave open is fixed once for the
whole package: ``0 * inf == 0``.  A monomial containing a zero entry contributes
nothing, no matter what else it contains, which keeps every combined
statistic a lower bound for any alternative convention and therefore
never manufactures a rejection out of an impossible product.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "LOG_ZERO",
    "LOG_INF",
    "LogValue",
    "Regime",
    "GUARANTEED_REGIMES",
    "EValueVector",
    "log_from_value",
    "validate_evalues",
    "logsumexp_1d",
]

LOG_ZERO = float("-inf")
LOG_INF = float("inf")


@dataclass(frozen=True)
class LogValue:
    """A number in [0, inf] stored as its natural logarithm.

    ``LogValue(0.0)`` is the number one.  The encoding is exact at both
    ends of the range: zero is ``-inf`` and infinity is ``+inf``.  NaN
    is rejected at construction so that it can never leak into a
    decision.
    """

    log_magnitude: float

    def __post_init__(self) -> None:
        lm = float(self.log_magnitude)
        if math.isnan(lm):
            raise ValidationError("log magnitude must not be NaN")
        object.__setattr__(self, "log_magnitude", lm)

    @property
    def value(self) -> float:
        """The decoded magnitude, saturating to ``inf`` when it does
        not fit in a float."""
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == LOG_ZERO

    @property
    def is_infinite(self) -> bool:
        return self.log_magnitude == LOG_INF

    def __float__(self) -> float:
        return self.value


def log_from_value(x: float) -> LogValue:
    """Encode a nonnegative extended real as a :class:`LogValue`.

    Raises :class:`ValidationError` for negative, NaN, or non-numeric
    input.
    """
    try:
        xf = float(x)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a number: {x!r}") from exc
    if math.isnan(xf):
        raise ValidationError("NaN is not a valid value")
    if xf < 0:
        raise ValidationError(f"negative value not allowed: {xf}")
    if xf == 0.0:
        return LogValue(LOG_ZERO)
    return LogValue(math.log(xf))


class Regime(enum.Enum):
    """How a batch of e-values may depend on one another.

    The regime is metadata: it never changes what is computed, only
    which tail guarantees a report may cite.  Independent entries are
    automatically simultaneous, and simultaneous entries are
    automatically sequential; the converses fail.
    """

    INDEPENDENT = "independent"
    SIMULTANEOUS = "simultaneous"
    SEQUENTIAL = "sequential"
    UNKNOWN = "unknown"


GUARANTEED_REGIMES = frozenset({Regime.INDEPENDENT, Regime.SIMULTANEOUS})
"""Regimes under which the fixed-n combination bounds are proved.

For merely sequential e-values the bounds can fail (there is an explicit
two-step construction rejecting with probability 9/16 at level 1/2), so
reports flag any regime outside this set.
"""


@dataclass(frozen=True, eq=False)
class EValueVector:
    """A validated vector (E_1, ..., E_n) of e-values in log domain.

    ``log_values`` is a read-only float64 array; entry ``-inf`` is an
    exact zero e-value and ``+inf`` an infinite one.  n >= 1 always.
    """

    log_values: np.ndarray
    regime: Regime = Regime.UNKNOWN

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("e-value vector must be one-dimensional")
        if arr.size < 1:
            raise ValidationError("at least one e-value is required")
        if np.isnan(arr).any():
            raise ValidationError("NaN is not a valid e-value")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_values", arr)
        if not isinstance(self.regime, Regime):
            raise ValidationError(f"unknown regime: {self.regime!r}")

    @property
    def n(self) -> int:
        return self.log_values.size

    @property
    def values(self) -> np.ndarray:
        """Entries decoded to linear scale (may saturate to inf)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_values)


def validate_evalues(
    raw: Sequence[float] | np.ndarray,
    regime: Regime = Regime.UNKNOWN,
) -> EValueVector:
    """Check a sequence of candidate e-values and wrap it.

    Every entry must be a nonnegative number; ``inf`` is allowed, NaN
    and negatives are not, and complex input is refused even with zero
    imaginary parts, as are integers too large for a float.  The error message names the position
    (0-based) of the first offending entry.  Numeric ndarrays are read
    without a copy; other iterables, generators among them, are listed
    first.
    """
    try:
        if not (isinstance(raw, np.ndarray) and raw.dtype.kind in "biuf"):
            raw = list(raw)
            dtype = np.asarray(raw).dtype
            if dtype.kind == "c":
                # a float conversion would drop the imaginary parts
                raise ValidationError(f"e-values must be real numbers, got {dtype}")
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"e-values must all be numbers: {exc}") from exc
    except OverflowError as exc:
        raise ValidationError(
            f"e-values must be real numbers within the float range: {exc}"
        ) from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("at least one e-value is required")
    bad_nan = np.isnan(arr)
    if bad_nan.any():
        i = int(np.argmax(bad_nan))
        raise ValidationError(f"e-value at position {i} is NaN")
    bad_neg = arr < 0
    if bad_neg.any():
        i = int(np.argmax(bad_neg))
        raise ValidationError(f"e-value at position {i} is negative: {arr[i]}")
    with np.errstate(divide="ignore"):
        log_arr = np.log(arr)
    return EValueVector(log_arr, regime)


def logsumexp_1d(log_terms: np.ndarray) -> float:
    """log(sum(exp(t))) over a 1-D array, stable against overflow.

    All-(-inf) input returns -inf; any +inf term returns +inf.
    """
    a = np.asarray(log_terms, dtype=float)
    if a.size == 0:
        return LOG_ZERO
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))
