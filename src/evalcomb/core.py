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

from .errors import ConfigError, ValidationError

__all__ = [
    "LOG_ZERO",
    "LOG_INF",
    "LogValue",
    "Regime",
    "GUARANTEED_REGIMES",
    "EValueVector",
    "validate_evalues",
]

LOG_ZERO = float("-inf")
LOG_INF = float("inf")


def _checked_rows(log_rows: np.ndarray) -> np.ndarray:
    """log_rows as a float matrix, the input of every row-wise kernel."""
    log_rows = np.asarray(log_rows, dtype=float)
    if log_rows.ndim != 2:
        raise ValidationError("expected a 2-D matrix of log e-values")
    if math.isnan(log_rows.min(initial=0.0)):  # min propagates NaN
        raise ValidationError("NaN is not a valid log e-value")
    return log_rows


def _checked_number(name: str, value: object) -> float:
    """value as a float: text, non-numbers, ints beyond the float range and
    NaN are a ConfigError rather than a raw TypeError or OverflowError."""
    if isinstance(value, (str, bytes, bytearray)):
        raise ConfigError(f"{name} must be a number, not text: {value!r}")
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number in the float range: {exc}") from exc
    if math.isnan(number):
        raise ConfigError(f"{name} must be a number, got NaN")
    return number


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
    imaginary parts, as are integers too large for a float and text (a
    str or bytes argument or entry).  The error message names the
    position (0-based) of the first offending entry.  Numeric ndarrays
    are read without a copy; other iterables, generators among them, are
    listed first.
    """
    if isinstance(raw, (str, bytes, bytearray)):
        raise ValidationError(f"e-values must be a sequence of numbers, got {type(raw).__name__}")
    try:
        if not (isinstance(raw, np.ndarray) and raw.dtype.kind in "biuf"):
            raw = list(raw)
            dtype = np.asarray(raw).dtype
            if dtype.kind == "c":
                # a float conversion would drop the imaginary parts
                raise ValidationError(f"e-values must be real numbers, got {dtype}")
            if dtype.kind in "USO" and any(isinstance(x, (str, bytes)) for x in raw):
                raise ValidationError("e-values must be numbers, not strings")
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"e-values must all be numbers: {exc}") from exc
    except OverflowError as exc:
        raise ValidationError(
            f"e-values must be real numbers within the float range: {exc}"
        ) from exc
    if arr.ndim != 1:
        raise ValidationError(f"e-values must be a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
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

