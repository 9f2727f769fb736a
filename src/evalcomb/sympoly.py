"""Elementary symmetric sums, their averages, and the max statistic.

For a vector (E_1, ..., E_n), S_k is the sum of the products of every
k-element subset and A_k = S_k / C(n, k) is the average such product,
with A_0 = 1 by convention.  For independent or simultaneous e-values
the maximum of the A_k is itself an e-value-like statistic: it exceeds
t with probability at most 1/t.  It also dominates the whole family of
constant-fraction betting products, which is what makes it the stronger
of the two batch combination rules offered by this package.

Everything here runs in log domain, row-wise over a (rows, n) matrix
of log e-values; the single-vector functions are the rows = 1 case.
The O(n^2) one-pass recursion

    s_j <- s_j + E_m * s_{j-1}    (m = 1..n, j descending implicit)

is the only way the sums are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import LOG_INF, LOG_ZERO, EValueVector, LogValue, logsumexp_1d
from .errors import ConfigError, ValidationError

__all__ = [
    "SymmetricAverages",
    "log_esp",
    "log_esp_batch",
    "log_binomials",
    "log_averages_batch",
    "symmetric_sums",
    "symmetric_averages",
    "mixture_value",
    "identity_residuals",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def log_esp(log_values: np.ndarray) -> np.ndarray:
    """log S_0 .. log S_n for one vector of log e-values: the rows = 1
    case of :func:`log_esp_batch`."""
    return log_esp_batch(np.asarray(log_values, dtype=float)[None])[0]


def log_esp_batch(log_rows: np.ndarray) -> np.ndarray:
    """log S_0 .. log S_n for each row of a (rows, n) matrix of log
    e-values.

    Runs the quadratic one-entry-at-a-time recursion entirely with
    log-sum-exp updates, so it neither overflows nor underflows.  The
    NaN patch applies the 0 * inf == 0 rule: IEEE turns those products
    (-inf plus +inf) into NaN, and the convention says they are zeros.
    Rows never mix, so a row's result does not depend on the others.
    """
    log_rows = np.asarray(log_rows, dtype=float)
    if log_rows.ndim != 2:
        raise ValidationError("expected a 2-D matrix of log e-values")
    rows, n = log_rows.shape
    s = np.full((rows, n + 1), LOG_ZERO)
    s[:, 0] = 0.0
    buf = np.empty((rows, n))
    lo, hi = s[:, :n], s[:, 1:]
    entries = log_rows.T[:, :, None]
    if rows == 1:
        # The same arithmetic on 1-D views and Python-float entries,
        # where numpy's per-call overhead is lowest.
        lo, hi, buf, entries = lo[0], hi[0], buf[0], log_rows[0].tolist()
    patch_products = bool((log_rows == LOG_INF).any())
    with np.errstate(invalid="ignore"):
        for m in range(n):
            # Full-width update: positions past the current prefix hold
            # log 0, so adding the new entry and folding in leaves them
            # untouched.  Fixed-size operations keep the per-step numpy
            # overhead constant.
            np.add(lo, entries[m], out=buf)
            if patch_products:
                buf[np.isnan(buf)] = LOG_ZERO
            np.logaddexp(hi, buf, out=hi)
    return s


def log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n as cumulative sums of log ratios.

    The lower half is accumulated and mirrored onto the upper half, so
    log C(n, 0) and log C(n, n) are exactly zero and the array is
    exactly symmetric.
    """
    if n < 0:
        raise ConfigError("n must be nonnegative")
    out = np.zeros(n + 1)
    half = n // 2
    if half:
        j = np.arange(1, half + 1, dtype=float)
        np.cumsum(np.log((n + 1 - j) / j), out=out[1 : half + 1])
    out[n - half :] = out[half::-1]
    return out


def log_averages_batch(log_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log S_k and log A_k = log S_k - log C(n, k), k = 0..n."""
    log_S = log_esp_batch(log_rows)
    return log_S, log_S - log_binomials(log_S.shape[1] - 1)


def symmetric_sums(E: EValueVector) -> tuple[LogValue, ...]:
    """S_0 .. S_n via the one-pass quadratic recursion."""
    return tuple(LogValue(v) for v in log_esp(E.log_values))


@dataclass(frozen=True, eq=False)
class SymmetricAverages:
    """The averages A_0 .. A_n with their maximum.

    ``argmax_k`` is the smallest index attaining the maximum, so the
    report is deterministic under ties.  ``trivial_max`` is True when
    nothing beats A_0 = 1, i.e. the statistic carries no evidence.

    The per-index values are kept as raw log arrays; the ``log_S`` and
    ``log_A`` tuples are materialized on first access so that building
    the report costs no more than the recursion itself.
    """

    argmax_k: int
    log_max: LogValue
    _log_S: np.ndarray = field(repr=False)
    _log_A: np.ndarray = field(repr=False)

    @cached_property
    def log_S(self) -> tuple[LogValue, ...]:
        return tuple(LogValue(v) for v in self._log_S)

    @cached_property
    def log_A(self) -> tuple[LogValue, ...]:
        return tuple(LogValue(v) for v in self._log_A)

    @property
    def n(self) -> int:
        return self._log_A.size - 1

    @property
    def trivial_max(self) -> bool:
        return self.argmax_k == 0


def symmetric_averages(E: EValueVector) -> SymmetricAverages:
    """A_k = S_k / C(n, k) for all k, plus argmax and max."""
    log_S, log_A = (v[0] for v in log_averages_batch(E.log_values[None]))
    log_S.flags.writeable = False
    log_A.flags.writeable = False
    argmax_k = int(np.argmax(log_A))
    return SymmetricAverages(
        argmax_k=argmax_k,
        log_max=LogValue(float(log_A[argmax_k])),
        _log_S=log_S,
        _log_A=log_A,
    )


def mixture_value(E: EValueVector, lam: float) -> LogValue:
    """The betting product at fraction lam, via the mixture identity.

    prod_i (lam E_i + 1 - lam) equals sum_k C(n,k) lam^k (1-lam)^(n-k)
    A_k, a binomial-weighted average of the A_k.  Evaluating the
    product through this representation gives an independent route for
    cross-checking the direct per-factor computation, and makes the
    dominance sup_lam M_n(lam) <= max_k A_k transparent: the weights
    are a probability vector.
    """
    lam = float(lam)
    if math.isnan(lam) or not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    log_A = log_averages_batch(E.log_values[None])[1][0]
    if lam == 0.0:
        return LogValue(0.0)
    if lam == 1.0:
        return LogValue(float(log_A[-1]))
    n = E.n
    k = np.arange(n + 1, dtype=float)
    log_weights = log_binomials(n) + k * math.log(lam) + (n - k) * math.log1p(-lam)
    return LogValue(logsumexp_1d(log_weights + log_A))


def identity_residuals(E: EValueVector) -> np.ndarray:
    """Normalized residuals of the telescoping identity, all k at once.

    The identity ties consecutive averages to leave-one-out symmetric
    sums:

        A_{k+1} - A_k = (1 / (n C(n-1, k))) * sum_i (E_i - 1) S_k(E_-i)

    where E_-i drops entry i.  Both sides are evaluated in linear
    domain (the right side is a signed sum, so log tricks do not
    apply), so every symmetric sum S_k must fit in a float; that also
    bounds the averages and the leave-one-out sums.  Entry k of the
    result is (lhs - rhs) / max(1, A_k, A_{k+1}).
    """
    n = E.n
    log_S, log_A = (v[0] for v in log_averages_batch(E.log_values[None]))
    if not (log_S < _LOG_FLOAT_MAX).all():
        raise ValidationError(
            "identity check requires finite e-values whose symmetric sums "
            "fit in linear scale"
        )
    e = E.values
    A = np.exp(log_A)
    loo = np.empty((n, n - 1))
    for i in range(n):
        loo[i, :i] = E.log_values[:i]
        loo[i, i:] = E.log_values[i + 1 :]
    loo_S = np.exp(log_esp_batch(loo))
    residuals = np.empty(n)
    for k in range(n):
        lhs = A[k + 1] - A[k]
        rhs = float((e - 1.0) @ loo_S[:, k]) / (n * math.comb(n - 1, k))
        scale = max(1.0, A[k], A[k + 1])
        residuals[k] = (lhs - rhs) / scale
    return residuals
