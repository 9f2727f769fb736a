"""Elementary symmetric sums, their averages, and the max statistic.

For a vector (E_1, ..., E_n), S_k is the sum of the products of every
k-element subset and A_k = S_k / C(n, k) is the average such product,
with A_0 = 1 by convention.  For independent or simultaneous e-values
the maximum of the A_k is itself an e-value-like statistic: it exceeds
t with probability at most 1/t.  It also dominates the whole family of
constant-fraction betting products, which is what makes it the stronger
of the two batch combination rules offered by this package.

The sums are computed row-wise over a (rows, n) matrix of log e-values
by the kernel in :mod:`evalcomb._esp`; the single-vector functions are
the rows = 1 case.  The kernel works in linear domain, where each cell
is a multiply-add on float mantissas.  The entries are cut into base
blocks of at most 64, whose sums come from the one-pass recursion

    s_j <- s_j + E_m * s_(j-1)    (m = 1..b, j descending implicit)

run on all blocks at once.  Groups of 8 blocks are then folded, level
by level, each block applied to its group's running sums as a
convolution.  A block whose entries could push its sums out of the
float range is first scaled by a power of two.  Every sum after that is
carried as a mantissa and a binary exponent per (row, column), and each
term of a convolution is aligned to the largest term of its column with
``ldexp``, so no sum overflows or underflows; ``frexp`` and ``ldexp``
scale by powers of two and are exact.  A row with an ``inf`` or a
subnormal entry, or whose entries lie too far apart within one base
block, runs the log-domain recursion with a log-sum-exp per cell
instead.  Both paths keep 0 * inf = 0: the linear-domain kernel never
sees an ``inf``, and the fallback turns the NaN of each such product
into a zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _esp
from .core import EValueVector, LogValue, _checked_rows
from .errors import ConfigError

__all__ = [
    "SymmetricAverages",
    "log_esp",
    "log_esp_batch",
    "log_binomials",
    "log_averages_batch",
    "symmetric_averages",
]


def log_esp(log_values: np.ndarray) -> np.ndarray:
    """log S_0 .. log S_n for one vector of log e-values: the rows = 1
    case of :func:`log_esp_batch`."""
    return log_esp_batch(np.asarray(log_values, dtype=float)[None])[0]


def log_esp_batch(log_rows: np.ndarray) -> np.ndarray:
    """log S_0 .. log S_n for each row of a (rows, n) matrix of log
    e-values.

    Rows whose entries pass the range test run the blocked linear-domain
    kernel and the others the log-domain recursion (module docstring).
    Rows never mix, so a row's result does not depend on the others.
    """
    return _esp.log_esp_rows(_checked_rows(log_rows))


@functools.lru_cache(maxsize=16)
def log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n as cumulative sums of log ratios.

    The lower half is accumulated and mirrored onto the upper half, so
    log C(n, 0) and log C(n, n) are exactly zero and the array is
    exactly symmetric.  The array is read-only and cached for the last
    16 sizes: every call of :func:`log_averages_batch` subtracts it.
    """
    if n < 0:
        raise ConfigError("n must be nonnegative")
    out = np.zeros(n + 1)
    half = n // 2
    if half:
        j = np.arange(1, half + 1, dtype=float)
        np.cumsum(np.log((n + 1 - j) / j), out=out[1 : half + 1])
    out[n - half :] = out[half::-1]
    out.flags.writeable = False
    return out


def log_averages_batch(log_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log S_k and log A_k = log S_k - log C(n, k), k = 0..n."""
    log_S = log_esp_batch(log_rows)
    return log_S, log_S - log_binomials(log_S.shape[1] - 1)


@dataclass(frozen=True, eq=False)
class SymmetricAverages:
    """The averages A_0 .. A_n with their maximum.

    ``argmax_k`` is the smallest index attaining the maximum, so the
    report is deterministic under ties.  ``trivial_max`` is True when
    nothing beats A_0 = 1, i.e. the statistic carries no evidence.

    ``log_S`` and ``log_A`` hold log S_k and log A_k for k = 0..n as
    read-only float64 arrays.
    """

    argmax_k: int
    log_max: LogValue
    log_S: np.ndarray
    log_A: np.ndarray

    @property
    def n(self) -> int:
        return self.log_A.size - 1

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
        log_S=log_S,
        log_A=log_A,
    )
