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
float range is first scaled by a power of two, and a row whose entries
lie too far apart within one base block runs in blocks of one entry.
Every sum after that is carried as a mantissa and a binary exponent
(int32, or int64 for logs far past the float range) per (row, column),
and each term of a convolution is aligned to the largest term of its
column with ``ldexp``, so no sum overflows or underflows; ``frexp`` and
``ldexp`` scale by powers of two and are exact.  Subnormal entries take
their exponent and mantissa from the log.  A row with an ``inf`` needs
no kernel: by 0 * inf = 0, S_k is inf up to its count of nonzero
entries and 0 above.

The max statistic needs only a prefix of the sums.  For nonnegative
entries Newton's inequalities give A_k^2 >= A_(k-1) A_(k+1), so log A_k
is concave in k: once A_(k+1) <= A_k the averages never rise again, and
the maximum is A_k at the first such k (n when there is none).  The
kernel takes a column limit, and in each fold output column j reads
only input columns <= j, so the first c sums of a limited run are bit
for bit those of the full run.  :func:`evalcomb.testkit.test_max_average`
and the Monte Carlo drivers run the kernel at a limit a few columns
past n lambda*, for lambda* the largest betting optimum over the rows
from :func:`evalcomb.betting.optimize_lambda_batch`: the betting
product M_n(lambda) = sum_k C(n, k) lambda^k (1 - lambda)^(n - k) A_k
weighs the A_k binomially around n lambda, and the argmax tracks
n lambda* to about one index.  A caller that holds the optimum passes
it on, so the betting report and the Monte Carlo verdicts share one
optimizer run.  Rows that show no descent within a limit take a four
times larger one.  Each round runs the kernel once at its limit c,
every fold level at c: about n c multiply-adds below the top level and
c^2 at it, at most the cost of every sum.  A second round runs the base
blocks again; of the 120 combine-large rows of bench seeds 1-20 and
3000 random rows, n 100 to 3000, none needed one.
:func:`symmetric_averages` computes every sum and reads its maximum
by the same first-descent rule.  In floats the rule and ``np.argmax``
agree except where rounding breaks exact ties: on all-ones input every
A_k is exactly 1 and the rule gives k = 0, A_1 = n / n being exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _esp
from .betting import BettingOptima, BettingOptimum, optimize_lambda_batch
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

    One kernel runs every row (module docstring), and rows never mix, so
    a row's result does not depend on the others.  Logs whose n-fold sum
    passes 2^59 binary exponents are a ValidationError.
    """
    log_rows = _checked_rows(log_rows)
    return _esp.prefix_sums(log_rows, log_rows.shape[1] + 1)


@functools.lru_cache(maxsize=64)
def log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n as cumulative sums of log ratios.

    The lower half is accumulated and mirrored onto the upper half, so
    log C(n, 0) and log C(n, n) are exactly zero and the array is
    exactly symmetric.  The array is read-only, and the cache holds at
    most 64 arrays of n + 1 floats: every max-average search and every
    call of :func:`log_averages_batch` subtracts one.
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
    """The averages A_k with their maximum.

    ``argmax_k`` is the first k with A_(k+1) <= A_k (n when the averages
    never descend), which is the smallest index attaining the maximum,
    so the report is deterministic under ties.  ``trivial_max`` is True
    when nothing beats A_0 = 1, i.e. the statistic carries no evidence.

    ``log_S`` and ``log_A`` hold log S_k and log A_k as read-only
    float64 arrays: for every k = 0..n from :func:`symmetric_averages`,
    and for k = 0..min(argmax_k + 1, n), the prefix through the descent,
    in the detail of :func:`evalcomb.testkit.test_max_average`.  ``n`` is
    the number of e-values either way.
    """

    argmax_k: int
    log_max: LogValue
    log_S: np.ndarray
    log_A: np.ndarray
    n: int

    @property
    def trivial_max(self) -> bool:
        return self.argmax_k == 0


def symmetric_averages(E: EValueVector) -> SymmetricAverages:
    """A_k = S_k / C(n, k) for all k, plus argmax and max."""
    return _averages(E, full=True)


def _averages(
    E: EValueVector, full: bool, best: BettingOptimum | None = None
) -> SymmetricAverages:
    """The rows = 1 case of :func:`_max_average_rows` as a report: every
    average when ``full``, else the prefix through the first descent."""
    argmax_k, log_max, log_S, log_A = _max_average_rows(E.log_values[None], full, best)
    argmax_k = int(argmax_k[0])
    end = None if full else argmax_k + 2
    log_S, log_A = log_S[0, :end], log_A[0, :end]
    log_S.flags.writeable = False
    log_A.flags.writeable = False
    return SymmetricAverages(
        argmax_k=argmax_k,
        log_max=LogValue(float(log_max[0])),
        log_S=log_S,
        log_A=log_A,
        n=E.n,
    )


_MARGIN = 10  # columns of the first limit past n lambda*


def _max_average_rows(
    log_rows: np.ndarray,
    full: bool = False,
    best: BettingOptima | BettingOptimum | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The max statistic of each row of a (rows, n) matrix of log
    e-values: (argmax_k, log_max, log_S, log_A).

    ``best``, the rows' betting optimum (a BettingOptimum for one row),
    comes from a caller that holds it, or else from an optimizer run.
    argmax_k is each row's first k with log A_(k+1) <= log A_k, or n,
    and log_max = log A_(argmax_k) (module docstring).  log_S and log_A
    hold log S_k and log A_k for k < c, the last column limit the search
    ran at: c >= argmax_k + 2 in every row, or c = n + 1.  With ``full``,
    and for every layout without folds (n <= 64), c = n + 1 at once.
    """
    rows, n = log_rows.shape
    log_C = log_binomials(n)
    columns = n + 1
    if not full and n > _esp._BASE:
        best = optimize_lambda_batch(log_rows) if best is None else best
        # A row with an infinite entry has its maximum at k <= 1.
        lam = np.where(best.infinite_evidence, 0.0, best.lambda_star).max(initial=0.0)
        columns = min(n + 1, math.ceil(n * lam) + _MARGIN)
    while True:
        log_S = _esp.prefix_sums(log_rows, columns)
        log_A = log_S - log_C[:columns]
        argmax_k, log_max = _first_descent(log_A)
        if columns == n + 1 or (argmax_k < columns - 1).all():
            return argmax_k, log_max, log_S, log_A
        # Four times the limit, or every sum once that passes half of them.
        columns = 4 * columns if 8 * columns <= n + 1 else n + 1


def _first_descent(log_A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k with log A_(k+1) <= log A_k, or its last
    column where it never descends, and log A_k there."""
    rows, columns = log_A.shape
    descent = np.empty((rows, columns), dtype=bool)
    descent[:, -1] = True
    np.less_equal(log_A[:, 1:], log_A[:, :-1], out=descent[:, :-1])
    k = descent.argmax(axis=1)
    return k, log_A[np.arange(rows), k]

