"""The kernel behind :func:`evalcomb.sympoly.log_esp_batch`.

Elementary symmetric sums in linear domain, a float mantissa and a
binary exponent per (row, column), with the log-domain recursion as the
fallback for rows outside the range test; the sympoly module docstring
describes the method.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .core import LOG_INF, LOG_ZERO

_BASE, _FAN_OUT = 64, 8  # most entries in a base block; blocks per fold
_BLOCK_BITS = 1000  # bound on |log2| of a base block's scaled sums
_MAX_FAST_N = 1 << 17  # keeps every int32 exponent far from overflow
_ZERO_EXP = -(1 << 29)  # exponent of an exact zero, below any real one
_NO_EXP = 1 << 20  # beyond every binary exponent of a float
_CELLS = 1 << 14  # terms per slice of a fold: fixed cost per numpy call
_LOG_TINY, _LOG_HUGE = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42fp-1"), 2.7897668087737545e-08


@functools.lru_cache(maxsize=128)
def _layout(n: int) -> tuple[int, tuple[int, ...]]:
    """Base block size b0 <= _BASE and the fan-out of each fold level,
    bottom up, with b0 * prod(fans) >= n."""
    levels = 0
    while _BASE * _FAN_OUT**levels < n:
        levels += 1
    b0 = max(1, -(-n // _FAN_OUT**levels))
    top = -(-n // (b0 * _FAN_OUT ** max(levels - 1, 0)))
    return b0, (_FAN_OUT,) * (levels - 1) + (top,) * (levels > 0)


def prefix_sums(log_rows: np.ndarray) -> Callable[[int], np.ndarray]:
    """log S_0 .. log S_(c - 1) for each row of a float (rows, n) matrix
    of log e-values, as a function of the column limit c <= n + 1: the
    whole of :func:`evalcomb.sympoly.log_esp_batch` at c = n + 1, and a
    prefix of it for a search that raises the limit.

    The base blocks and the first fold level run whole, here, once:
    their sums have degree at most _BASE * _FAN_OUT.  Each call runs
    only the levels above at its limit, so on the linear-domain path a
    call's cost beyond that fixed part grows with the square of the
    limit rather than with n times it.  Rows on the log-domain fallback
    run their whole recursion at each limit.
    """
    rows, n = log_rows.shape
    if rows == 0:
        return lambda columns: np.empty((0, columns))
    b0, fans = _layout(n)
    entries = np.zeros((rows, b0 * math.prod(fans)))
    # Entries within 2^+-(h - 1), h as in _base_scales, need no scaling;
    # skipping the scale computation halves the time at n = 8.
    tame = np.abs(log_rows) <= (_BLOCK_BITS // b0 - 2) * math.log(2.0)
    if n <= _MAX_FAST_N and (tame | (log_rows == LOG_ZERO)).all():
        np.exp(log_rows, out=entries[:, :n])
        return _fast_sums(entries, None, b0, fans)
    normal = (log_rows >= _LOG_TINY) & (log_rows <= _LOG_HUGE)
    np.exp(log_rows, out=entries[:, :n], where=normal)
    tau, fast = _base_scales(entries, b0)
    fast &= np.logical_and.reduce(normal | (log_rows == LOG_ZERO), axis=1)
    fast &= n <= _MAX_FAST_N
    fast_sums = _fast_sums(entries[fast], tau[fast], b0, fans) if fast.any() else None

    def sums(columns: int) -> np.ndarray:
        out = np.empty((rows, columns))
        if not fast.all():
            out[~fast] = _log_domain_esp(log_rows[~fast], columns)
        if fast_sums is not None:
            out[fast] = fast_sums(columns)
        return out

    return sums


def _base_scales(entries: np.ndarray, b0: int) -> tuple[np.ndarray, np.ndarray]:
    """Each base block's scale exponent tau, (rows, blocks), and which
    rows pass the range test.

    With x the binary exponents of a block's nonzero entries and
    h = _BLOCK_BITS // b0 - 1, tau is the value nearest 0 that puts
    every x - tau in [-h, h]; it exists when max x - min x <= 2h.  Then
    every scaled entry E 2^-tau lies in [2^-(h+1), 2^h), every product
    of up to b0 of them in [2^-b0(h+1), 2^b0h) and every sum of them
    below 2^b0(h+1) <= 2^_BLOCK_BITS: all are normal floats.
    """
    h = _BLOCK_BITS // b0 - 1
    x = np.frexp(entries)[1].reshape(entries.shape[0], -1, b0)
    zero = (entries == 0).reshape(x.shape)
    hi = np.maximum.reduce(np.where(zero, -_NO_EXP, x), axis=2)
    lo = np.minimum.reduce(np.where(zero, _NO_EXP, x), axis=2)
    tau = np.minimum(np.maximum(hi - h, 0), lo + h)
    return tau, np.logical_and.reduce(hi - lo <= 2 * h, axis=1)


def _fast_sums(
    entries, tau, b0: int, fans: tuple[int, ...]
) -> Callable[[int], np.ndarray]:
    """The linear-domain kernel on rows that pass the range test, as a
    function of the column limit (at most n + 1); tau None means every
    scale exponent is 0."""
    blocks, powers = entries.reshape(-1, b0), None
    if tau is not None:
        tau = tau.reshape(-1, 1)
        blocks = np.ldexp(blocks, -tau)
        powers = tau * np.arange(b0 + 1, dtype=np.int32)  # s_j is S_j 2^-powers_j
    s = np.zeros((blocks.shape[0], b0 + 1))
    s[:, 0] = 1.0
    lo, hi, buf = s[:, :b0], s[:, 1:], np.empty_like(blocks)
    for column in blocks.T[:, :, None]:
        # full width: past the current degree s holds exact zeros
        np.multiply(lo, column, out=buf)
        np.add(hi, buf, out=hi)
    if not fans:
        if powers is None:
            return lambda columns: _log(s[:, :columns])
        return lambda columns: _log_from_parts(
            s[:, :columns], powers[:, :columns], 1020 - _BLOCK_BITS
        )
    mu, g = np.frexp(s)
    if powers is not None:
        g += powers
    g[mu == 0] = _ZERO_EXP
    shape = (-1, fans[0], b0 + 1)
    with np.errstate(under="ignore"):
        mu, g = _fold(mu.reshape(shape), g.reshape(shape))

    def sums(columns: int) -> np.ndarray:
        m, e = mu[:, :columns], g[:, :columns]
        with np.errstate(under="ignore"):
            for fan in fans[1:]:
                shape = (-1, fan, m.shape[1])
                m, e = _fold(m.reshape(shape), e.reshape(shape), columns)
        return _log_from_parts(m[:, :columns], e[:, :columns], 1000)

    return sums


def _fold(
    mu: np.ndarray, g: np.ndarray, columns: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of each group of blocks from the blocks' sums mu 2^g, an
    exact zero having g = _ZERO_EXP: (groups, fan, d + 1) ->
    (groups, min(fan * d + 1, columns)) mantissas in [1/2, 1) and
    exponents; all fan * d + 1 sums when ``columns`` is None.

    Block t is applied to the running sums as S'_j = sum_i e_i S_(j-i),
    i = 0..d.  Output column j reads only columns <= j of its inputs, so
    inputs cut to ``columns`` columns give the first ``columns`` sums
    bit for bit: the terms dropped are zeros at the end of each column's
    sum.  The terms with i > j are exact zeros at the end of a column's
    sum as well, and a slice of columns [lo, hi) leaves out those with
    i >= hi.  Each term's exponent is taken relative to the largest
    term of its column and ``ldexp`` scales the mantissa by the
    difference, so every term is at most 1 and the largest at least 1/4:
    a column sum neither overflows nor loses a term that matters.  Only
    terms below 2^-1022 of the largest underflow.
    """
    groups, fan, d1 = mu.shape
    d = d1 - 1
    width = fan * d + 1 if columns is None else min(fan * d + 1, columns)
    # d leading zero columns let every window start at column 0
    M = np.zeros((groups, d + width))
    X = np.full((groups, d + width), _ZERO_EXP, dtype=np.int32)
    M[:, d : d + d1], X[:, d : d + d1] = mu[:, 0], g[:, 0]
    # window[r, i, j] = column j - i
    Mw = np.ndarray((groups, d1, width), M.dtype, M, d * 8, (M.strides[0], -8, 8))
    Xw = np.ndarray((groups, d1, width), X.dtype, X, d * 4, (X.strides[0], -4, 4))
    step = max(2, _CELLS // (groups * d1))
    cells = groups * d1 * min(step + 1, width)
    ebuf, tbuf = np.empty(cells, dtype=np.int32), np.empty(cells)
    for t in range(1, fan):
        # Columns go high to low, so each slice reads only columns the
        # block has not updated yet; no slice is one column wide.
        hi = min((t + 1) * d + 1, width)
        while hi > 0:
            lo = 0 if hi <= step + 1 else hi - step
            i1 = min(d1, hi)  # terms i >= hi read the leading zeros
            shape = (groups, i1, hi - lo)
            ex = ebuf[: math.prod(shape)].reshape(shape)
            terms = tbuf[: ex.size].reshape(shape)
            np.add(Xw[:, :i1, lo:hi], g[:, t, :i1, None], out=ex)
            top = np.maximum.reduce(ex, axis=1)
            np.subtract(ex, top[:, None], out=ex)
            np.ldexp(Mw[:, :i1, lo:hi], ex, out=terms)
            np.multiply(terms, mu[:, t, :i1, None], out=terms)
            col = np.add.reduce(terms, axis=1)
            dst = X[:, d + lo : d + hi]
            np.add(top, np.frexp(col, out=(M[:, d + lo : d + hi], dst))[1], out=dst)
            np.copyto(dst, _ZERO_EXP, where=col == 0)
            hi = lo
    return M[:, d:], X[:, d:]


def _log(x: np.ndarray) -> np.ndarray:
    """log x for x >= 0, log 0 = -inf, without a divide warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_from_parts(M: np.ndarray, X: np.ndarray, near: int) -> np.ndarray:
    """log(M 2^X) for M = 0 or 2^(near - 1022) <= M < 2^(1024 - near):
    the log of the float M 2^X when |X| <= near, else
    log(M 2^c) + (X - c) log 2 with c = X clipped to +-near."""
    clipped = np.minimum(np.maximum(X, -near), near)
    logs = _log(np.ldexp(M, clipped))
    far = X - clipped
    if far.any():
        # far * _LN2_HI is exact: _LN2_HI has 25 significant bits
        logs += far * _LN2_LO
        logs += far * _LN2_HI
    return logs


def _log_domain_esp(log_rows: np.ndarray, columns: int | None = None) -> np.ndarray:
    """The fallback: the same one-pass recursion with a log-sum-exp per
    cell, over the first ``columns`` (default n + 1) sums.  The NaN
    patch applies the 0 * inf == 0 rule: IEEE turns those products (-inf
    plus +inf) into NaN, and the convention says zero."""
    rows, n = log_rows.shape
    columns = n + 1 if columns is None else columns
    s = np.full((rows, columns), LOG_ZERO)
    s[:, 0] = 0.0
    buf = np.empty((rows, columns - 1))
    lo, hi = s[:, :-1], s[:, 1:]
    patch_products = bool((log_rows == LOG_INF).any())
    with np.errstate(invalid="ignore"):
        for column in log_rows.T[:, :, None]:
            np.add(lo, column, out=buf)
            if patch_products:
                buf[np.isnan(buf)] = LOG_ZERO
            np.logaddexp(hi, buf, out=hi)
    return s
