"""The kernel behind :func:`evalcomb.sympoly.log_esp_batch`.

Elementary symmetric sums in linear domain, a float mantissa and a
binary exponent per (row, column), for every row of log e-values; the
sympoly module docstring describes the method.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import LOG_INF, LOG_ZERO
from .errors import ValidationError

_BASE, _FAN_OUT = 64, 8  # most entries in a base block; blocks per fold
_BLOCK_BITS = 1000  # bound on |log2| of a base block's scaled sums
# Binary exponents are int32 while n (2 + max |exponent of an entry|) <= 2^27, else
# int64 up to 2^59; a zero's is -4 times that: below all, and sums of two stay in range.
_EXP_BUDGET = {np.int32: 1 << 27, np.int64: 1 << 59}
_CELLS = 1 << 14  # terms per slice of a fold: fixed cost per numpy call
_LOG_TINY, _LOG_HUGE = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42fp-1"), 2.7897668087737545e-08


@functools.lru_cache(maxsize=128)
def _layout(n: int, base: int) -> tuple[int, tuple[int, ...]]:
    """Base block size b0 <= base and the fan-out of each fold level,
    bottom up, with b0 * prod(fans) >= n."""
    levels = 0
    while base * _FAN_OUT**levels < n:
        levels += 1
    b0 = max(1, -(-n // _FAN_OUT**levels))
    top = -(-n // (b0 * _FAN_OUT ** max(levels - 1, 0)))
    return b0, (_FAN_OUT,) * (levels - 1) + (top,) * (levels > 0)


def prefix_sums(log_rows: np.ndarray, columns: int) -> np.ndarray:
    """log S_0 .. log S_(c - 1), c = ``columns`` <= n + 1, for each row
    of a float (rows, n) matrix of log e-values: the whole of
    :func:`evalcomb.sympoly.log_esp_batch` at c = n + 1, and a prefix of
    it for a search.  The base blocks run whole and every fold level at
    the limit: about n c multiply-adds below the top level and c^2 at
    it.  Rows that fail the range test of :func:`_base_scales` run in
    blocks of one entry, and rows with an ``inf`` take a closed form.
    """
    rows, n = log_rows.shape
    if rows == 0:
        return np.empty((0, columns))
    b0, fans = _layout(n, _BASE)
    # Entries within 2^+-(h - 1), h as in _base_scales, need no scaling;
    # skipping the scale computation halves the time at n = 8.
    tame = (np.abs(log_rows) <= (_BLOCK_BITS // b0 - 2) * math.log(2.0)) | (log_rows == LOG_ZERO)
    if n * (_BLOCK_BITS // b0 + 1) <= _EXP_BUDGET[np.int32] and tame.all():
        entries = np.zeros((rows, b0 * math.prod(fans)))
        np.exp(log_rows, out=entries[:, :n])
        return _fast_sums(entries, None, None, b0, fans, columns)
    out = np.empty((rows, columns))
    infinite = np.logical_or.reduce(log_rows == LOG_INF, axis=1)
    if infinite.any():
        # S_k = inf for 1 <= k <= the count of nonzero entries, and 0 above,
        # where every product has a zero factor (0 * inf = 0).
        nonzero = np.count_nonzero(log_rows[infinite] != LOG_ZERO, axis=1)
        out[infinite] = np.where(np.arange(columns) <= nonzero[:, None], LOG_INF, LOG_ZERO)
        out[infinite, 0] = 0.0
    finite, ones = np.flatnonzero(~infinite), _layout(n, 1)[1]
    m, x = _split(log_rows[finite], max(b0 * math.prod(fans), math.prod(ones)))
    tau, fast = _base_scales(x[:, : b0 * math.prod(fans)], b0)
    if fast.any():
        out[finite[fast]] = _fast_sums(m[fast], x[fast], tau[fast], b0, fans, columns)
    if not fast.all():
        tau = _base_scales(x[~fast, : math.prod(ones)], 1)[0]
        out[finite[~fast]] = _fast_sums(m[~fast], x[~fast], tau, 1, ones, columns)
    return out


def _split(logs: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Mantissa m in [1/2, 1) and binary exponent x, int32 or int64 by
    _EXP_BUDGET, of each entry E = m 2^x of a (rows, n) matrix of logs of
    finite e-values, padded with zeros to ``width`` columns.  Normal
    floats take both from frexp(exp(log E)), the others from the log."""
    rows, n = logs.shape
    zero = logs == LOG_ZERO
    largest = float(np.abs(logs).max(where=~zero, initial=0.0))
    need = n * (largest / math.log(2.0) + 3)
    if need > _EXP_BUDGET[np.int64]:
        raise ValidationError(f"log e-values of magnitude {largest:.6g} are too large for n = {n}")
    dtype = np.int32 if need <= _EXP_BUDGET[np.int32] else np.int64
    m, x = np.zeros((rows, width)), np.full((rows, width), -4 * _EXP_BUDGET[dtype], dtype)
    m_n, x_n = m[:, :n], x[:, :n]
    normal = (logs >= _LOG_TINY) & (logs <= _LOG_HUGE)
    np.frexp(np.exp(logs, out=None, where=normal), out=(m_n, x_n), where=normal)
    other = ~(normal | zero)
    # E = 2^k e^r, k = floor(log E / ln 2).  k * _LN2_HI comes off log E exactly in
    # pieces of k of at most 28 bits (_LN2_HI has 25), largest first, with k's sign.
    k = np.floor(logs[other] / math.log(2.0))
    low56, low28 = np.fmod(k, 2.0**56), np.fmod(k, 2.0**28)
    r = logs[other] - (k - low56) * _LN2_HI - (low56 - low28) * _LN2_HI - low28 * _LN2_HI
    m_n[other], e = np.frexp(np.exp(r - k * _LN2_LO))
    x_n[other] = k.astype(dtype) + e
    return m, x


def _base_scales(x: np.ndarray, b0: int) -> tuple[np.ndarray, np.ndarray]:
    """Each base block's scale exponent tau, (rows, blocks), and which
    rows pass the range test, from the entries' binary exponents x.

    With h = _BLOCK_BITS // b0 - 1, tau is the value nearest 0 that puts
    every x - tau of a block's nonzero entries in [-h, h]; it exists when
    max x - min x <= 2h, always so at b0 = 1.  Then every scaled entry
    E 2^-tau lies in [2^-(h+1), 2^h), every product of up to b0 of them
    in [2^-b0(h+1), 2^b0h) and every sum of them below
    2^b0(h+1) <= 2^_BLOCK_BITS: all are normal floats.
    """
    h = _BLOCK_BITS // b0 - 1
    x = x.reshape(x.shape[0], x.shape[1] // b0, b0)
    zero = -4 * _EXP_BUDGET[x.dtype.type]
    hi = np.maximum.reduce(x, axis=2)
    lo = np.minimum.reduce(np.where(x == zero, -zero, x), axis=2)
    tau = np.minimum(np.maximum(hi - h, 0), lo + h)
    return tau, np.logical_and.reduce(hi - lo <= 2 * h, axis=1)


def _fast_sums(m, x, tau, b0: int, fans: tuple[int, ...], columns: int) -> np.ndarray:
    """The linear-domain kernel's first ``columns`` sums (at most n + 1)
    of the entries m 2^x with the entries of base block t scaled by
    2^-tau_t; x and tau None mean plain entries m.  The base blocks run
    whole, and every fold level at the limit."""
    blocks, powers = m[:, : b0 * math.prod(fans)], None
    if tau is not None:
        blocks = np.ldexp(blocks, x[:, : blocks.shape[1]] - np.repeat(tau, b0, axis=1))
        # s_j is S_j 2^-powers_j
        powers = tau.reshape(-1, 1) * np.arange(min(b0 + 1, columns), dtype=tau.dtype)
    blocks = blocks.reshape(-1, b0)
    s = np.zeros((blocks.shape[0], b0 + 1))
    s[:, 0] = 1.0
    lo, hi, buf = s[:, :b0], s[:, 1:], np.empty_like(blocks)
    for column in blocks.T[:, :, None]:
        # full width: past the current degree s holds exact zeros
        np.multiply(lo, column, out=buf)
        np.add(hi, buf, out=hi)
    s = s[:, :columns]
    if not fans:
        return _log(s) if powers is None else _log_from_parts(s, powers, 1020 - _BLOCK_BITS)
    mu, g = np.frexp(s)
    g = g if powers is None else g + powers
    g[mu == 0] = -4 * _EXP_BUDGET[g.dtype.type]
    with np.errstate(under="ignore"):
        for fan in fans:
            shape = (-1, fan, mu.shape[1])
            mu, g = _fold(mu.reshape(shape), g.reshape(shape), columns)
    return _log_from_parts(mu, g, 1000)


def _fold(mu: np.ndarray, g: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``columns`` sums of each group of blocks from the
    blocks' sums mu 2^g, an exact zero having the zero exponent:
    (groups, fan, d + 1) -> (groups, min(fan * d + 1, columns))
    mantissas in [1/2, 1) and exponents, for d + 1 <= ``columns``.

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
    terms below 2^-1022 of the largest underflow.  A call costs about
    groups * fan * d multiply-adds per output column.
    """
    groups, fan, d1 = mu.shape
    d = d1 - 1
    width = min(fan * d + 1, columns)
    zero = -4 * _EXP_BUDGET[g.dtype.type]
    # d leading zero columns let every window start at column 0
    M = np.zeros((groups, d + width))
    X = np.full((groups, d + width), zero, dtype=g.dtype)
    M[:, d : d + d1], X[:, d : d + d1] = mu[:, 0], g[:, 0]
    # window[r, i, j] = column j - i
    Mw = np.ndarray((groups, d1, width), M.dtype, M, d * 8, (M.strides[0], -8, 8))
    w = X.itemsize
    Xw = np.ndarray((groups, d1, width), X.dtype, X, d * w, (X.strides[0], -w, w))
    step = max(2, _CELLS // (groups * d1))
    cells = groups * d1 * min(step + 1, width)
    ebuf, tbuf = np.empty(cells, dtype=X.dtype), np.empty(cells)
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
            np.copyto(dst, zero, where=col == 0)
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
        # far * _LN2_HI is exact while |far| < 2^28: 25 significant bits
        logs += far * _LN2_LO
        logs += far * _LN2_HI
    return logs
