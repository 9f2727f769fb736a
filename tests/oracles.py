"""Reference implementations that the package's fast paths are checked
against.  They share no code with the paths they check."""

import itertools

import numpy as np

from evalcomb.core import LOG_ZERO, EValueVector, LogValue, logsumexp_1d
from evalcomb.errors import ValidationError

_NAIVE_MAX_N = 22


def naive_symmetric_sums(E: EValueVector) -> tuple[LogValue, ...]:
    """S_0 .. S_n by brute-force subset enumeration (oracle path).

    Walks all 2^n subsets and sums each subset's product explicitly,
    sharing no code with :func:`evalcomb.sympoly.symmetric_sums`.  Refuses n > 22.
    """
    n = E.n
    if n > _NAIVE_MAX_N:
        raise ValidationError(
            f"subset enumeration is limited to n <= {_NAIVE_MAX_N}, got {n}"
        )
    logs = [float(v) for v in E.log_values]
    out = [LogValue(0.0)]
    for k in range(1, n + 1):
        terms = []
        for combo in itertools.combinations(logs, k):
            if LOG_ZERO in combo:
                terms.append(LOG_ZERO)
            else:
                terms.append(sum(combo))
        out.append(LogValue(logsumexp_1d(np.array(terms))))
    return tuple(out)
