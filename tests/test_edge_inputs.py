"""Every public statistic on edge inputs, with numpy warnings as errors.

Zeros, infinities, subnormals, magnitudes near 1e+-308 and exact ties
are all legal e-values; none of them may make a library call leak a
RuntimeWarning, whatever the warning filters of the caller.
"""

import math
import warnings

import numpy as np
import pytest

from evalcomb.betting import log_wealth, optimize_lambda, optimize_lambda_batch
from evalcomb.core import validate_evalues
from evalcomb.errors import ValidationError
from evalcomb.sympoly import log_averages_batch, log_esp, log_esp_batch, symmetric_averages
from evalcomb.testkit import test_max_average, test_optimized_betting, test_ville
from oracles import identity_residuals

EDGE_VECTORS = [
    [0.0],
    [0.0, 0.0, 0.0],
    [math.inf],
    [0.0, math.inf],
    [math.inf, 0.5, 0.0],
    [1e-320, 5.0],
    [5e-324, 1e-310, 3.0],
    [1e308, 1e308],
    [1e308, 1e308, 0.5],
    [1e308, 0.0, 3.0],
    [1e-308, 1e-308],
    [1e300, 1e300, 1e300, 1e300],
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [2.0, 2.0, 2.0, 0.5],
    [8.0, 0.0],
]


def _long(*head, fill=1.5, n=150):
    """A vector longer than two base blocks of the linear-domain kernel,
    with the given entries at its start and ``fill`` elsewhere."""
    return list(head) + [fill] * (n - len(head))


# Longer than the kernel's blocks: magnitudes that force base-block
# scaling or blocks of one entry, and an inf with its closed form, next
# to ordinary entries.
EDGE_VECTORS += [
    _long(1e300, 1e-300),
    _long(1e300, 1e300, 1e300, fill=1e-300),
    _long(fill=1e300),
    _long(fill=1e-300),
    _long(5e-324, 1e-310, 2.0),
    _long(fill=1e-310),
    _long(0.0, math.inf, 0.5),
    _long(0.0, math.inf, fill=0.0),
    _long(1e308, 1e308, 0.0),
    _long(fill=1.0, n=600),
]


def _vector_id(values):
    if len(values) <= 8:
        return str(values)
    return f"{values[:3]}+{len(values) - 3}x{values[-1]}"


@pytest.mark.parametrize("values", EDGE_VECTORS, ids=_vector_id)
def test_public_statistics_are_warning_clean(values):
    ev = validate_evalues(values)
    steps = np.resize([0.0, 1.0, 0.5], ev.n)
    log_rows = np.repeat(ev.log_values[None], 2, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log_esp(ev.log_values)
        symmetric_averages(ev)
        log_averages_batch(log_rows)
        for lam in (0.0, 0.5, 1.0):
            log_wealth(log_rows, lam)
        optimize_lambda(ev)
        optimize_lambda_batch(log_rows)
        log_wealth(log_rows, steps)
        for alpha in (0.5, 0.05):
            test_max_average(ev, alpha)
            test_optimized_betting(ev, alpha)
            test_ville(ev, 0.5, alpha)
            test_ville(ev, steps, alpha)


@pytest.mark.parametrize("values", EDGE_VECTORS, ids=_vector_id)
def test_identity_residuals_vanish_or_refuse(values):
    """The kernel's sums and averages satisfy the telescoping identity on
    every edge vector whose sums fit in linear scale, where the check
    works; it refuses the others without an overflow warning."""
    ev = validate_evalues(values)
    sums_fit = bool(np.all(log_esp(ev.log_values) < math.log(np.finfo(float).max)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if sums_fit:
            assert np.max(np.abs(identity_residuals(ev))) < 1e-10
        else:
            with pytest.raises(ValidationError):
                identity_residuals(ev)


@pytest.mark.parametrize(
    "kernel",
    [log_esp_batch, log_averages_batch, optimize_lambda_batch, lambda rows: log_wealth(rows, 0.5)],
    ids=["log_esp_batch", "log_averages_batch", "optimize_lambda_batch", "log_wealth"],
)
def test_batch_kernels_refuse_nan(kernel):
    """NaN is no e-value: a row-wise kernel refuses it instead of reading
    it as some number."""
    with pytest.raises(ValidationError, match="NaN"):
        kernel(np.array([[1.0, 0.0], [math.nan, 0.0]]))
