"""Every public statistic on edge inputs, with numpy warnings as errors.

Zeros, infinities, subnormals, magnitudes near 1e+-308 and exact ties
are all legal e-values; none of them may make a library call leak a
RuntimeWarning, whatever the warning filters of the caller.
"""

import math
import warnings

import numpy as np
import pytest

from evalcomb.betting import (
    log_wealth,
    optimize_lambda,
    optimize_lambda_batch,
    product_value,
    score_derivative,
)
from evalcomb.core import validate_evalues
from evalcomb.errors import ValidationError
from evalcomb.sympoly import (
    identity_residuals,
    log_averages_batch,
    log_esp,
    mixture_value,
    symmetric_averages,
)
from evalcomb.testkit import test_max_average, test_optimized_betting, test_ville

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


@pytest.mark.parametrize("values", EDGE_VECTORS, ids=str)
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
            product_value(ev, lam)
            mixture_value(ev, lam)
        if not np.isposinf(ev.log_values).any():
            for lam in (0.0, 0.5):
                score_derivative(ev, lam)
        optimize_lambda(ev)
        optimize_lambda_batch(log_rows)
        log_wealth(log_rows, steps)
        for alpha in (0.5, 0.05):
            test_max_average(ev, alpha)
            test_optimized_betting(ev, alpha)
            test_ville(ev, 0.5, alpha)
            test_ville(ev, steps, alpha)


@pytest.mark.parametrize("values", EDGE_VECTORS, ids=str)
def test_identity_residuals_vanish_or_refuse(values):
    """The identity check works in linear scale: it either gives
    near-zero residuals or refuses sums beyond the float range, but
    never leaks an overflow."""
    ev = validate_evalues(values)
    sums_fit = bool(np.all(log_esp(ev.log_values) < math.log(np.finfo(float).max)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if sums_fit:
            assert np.max(np.abs(identity_residuals(ev))) < 1e-10
        else:
            with pytest.raises(ValidationError):
                identity_residuals(ev)
